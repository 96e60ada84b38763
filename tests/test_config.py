"""Config parsing, overrides and manifest digests."""

import hashlib
import json

import numpy as np
import pytest

from craterpipe import config as config_mod
from craterpipe.config import apply_overrides, load_config, sha256_file, write_manifest
from craterpipe.errors import ConfigError

from scene import plant_craters, write_scene


def test_load_config_round_trip(tmp_path):
    path = write_scene(tmp_path, plant_craters(4))
    cfg = load_config(path)
    assert cfg.seed == 9
    assert cfg.bands[0].ps_a == 256
    assert cfg.detector.kind == "synthetic"
    assert cfg.detector.noise.seed == 9  # noise seeded from the top-level seed
    assert cfg.nms_delta == 0.2
    assert cfg.eval.u == 0.3
    assert cfg.resolve(cfg.truth_catalog.path) == tmp_path / "truth.csv"


def test_explicit_null_optional_floats_parse_as_none(tmp_path):
    path = write_scene(tmp_path, plant_craters(2))
    raw = json.loads(path.read_text())
    raw["detector"]["score_floor"] = None
    raw["truth_catalog"].update(dmin_km=None, dmax_km=None)
    raw["eval"].update(size_floor_km=None, size_ceiling_km="7.5")
    path.write_text(json.dumps(raw))
    cfg = load_config(path)
    assert raw["bands"][0]["dmax_km"] is None and cfg.bands[0].dmax_km is None
    assert cfg.detector.score_floor is None
    assert (cfg.truth_catalog.dmin_km, cfg.truth_catalog.dmax_km) == (None, None)
    assert (cfg.eval.size_floor_km, cfg.eval.size_ceiling_km) == (None, 7.5)


def test_load_config_missing_file(tmp_path):
    with pytest.raises(ConfigError, match="not found"):
        load_config(tmp_path / "no.json")


def test_load_config_invalid_json(tmp_path):
    p = tmp_path / "c.json"
    p.write_text("{nope")
    with pytest.raises(ConfigError, match="invalid JSON"):
        load_config(p)


def test_config_requires_bands_and_rasters(tmp_path):
    p = tmp_path / "c.json"
    p.write_text(json.dumps({"bands": []}))
    with pytest.raises(ConfigError, match="size band"):
        load_config(p)
    p.write_text(json.dumps({"bands": [{"ps_a": 256, "ps_r": 128}]}))
    with pytest.raises(ConfigError, match="intensity and elevation"):
        load_config(p)


def test_config_rejects_overlapping_bands(tmp_path):
    p = tmp_path / "c.json"
    p.write_text(
        json.dumps(
            {
                "rasters": {"intensity": "i.bin", "elevation": "e.bin"},
                "bands": [
                    {"name": "a", "ps_a": 256, "ps_r": 128, "dmin_km": 0, "dmax_km": 10},
                    {"name": "b", "ps_a": 256, "ps_r": 128, "dmin_km": 5, "dmax_km": 20},
                ],
            }
        )
    )
    with pytest.raises(ConfigError, match="overlap"):
        load_config(p)


def test_external_detector_needs_path(tmp_path):
    p = tmp_path / "c.json"
    p.write_text(
        json.dumps(
            {
                "rasters": {"intensity": "i.bin", "elevation": "e.bin"},
                "bands": [{"ps_a": 256, "ps_r": 128}],
                "detector": {"kind": "external"},
            }
        )
    )
    with pytest.raises(ConfigError, match="detections path"):
        load_config(p)


def test_apply_overrides(tmp_path):
    cfg = load_config(write_scene(tmp_path, plant_craters(2)))
    new = apply_overrides(
        cfg, seed=123, workers=4, m=5, delta=0.4, u=0.5, size_floor_km=5.0, out="elsewhere"
    )
    assert new.seed == 123
    assert new.detector.noise.seed == 123
    assert new.workers == 4
    assert new.boundary_m == 5
    assert new.nms_delta == 0.4
    assert new.eval.u == 0.5
    assert new.eval.size_floor_km == 5.0
    assert new.out_dir == "elsewhere"
    # untouched fields survive
    assert new.bands == cfg.bands
    no_nms = apply_overrides(cfg, no_nms=True)
    assert not no_nms.nms_enabled


def test_manifest_lists_all_outputs_with_matching_digests(tmp_path):
    cfg = load_config(write_scene(tmp_path, plant_craters(2)))
    out_dir = tmp_path / "out"
    out_dir.mkdir()
    f1 = out_dir / "a.txt"
    f1.write_text("alpha")
    f2 = out_dir / "b.txt"
    f2.write_text("beta")
    inputs = config_mod.file_digests([tmp_path / "truth.csv"])
    write_manifest(out_dir, cfg, {"total": 0.5}, inputs, [f1, f2])
    manifest = json.loads((out_dir / "manifest.json").read_text())
    assert set(manifest["outputs"]) == {"a.txt", "b.txt"}
    for rel, digest in manifest["outputs"].items():
        assert digest == sha256_file(out_dir / rel)
    assert manifest["inputs"][str(tmp_path / "truth.csv")] == sha256_file(tmp_path / "truth.csv")
    assert manifest["config"]["seed"] == 9


def test_manifest_takes_input_digests_already_computed(tmp_path):
    cfg = load_config(write_scene(tmp_path, plant_craters(2)))
    out_dir = tmp_path / "out"
    out_dir.mkdir()
    inputs = [tmp_path / "truth.csv", tmp_path / "config.json"]
    write_manifest(out_dir, cfg, {}, config_mod.file_digests(inputs), [])
    manifest = json.loads((out_dir / "manifest.json").read_text())
    assert list(manifest["inputs"].items()) == [(str(p), sha256_file(p)) for p in inputs]


CHUNK = config_mod._HASH_CHUNK


@pytest.mark.parametrize("size", [0, 1, CHUNK - 1, CHUNK, CHUNK + 1, 3 * CHUNK + 7])
def test_sha256_file_equals_hashlib_at_chunk_edges(tmp_path, size):
    data = np.random.default_rng(size).bytes(size)
    path = tmp_path / "blob"
    path.write_bytes(data)
    assert sha256_file(path) == hashlib.sha256(data).hexdigest()


def test_integral_floats_load_as_the_integers(tmp_path):
    path = write_scene(tmp_path, plant_craters(2))
    as_ints = load_config(path)
    raw = json.loads(path.read_text())
    raw.update(seed=9.0, workers=1.0, boundary_m=10.0)
    raw["bands"][0].update(ps_a=256.0, ps_r=128.0)
    raw["grid"]["m_set"] = [0.0, 1.0, 5.0, 10.0]
    path.write_text(json.dumps(raw))
    cfg = load_config(path)
    assert cfg == as_ints
    assert all(type(v) is int for v in (cfg.seed, cfg.workers, cfg.boundary_m, cfg.bands[0].ps_a, *cfg.grid.m_set))
