"""Config parsing, overrides and manifest digests."""

import copy
import hashlib
import json
import math
import re
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from craterpipe import config as config_mod
from craterpipe.config import BandConfig, PipelineConfig, load_config, sha256_file, write_manifest
from craterpipe.detector import NoiseConfig
from craterpipe.errors import ConfigError, PipelineError
from craterpipe.evaluate import EvalConfig

from reference import config_from_reference
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
    raw["eval"].update(size_floor_km=None, size_ceiling_km=7.5)
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


def test_unset_fields_take_the_class_defaults(tmp_path):
    p = tmp_path / "c.json"
    p.write_text(json.dumps({"rasters": {"single_band": "b.bin"}, "bands": [{"ps_a": 256, "ps_r": 128}]}))
    cfg = load_config(p)
    default = PipelineConfig()
    for f in fields(PipelineConfig):
        if f.name not in ("single_band_path", "bands", "base_dir"):
            assert getattr(cfg, f.name) == getattr(default, f.name), f.name
    assert cfg.bands == (BandConfig("band0", 256, 128),)


@pytest.mark.parametrize("name", ["", ".", "..", "a/b", "../escape", "./b", "a\\b", "b/"])
def test_a_band_name_must_be_one_plain_folder_name(tmp_path, name):
    p = tmp_path / "c.json"
    band = {"ps_a": 256, "ps_r": 128}
    bands = [{**band, "name": "ok", "dmax_km": 5.0}, {**band, "name": name, "dmin_km": 5.0}]
    p.write_text(json.dumps({"rasters": {"single_band": "b.bin"}, "bands": bands}))
    with pytest.raises(ConfigError) as err:
        load_config(p)
    assert str(err.value) == f"{p}: bands.1.name {name!r} is not one plain folder name"


def test_a_band_name_may_hold_dots_and_spaces(tmp_path):
    p = tmp_path / "c.json"
    band = {"name": "..b c.", "ps_a": 256, "ps_r": 128}
    p.write_text(json.dumps({"rasters": {"single_band": "b.bin"}, "bands": [band]}))
    assert load_config(p).bands[0].name == "..b c."


@pytest.mark.parametrize("three", [["intensity"], ["elevation", "slope"], ["intensity", "elevation", "slope"]])
def test_single_band_is_set_instead_of_the_three_band_rasters(tmp_path, three):
    p = tmp_path / "c.json"
    rasters = {"single_band": "b.bin", **{k: f"{k}.bin" for k in three}}
    p.write_text(json.dumps({"rasters": rasters, "bands": [{"ps_a": 256, "ps_r": 128}]}))
    with pytest.raises(ConfigError) as err:
        load_config(p)
    keys = ", ".join(f"rasters.{k}" for k in three)
    assert str(err.value) == f"{p}: rasters.single_band is set together with {keys}"


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


def test_manifest_lists_all_outputs_with_matching_digests(tmp_path):
    cfg = load_config(write_scene(tmp_path, plant_craters(2)))
    out_dir = tmp_path / "out"
    out_dir.mkdir()
    f1 = out_dir / "a.txt"
    f1.write_text("alpha")
    f2 = out_dir / "b.txt"
    f2.write_text("beta")
    write_manifest(out_dir, cfg, {"total": 0.5}, [tmp_path / "truth.csv"], [f1, f2])
    manifest = json.loads((out_dir / "manifest.json").read_text())
    assert set(manifest["outputs"]) == {"a.txt", "b.txt"}
    for rel, digest in manifest["outputs"].items():
        assert digest == sha256_file(out_dir / rel)
    assert manifest["inputs"][str(tmp_path / "truth.csv")] == sha256_file(tmp_path / "truth.csv")
    assert manifest["config"]["seed"] == 9


def test_manifest_digests_inputs_in_order(tmp_path):
    cfg = load_config(write_scene(tmp_path, plant_craters(2)))
    out_dir = tmp_path / "out"
    out_dir.mkdir()
    inputs = [tmp_path / "truth.csv", tmp_path / "config.json"]
    write_manifest(out_dir, cfg, {}, inputs, [])
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


@pytest.mark.parametrize(
    "cls, key",
    [
        (NoiseConfig, "center_jitter_px"),
        (NoiseConfig, "radius_jitter_frac"),
        (NoiseConfig, "false_positive_rate"),
        (EvalConfig, "size_floor_km"),
        (EvalConfig, "size_ceiling_km"),
    ],
)
def test_section_built_directly_refuses_nan(cls, key):
    """NaN fails every comparison, so each range check must be written to fail on it."""
    with pytest.raises(PipelineError, match="non-negative|must be below"):
        cls(**{key: math.nan})


# Each key of a config, and each band, draws one of these kinds: absent, null,
# a valid value, or a value of the wrong kind. A spec maps each key to
# (valid, wrong): valid is a strategy, a nested spec (a section) or a one-item
# list holding a spec (a list of sections); wrong lists values of another
# JSON kind.
FAULTS = ("absent", "null", "wrong")
KINDS = (*FAULTS, "valid")
ABSENT = object()
NUMBER, TEXT, FLAG = ["x", "7", True, [1.0], {"a": 1}], [5, True, ["x"]], ["false", 1]
LIST, OBJECT = ["x", 5, True, {"a": 1}, [1.0, 2.0, 3.0]], ["x", 5, [1]]  # a list may also be of another length


def _values(*values):
    return st.sampled_from(values)


CATALOG = {
    "path": (_values("truth.csv"), TEXT),
    "schema": (_values("generic", "robbins", {"lon": "a", "lat": "b", "diam_km": "c"}), TEXT),
    "region": (_values([0, 10, -5, 5], [-10.0, 0.0, -5.0, 5.0]), LIST),
    "dmin_km": (_values(0.0, 1.0), NUMBER),
    "dmax_km": (_values(20.0), NUMBER),
}
SPEC = {
    "seed": (_values(0, 9, 9.0), NUMBER),
    "workers": (_values(1, 2), NUMBER),
    "out_dir": (_values("out"), TEXT),
    "scale_mode": (_values("patch", "mosaic"), TEXT),
    "rasters": ({k: (_values(f"{k}.bin"), TEXT) for k in ("intensity", "elevation", "slope", "single_band")}, OBJECT),
    "bands": ([{
        "name": (_values("b"), TEXT),
        "ps_a": (_values(256, 200), NUMBER),
        "ps_r": (_values(128, 100), NUMBER),
        "overlap": (_values(0.5, 0.25), NUMBER),
        "dmin_km": (_values(0.0, 1.0), NUMBER),
        "dmax_km": (_values(20.0, 60.0), NUMBER),
    }], OBJECT),
    "detector": ({
        "kind": (_values("synthetic", "external"), TEXT),
        "noise": ({
            **{k: (_values(0.0, 0.5), NUMBER) for k in ("center_jitter_px", "radius_jitter_frac", "miss_rate")},
            "false_positive_rate": (_values(0.0, 2.0), NUMBER),
            "fp_radius_px": (_values([12.5, 50.0], [5, 10]), LIST),
        }, OBJECT),
        "path": (_values("dets.csv"), TEXT),
        "score_floor": (_values(0.5), NUMBER),
    }, OBJECT),
    "truth_catalog": (CATALOG, OBJECT),
    "verify_catalog": (CATALOG, OBJECT),
    "geotransform": ({
        "x_min": (_values(0.0), NUMBER),
        "y_max": (_values(0.0), NUMBER),
        "resolution": (_values(100.0, 50.0), NUMBER),
        "body_radius": (_values(1_737_400.0), NUMBER),
    }, OBJECT),
    "boundary_m": (_values(10, 0), NUMBER),
    "nms": ({"delta": (_values(0.2, 0.5), NUMBER), "enabled": (st.booleans(), FLAG)}, OBJECT),
    "eval": ({
        "u": (_values(0.3, 1), NUMBER),
        "size_floor_km": (_values(1.0), NUMBER),
        "size_ceiling_km": (_values(10.0, 2.5), NUMBER),
    }, OBJECT),
    "grid": ({
        "m_set": (_values([0, 1], [5.0]), LIST),
        "delta_set": (_values([0.1, 0.2]), LIST),
        "include_no_nms": (st.booleans(), FLAG),
    }, OBJECT),
}


def _paths(spec, where=""):
    """Every key path of a spec; a list of sections contributes its first item."""
    for key, (valid, _) in spec.items():
        yield where + key
        if isinstance(valid, list):
            yield f"{where}{key}.0"
            valid = valid[0]
            key += ".0"
        if isinstance(valid, dict):
            yield from _paths(valid, f"{where}{key}.")


PATHS = tuple(_paths(SPEC))


@st.composite
def raw_configs(draw, target=None):
    """A JSON config. With no target every key draws its kind; otherwise the
    key at path target draws a kind other than valid and every other key is
    valid, so that a single fault meets a config that would otherwise load."""

    def one(valid, wrong, path):
        if target is None:
            kind = draw(st.sampled_from(KINDS))
        else:
            kind = draw(st.sampled_from(FAULTS)) if path == target else "valid"
        if kind == "wrong":
            return draw(st.sampled_from(wrong))
        if kind != "valid":
            return ABSENT if kind == "absent" else None
        if isinstance(valid, dict):
            return fill(valid, f"{path}.")
        if isinstance(valid, list):
            n = 1 if target else draw(st.integers(1, 2))  # two bands of one spec may overlap
            items = [one(valid[0], OBJECT, f"{path}.{i}") for i in range(n)]
            return [item for item in items if item is not ABSENT]
        return draw(valid)

    def fill(spec, where=""):
        items = ((key, one(valid, wrong, where + key)) for key, (valid, wrong) in spec.items())
        return {key: v for key, v in items if v is not ABSENT}

    raw = fill(SPEC)
    if target is not None and isinstance(raw.get("rasters"), dict):
        # a config sets one stack mode, the target's
        single = target == "rasters.single_band"
        for key in ("intensity", "elevation", "slope") if single else ("single_band",):
            raw["rasters"].pop(key, None)
    return raw


def _reads_as_the_reference(tmp_path, raw):
    """Every config the field-by-field reference reads, the tables read to an
    equal config; every config it refuses, they refuse naming the file."""
    path = tmp_path / "config.json"
    path.write_text(json.dumps(raw))
    try:
        expected = config_from_reference(copy.deepcopy(raw), tmp_path)
        expected.validate()
    except (KeyError, AttributeError, TypeError, ValueError, PipelineError):
        with pytest.raises(ConfigError, match=re.escape(f"{path}: ")):
            load_config(path)
    else:
        assert load_config(path) == expected


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(raw=raw_configs())
def test_key_tables_read_as_the_reference_reader(tmp_path, raw):
    _reads_as_the_reference(tmp_path, raw)


@pytest.mark.parametrize("target", PATHS)
@settings(max_examples=12, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_one_faulty_key_reads_as_the_reference_reader(tmp_path, target, data):
    _reads_as_the_reference(tmp_path, data.draw(raw_configs(target)))
