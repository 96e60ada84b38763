"""End-to-end CLI tests: subcommands, exit codes, determinism, file formats."""

import csv
import json
import math
import threading

import numpy as np
import pytest

from craterpipe import config as config_mod
from craterpipe.catalog import load_catalog
from craterpipe.cli import main
from craterpipe.config import load_config, sha256_file
from craterpipe.geo import GeoTransform
from craterpipe.raster import RasterGrid, load_raster, save_raster
from craterpipe.runner import _input_paths, _load_truth

from conftest import planar_dem
from reference import brute_force_metrics
from scene import RESOLUTION, plant_craters, write_scene


GT = GeoTransform(x_min=0.0, y_max=0.0, resolution=RESOLUTION, body_radius=1_737_400.0)


def read_metrics(out_dir):
    with open(out_dir / "metrics.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    return dict(zip(rows[0], rows[1]))


# ---------------------------------------------------------------------------
# slope command


def test_cmd_slope_planar(tmp_path, capsys):
    dem = planar_dem(16, gx=0.5)
    save_raster(dem, tmp_path / "dem.bin")
    rc = main(["slope", str(tmp_path / "dem.bin"), str(tmp_path / "slope.bin")])
    assert rc == 0
    out = load_raster(tmp_path / "slope.bin")
    assert out.band_kind == "slope"
    assert abs(out.values[5, 5] - math.degrees(math.atan(0.5))) < 0.01


def test_cmd_slope_flat(tmp_path):
    save_raster(planar_dem(8), tmp_path / "dem.bin")
    assert main(["slope", str(tmp_path / "dem.bin"), str(tmp_path / "s.bin")]) == 0
    assert np.all(load_raster(tmp_path / "s.bin").values == 0.0)


def test_cmd_slope_missing_input_names_path(tmp_path, capsys):
    rc = main(["slope", str(tmp_path / "ghost.bin"), str(tmp_path / "s.bin")])
    assert rc == 2
    assert "ghost.bin" in capsys.readouterr().err


def test_cmd_slope_overwrites_its_own_dem(tmp_path):
    dem = planar_dem(16, gx=0.5)
    path = tmp_path / "dem.bin"
    save_raster(dem, path, dtype="float32")
    assert main(["slope", str(path), str(path)]) == 0
    out = load_raster(path)
    assert out.band_kind == "slope"
    assert abs(out.values[5, 5] - math.degrees(math.atan(0.5))) < 0.01


def test_raster_payload_that_is_a_directory_exits_two(tmp_path, capsys):
    save_raster(planar_dem(8), tmp_path / "dem.bin")
    (tmp_path / "dem.bin").unlink()
    (tmp_path / "dem.bin").mkdir()
    assert main(["slope", str(tmp_path / "dem.bin"), str(tmp_path / "s.bin")]) == 2
    err = capsys.readouterr().err
    assert f"{tmp_path / 'dem.bin'}: raster payload is not a regular file" in err, err


def _dem_with_stray_nan(path, n=16):
    """A DEM with one NaN cell and no nodata sentinel to mark it."""
    dem = planar_dem(n, gx=0.5)
    values = dem.values.copy()
    values[7, 9] = np.nan
    save_raster(RasterGrid(n, n, "elevation", values, dem.geotransform), path, dtype="float32")


def test_cmd_slope_rejects_nan_the_sentinel_does_not_mark(tmp_path, capsys):
    _dem_with_stray_nan(tmp_path / "dem.bin")
    capsys.readouterr()
    assert main(["slope", str(tmp_path / "dem.bin"), str(tmp_path / "s.bin")]) == 2
    err = capsys.readouterr().err
    assert f"{tmp_path / 'dem.bin'}: elevation holds NaN cells that its nodata sentinel (none) does not mark" in err, err
    assert not (tmp_path / "s.bin").exists()


def test_cmd_tile_rejects_nan_the_sentinel_does_not_mark(tmp_path, capsys):
    config = write_scene(
        tmp_path, plant_craters(2), extra_config={"verify_catalog": {"path": "truth.csv", "schema": "generic"}}
    )
    _dem_with_stray_nan(tmp_path / "dem.bin", n=512)
    capsys.readouterr()
    assert main(["tile", "--config", str(config)]) == 2
    err = capsys.readouterr().err
    assert f"{tmp_path / 'dem.bin'}: elevation holds NaN cells that its nodata sentinel (none) does not mark" in err, err
    # the commands that read no DEM values are unaffected
    for command in (["run"], ["detect"], ["gridsearch"], ["crossmatch"], ["tile", "--no-export-images"]):
        assert main(command + ["--config", str(config)]) == 0, command


def test_cmd_tile_checks_unmarked_nan_after_the_stack(tmp_path, capsys):
    """tile checks the elevation for unmarked NaN where it first reads its
    values, after every check of the stack: a DEM that also resamples to the
    wrong size reports the size. Resampled to the right size, it reports the
    NaN."""
    config = write_scene(tmp_path, plant_craters(2))
    for n, resolution, message in (
        # 171 px at 300.7 m/px resample to ceil(514.197) = 515 px
        (171, 300.7, "elevation grid 515x515 does not match intensity 512x512"),
        (256, 200.0, f"{tmp_path / 'dem.bin'}: elevation holds NaN cells that its nodata sentinel (none) does not mark"),
    ):
        values = planar_dem(n, gx=0.5, resolution=resolution).values.copy()
        values[7, 9] = np.nan
        gt = GeoTransform(0.0, 0.0, resolution, 1_737_400.0)
        save_raster(RasterGrid(n, n, "elevation", values, gt), tmp_path / "dem.bin", dtype="float32")
        capsys.readouterr()
        assert main(["tile", "--config", str(config)]) == 2
        err = capsys.readouterr().err
        assert message in err, err


def _nan_block(path, band, n):
    """A raster with a 10x10 block of NaN cells and no nodata sentinel."""
    values = np.random.default_rng(1).random((n, n), dtype=np.float32)
    values[100:110, 100:110] = np.nan
    save_raster(RasterGrid(n, n, band, values, GT), path, dtype="float32")


@pytest.mark.parametrize("scale_mode", ["patch", "mosaic"])
def test_cmd_tile_rejects_unmarked_nan_in_a_single_band(tmp_path, capsys, scale_mode):
    """Byte scaling would turn the NaN cells into zero bytes: the patch
    holding them, or in mosaic mode every patch, since the range is NaN."""
    config = write_scene(tmp_path, plant_craters(2), extra_config={"scale_mode": scale_mode})
    _nan_block(tmp_path / "band.bin", "intensity", 256)
    cfg = json.loads(config.read_text())
    cfg["rasters"] = {"single_band": "band.bin"}
    config.write_text(json.dumps(cfg))
    capsys.readouterr()
    assert main(["tile", "--config", str(config)]) == 2
    err = capsys.readouterr().err
    want = f"{tmp_path / 'band.bin'}: intensity holds NaN cells that its nodata sentinel (none) does not mark (100 of 65536)"
    assert want in err, err
    assert main(["tile", "--no-export-images", "--config", str(config)]) == 0


@pytest.mark.parametrize("nan_in", [("intensity",), ("intensity", "dem")], ids=["intensity", "intensity-and-dem"])
def test_cmd_tile_rejects_unmarked_nan_in_the_intensity_first(tmp_path, capsys, nan_in):
    """The intensity is checked as the elevation is, and before it."""
    config = write_scene(tmp_path, plant_craters(2))
    for name in nan_in:
        _nan_block(tmp_path / f"{name}.bin", "intensity" if name == "intensity" else "elevation", 512)
    capsys.readouterr()
    assert main(["tile", "--config", str(config)]) == 2
    err = capsys.readouterr().err
    want = f"{tmp_path / 'intensity.bin'}: intensity holds NaN cells that its nodata sentinel (none) does not mark"
    assert want in err and "dem.bin" not in err, err


# ---------------------------------------------------------------------------
# exit codes


def test_usage_errors_exit_one(tmp_path, capsys):
    assert main(["run"]) == 1  # missing required --config
    assert main(["frobnicate"]) == 1  # unknown command
    capsys.readouterr()


def test_data_error_exits_two(tmp_path, capsys):
    config = write_scene(tmp_path, plant_craters(2))
    (tmp_path / "intensity.bin").unlink()
    rc = main(["run", "--config", str(config)])
    assert rc == 2
    assert "intensity.bin" in capsys.readouterr().err


def test_gridsearch_rejects_two_bands_before_loading_rasters(tmp_path, capsys):
    two_bands = [
        {"name": "fine", "ps_a": 128, "ps_r": 64, "overlap": 0.5, "dmin_km": 0.0, "dmax_km": 5.0},
        {"name": "coarse", "ps_a": 256, "ps_r": 128, "overlap": 0.5, "dmin_km": 5.0, "dmax_km": None},
    ]
    config = write_scene(tmp_path, plant_craters(2), extra_config={"bands": two_bands})
    (tmp_path / "intensity.bin").unlink()
    capsys.readouterr()
    assert main(["gridsearch", "--config", str(config)]) == 2
    err = capsys.readouterr().err
    assert "gridsearch expects exactly one size band" in err, err
    assert "raster payload not found" not in err


def test_external_run_rejects_two_bands_before_loading_rasters(tmp_path, capsys):
    two_bands = [
        {"name": "fine", "ps_a": 128, "ps_r": 64, "overlap": 0.5, "dmin_km": 0.0, "dmax_km": 5.0},
        {"name": "coarse", "ps_a": 256, "ps_r": 128, "overlap": 0.5, "dmin_km": 5.0, "dmax_km": None},
    ]
    detector = {"kind": "external", "path": "detections_patch.csv"}
    config = write_scene(tmp_path, plant_craters(2), extra_config={"bands": two_bands, "detector": detector})
    (tmp_path / "intensity.bin").unlink()
    capsys.readouterr()
    assert main(["run", "--config", str(config)]) == 2
    err = capsys.readouterr().err
    assert "an external detections file maps onto exactly one band's patch grid" in err, err
    assert "raster payload not found" not in err


def test_supplied_slope_holding_nan_without_sentinel_names_the_file(tmp_path, capsys):
    config = write_scene(tmp_path, plant_craters(2))
    values = np.full((512, 512), 10.0, dtype=np.float32)
    values[7, 9] = np.nan
    save_raster(RasterGrid(512, 512, "intensity", values, GT), tmp_path / "slope.bin", dtype="float32")
    hdr = tmp_path / "slope.hdr"
    hdr.write_text(hdr.read_text().replace("band = intensity", "band = slope"))
    cfg = json.loads(config.read_text())
    cfg["rasters"]["slope"] = "slope.bin"
    config.write_text(json.dumps(cfg))
    capsys.readouterr()
    assert main(["run", "--config", str(config)]) == 2
    err = capsys.readouterr().err
    assert f"{tmp_path / 'slope.bin'}: slope values must lie in [0, 90] degrees" in err, err


def test_supplied_slope_with_nan_sentinel_is_accepted(tmp_path):
    config = write_scene(tmp_path, plant_craters(2))
    values = np.full((512, 512), 10.0, dtype=np.float32)
    values[7, 9] = np.nan
    save_raster(RasterGrid(512, 512, "slope", values, GT, nodata=float("nan")), tmp_path / "slope.bin")
    cfg = json.loads(config.read_text())
    cfg["rasters"]["slope"] = "slope.bin"
    config.write_text(json.dumps(cfg))
    assert main(["run", "--config", str(config)]) == 0


# ---------------------------------------------------------------------------
# tile command


def test_cmd_tile_writes_index_and_images(tmp_path):
    config = write_scene(tmp_path, plant_craters(3))
    assert main(["tile", "--config", str(config)]) == 0
    with open(tmp_path / "out" / "patch_index.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 9  # 512 mosaic, 256 windows at 50% overlap
    assert {r["row0"] for r in rows} == {"0", "128", "256"}
    assert all(r["delta_f"] == "2.0" for r in rows)
    ppm = tmp_path / "out" / "patches" / "b" / f"{rows[0]['patch_id']}.ppm"
    assert ppm.exists()


def test_cmd_tile_no_images(tmp_path):
    config = write_scene(tmp_path, plant_craters(3))
    assert main(["tile", "--config", str(config), "--no-export-images"]) == 0
    assert not (tmp_path / "out" / "patches").exists()


# ---------------------------------------------------------------------------
# run command


def test_cmd_run_zero_noise_perfect_scores(tmp_path, capsys):
    config = write_scene(tmp_path, plant_craters(8))
    assert main(["run", "--config", str(config)]) == 0
    m = read_metrics(tmp_path / "out")
    assert m["precision"] == "1.0"
    assert m["recall"] == "1.0"
    assert m["tp"] == "8"
    assert (tmp_path / "out" / "summary.txt").exists()


def test_cmd_run_manifest_complete(tmp_path):
    config = write_scene(tmp_path, plant_craters(4))
    assert main(["run", "--config", str(config)]) == 0
    out_dir = tmp_path / "out"
    manifest = json.loads((out_dir / "manifest.json").read_text())
    on_disk = {p.name for p in out_dir.iterdir() if p.name != "manifest.json"}
    assert set(manifest["outputs"]) == on_disk
    for rel, digest in manifest["outputs"].items():
        assert sha256_file(out_dir / rel) == digest
    # a re-run with the same config and seed writes byte-identical outputs
    first = (out_dir / "detections_global.csv").read_bytes()
    assert main(["run", "--config", str(config)]) == 0
    again = json.loads((out_dir / "manifest.json").read_text())
    assert again["inputs"] == manifest["inputs"]
    assert (out_dir / "detections_global.csv").read_bytes() == first


def test_cmd_run_manifest_inputs_in_input_order(tmp_path):
    config = write_scene(tmp_path, plant_craters(4))
    assert main(["run", "--config", str(config)]) == 0
    manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
    paths = _input_paths(load_config(config))
    assert len(paths) == 5  # two payloads, their headers and the truth catalog
    assert list(manifest["inputs"].items()) == [(str(p), sha256_file(p)) for p in paths]
    assert 0.0 <= manifest["timings_s"]["inputs_digest_wait"] <= manifest["timings_s"]["total"]


def _unreadable(path):
    raise OSError(f"cannot read {path}")


def test_pipeline_error_takes_precedence_over_a_hashing_error(tmp_path, capsys, monkeypatch):
    config = write_scene(tmp_path, plant_craters(4))
    truth = tmp_path / "truth.csv"
    truth.write_text("\n".join(line.rsplit(",", 1)[0] for line in truth.read_text().splitlines()) + "\n")
    monkeypatch.setattr(config_mod, "sha256_file", _unreadable)
    capsys.readouterr()
    assert main(["run", "--config", str(config)]) == 2
    err = capsys.readouterr().err
    assert "missing columns" in err and "cannot read" not in err, err


def test_hashing_error_exits_two_with_its_message(tmp_path, capsys, monkeypatch):
    config = write_scene(tmp_path, plant_craters(4))
    monkeypatch.setattr(config_mod, "sha256_file", _unreadable)
    capsys.readouterr()
    assert main(["run", "--config", str(config)]) == 2
    first = _input_paths(load_config(config))[0]
    assert capsys.readouterr().err == f"error: cannot read {first}\n"
    assert not (tmp_path / "out" / "manifest.json").exists()


@pytest.mark.parametrize("workers", [1, 2])
def test_run_leaves_no_thread_behind(tmp_path, workers):
    config = write_scene(tmp_path, plant_craters(4))
    before = threading.active_count()
    assert main(["run", "--config", str(config), "--workers", str(workers)]) == 0
    assert threading.active_count() == before


def test_cmd_run_size_floor_flag(tmp_path):
    craters = plant_craters(6, diam_km_range=(3.0, 4.5))
    config = write_scene(tmp_path, craters)
    assert main(["run", "--config", str(config), "--size-floor-km", "5.0", "--out", "gated"]) == 0
    m = read_metrics(tmp_path / "gated")
    # every detection is below the floor, so nothing is counted either way
    assert m["n_detections"] == "0"
    assert m["tp"] == "0" and m["fp"] == "0"
    assert m["n_gated_out"] == "6"


def test_cmd_run_no_nms_floods_duplicates(tmp_path):
    noise = {"false_positive_rate": 0.0}
    config = write_scene(tmp_path, plant_craters(8), noise=noise)
    assert main(["run", "--config", str(config), "--out", "with_nms"]) == 0
    assert main(["run", "--config", str(config), "--no-nms", "--out", "without_nms"]) == 0
    with_nms = read_metrics(tmp_path / "with_nms")
    without = read_metrics(tmp_path / "without_nms")
    assert int(without["n_detections"]) > int(with_nms["n_detections"])
    # identical boxes from overlapping patches all match truth, so precision
    # stays 1.0 here; the raw negative FN records the duplication instead
    assert int(without["fn_raw"]) < 0


def test_cmd_run_deterministic_across_workers(tmp_path):
    noise = {"center_jitter_px": 1.0, "radius_jitter_frac": 0.05,
             "false_positive_rate": 0.7, "miss_rate": 0.1, "fp_radius_px": [8.0, 25.0]}
    config = write_scene(tmp_path, plant_craters(8), noise=noise)
    assert main(["run", "--config", str(config), "--workers", "1", "--out", "w1"]) == 0
    assert main(["run", "--config", str(config), "--workers", "8", "--out", "w8"]) == 0
    for name in ("detections_global.csv", "detections_catalog.csv", "metrics.csv", "summary.txt"):
        assert (tmp_path / "w1" / name).read_bytes() == (tmp_path / "w8" / name).read_bytes()


def test_cmd_run_seed_changes_noisy_output(tmp_path):
    noise = {"false_positive_rate": 2.0, "fp_radius_px": [8.0, 25.0]}
    config = write_scene(tmp_path, plant_craters(4), noise=noise)
    assert main(["run", "--config", str(config), "--seed", "1", "--out", "s1"]) == 0
    assert main(["run", "--config", str(config), "--seed", "2", "--out", "s2"]) == 0
    a = (tmp_path / "s1" / "detections_global.csv").read_bytes()
    b = (tmp_path / "s2" / "detections_global.csv").read_bytes()
    assert a != b


def test_cmd_run_single_band_mode(tmp_path):
    craters = plant_craters(4)
    config = write_scene(tmp_path, craters)
    cfg = json.loads(config.read_text())
    cfg["rasters"] = {"single_band": "dem.bin"}
    config.write_text(json.dumps(cfg))
    assert main(["run", "--config", str(config)]) == 0
    m = read_metrics(tmp_path / "out")
    assert m["precision"] == "1.0" and m["recall"] == "1.0"


def test_cmd_run_two_band_union(tmp_path):
    # four small craters handled by the fine band, four large by the coarse one
    small_cells = [(0, 1), (1, 3), (2, 0), (3, 2)]
    large_cells = [(0, 3), (1, 1), (2, 2), (3, 0)]

    def center(cell):
        r, c = cell
        return ((c + 0.5) * 128 * RESOLUTION, -(r + 0.5) * 128 * RESOLUTION)

    craters = [(x, y, 1_500.0) for x, y in map(center, small_cells)]
    craters += [(x, y, 3_500.0) for x, y in map(center, large_cells)]
    config = write_scene(
        tmp_path,
        craters,
        extra_config={
            "bands": [
                {"name": "fine", "ps_a": 128, "ps_r": 64, "overlap": 0.5, "dmin_km": 0.0, "dmax_km": 5.0},
                {"name": "coarse", "ps_a": 256, "ps_r": 128, "overlap": 0.5, "dmin_km": 5.0, "dmax_km": None},
            ]
        },
    )
    assert main(["run", "--config", str(config)]) == 0
    m = read_metrics(tmp_path / "out")
    assert m["tp"] == "8" and m["fp"] == "0" and m["fn"] == "0"
    assert m["n_detections"] == "8"
    summary = (tmp_path / "out" / "summary.txt").read_text()
    assert "band fine:" in summary and "band coarse:" in summary


def test_cmd_run_mismatched_grids_exits_two(tmp_path, capsys):
    config = write_scene(tmp_path, plant_craters(2))
    from craterpipe.geo import GeoTransform
    from craterpipe.raster import RasterGrid, save_raster
    import numpy as np

    gt = GeoTransform(0.0, 0.0, RESOLUTION, 1_737_400.0)
    small = RasterGrid(256, 256, "elevation", np.zeros((256, 256), dtype=np.float32), gt)
    save_raster(small, tmp_path / "dem.bin", dtype="float32")
    rc = main(["run", "--config", str(config)])
    assert rc == 2
    assert "does not match" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# detect dump feeding back as external detections


def test_detect_dump_round_trips_through_external_run(tmp_path):
    noise = {"center_jitter_px": 0.5, "false_positive_rate": 0.5, "fp_radius_px": [8.0, 25.0]}
    config = write_scene(tmp_path, plant_craters(6), noise=noise)
    assert main(["detect", "--config", str(config), "--out", "dump"]) == 0
    dump = tmp_path / "dump" / "detections_patch.csv"
    assert dump.exists()

    assert main(["run", "--config", str(config), "--out", "synth"]) == 0

    cfg = json.loads(config.read_text())
    cfg["detector"] = {"kind": "external", "path": str(dump)}
    external_config = tmp_path / "config_ext.json"
    external_config.write_text(json.dumps(cfg))
    assert main(["run", "--config", str(external_config), "--out", "ext"]) == 0

    assert (tmp_path / "synth" / "metrics.csv").read_bytes() == (tmp_path / "ext" / "metrics.csv").read_bytes()
    assert (tmp_path / "synth" / "detections_global.csv").read_bytes() == (
        tmp_path / "ext" / "detections_global.csv"
    ).read_bytes()


def test_external_run_frozen_fixture(tmp_path):
    # two planted craters, one interior false box, one boundary-hugging box
    craters = [
        (10_000.0, -10_000.0, 2_000.0),   # center at global pixel (100, 100)
        (30_000.0, -30_000.0, 2_500.0),   # center at global pixel (300, 300)
    ]
    config = write_scene(tmp_path, craters)

    def pixel_box(x_m, y_m, r_m, row0, col0):
        x1 = ((x_m - r_m) / RESOLUTION - col0) / 2.0
        x2 = ((x_m + r_m) / RESOLUTION - col0) / 2.0
        y1 = ((-(y_m + r_m)) / RESOLUTION - row0) / 2.0
        y2 = ((-(y_m - r_m)) / RESOLUTION - row0) / 2.0
        return x1, y1, x2, y2

    a = pixel_box(*craters[0], 0, 0)
    b = pixel_box(*craters[1], 128, 128)
    lines = [
        "r000000_c000000,{},{},{},{},0.95".format(*a),
        "r000128_c000128,{},{},{},{},0.9".format(*b),
        "r000128_c000128,30.0,60.0,50.0,80.0,0.8",    # false positive, interior
        "r000000_c000000,2.0,60.0,30.0,88.0,0.7",     # 2 px from the edge, removed at m=10
    ]
    dets_path = tmp_path / "external.csv"
    dets_path.write_text("\n".join(lines) + "\n")

    cfg = json.loads(config.read_text())
    cfg["detector"] = {"kind": "external", "path": "external.csv"}
    config.write_text(json.dumps(cfg))
    assert main(["run", "--config", str(config)]) == 0

    m = read_metrics(tmp_path / "out")
    assert (m["tp"], m["fp"], m["fn"]) == ("2", "1", "0")
    # frozen expectations, cross-checked against the scalar reference oracle
    truth_boxes = [(x - r, y - r, x + r, y + r) for x, y, r in craters]
    fp_global = (
        (128 + 30.0 * 2) * 100.0,
        -(128 + 80.0 * 2) * 100.0,
        (128 + 50.0 * 2) * 100.0,
        -(128 + 60.0 * 2) * 100.0,
    )
    tp, fp, fn, p, r, f1 = brute_force_metrics(truth_boxes + [fp_global], truth_boxes, 0.3)
    assert (tp, fp, fn) == (2, 1, 0)
    assert m["precision"] == repr(2 / 3) == repr(p)
    assert m["recall"] == "1.0"
    assert m["f1"] == repr(0.8)


# ---------------------------------------------------------------------------
# gridsearch and crossmatch commands


def test_cmd_gridsearch_writes_table(tmp_path):
    config = write_scene(
        tmp_path,
        plant_craters(6),
        extra_config={"grid": {"m_set": [0, 10], "delta_set": [0.2], "include_no_nms": True}},
    )
    assert main(["gridsearch", "--config", str(config)]) == 0
    with open(tmp_path / "out" / "gridsearch.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 2 * 2
    best = (tmp_path / "out" / "gridsearch.csv.best.txt").read_text()
    assert "best_m" in best and "best_delta" in best


def test_cmd_crossmatch_classifies(tmp_path):
    craters = plant_craters(6)
    config = write_scene(tmp_path, craters)
    assert main(["run", "--config", str(config)]) == 0

    # primary catalog: first four craters; verifier: last four (two overlap)
    from craterpipe.geo import GeoTransform, meter_to_lonlat

    gt = GeoTransform(0.0, 0.0, RESOLUTION, 1_737_400.0)

    def catalog_csv(path, subset):
        lines = ["id,lon,lat,diam_km"]
        for i, (x, y, r) in enumerate(subset):
            lon, lat = meter_to_lonlat(x, y, gt)
            lines.append(f"k{i},{lon!r},{lat!r},{2 * r / 1000.0!r}")
        path.write_text("\n".join(lines) + "\n")

    catalog_csv(tmp_path / "cat_a.csv", craters[:4])
    catalog_csv(tmp_path / "cat_b.csv", craters[2:])

    cfg = json.loads(config.read_text())
    cfg["truth_catalog"] = {"path": "cat_a.csv", "schema": "generic"}
    cfg["verify_catalog"] = {"path": "cat_b.csv", "schema": "generic"}
    config.write_text(json.dumps(cfg))
    assert main(["crossmatch", "--config", str(config)]) == 0

    summary = (tmp_path / "out" / "crossmatch_summary.txt").read_text()
    assert "known (in primary catalog):        4" in summary
    assert "confirmed new (only in verifier):  2" in summary
    assert "unverified (in neither):           0" in summary
    with open(tmp_path / "out" / "crossmatch.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 6


def test_cmd_crossmatch_quotes_patch_ids(tmp_path):
    config = write_scene(tmp_path, plant_craters(2))
    cfg = json.loads(config.read_text())
    cfg["verify_catalog"] = {"path": "truth.csv", "schema": "generic"}
    config.write_text(json.dumps(cfg))
    dets = tmp_path / "dets.csv"
    with open(dets, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["x1_m", "y1_m", "x2_m", "y2_m", "score", "patch_id", "px1", "py1", "px2", "py2"])
        writer.writerow([0.0, -900.0, 900.0, 0.0, 0.98, "a,b", 0.0, 0.0, 9.0, 9.0])
        writer.writerow([0.0, -900.0, 900.0, 0.0, 0.5, 'say "c"', 0.0, 0.0, 9.0, 9.0])
    assert main(["crossmatch", "--config", str(config), "--detections", str(dets)]) == 0
    with open(tmp_path / "out" / "crossmatch.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["class", "detection_index", "patch_id", "score"]
    assert [len(r) for r in rows] == [4, 4, 4]
    assert [r[2] for r in rows[1:]] == ["a,b", 'say "c"']


def test_cmd_crossmatch_without_rasters_uses_config_geotransform(tmp_path):
    craters = plant_craters(4)
    config = write_scene(tmp_path, craters)
    assert main(["run", "--config", str(config)]) == 0
    # strip the rasters; crossmatch must fall back to the geotransform block
    cfg = json.loads(config.read_text())
    cfg["rasters"] = {"intensity": "gone.bin", "elevation": "gone.bin"}
    cfg["geotransform"] = {"x_min": 0.0, "y_max": 0.0, "resolution": 100.0, "body_radius": 1_737_400.0}
    cfg["verify_catalog"] = {"path": "truth.csv", "schema": "generic"}
    config.write_text(json.dumps(cfg))
    assert main(["crossmatch", "--config", str(config)]) == 0
    summary = (tmp_path / "out" / "crossmatch_summary.txt").read_text()
    assert "known (in primary catalog):        4" in summary


# ---------------------------------------------------------------------------
# errors name their source


def test_unknown_patch_ids_rejected_by_run_and_gridsearch(tmp_path, capsys):
    config = write_scene(tmp_path, plant_craters(4))
    # an edge-hugging box, which the boundary filter would drop unseen
    (tmp_path / "external.csv").write_text("not_a_patch,0,0,20,20,0.9\n")
    cfg = json.loads(config.read_text())
    cfg["detector"] = {"kind": "external", "path": "external.csv"}
    config.write_text(json.dumps(cfg))
    capsys.readouterr()
    for command in ("run", "gridsearch"):
        assert main([command, "--config", str(config)]) == 2, command
        err = capsys.readouterr().err
        assert "external detections reference unknown patch ids" in err, (command, err)
        assert "not_a_patch" in err, (command, err)


def test_cmd_crossmatch_degenerate_global_box_names_file_and_line(tmp_path, capsys):
    config = write_scene(tmp_path, plant_craters(2))
    cfg = json.loads(config.read_text())
    cfg["verify_catalog"] = {"path": "truth.csv", "schema": "generic"}
    config.write_text(json.dumps(cfg))
    dets = tmp_path / "dets.csv"
    dets.write_text(
        "x1_m,y1_m,x2_m,y2_m,score,patch_id,px1,py1,px2,py2\n"
        "0.0,0.0,1.0,1.0,0.9,p,0.0,0.0,1.0,1.0\n"
        "5.0,0.0,1.0,1.0,0.9,p,0.0,0.0,1.0,1.0\n"
    )
    capsys.readouterr()
    assert main(["crossmatch", "--config", str(config), "--detections", str(dets)]) == 2
    err = capsys.readouterr().err
    assert f"{dets}:3:" in err, err
    assert "degenerate global box" in err, err


def _crossmatch_error(tmp_path, capsys, *records):
    """crossmatch's stderr on a detections file holding a good row, then records."""
    config = write_scene(tmp_path, plant_craters(2))
    cfg = json.loads(config.read_text())
    cfg["verify_catalog"] = {"path": "truth.csv", "schema": "generic"}
    config.write_text(json.dumps(cfg))
    dets = tmp_path / "dets.csv"
    dets.write_text(
        "x1_m,y1_m,x2_m,y2_m,score,patch_id,px1,py1,px2,py2\n"
        "0.0,0.0,1.0,1.0,0.9,p,0.0,0.0,1.0,1.0\n" + "".join(r + "\n" for r in records)
    )
    capsys.readouterr()
    assert main(["crossmatch", "--config", str(config), "--detections", str(dets)]) == 2
    return dets, capsys.readouterr().err


@pytest.mark.parametrize(
    "record, message",
    [
        ("0.0,0.0,1.0,1.0,nan,p,0.0,0.0,1.0,1.0", "score nan outside [0, 1]"),
        ("0.0,0.0,1.0,1.0,7.5,p,0.0,0.0,1.0,1.0", "score 7.5 outside [0, 1]"),
        ("0.0,0.0,1.0,1.0,0.9,,0.0,0.0,1.0,1.0", "empty patch id"),
        ("0.0,0.0,1.0,1.0,0.9,p,9,9,1,1", "degenerate box (9.0, 9.0, 1.0, 1.0) in patch p"),
    ],
    ids=["nan-score", "score-above-one", "empty-patch-id", "degenerate-pixel-box"],
)
def test_crossmatch_rejects_what_load_detections_rejects(tmp_path, capsys, record, message):
    dets, err = _crossmatch_error(tmp_path, capsys, record)
    assert f"{dets}:3: {message}" in err, err


@pytest.mark.parametrize(
    "records, message",
    [
        (["0.0,0.0,1.0,1.0,0.9,,0.0,0.0,1.0,1.0", "1.0,2.0"], "empty patch id"),
        (["1.0,2.0", "0.0,0.0,1.0,1.0,nan,p,0.0,0.0,1.0,1.0"], "expected 10 fields, got 2"),
        (["0.0,0.0,1.0,1.0,x,p,0.0,0.0,1.0,1.0", "5.0,0.0,1.0,1.0,0.9,p,0.0,0.0,1.0,1.0"], "non-numeric field"),
    ],
    ids=["fault-before-bad-count", "bad-count-before-fault", "bad-number-before-fault"],
)
def test_crossmatch_reports_the_first_failing_row(tmp_path, capsys, records, message):
    dets, err = _crossmatch_error(tmp_path, capsys, *records)
    assert f"{dets}:3: {message}" in err, err


@pytest.mark.parametrize(
    "record, message",
    [
        ("0.0,0.0,inf,1.0,0.9,p,0.0,0.0,1.0,1.0", "non-finite global box (0.0, 0.0, inf, 1.0)"),
        ("0.0,0.0,1.0,1.0,0.9,p,0.0,0.0,inf,1.0", "non-finite coordinates in box (0.0, 0.0, inf, 1.0)"),
    ],
    ids=["global-box", "pixel-box"],
)
def test_crossmatch_rejects_an_infinite_corner(tmp_path, capsys, record, message):
    dets, err = _crossmatch_error(tmp_path, capsys, record)
    assert f"{dets}:3: {message}" in err, err


def test_run_rejects_a_record_with_an_infinite_corner(tmp_path, capsys):
    records = tmp_path / "records.csv"
    records.write_text("p,1.0,2.0,11.0,12.0,0.9\np,1.0,2.0,3.0,inf,0.9\n")
    detector = {"kind": "external", "path": str(records)}
    config = write_scene(tmp_path, plant_craters(2), extra_config={"detector": detector})
    capsys.readouterr()
    assert main(["run", "--config", str(config)]) == 2
    err = capsys.readouterr().err
    assert f"{records}:2: non-finite coordinates in box (1.0, 2.0, 3.0, inf)" in err, err


@pytest.mark.parametrize("row", ["bad,nan,-0.1,4.0", "bad,inf,-0.1,4.0", "bad,0.1,-0.1,inf"])
def test_run_rejects_truth_rows_that_are_not_finite(tmp_path, row):
    """A truth row with a NaN or infinite longitude or an infinite diameter
    is rejected like one with a diameter <= 0: it is no truth box, so
    it neither counts as a false negative nor matches every detection."""
    config = write_scene(tmp_path, plant_craters(6))
    assert main(["run", "--config", str(config), "--out", "clean"]) == 0
    with open(tmp_path / "truth.csv", "a") as fh:
        fh.write(row + "\n")
    assert load_catalog(tmp_path / "truth.csv").n_rejected == 1
    assert main(["run", "--config", str(config), "--out", "dirty"]) == 0
    assert read_metrics(tmp_path / "dirty") == read_metrics(tmp_path / "clean")


def test_truth_rows_whose_boxes_overflow_are_dropped(tmp_path):
    """A finite but huge longitude projects to an infinite box corner, and a
    finite but huge diameter to a box whose area overflows. Neither box can
    match a detection, so both rows are dropped and counted after
    projection: run and crossmatch write what they write without them."""
    config = write_scene(
        tmp_path, plant_craters(6), extra_config={"verify_catalog": {"path": "verify.csv", "schema": "generic"}}
    )
    catalogs = [tmp_path / "truth.csv", tmp_path / "verify.csv"]
    catalogs[1].write_text(catalogs[0].read_text())
    for out in ("clean", "dirty"):
        if out == "dirty":
            for path in catalogs:
                with open(path, "a") as fh:
                    fh.write("huge_lon,1e306,-0.1,4.0\nhuge_diam,0.1,-0.1,1e305\n")
        for command in ("run", "crossmatch"):
            assert main([command, "--config", str(config), "--out", out]) == 0, (command, out)
    clean, dirty = tmp_path / "clean", tmp_path / "dirty"
    assert read_metrics(dirty) == read_metrics(clean)
    assert (dirty / "crossmatch.csv").read_bytes() == (clean / "crossmatch.csv").read_bytes()
    cfg = load_config(config)
    for cat_cfg in (cfg.truth_catalog, cfg.verify_catalog):
        cat, boxes = _load_truth(cfg, cat_cfg, GT)
        assert (len(cat), len(boxes), cat.n_rejected) == (6, 6, 2)
    for out, n in ((clean, 0), (dirty, 2)):
        assert f"truth catalog rows rejected: {n}\n" in (out / "summary.txt").read_text()
        lines = (out / "crossmatch_summary.txt").read_text().splitlines()
        rejected = {line.split()[0]: int(line.split(":")[1]) for line in lines if "rows rejected" in line}
        assert rejected == {"truth": n, "verify": n}, lines


def test_headerless_global_detections_are_rejected(tmp_path, capsys):
    config = write_scene(
        tmp_path, plant_craters(6), extra_config={"verify_catalog": {"path": "truth.csv", "schema": "generic"}}
    )
    assert main(["run", "--config", str(config)]) == 0
    dets = tmp_path / "out" / "detections_global.csv"
    records = dets.read_text().splitlines(keepends=True)[1:]
    assert len(records) == 6
    dets.write_text("".join(records))
    capsys.readouterr()
    assert main(["crossmatch", "--config", str(config)]) == 2
    err = capsys.readouterr().err
    assert f"{dets}:1: expected the header row x1_m,y1_m,x2_m,y2_m,score,patch_id,px1,py1,px2,py2" in err, err


def _edit_header(path, key, value):
    lines = path.read_text().splitlines()
    path.write_text("\n".join(f"{key} = {value}" if line.startswith(f"{key} =") else line for line in lines) + "\n")


def test_bad_header_value_names_the_header_and_key(tmp_path, capsys):
    config = write_scene(tmp_path, plant_craters(2))
    hdr = tmp_path / "intensity.hdr"
    _edit_header(hdr, "width", "512.5")
    capsys.readouterr()
    assert main(["run", "--config", str(config)]) == 2
    err = capsys.readouterr().err
    assert f"{hdr}: width = '512.5' is not an integer" in err, err


def test_negative_header_dimensions_name_the_header(tmp_path, capsys):
    config = write_scene(tmp_path, plant_craters(2))
    hdr = tmp_path / "intensity.hdr"
    _edit_header(hdr, "width", "-512")
    _edit_header(hdr, "height", "-512")  # the product still matches the payload
    capsys.readouterr()
    assert main(["run", "--config", str(config)]) == 2
    err = capsys.readouterr().err
    assert f"{hdr}: width and height must not be negative, got -512x-512" in err, err


@pytest.mark.parametrize("value", ["0", "nan"])
def test_bad_header_geotransform_names_the_header(tmp_path, capsys, value):
    config = write_scene(tmp_path, plant_craters(2))
    hdr = tmp_path / "dem.hdr"
    _edit_header(hdr, "resolution", value)
    capsys.readouterr()
    assert main(["run", "--config", str(config)]) == 2
    err = capsys.readouterr().err
    assert f"{hdr}: resolution must be positive, got {float(value)}" in err, err


@pytest.mark.parametrize("key, value", [("x_min", "nan"), ("x_min", "inf"), ("y_max", "-inf"), ("body_radius", "inf")])
@pytest.mark.parametrize("single_band", [True, False], ids=["single-band", "three-band"])
def test_non_finite_header_geotransform_names_the_header(tmp_path, capsys, key, value, single_band):
    """A NaN or infinite placement is refused at the header, not read as a
    mosaic that no truth crater falls on, or as grids that do not match."""
    config = write_scene(tmp_path, plant_craters(2))
    if single_band:
        cfg = json.loads(config.read_text())
        cfg["rasters"] = {"single_band": "intensity.bin"}
        config.write_text(json.dumps(cfg))
    hdr = tmp_path / "intensity.hdr"
    _edit_header(hdr, key, value)
    capsys.readouterr()
    assert main(["run", "--config", str(config)]) == 2
    err = capsys.readouterr().err
    assert f"{hdr}: {key} must be finite, got {float(value)}" in err, err


@pytest.mark.parametrize("value, message", [
    ("inf", "{hdr}: resolution must be finite, got inf"),
    ("1e308", "cannot resample 512x512 cells of 1e+308 m to 100.0 m: the resampled size is not finite"),
])
@pytest.mark.parametrize("command", [["run"], ["tile"], ["tile", "--no-export-images"]],
                         ids=["run", "tile", "tile-without-images"])
def test_dem_resolution_whose_resampled_size_overflows_exits_two(tmp_path, capsys, value, message, command):
    config = write_scene(tmp_path, plant_craters(2))
    hdr = tmp_path / "dem.hdr"
    _edit_header(hdr, "resolution", value)
    capsys.readouterr()
    assert main(command + ["--config", str(config)]) == 2
    err = capsys.readouterr().err
    assert message.format(hdr=hdr) in err, err


def _config_error(config, capsys, *args):
    capsys.readouterr()
    assert main(["run", "--config", str(config), *args]) == 2
    return capsys.readouterr().err


def test_config_band_without_ps_a_exits_two(tmp_path, capsys):
    config = write_scene(tmp_path, plant_craters(2), extra_config={"bands": [{"name": "b", "ps_r": 128}]})
    err = _config_error(config, capsys)
    assert f"{config}: missing key 'ps_a'" in err, err


def test_config_json_array_exits_two(tmp_path, capsys):
    config = tmp_path / "config.json"
    config.write_text("[1, 2]\n")
    err = _config_error(config, capsys)
    assert f"{config}: expected a JSON object, got list" in err, err


def test_config_non_numeric_workers_exits_two(tmp_path, capsys):
    config = write_scene(tmp_path, plant_craters(2), extra_config={"workers": "two"})
    err = _config_error(config, capsys)
    assert f"{config}: malformed value (invalid literal for int() with base 10: 'two')" in err, err


def test_out_naming_a_regular_file_exits_two(tmp_path, capsys):
    config = write_scene(tmp_path, plant_craters(2))
    (tmp_path / "taken").write_text("not a directory\n")
    err = _config_error(config, capsys, "--out", str(tmp_path / "taken"))
    assert "error: " in err and "File exists" in err and "taken" in err, err


def test_production_commands_classify_every_detection(tmp_path):
    noise = {"center_jitter_px": 1.5, "radius_jitter_frac": 0.1, "false_positive_rate": 2.0, "miss_rate": 0.1}
    config = write_scene(
        tmp_path,
        plant_craters(12),
        noise=noise,
        extra_config={"verify_catalog": {"path": "truth.csv", "schema": "generic"}},
    )
    for command in ("run", "gridsearch", "crossmatch"):
        assert main([command, "--config", str(config)]) == 0, command
    with open(tmp_path / "out" / "crossmatch.csv") as fh:
        assert len(list(csv.DictReader(fh))) > 12  # the false positives are classified too


def test_oracle_commands_write_every_survivor(tmp_path):
    noise = {"center_jitter_px": 1.5, "radius_jitter_frac": 0.1, "false_positive_rate": 2.0, "miss_rate": 0.1}
    config = write_scene(tmp_path, plant_craters(12), noise=noise)
    for command in ("run", "gridsearch"):
        assert main([command, "--config", str(config)]) == 0, command
    assert len((tmp_path / "out" / "detections_global.csv").read_text().splitlines()) > 12


def _set_config_number(cfg, key, value):
    if key in ("ps_a", "ps_r"):
        cfg["bands"][0][key] = value
    elif key == "grid.m_set":
        cfg["grid"]["m_set"] = [0, value]
    else:
        cfg[key] = value


@pytest.mark.parametrize(
    "key, value",
    [("seed", 9.5), ("workers", 2.7), ("boundary_m", 10.9), ("ps_a", 256.5), ("ps_r", 128.25), ("grid.m_set", 2.7)],
)
def test_config_non_integral_number_names_file_and_key(tmp_path, capsys, key, value):
    config = write_scene(tmp_path, plant_craters(2))
    cfg = json.loads(config.read_text())
    _set_config_number(cfg, key, value)
    config.write_text(json.dumps(cfg))
    err = _config_error(config, capsys)
    assert f"{config}: malformed value ({key} must be an integer, got {value!r})" in err, err


@pytest.mark.parametrize(
    "section, key, value, message",
    [
        ("nms", "enabled", "false", "nms.enabled must be true or false, got 'false'"),
        ("grid", "include_no_nms", "no", "grid.include_no_nms must be true or false, got 'no'"),
        ("truth_catalog", "region", [0, 10, -5], "region must hold 4 numbers"),
        ("detector", "noise", {"fp_radius_px": [5]}, "not enough values to unpack (expected 2, got 1)"),
        ("rasters", "intensity", 5, "rasters.intensity must be a string, got 5"),
        (None, "out_dir", 5, "out_dir must be a string, got 5"),
        (None, "detector", {"kind": "external", "path": 5}, "detector.path must be a string, got 5"),
        (None, "bands", [{"name": ["x"], "ps_a": 256, "ps_r": 128}], "bands.name must be a string, got ['x']"),
        ("truth_catalog", "path", 5, "truth_catalog.path must be a string, got 5"),
        ("truth_catalog", "schema", 5, "truth_catalog.schema must be a preset name or a column mapping, got 5"),
        (None, "workers", True, "workers must be an integer, got True"),
        (None, "boundary_m", False, "boundary_m must be an integer, got False"),
        (None, "seed", True, "seed must be an integer, got True"),
        ("eval", "u", True, "eval.u must be a number, got True"),
        ("nms", "delta", True, "nms.delta must be a number, got True"),
    ],
    ids=[
        "nms.enabled", "grid.include_no_nms", "region", "fp_radius_px", "rasters.intensity", "out_dir",
        "detector.path", "bands.name", "truth_catalog.path", "truth_catalog.schema", "workers-bool",
        "boundary_m-bool", "seed-bool", "eval.u-bool", "nms.delta-bool",
    ],
)
def test_config_value_of_the_wrong_kind_names_file_and_key(tmp_path, capsys, section, key, value, message):
    """A boolean must be a JSON boolean (bool("false") is True), a list
    must have the length its reader unpacks, a text field must be a string,
    and a JSON boolean is not a number (True == 1)."""
    config = write_scene(tmp_path, plant_craters(2))
    cfg = json.loads(config.read_text())
    (cfg if section is None else cfg[section])[key] = value
    config.write_text(json.dumps(cfg))
    err = _config_error(config, capsys)
    assert f"{config}: malformed value ({message}" in err, err


def test_every_override_flag_reaches_the_manifest_config(tmp_path):
    """Each flag replaces the config key it names; falsy values count as given."""
    config = write_scene(tmp_path, plant_craters(2))
    args = ["--seed", "123", "--workers", "2", "--out", "elsewhere", "--m", "0", "--delta", "0.4",
            "--no-nms", "--u", "0.5", "--size-floor-km", "5.0"]
    assert main(["run", "--config", str(config), *args]) == 0
    snapshot = json.loads((tmp_path / "elsewhere" / "manifest.json").read_text())["config"]
    assert (snapshot["seed"], snapshot["detector"]["noise"]["seed"], snapshot["workers"]) == (123, 123, 2)
    assert (snapshot["out_dir"], snapshot["boundary_m"]) == ("elsewhere", 0)
    assert (snapshot["nms_delta"], snapshot["nms_enabled"]) == (0.4, False)
    assert snapshot["eval"] == {"u": 0.5, "size_floor_km": 5.0, "size_ceiling_km": None}
    # keys no flag names keep the file's values
    assert snapshot["grid"]["m_set"] == [0, 1, 5, 10] and snapshot["bands"][0]["ps_a"] == 256


def test_flag_replaces_an_invalid_file_value_before_the_checks(tmp_path):
    config = write_scene(tmp_path, plant_craters(2), extra_config={"boundary_m": -1})
    assert main(["run", "--config", str(config), "--m", "5"]) == 0
    assert json.loads((tmp_path / "out" / "manifest.json").read_text())["config"]["boundary_m"] == 5


def test_flag_into_a_section_that_is_not_an_object_names_the_config(tmp_path, capsys):
    config = write_scene(tmp_path, plant_craters(2), extra_config={"nms": None})
    err = _config_error(config, capsys, "--delta", "0.3")
    assert f"{config}: malformed value (" in err, err


@pytest.mark.parametrize(
    "command, args, setting, message",
    [
        ("run", ["--m", "-1"], {}, "m must be a non-negative integer, got -1"),
        ("run", ["--delta", "1.5"], {}, "delta must be in [0, 1], got 1.5"),
        ("gridsearch", [], {"grid": {"m_set": [0, -1]}}, "m must be a non-negative integer, got -1"),
        ("gridsearch", [], {"grid": {"delta_set": [0.2, 1.5]}}, "delta must be in [0, 1], got 1.5"),
        # each command also rejects the thresholds only the other one reads
        ("gridsearch", [], {"nms": {"delta": 1.5}}, "delta must be in [0, 1], got 1.5"),
        ("run", [], {"grid": {"m_set": [0, -1]}}, "m must be a non-negative integer, got -1"),
    ],
    ids=["run-m", "run-delta", "gridsearch-m_set", "gridsearch-delta_set", "gridsearch-nms.delta", "run-m_set"],
)
def test_out_of_range_thresholds_exit_two(tmp_path, capsys, command, args, setting, message):
    """The boundary distance m and the NMS IOU delta are checked where they
    enter, from the config file or a flag, whichever command reads them."""
    config = write_scene(tmp_path, plant_craters(2))
    cfg = json.loads(config.read_text())
    for section, values in setting.items():
        cfg[section].update(values)
    config.write_text(json.dumps(cfg))
    capsys.readouterr()
    assert main([command, "--config", str(config), *args]) == 2
    err = capsys.readouterr().err
    assert f"error: {message}" in err, err


@pytest.mark.parametrize("key, value", [("resolution", 0), ("body_radius", -1.5)])
def test_config_geotransform_out_of_range_names_file_and_key(tmp_path, capsys, key, value):
    config = write_scene(tmp_path, plant_craters(2))
    cfg = json.loads(config.read_text())
    cfg["geotransform"] = {"x_min": 0, "y_max": 0, "resolution": 100.0, "body_radius": 1_737_400.0, key: value}
    config.write_text(json.dumps(cfg))
    err = _config_error(config, capsys)
    assert f"{config}: malformed value (geotransform.{key} must be positive, got {float(value)})" in err, err


@pytest.mark.parametrize("key, value", [("x_min", math.nan), ("y_max", -math.inf), ("resolution", math.inf)])
def test_config_geotransform_not_finite_names_file_and_key(tmp_path, capsys, key, value):
    config = write_scene(tmp_path, plant_craters(2))
    cfg = json.loads(config.read_text())
    cfg["geotransform"] = {"x_min": 0, "y_max": 0, "resolution": 100.0, "body_radius": 1_737_400.0, key: value}
    config.write_text(json.dumps(cfg))  # NaN and Infinity, as Python's json reads them
    err = _config_error(config, capsys)
    assert f"{config}: malformed value (geotransform.{key} must be finite, got {value})" in err, err


def test_config_band_name_null_names_file_and_key(tmp_path, capsys):
    bands = [{"name": None, "ps_a": 256, "ps_r": 128}]
    config = write_scene(tmp_path, plant_craters(2), extra_config={"bands": bands})
    err = _config_error(config, capsys)
    assert f"{config}: malformed value (bands.name must be a string, got None)" in err, err
