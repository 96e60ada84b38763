"""The raster-stack contract of every command that loads the stack.

run, detect, gridsearch, crossmatch and tile --no-export-images validate the
raster stack from its headers and the loaded grids, then work from patch
placements; tile with image export makes the same checks before it reads
pixels. These tests pin what that validation must keep: every error a bad
stack raises, with its message, its precedence and exit code 2, that a
failing command writes nothing, and that none of the commands but tile with
image export builds resampled or slope values or tiles.
"""

import json

import numpy as np
import pytest

from craterpipe import raster, runner
from craterpipe.cli import main
from craterpipe.config import load_config
from craterpipe.errors import RasterError
from craterpipe.geo import GeoTransform
from craterpipe.raster import RasterGrid, save_raster

from conftest import LUNAR_RADIUS
from scene import MOSAIC_PX, RESOLUTION, plant_craters, write_scene

COMMANDS = {
    "run": ["run"],
    "detect": ["detect"],
    "gridsearch": ["gridsearch"],
    "tile": ["tile", "--no-export-images"],
    "crossmatch": ["crossmatch"],
    "tile-images": ["tile"],
}


def _scene(tmp_path):
    return write_scene(
        tmp_path,
        plant_craters(4),
        extra_config={"verify_catalog": {"path": "truth.csv", "schema": "generic"}},
    )


def _edit_config(config, **rasters):
    cfg = json.loads(config.read_text())
    cfg["rasters"].update(rasters)
    config.write_text(json.dumps(cfg))


def _grid(n, band="elevation", value=0.0, resolution=RESOLUTION, x_min=0.0, nodata=None):
    gt = GeoTransform(x_min=x_min, y_max=0.0, resolution=resolution, body_radius=LUNAR_RADIUS)
    return RasterGrid(n, n, band, np.full((n, n), value, dtype=np.float32), gt, nodata)


def _save(tmp_path, name, grid):
    save_raster(grid, tmp_path / name, dtype="float32")


def _steep_slope(tmp_path, n=MOSAIC_PX):
    """A slope file of 120 degrees everywhere, written past the in-memory check."""
    _save(tmp_path, "slope.bin", _grid(n, band="intensity", value=120.0))
    hdr = tmp_path / "slope.hdr"
    hdr.write_text(hdr.read_text().replace("band = intensity", "band = slope"))


def missing_payload(tmp_path, config):
    (tmp_path / "intensity.bin").unlink()


def short_payload(tmp_path, config):
    path = tmp_path / "dem.bin"
    path.write_bytes(path.read_bytes()[:-4])


def bad_header(tmp_path, config):
    (tmp_path / "dem.hdr").write_text("width = 512\nheight = 512\n")


def slope_out_of_range(tmp_path, config):
    _steep_slope(tmp_path)
    _edit_config(config, slope="slope.bin")


def slope_declared_as_elevation(tmp_path, config):
    # 500 "degrees": the range check only runs on a grid that declares band = slope
    _save(tmp_path, "slope.bin", _grid(MOSAIC_PX, band="elevation", value=500.0))
    _edit_config(config, slope="slope.bin")


def slope_from_non_elevation(tmp_path, config):
    _save(tmp_path, "dem.bin", _grid(MOSAIC_PX, band="intensity"))


def grid_too_small_for_slope(tmp_path, config):
    _save(tmp_path, "dem.bin", _grid(2))


def all_nodata_resample(tmp_path, config):
    _save(tmp_path, "dem.bin", _grid(256, value=-9999.0, resolution=200.0, nodata=-9999.0))


def resampled_size_mismatch(tmp_path, config):
    # 171 px at 300.7 m/px resample to ceil(514.197) = 515 px
    _save(tmp_path, "dem.bin", _grid(171, resolution=300.7))


def supplied_slope_size_mismatch(tmp_path, config):
    _save(tmp_path, "slope.bin", _grid(256, band="slope"))
    _edit_config(config, slope="slope.bin")


def not_co_registered(tmp_path, config):
    _save(tmp_path, "dem.bin", _grid(MOSAIC_PX, x_min=50.0))


def mosaic_smaller_than_patch(tmp_path, config):
    _save(tmp_path, "intensity.bin", _grid(200, band="intensity"))
    _save(tmp_path, "dem.bin", _grid(200))


def slope_range_before_elevation_size(tmp_path, config):
    resampled_size_mismatch(tmp_path, config)
    slope_out_of_range(tmp_path, config)


def co_registration_before_truth_catalog(tmp_path, config):
    not_co_registered(tmp_path, config)
    (tmp_path / "truth.csv").unlink()


# (case, message, whether the error comes from tiling, message for tile
# where it differs: tile loads no catalog)
CASES = [
    (missing_payload, "raster payload not found", False, None),
    (short_payload, "payload holds 262143 values, header declares 262144", False, None),
    (bad_header, "missing header keys", False, None),
    (slope_out_of_range, "slope values must lie in [0, 90] degrees", False, None),
    (slope_declared_as_elevation, "slope.bin: slope raster declares band = elevation, not slope", False, None),
    (slope_from_non_elevation, "dem.bin: elevation raster declares band = intensity, not elevation", False, None),
    (grid_too_small_for_slope, "grid too small for slope: 2x2", False, None),
    (all_nodata_resample, "cannot resample an all-nodata grid", False, None),
    (resampled_size_mismatch, "elevation grid 515x515 does not match intensity 512x512", False, None),
    (supplied_slope_size_mismatch, "slope grid 256x256 does not match intensity 512x512", False, None),
    (not_co_registered, "intensity, elevation and slope grids must share size and geotransform", False, None),
    (mosaic_smaller_than_patch, "mosaic 200x200 is smaller than the patch side 256", True, None),
    (slope_range_before_elevation_size, "slope values must lie in [0, 90] degrees", False, None),
    (
        co_registration_before_truth_catalog,
        "intensity, elevation and slope grids must share size and geotransform",
        False,
        None,
    ),
]


def _params():
    for case, message, from_tiling, tile_message in CASES:
        for command in COMMANDS:
            if command == "crossmatch" and from_tiling:
                continue  # crossmatch never tiles
            message_here = tile_message if command.startswith("tile") and tile_message is not None else message
            yield pytest.param(case, command, message_here, id=f"{case.__name__}-{command}")


@pytest.mark.parametrize("case, command, message", list(_params()))
def test_bad_stack_exits_two_with_its_message(tmp_path, capsys, case, command, message):
    config = _scene(tmp_path)
    case(tmp_path, config)
    capsys.readouterr()
    assert main(COMMANDS[command] + ["--config", str(config)]) == 2
    err = capsys.readouterr().err
    assert message in err, err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("case, message, from_tiling", [c[:3] for c in CASES], ids=[c[0].__name__ for c in CASES])
def test_load_stack_raises_every_error_but_tiling_ones(tmp_path, case, message, from_tiling):
    """Every check on the stack that tiling does not make runs in
    load_stack; a stack that only tiling rejects loads."""
    config = _scene(tmp_path)
    case(tmp_path, config)
    cfg = load_config(config)
    if from_tiling:
        assert len(runner.load_stack(cfg)) == 3
    else:
        with pytest.raises(RasterError) as excinfo:
            runner.load_stack(cfg)
        assert message in str(excinfo.value)


@pytest.mark.parametrize("command", ["run", "detect", "gridsearch", "tile"])
def test_resampled_size_rounds_up_as_resample_does(tmp_path, command):
    # 170 px at 300.7 m/px resample to ceil(511.19) = 512 px: the stack is valid
    config = _scene(tmp_path)
    _save(tmp_path, "dem.bin", _grid(170, resolution=300.7))
    assert main(COMMANDS[command] + ["--config", str(config)]) == 0


def _refuse(module, name):
    def refuse(*args, **kwargs):
        raise AssertionError(f"{module.__name__}.{name} builds pixels")

    return refuse


@pytest.mark.parametrize("dem_resolution", [RESOLUTION, 200.0], ids=["same-resolution", "coarser-dem"])
def test_commands_without_image_export_build_no_pixels(tmp_path, monkeypatch, dem_resolution):
    config = _scene(tmp_path)
    if dem_resolution != RESOLUTION:
        n = MOSAIC_PX // 2
        yy, xx = np.mgrid[0:n, 0:n].astype(np.float32)
        gt = GeoTransform(x_min=0.0, y_max=0.0, resolution=dem_resolution, body_radius=LUNAR_RADIUS)
        save_raster(RasterGrid(n, n, "elevation", 100.0 * np.sin(xx / 20.0) + yy, gt), tmp_path / "dem.bin")
    for module, name in ((raster, "_bilinear"), (raster, "_slope"), (runner, "tile"), (runner, "replicate_single_band")):
        monkeypatch.setattr(module, name, _refuse(module, name))
    for command in ("run", "detect", "gridsearch", "crossmatch", "tile"):
        assert main(COMMANDS[command] + ["--config", str(config)]) == 0, command
    assert (tmp_path / "out" / "patch_index.csv").read_text().count("\n") == 1 + 9
    # image export is the one consumer that reads pixels
    with pytest.raises(AssertionError, match="builds pixels"):
        main(["tile", "--config", str(config)])


STACK_FILES = {"intensity": "intensity.bin", "elevation": "dem.bin", "slope": "slope.bin"}


@pytest.mark.parametrize("declared", raster.BAND_KINDS)
@pytest.mark.parametrize("role", list(STACK_FILES))
def test_every_stack_raster_declares_its_role(tmp_path, capsys, role, declared):
    config = _scene(tmp_path)
    path = tmp_path / STACK_FILES[role]
    _save(tmp_path, path.name, _grid(MOSAIC_PX, band=declared))
    if role == "slope":
        _edit_config(config, slope=path.name)
    capsys.readouterr()
    rc = main(["run", "--config", str(config)])
    err = capsys.readouterr().err
    if declared == role:
        assert rc == 0, err
    else:
        assert (rc, err) == (2, f"error: {path}: {role} raster declares band = {declared}, not {role}\n")


@pytest.mark.parametrize("declared", raster.BAND_KINDS)
def test_a_single_band_may_declare_any_band(tmp_path, declared):
    config = _scene(tmp_path)
    _save(tmp_path, "band.bin", _grid(MOSAIC_PX, band=declared))
    cfg = json.loads(config.read_text())
    cfg["rasters"] = {"single_band": "band.bin"}
    config.write_text(json.dumps(cfg))
    assert [grid.band_kind for grid in runner.load_stack(load_config(config))] == [declared]
    assert main(["run", "--config", str(config)]) == 0


def _declare(hdr, band):
    text = hdr.read_text()
    assert "band = " in text
    hdr.write_text("\n".join(f"band = {band}" if s.startswith("band =") else s for s in text.splitlines()) + "\n")


def intensity_declared_as_elevation(tmp_path, config):
    _declare(tmp_path / "intensity.hdr", "elevation")
    return tmp_path / "intensity.bin", "intensity", "elevation"


def dem_declared_as_intensity_beside_a_slope(tmp_path, config):
    _save(tmp_path, "slope.bin", _grid(MOSAIC_PX, band="slope", value=10.0))
    _edit_config(config, slope="slope.bin")
    _declare(tmp_path / "dem.hdr", "intensity")
    return tmp_path / "dem.bin", "elevation", "intensity"


@pytest.mark.parametrize("command", [["run"], ["tile"], ["tile", "--no-export-images"], ["crossmatch"]], ids=" ".join)
@pytest.mark.parametrize("case", [intensity_declared_as_elevation, dem_declared_as_intensity_beside_a_slope])
def test_a_raster_declaring_another_band_fails_every_command(tmp_path, capsys, case, command):
    """A header that declares another band than the raster's role in the
    stack fails, also where no check reads that band's values."""
    config = _scene(tmp_path)
    path, role, declared = case(tmp_path, config)
    capsys.readouterr()
    assert main(command + ["--config", str(config)]) == 2
    assert capsys.readouterr().err == f"error: {path}: {role} raster declares band = {declared}, not {role}\n"
    assert not list((tmp_path / "out").glob("**/*.ppm"))


@pytest.mark.parametrize("command", [["tile"], ["tile", "--no-export-images"], ["detect"]], ids=" ".join)
def test_a_later_band_wider_than_the_mosaic_fails_before_any_write(tmp_path, capsys, command):
    """A band wider than the mosaic fails the command before a file of an
    earlier band is written."""
    config = _scene(tmp_path)
    cfg = json.loads(config.read_text())
    cfg["bands"][0]["dmax_km"] = 50.0
    cfg["bands"].append({"name": "wide", "ps_a": 1024, "ps_r": 256, "overlap": 0.5, "dmin_km": 50.0})
    config.write_text(json.dumps(cfg))
    capsys.readouterr()
    assert main(command + ["--config", str(config)]) == 2
    assert capsys.readouterr().err == f"error: mosaic {MOSAIC_PX}x{MOSAIC_PX} is smaller than the patch side 1024\n"
    assert not (tmp_path / "out").exists()
