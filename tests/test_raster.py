"""Raster IO, resampling, slope, byte scaling and tiling tests."""

import gc
import json
import math
import os
import re
import subprocess
import sys
import warnings
import weakref
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

import craterpipe
from craterpipe import raster
from craterpipe.errors import RasterError
from craterpipe.geo import GeoTransform
from craterpipe.raster import (
    FusedPatch,
    PatchSpec,
    RasterGrid,
    _box_weights,
    _byte_scale,
    check_nan_marked,
    compute_slope,
    load_raster,
    patch_grid,
    replicate_single_band,
    resample,
    save_raster,
    tile,
    write_patch_image,
)

from conftest import LUNAR_RADIUS, make_grid, planar_dem, write_raster
from reference import bilinear_whole, box_weights, slope_in_range, slope_whole, tile_reference


# ---------------------------------------------------------------------------
# file IO


def test_load_round_trips_values(tmp_path):
    grid = make_grid([[0.0, 1.0], [2.0, 3.0]])
    path = write_raster(tmp_path, "g.bin", grid)
    loaded = load_raster(path)
    assert loaded.width == 2 and loaded.height == 2
    assert np.array_equal(np.asarray(loaded.values, dtype=np.float64), grid.values)
    assert loaded.geotransform == grid.geotransform
    assert loaded.band_kind == "elevation"


def test_load_missing_file(tmp_path):
    with pytest.raises(RasterError, match="not found"):
        load_raster(tmp_path / "nope.bin")


def test_load_dimension_mismatch(tmp_path):
    grid = make_grid([[0.0, 1.0], [2.0, 3.0]])
    path = write_raster(tmp_path, "g.bin", grid)
    payload = path.read_bytes()
    path.write_bytes(payload[:-8])  # drop one float64 value
    with pytest.raises(RasterError, match="payload holds 3 values"):
        load_raster(path)


def test_load_maps_the_payload_read_only(tmp_path):
    grid = make_grid([[0.0, 1.0], [2.0, 3.0]])
    loaded = load_raster(write_raster(tmp_path, "g.bin", grid))
    assert not loaded.values.flags.writeable
    with pytest.raises(ValueError):
        loaded.values[0, 0] = 7.0


def test_load_zero_value_payload(tmp_path):
    path = write_raster(tmp_path, "g.bin", make_grid(np.zeros((3, 0))))
    assert path.stat().st_size == 0
    loaded = load_raster(path)
    assert loaded.values.shape == (3, 0) and loaded.width == 0
    assert not loaded.values.flags.writeable


def test_load_payload_that_is_not_a_regular_file(tmp_path):
    path = write_raster(tmp_path, "g.bin", make_grid([[0.0, 1.0], [2.0, 3.0]]))
    path.unlink()
    path.mkdir()
    with pytest.raises(RasterError, match=f"^{re.escape(str(path))}: raster payload is not a regular file$"):
        load_raster(path)


def test_load_unknown_band(tmp_path):
    grid = make_grid([[0.0, 1.0], [2.0, 3.0]])
    path = write_raster(tmp_path, "g.bin", grid)
    hdr = path.with_suffix(".hdr")
    hdr.write_text(hdr.read_text().replace("band = elevation", "band = thermal"))
    with pytest.raises(RasterError, match="unknown band kind"):
        load_raster(path)


def test_header_comment_may_follow_a_value(tmp_path):
    grid = make_grid([[0.0, 1.0], [2.0, 3.0]])
    path = write_raster(tmp_path, "g.bin", grid)
    hdr = path.with_suffix(".hdr")
    hdr.write_text("# a whole-line comment\n" + hdr.read_text().replace("\n", "   # nodata = 1\n"))
    loaded = load_raster(path)
    assert loaded.nodata is None and np.array_equal(loaded.values, grid.values)


@pytest.mark.parametrize("line, message", [("nodatta = -9999", "unknown key 'nodatta'"),
                                           ("width = 2", "repeated key 'width'")])
def test_header_refuses_an_unknown_or_repeated_key(tmp_path, line, message):
    """A misspelt nodata would read every sentinel cell as terrain, and a
    repeated key would silently take its last value."""
    path = write_raster(tmp_path, "g.bin", make_grid([[0.0, 1.0], [2.0, 3.0]]))
    hdr = path.with_suffix(".hdr")
    lines = hdr.read_text().splitlines()
    hdr.write_text("\n".join([*lines, line]) + "\n")
    with pytest.raises(RasterError, match=f"^{re.escape(str(hdr))}:{len(lines) + 1}: {message}$"):
        load_raster(path)


def test_a_grid_without_a_sentinel_is_not_scanned_for_nodata(monkeypatch):
    """Without a sentinel every cell is valid: resample skips its all-nodata
    scan and check_nan_marked counts NaN cells alone. A grid of no cells
    still has no valid cell."""
    grid = make_grid([[1.0, np.nan, 2.0], [3.0, np.nan, 4.0]])
    monkeypatch.setattr(RasterGrid, "valid_mask", lambda *a: pytest.fail("scanned for nodata"))
    assert resample(grid, 50.0).height == 4
    with pytest.raises(RasterError, match=r"sentinel \(none\) does not mark \(2 of 6\)"):
        check_nan_marked(grid, "g.bin")
    with pytest.raises(RasterError, match="^cannot resample an all-nodata grid$"):
        resample(make_grid(np.zeros((0, 3))), 50.0)


SPEC = PatchSpec(ps_a=4, ps_r=2, overlap_fraction=0.5)


@pytest.mark.parametrize("call, message", [
    (lambda: make_grid([[0.0]], band_kind="thermal"), "unknown band kind 'thermal'"),
    (lambda: FusedPatch("p", 0, 0, SPEC, np.zeros((3, 4, 4), dtype=np.uint8)), r"channels shape \(3, 4, 4\)"),
    (lambda: FusedPatch("p", 0, 0, SPEC, np.zeros((3, 2, 2))), "patch channels must be uint8"),
    (lambda: save_raster(make_grid([[0.0]]), "never.bin", dtype="float16"), "unknown dtype 'float16'"),
    (lambda: resample(planar_dem(4), 0.0), "target resolution must be positive, got 0.0"),
    (lambda: tile(*[planar_dem(4)] * 3, SPEC, scale_mode="global"), "unknown scale_mode 'global'"),
], ids=["band-kind", "patch-shape", "patch-dtype", "save-dtype", "resolution", "scale-mode"])
def test_direct_calls_refuse_bad_arguments(call, message):
    with pytest.raises(RasterError, match=message):
        call()


def test_load_integer_dtypes_round_trip(tmp_path):
    grid = make_grid([[0.0, 255.0], [12.0, 7.0]], band_kind="intensity")
    for dtype in ("uint8", "int16", "int32", "float32"):
        path = write_raster(tmp_path, f"g_{dtype}.bin", grid, dtype=dtype)
        loaded = load_raster(path)
        assert np.array_equal(np.asarray(loaded.values, dtype=np.float64), grid.values)


def test_nodata_sentinel_passthrough(tmp_path):
    grid = make_grid([[1.0, -9999.0], [2.0, 3.0]], nodata=-9999.0)
    path = write_raster(tmp_path, "g.bin", grid)
    loaded = load_raster(path)
    assert loaded.nodata == -9999.0
    assert loaded.valid_mask().tolist() == [[True, False], [True, True]]


def _dem_with_nan_hole(n=64):
    yy, xx = np.mgrid[0:n, 0:n].astype(float)
    vals = 3.0 * xx + 5.0 * yy
    vals[20:30, 20:30] = np.nan
    return make_grid(vals, nodata=float("nan"))


def test_nan_nodata_round_trips_and_masks_the_hole(tmp_path):
    path = write_raster(tmp_path, "dem.bin", _dem_with_nan_hole(), dtype="float32")
    loaded = load_raster(path)
    assert math.isnan(loaded.nodata)
    valid = loaded.valid_mask()
    assert valid.sum() == 3996
    assert np.array_equal(valid, ~np.isnan(loaded.values))


def test_nan_nodata_slope_flags_the_poisoned_window():
    out = compute_slope(_dem_with_nan_hole())
    poisoned = np.zeros((64, 64), dtype=bool)
    poisoned[19:31, 19:31] = True
    assert np.array_equal(np.isnan(out.values), poisoned)
    assert np.array_equal(out.valid_mask(), ~poisoned)


def test_nan_nodata_tiles_to_byte_zero_without_warnings():
    dem = _dem_with_nan_hole()
    intensity = make_grid(np.arange(64 * 64, dtype=float).reshape(64, 64) % 97, band_kind="intensity")
    slope = compute_slope(dem)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        (patch,) = tile(intensity, dem, slope, PatchSpec(64, 64, 0.5))
    for k, grid in ((1, dem), (2, slope)):
        invalid = np.isnan(grid.values)
        v = grid.values[~invalid]
        expected = np.zeros((64, 64), dtype=np.uint8)
        expected[~invalid] = np.rint(255.0 * (v - v.min()) / (v.max() - v.min())).astype(np.uint8)
        assert np.array_equal(patch.channels[k], expected)


@given(n=st.integers(min_value=1, max_value=24), data=st.data())
def test_nan_hole_is_exactly_the_invalid_set(n, data):
    r0 = data.draw(st.integers(min_value=0, max_value=n - 1))
    r1 = data.draw(st.integers(min_value=r0 + 1, max_value=n))
    c0 = data.draw(st.integers(min_value=0, max_value=n - 1))
    c1 = data.draw(st.integers(min_value=c0 + 1, max_value=n))
    vals = np.arange(n * n, dtype=float).reshape(n, n)
    vals[r0:r1, c0:c1] = np.nan
    grid = make_grid(vals, nodata=float("nan"))
    assert np.array_equal(grid.valid_mask(), ~np.isnan(vals))


# ---------------------------------------------------------------------------
# resample


def test_resample_constant_grid_stays_constant():
    grid = make_grid(np.full((4, 4), 7.0))
    out = resample(grid, 37.0)
    assert np.allclose(out.values, 7.0)
    assert out.geotransform.resolution == 37.0


def test_resample_identity():
    rng = np.random.default_rng(5)
    grid = make_grid(rng.normal(size=(6, 9)))
    out = resample(grid, grid.geotransform.resolution)
    assert out.width == grid.width and out.height == grid.height
    assert np.array_equal(out.values, grid.values)


def test_resample_halving_resolution_hand_checked():
    # 2x2 grid [0 2; 2 4] at 100 m/px refined to 50 m/px: output cell centers
    # fall at input fractional coordinates -0.25, 0.25, 0.75, 1.25 per axis.
    grid = make_grid([[0.0, 2.0], [2.0, 4.0]])
    out = resample(grid, 50.0)
    assert (out.height, out.width) == (4, 4)

    def oracle(fy, fx):
        # scalar bilinear; neighbors outside the lattice replicate the edge
        def clamp(i):
            return min(max(i, 0), 1)
        yf = math.floor(fy); xf = math.floor(fx)
        y0, y1 = clamp(yf), clamp(yf + 1)
        x0, x1 = clamp(xf), clamp(xf + 1)
        wy = fy - yf; wx = fx - xf
        g = [[0.0, 2.0], [2.0, 4.0]]
        return ((1 - wy) * ((1 - wx) * g[y0][x0] + wx * g[y0][x1])
                + wy * ((1 - wx) * g[y1][x0] + wx * g[y1][x1]))

    coords = [-0.25, 0.25, 0.75, 1.25]
    for r, fy in enumerate(coords):
        for c, fx in enumerate(coords):
            assert out.values[r, c] == pytest.approx(oracle(fy, fx), abs=1e-12)
    # the two center cells straddling the midpoint interpolate to exactly 2
    assert out.values[1, 2] == pytest.approx(2.0, abs=1e-12)
    assert out.values[2, 1] == pytest.approx(2.0, abs=1e-12)


def test_resample_all_nodata_errors():
    grid = make_grid(np.full((3, 3), -1.0), nodata=-1.0)
    with pytest.raises(RasterError, match="all-nodata"):
        resample(grid, 50.0)


def test_resample_propagates_nodata():
    vals = np.arange(16, dtype=float).reshape(4, 4)
    vals[1, 1] = -9999.0
    out = resample(make_grid(vals, nodata=-9999.0), 50.0)
    assert (out.values == -9999.0).any()
    # corner far from the hole stays clean
    assert out.values[-1, -1] != -9999.0


@pytest.mark.parametrize("dtype, nodata", [
    ("float64", None), ("float64", -9999.0), ("float64", float("nan")), ("float32", float("nan")),
    ("float32", 0.1),  # a sentinel float32 cannot hold: cells equal to float32(0.1) are nodata
    ("int16", None), ("int16", -9999.0),
])
@pytest.mark.parametrize("target", [50.0, 30.0, 100.0, 170.0])
def test_resample_in_row_blocks_equals_the_whole_grid_expression(monkeypatch, dtype, nodata, target):
    """resample builds its values a few output rows at a time; every block
    size gives the bits of the whole-grid expression, with nodata cells on
    the input rows that block edges read."""
    rng = np.random.default_rng(3)
    values = rng.uniform(-500.0, 500.0, (13, 11)).astype(dtype)
    if nodata is not None:
        values[[0, 2, 5, 6, 12], [0, 4, 10, 3, 7]] = nodata
    grid = RasterGrid(11, 13, "elevation", values, GeoTransform(0.0, 0.0, 100.0, LUNAR_RADIUS), nodata)
    out = resample(grid, target)
    want = bilinear_whole(grid, out.width, out.height, target)
    for block_rows in (None, 1, 2, 3, 7):
        if block_rows is not None:
            monkeypatch.setattr(raster, "_WINDOW_BYTES", block_rows * out.width * 8)
        got = resample(grid, target).values
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


@given(
    shape=st.tuples(st.integers(3, 17), st.integers(3, 9)),
    seed=st.integers(0, 2**32 - 1),
    dtype=st.sampled_from(["float64", "float32", "int16"]),
    nodata=st.sampled_from([None, -9999.0, float("nan")]),
    window_rows=st.sampled_from([None, 1, 2, 3, 7]),
    data=st.data(),
)
def test_slope_in_row_windows_equals_the_whole_grid_expression(shape, seed, dtype, nodata, window_rows, data):
    """compute_slope builds its values a window of rows at a time, reading
    one row beyond each window edge; every window size gives the bits of
    the whole-grid expression, with nodata cells on window-edge rows."""
    assume(not (dtype == "int16" and nodata is not None and math.isnan(nodata)))
    rows, cols = shape
    values = np.random.default_rng(seed).uniform(-500.0, 500.0, shape).astype(dtype)
    if nodata is not None:
        step = window_rows or rows
        edges = sorted({r for r in range(rows) if r % step in (0, step - 1)} | {rows - 1})
        cells = data.draw(st.lists(st.tuples(st.sampled_from(edges), st.integers(0, cols - 1)), max_size=4))
        for r, c in cells:
            values[r, c] = nodata
    dem = RasterGrid(cols, rows, "elevation", values, GeoTransform(0.0, 0.0, 100.0, LUNAR_RADIUS), nodata)
    want = slope_whole(dem)
    with pytest.MonkeyPatch.context() as mp:
        if window_rows is not None:
            mp.setattr(raster, "_WINDOW_BYTES", window_rows * cols * 8)
        got = compute_slope(dem).values
    assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


def test_resample_extent_covers_input():
    grid = make_grid(np.ones((5, 7)))
    out = resample(grid, 30.0)
    assert out.width * 30.0 >= 7 * 100.0
    assert out.height * 30.0 >= 5 * 100.0


# ---------------------------------------------------------------------------
# slope


def test_flat_dem_has_exactly_zero_slope():
    out = compute_slope(make_grid(np.full((8, 8), 1234.5)))
    assert out.band_kind == "slope"
    assert np.all(out.values == 0.0)


def test_planar_dem_half_gradient():
    out = compute_slope(planar_dem(16, gx=0.5))
    interior = out.values[1:-1, 1:-1]
    assert np.all(np.abs(interior - math.degrees(math.atan(0.5))) < 0.01)
    assert abs(interior[4, 4] - 26.565051) < 0.01


def test_planar_dem_unit_gradient_is_45_degrees():
    out = compute_slope(planar_dem(16, gy=1.0))
    interior = out.values[1:-1, 1:-1]
    assert np.all(np.abs(interior - 45.0) < 0.01)


def test_slope_rotation_consistency():
    # same gradient magnitude in different directions yields the same slope
    g = 0.7
    angles = [0.0, math.pi / 6, math.pi / 4, math.pi / 3, math.pi / 2, 2.2]
    slopes = []
    for a in angles:
        out = compute_slope(planar_dem(12, gx=g * math.cos(a), gy=g * math.sin(a)))
        slopes.append(out.values[5, 5])
    expected = math.degrees(math.atan(g))
    for s in slopes:
        assert abs(s - expected) < 0.01


def test_slope_requires_elevation_and_min_size():
    with pytest.raises(RasterError, match="elevation"):
        compute_slope(make_grid(np.ones((5, 5)), band_kind="intensity"))
    with pytest.raises(RasterError, match="too small"):
        compute_slope(make_grid(np.ones((2, 5))))


def test_slope_nodata_poisons_window():
    vals = np.zeros((6, 6))
    vals[2, 2] = -9999.0
    out = compute_slope(make_grid(vals, nodata=-9999.0))
    bad = out.values == -9999.0
    assert bad[1:4, 1:4].all()
    assert not bad[5, 5]


def test_slope_band_rejects_out_of_range_degrees():
    with pytest.raises(RasterError, match=r"\[0, 90\]"):
        make_grid([[10.0, 95.0]], band_kind="slope")


def test_slope_band_rejects_nan_without_nan_sentinel():
    with pytest.raises(RasterError, match=r"\[0, 90\]"):
        make_grid(np.array([[120.0, np.nan], [1.0, 2.0]]), band_kind="slope")
    with pytest.raises(RasterError, match=r"\[0, 90\]"):
        make_grid(np.array([[10.0, np.nan], [1.0, 2.0]]), band_kind="slope")
    with pytest.raises(RasterError, match=r"\[0, 90\]"):
        make_grid(np.array([[10.0, np.nan], [1.0, 2.0]]), band_kind="slope", nodata=-9999.0)
    ok = make_grid(np.array([[10.0, np.nan], [1.0, 2.0]]), band_kind="slope", nodata=float("nan"))
    assert ok.valid_mask().sum() == 3


def test_load_raster_names_the_file_of_a_bad_slope(tmp_path):
    path = write_raster(tmp_path, "s.bin", make_grid([[10.0, np.nan]], band_kind="intensity"))
    hdr = path.with_suffix(".hdr")
    hdr.write_text(hdr.read_text().replace("band = intensity", "band = slope"))
    with pytest.raises(RasterError, match=rf"^{re.escape(str(path))}: slope values must lie in \[0, 90\] degrees$"):
        load_raster(path)


@given(
    rows=st.integers(1, 6),
    cols=st.integers(1, 4),
    cells=st.data(),
    nodata=st.sampled_from([None, -9999.0, float("nan")]),
    window_rows=st.sampled_from([1, 2, 5, None]),
)
def test_windowed_grid_checks_equal_the_whole_grid_checks(rows, cols, cells, nodata, window_rows):
    """The slope range check and the all-nodata check reduce over row
    windows; each must decide as a check over the whole grid does."""
    pick = st.sampled_from([0.0, 45.0, 90.0, -0.5, 90.5, float("nan"), -9999.0])
    values = np.array(cells.draw(st.lists(pick, min_size=rows * cols, max_size=rows * cols))).reshape(rows, cols)
    with pytest.MonkeyPatch.context() as mp:
        if window_rows is not None:
            mp.setattr(raster, "_WINDOW_BYTES", window_rows * cols * values.itemsize)
        try:
            grid = make_grid(values, band_kind="slope", nodata=nodata)
        except RasterError as exc:
            assert str(exc) == "slope values must lie in [0, 90] degrees"
            assert not slope_in_range(values, nodata)
            return
        assert slope_in_range(values, nodata)
        has_valid = grid.valid_mask().any()
        try:
            resample(grid, 50.0)
        except RasterError as exc:
            assert str(exc) == "cannot resample an all-nodata grid"
            assert not has_valid
        else:
            assert has_valid


@pytest.mark.skipif(sys.platform != "linux", reason="ru_maxrss is in KiB on Linux")
@pytest.mark.parametrize("nodata", [None, -1.0])
def test_loading_a_slope_holds_one_window_beyond_its_payload(tmp_path, nodata):
    """The range check of a mapped slope pages the payload in once; its
    temporaries stay within one window. Measured in a fresh process."""
    n = 2048
    values = np.random.default_rng(3).random((n, n), dtype=np.float32) * np.float32(80.0)
    path = write_raster(tmp_path, "slope.bin", make_grid(values, band_kind="slope", nodata=nodata), dtype="float32")
    script = (
        "import resource, sys\n"
        "from craterpipe.raster import load_raster\n"
        "before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss\n"
        "load_raster(sys.argv[1])\n"
        "print(1024 * (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - before))\n"
    )
    src = str(Path(craterpipe.__file__).resolve().parents[1])
    out = subprocess.run([sys.executable, "-c", script, str(path)], capture_output=True, text=True,
                         check=True, env={**os.environ, "PYTHONPATH": src})
    assert int(out.stdout) <= path.stat().st_size + raster._WINDOW_BYTES


@pytest.mark.skipif(sys.platform != "linux", reason="ru_maxrss is in KiB on Linux")
@pytest.mark.parametrize("nodata", [None, -9999.0])
def test_loading_a_stack_builds_no_resampled_or_slope_values(tmp_path, nodata):
    """load_stack resamples a mapped DEM and derives its slope without
    building values, so it holds at most one window: the all-nodata check
    of a DEM that declares nodata stops at the first window holding a valid
    cell. Measured in a fresh process."""
    n = 2048
    gt = GeoTransform(x_min=0.0, y_max=0.0, resolution=50.0, body_radius=1_737_400.0)
    dem = np.random.default_rng(3).random((n, n), dtype=np.float32) * np.float32(500.0)
    write_raster(tmp_path, "dem.bin", RasterGrid(n, n, "elevation", dem, gt, nodata), dtype="float32")
    intensity = make_grid(np.zeros((n // 2, n // 2)), band_kind="intensity", resolution=100.0)
    write_raster(tmp_path, "intensity.bin", intensity, dtype="float32")
    band = {"name": "b", "ps_a": 256, "ps_r": 128}
    config = {"rasters": {"intensity": "intensity.bin", "elevation": "dem.bin"}, "bands": [band]}
    (tmp_path / "config.json").write_text(json.dumps(config))
    script = (
        "import resource, sys\n"
        "from craterpipe.config import load_config\n"
        "from craterpipe.runner import load_stack\n"
        "cfg = load_config(sys.argv[1])\n"
        "before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss\n"
        "stack = load_stack(cfg)\n"
        "print(1024 * (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - before))\n"
    )
    src = str(Path(craterpipe.__file__).resolve().parents[1])
    out = subprocess.run([sys.executable, "-c", script, str(tmp_path / "config.json")], capture_output=True,
                         text=True, check=True, env={**os.environ, "PYTHONPATH": src})
    assert int(out.stdout) <= raster._WINDOW_BYTES


@pytest.mark.skipif(sys.platform != "linux", reason="ru_maxrss is in KiB on Linux")
@pytest.mark.parametrize("nodata", [None, -9999.0])
def test_deriving_a_slope_holds_its_output_and_a_few_windows(tmp_path, nodata):
    """The slope of a mapped DEM at the intensity's resolution is built a
    window of rows at a time: reading it holds the float64 output, the
    payload and a few windows of temporaries, not whole-grid ones. Measured
    in a fresh process."""
    n = 2048
    gt = GeoTransform(x_min=0.0, y_max=0.0, resolution=100.0, body_radius=LUNAR_RADIUS)
    dem = np.random.default_rng(3).random((n, n), dtype=np.float32) * np.float32(500.0)
    payload = write_raster(tmp_path, "dem.bin", RasterGrid(n, n, "elevation", dem, gt, nodata), dtype="float32")
    write_raster(tmp_path, "intensity.bin", RasterGrid(n, n, "intensity", np.zeros((n, n)), gt), dtype="float32")
    band = {"name": "b", "ps_a": 256, "ps_r": 128}
    config = {"rasters": {"intensity": "intensity.bin", "elevation": "dem.bin"}, "bands": [band]}
    (tmp_path / "config.json").write_text(json.dumps(config))
    script = (
        "import resource, sys\n"
        "from craterpipe.config import load_config\n"
        "from craterpipe.runner import load_stack\n"
        "cfg = load_config(sys.argv[1])\n"
        "before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss\n"
        "load_stack(cfg)[2].values\n"
        "print(1024 * (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - before))\n"
    )
    src = str(Path(craterpipe.__file__).resolve().parents[1])
    out = subprocess.run([sys.executable, "-c", script, str(tmp_path / "config.json")], capture_output=True,
                         text=True, check=True, env={**os.environ, "PYTHONPATH": src})
    assert int(out.stdout) <= n * n * 8 + payload.stat().st_size + 12 * raster._WINDOW_BYTES


def test_built_values_are_built_once_on_first_read():
    calls = []

    def build(rows):
        calls.append(1)
        return np.arange(6.0).reshape(2, 3)[rows]

    grid = RasterGrid(3, 2, "elevation", build, make_grid(np.zeros((1, 1))).geotransform)
    assert (grid.width, grid.height, grid.band_kind) == (3, 2, "elevation") and not calls
    values = grid.values
    assert isinstance(values, np.ndarray) and np.array_equal(values, np.arange(6.0).reshape(2, 3))
    assert grid.values is values and grid.valid_mask().all() and grid.values is values
    assert len(calls) == 1


def test_built_values_are_checked_as_given_values_are():
    gt = make_grid(np.zeros((1, 1))).geotransform
    steep = RasterGrid(2, 2, "slope", lambda rows: np.full((2, 2), 120.0), gt)
    with pytest.raises(RasterError, match=r"\[0, 90\]"):
        steep.values
    wrong_shape = RasterGrid(2, 2, "elevation", lambda rows: np.zeros((3, 2)), gt)
    with pytest.raises(RasterError, match="does not match declared 2x2 grid"):
        wrong_shape.values


@pytest.mark.parametrize("block", [np.zeros((1, 3)), np.zeros(3), np.zeros((2, 4))], ids=["one-row", "flat", "wide"])
def test_a_built_block_of_the_wrong_shape_is_refused(monkeypatch, block):
    """A block that is not (rows of its window, width) would broadcast over
    its window or fail in NumPy; it fails naming the declared grid."""
    monkeypatch.setattr(raster, "_WINDOW_BYTES", 2 * 3 * 8)
    grid = RasterGrid(3, 4, "elevation", lambda rows: block, make_grid(np.zeros((1, 1))).geotransform)
    with pytest.raises(RasterError, match=rf"^value shape {re.escape(str(block.shape))} does not match declared 4x3 grid$"):
        grid.values


@given(
    rows=st.lists(st.lists(st.sampled_from([0.0, -2.5, 7.25, 1e300, -9999.0]), min_size=3, max_size=3), min_size=1,
                  max_size=9),
    nodata=st.sampled_from([None, -9999.0, float("nan")]),
    blank_rows=st.sets(st.integers(0, 8)),
    window_rows=st.sampled_from([None, 1, 2, 3]),
)
def test_mosaic_range_over_windows_equals_the_whole_grid_range(rows, nodata, blank_rows, window_rows):
    """The mosaic scale range reduces window by window, windows holding only
    nodata included; it is None for a grid with no valid cell."""
    values = np.array(rows)
    if nodata is not None:
        values[[r for r in blank_rows if r < len(values)]] = nodata
    grid = make_grid(values, nodata=nodata)
    valid = grid.valid_mask()
    want = (float(values[valid].min()), float(values[valid].max())) if valid.any() else None
    with pytest.MonkeyPatch.context() as mp:
        if window_rows is not None:
            mp.setattr(raster, "_WINDOW_BYTES", window_rows * 3 * 8)
        assert raster._mosaic_range(grid) == want


def test_resample_and_slope_build_once_on_first_read(monkeypatch):
    calls = Counter()
    for name in ("_bilinear", "_slope"):
        def counted(*args, _fn=getattr(raster, name), _name=name):
            calls[_name] += 1
            return _fn(*args)

        monkeypatch.setattr(raster, name, counted)
    dem = make_grid(np.random.default_rng(4).normal(scale=50.0, size=(6, 7)))
    slope = compute_slope(resample(dem, 40.0))
    assert (slope.width, slope.height) == (18, 15) and not calls
    values = slope.values
    assert calls == {"_bilinear": 1, "_slope": 1}
    assert slope.values is values and slope.valid_mask().all()
    assert calls == {"_bilinear": 1, "_slope": 1}


def test_resampled_grid_lets_go_of_its_input_once_built():
    """A built grid drops its builder, so a mapped input is unmapped once
    nothing else holds it."""
    dem = make_grid(np.ones((4, 4)))
    ref = weakref.ref(dem)
    out = resample(dem, 50.0)
    del dem
    gc.collect()
    assert ref() is not None
    out.values
    gc.collect()
    assert ref() is None


def test_slope_bounds_for_random_dems():
    rng = np.random.default_rng(9)
    for _ in range(10):
        dem = make_grid(rng.normal(scale=500.0, size=(10, 10)), resolution=10.0)
        out = compute_slope(dem)
        assert out.values.min() >= 0.0
        assert out.values.max() < 90.0


# ---------------------------------------------------------------------------
# byte rescale


def byte_scale(grid):
    return _byte_scale(grid.values, grid.valid_mask())


def test_rescale_endpoints():
    assert byte_scale(make_grid([[0.0, 10.0]])).tolist() == [[0, 255]]


def test_rescale_constant_grid_goes_to_zero():
    assert np.all(byte_scale(make_grid(np.full((3, 3), 42.0))) == 0)


def test_rescale_midpoint_rounds_to_128():
    assert byte_scale(make_grid([[0.0, 5.0, 10.0]])).tolist() == [[0, 128, 255]]


def test_rescale_nodata_maps_to_zero():
    assert byte_scale(make_grid([[1.0, -9999.0, 3.0]], nodata=-9999.0)).tolist() == [[0, 0, 255]]


@given(st.lists(st.floats(min_value=-1e6, max_value=1e6), min_size=2, max_size=40))
def test_rescale_is_monotone(values):
    out = byte_scale(make_grid([values]))[0]
    order = np.argsort(values, kind="stable")
    mapped = out[order]
    assert np.all(np.diff(mapped.astype(int)) >= 0)


# ---------------------------------------------------------------------------
# tiling


def three_band_stack(n, resolution=100.0):
    rng = np.random.default_rng(n)
    intensity = make_grid(rng.uniform(0, 1000, size=(n, n)), band_kind="intensity", resolution=resolution)
    elevation = make_grid(rng.normal(scale=200, size=(n, n)), resolution=resolution)
    slope = compute_slope(elevation)
    return intensity, elevation, slope


def test_tile_offsets_for_2048_mosaic():
    spec = PatchSpec(ps_a=1024, ps_r=512, overlap_fraction=0.5)
    placements = patch_grid(2048, 2048, spec)
    assert len(placements) == 9
    offs = sorted({r for _, r, _ in placements})
    assert offs == [0, 512, 1024]


def test_tile_single_window():
    intensity, elevation, slope = three_band_stack(64)
    spec = PatchSpec(ps_a=64, ps_r=32, overlap_fraction=0.5)
    patches = tile(intensity, elevation, slope, spec)
    assert len(patches) == 1
    assert (patches[0].row0, patches[0].col0) == (0, 0)
    assert patches[0].delta_f == 2.0


def test_tile_delta_f_eight():
    intensity, elevation, slope = three_band_stack(128)
    spec = PatchSpec(ps_a=128, ps_r=16, overlap_fraction=0.5)
    patches = tile(intensity, elevation, slope, spec)
    for p in patches:
        assert p.delta_f == 8.0
        assert p.delta_f * spec.ps_r == spec.ps_a


def test_tile_ragged_edge_is_anchored():
    spec = PatchSpec(ps_a=64, ps_r=32, overlap_fraction=0.5)
    placements = patch_grid(150, 150, spec)
    offs = sorted({r for _, r, _ in placements})
    assert offs == [0, 32, 64, 86]  # final window anchored at 150 - 64


def test_tile_coverage_and_overlap_properties():
    spec = PatchSpec(ps_a=64, ps_r=32, overlap_fraction=0.5)
    placements = patch_grid(200, 168, spec)
    covered = np.zeros((168, 200), dtype=int)
    for _, r0, c0 in placements:
        covered[r0 : r0 + 64, c0 : c0 + 64] += 1
    assert covered.min() >= 1

    # any square of side <= ps_a/2 fully inside the mosaic sits in one window
    rng = np.random.default_rng(2)
    for _ in range(200):
        side = int(rng.integers(1, 33))
        r = int(rng.integers(0, 168 - side + 1))
        c = int(rng.integers(0, 200 - side + 1))
        contained = any(
            r0 <= r and r + side <= r0 + 64 and c0 <= c and c + side <= c0 + 64
            for _, r0, c0 in placements
        )
        assert contained, (side, r, c)


def test_tile_rejects_mismatched_grids():
    intensity, elevation, slope = three_band_stack(64)
    small = make_grid(np.ones((32, 32)), band_kind="intensity")
    with pytest.raises(RasterError, match="^elevation grid 64x64 does not match intensity 32x32$"):
        tile(small, elevation, slope, PatchSpec(64, 32, 0.5))


def test_tile_rejects_mosaic_smaller_than_patch():
    intensity, elevation, slope = three_band_stack(32)
    with pytest.raises(RasterError, match="smaller than the patch side"):
        tile(intensity, elevation, slope, PatchSpec(64, 32, 0.5))


def test_tile_channel_values_and_downsample():
    # constant window scales to zero bytes; a two-level window keeps contrast
    n = 8
    vals = np.zeros((n, n))
    vals[:, n // 2 :] = 10.0
    intensity = make_grid(vals, band_kind="intensity")
    elevation = make_grid(np.full((n, n), 5.0))
    slope = make_grid(np.zeros((n, n)), band_kind="slope")
    patches = tile(intensity, elevation, slope, PatchSpec(8, 4, 0.5))
    p = patches[0]
    assert p.channels.shape == (3, 4, 4)
    assert p.channels[0, 0, 0] == 0 and p.channels[0, 0, -1] == 255
    assert np.all(p.channels[1] == 0)  # constant elevation has no contrast
    assert np.all(p.channels[2] == 0)


def test_tile_nodata_maps_to_zero_byte():
    n = 8
    vals = np.arange(n * n, dtype=float).reshape(n, n)
    vals[0, 0] = -9999.0
    intensity = make_grid(vals, band_kind="intensity", nodata=-9999.0)
    elevation = make_grid(np.arange(n * n, dtype=float).reshape(n, n))
    slope = make_grid(np.zeros((n, n)), band_kind="slope")
    patches = tile(intensity, elevation, slope, PatchSpec(8, 8, 0.5))
    assert patches[0].channels[0, 0, 0] == 0


def test_replicate_single_band_channels_identical():
    grid = make_grid(np.arange(64 * 64, dtype=float).reshape(64, 64))
    patches = replicate_single_band(grid, PatchSpec(64, 32, 0.5))
    assert len(patches) == 1
    c = patches[0].channels
    assert np.array_equal(c[0], c[1]) and np.array_equal(c[1], c[2])


def test_replicate_flat_single_band_gives_zero_patches():
    grid = make_grid(np.full((64, 64), 3.0))
    patches = replicate_single_band(grid, PatchSpec(64, 32, 0.5))
    assert np.all(patches[0].channels == 0)


def test_mosaic_scale_mode_uses_global_range():
    n = 8
    vals = np.zeros((n, n))
    vals[:, : n // 2] = 0.0
    vals[:, n // 2 :] = 100.0
    intensity = make_grid(vals, band_kind="intensity")
    elevation = make_grid(vals.copy())
    slope = make_grid(np.zeros((n, n)), band_kind="slope")
    spec = PatchSpec(4, 4, 0.5)
    per_patch = tile(intensity, elevation, slope, spec, scale_mode="patch")
    per_mosaic = tile(intensity, elevation, slope, spec, scale_mode="mosaic")
    # left-half windows are constant: zero bytes per patch, but global scaling
    # still maps value 0 to byte 0 and value 100 to byte 255
    left_patch = [p for p in per_mosaic if p.col0 == 0][0]
    right_patch = [p for p in per_mosaic if p.col0 == 4][0]
    assert np.all(left_patch.channels[0] == 0)
    assert np.all(right_patch.channels[0] == 255)
    left_local = [p for p in per_patch if p.col0 == 0][0]
    assert np.all(left_local.channels[0] == 0)


def _tile_stack(data, nodata, stack):
    """Grids of one size for tile: the same grid three times ("replicated"),
    three distinct grids of the same values ("copies"), a grid given for the
    first and last channel ("shared") or three grids of different values."""
    height, width = data.draw(st.integers(12, 30)), data.draw(st.integers(12, 30))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    level = data.draw(st.sampled_from(["random", "flat", "two-level"]))
    dead = data.draw(st.sampled_from([0.0, 0.2, 1.0])) if nodata is not None else 0.0

    def grid():
        values = {"random": lambda: rng.uniform(-500.0, 500.0, (height, width)),
                  "flat": lambda: np.full((height, width), 7.0),
                  "two-level": lambda: rng.integers(0, 2, (height, width)) * 40.0}[level]()
        values[rng.random((height, width)) < dead] = nodata
        return values

    g = make_grid(grid(), band_kind="intensity", nodata=nodata)
    if stack == "replicated":
        return g, g, g
    if stack == "copies":
        return g, make_grid(g.values.copy(), nodata=nodata), make_grid(g.values.copy(), nodata=nodata)
    if stack == "shared":
        return g, make_grid(grid(), nodata=nodata), g
    return g, make_grid(grid(), nodata=nodata), make_grid(grid(), nodata=nodata)


@pytest.mark.parametrize("stack", ["replicated", "copies", "shared", "distinct"])
@pytest.mark.parametrize("sides", [(12, 12), (12, 6), (12, 5)], ids=["same", "divides", "ragged"])
@pytest.mark.parametrize("scale_mode", ["patch", "mosaic"])
@pytest.mark.parametrize("nodata", [None, -9999.0, math.nan], ids=["none", "sentinel", "nan"])
@settings(max_examples=8, deadline=None)
@given(data=st.data())
def test_tile_matches_the_per_channel_reference(nodata, scale_mode, sides, stack, data):
    """tile cuts each distinct grid once per window; every patch must equal
    the per-channel loop's, whichever grids repeat."""
    grids = _tile_stack(data, nodata, stack)
    spec = PatchSpec(*sides, 0.5)
    got, want = tile(*grids, spec, scale_mode), tile_reference(*grids, spec, scale_mode)
    assert [(p.patch_id, p.row0, p.col0) for p in got] == [(p.patch_id, p.row0, p.col0) for p in want]
    for g, w in zip(got, want):
        assert np.array_equal(g.channels, w.channels), g.patch_id


@settings(max_examples=300, deadline=None)
@given(n=st.integers(1, 299), data=st.data())
def test_box_weights_equal_the_loop(n, data):
    out = data.draw(st.integers(1, n))
    assert _box_weights(n, out).tobytes() == box_weights(n, out).tobytes()


@pytest.mark.parametrize("distinct, calls", [(False, 1), (True, 3)], ids=["single-band", "three-bands"])
def test_tile_takes_one_mosaic_range_per_distinct_grid(monkeypatch, distinct, calls):
    seen = []
    monkeypatch.setattr(raster, "_mosaic_range", lambda g: seen.append(g) or (0.0, 1.0))
    grid = make_grid(np.arange(64 * 64, dtype=float).reshape(64, 64))
    spec = PatchSpec(32, 16, 0.5)
    if distinct:
        tile(grid, make_grid(grid.values.copy()), make_grid(grid.values.copy()), spec, scale_mode="mosaic")
    else:
        replicate_single_band(grid, spec, scale_mode="mosaic")
    assert len(seen) == calls


@pytest.mark.parametrize("scale_mode", ["patch", "mosaic"])
def test_tile_builds_no_whole_grid_valid_mask(monkeypatch, scale_mode):
    """Each window's valid cells are taken from the window, not cut from a
    mask of the whole grid."""
    indices = []
    valid_mask = RasterGrid.valid_mask
    monkeypatch.setattr(RasterGrid, "valid_mask", lambda g, *index: indices.append(index) or valid_mask(g, *index))
    intensity, elevation, slope = three_band_stack(64)
    slope.values  # built before tile, so its own range check is not counted
    indices.clear()
    tile(intensity, elevation, slope, PatchSpec(32, 16, 0.5), scale_mode=scale_mode)
    assert indices and all(index and index[0] != slice(None) for index in indices)
    windows = [index[0] for index in indices if isinstance(index[0], tuple)]
    assert len(windows) == 9 * 3 and all(r.stop - r.start == c.stop - c.start == 32 for r, c in windows)


def test_patch_spec_validation():
    with pytest.raises(RasterError):
        PatchSpec(ps_a=512, ps_r=1024, overlap_fraction=0.5)
    with pytest.raises(RasterError):
        PatchSpec(ps_a=256, ps_r=512, overlap_fraction=0.5)
    with pytest.raises(RasterError):
        PatchSpec(ps_a=1024, ps_r=512, overlap_fraction=1.0)
    with pytest.raises(RasterError):
        PatchSpec(ps_a=10, ps_r=5, overlap_fraction=0.33)  # non-integer stride


def test_patch_image_export(tmp_path):
    grid = make_grid(np.arange(64 * 64, dtype=float).reshape(64, 64))
    patch = replicate_single_band(grid, PatchSpec(64, 32, 0.5))[0]
    out = tmp_path / "p.ppm"
    write_patch_image(patch, out)
    data = out.read_bytes()
    assert data.startswith(b"P6\n32 32\n255\n")
    assert len(data) == len(b"P6\n32 32\n255\n") + 32 * 32 * 3
