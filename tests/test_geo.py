"""Coordinate algebra tests: conversions, inverses, projection."""

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from craterpipe.errors import GeoError, RasterError
from craterpipe.geo import (
    GeoTransform,
    lonlat_to_meter,
    meter_to_lonlat,
    meter_to_pixel_xy,
    pixel_to_meter_xy,
)
from craterpipe.raster import PatchSpec

R = 1_737_400.0


# The resize factor delta_f = ps_a / ps_r that undoes the patch downsampling
# is owned by PatchSpec, which also validates the two sides.
def test_resize_factor_values():
    assert PatchSpec(1024, 512, 0.5).delta_f == 2.0
    assert PatchSpec(4096, 512, 0.5).delta_f == 8.0
    assert PatchSpec(512, 512, 0.5).delta_f == 1.0


def test_resize_factor_rejects_bad_sides():
    for ps_a, ps_r in ((0, 512), (512, -1), (512, 0), (-4, -2)):
        with pytest.raises(RasterError, match="positive"):
            PatchSpec(ps_a=ps_a, ps_r=ps_r, overlap_fraction=0.5)
    with pytest.raises(RasterError):
        PatchSpec(ps_a=256, ps_r=512, overlap_fraction=0.5)


def test_geotransform_validation():
    with pytest.raises(GeoError):
        GeoTransform(0.0, 0.0, -1.0, R)
    with pytest.raises(GeoError):
        GeoTransform(0.0, 0.0, 100.0, 0.0)


def test_pixel_to_meter_direct_substitution():
    gt = GeoTransform(x_min=0.0, y_max=0.0, resolution=100.0, body_radius=R)
    assert pixel_to_meter_xy(10.0, 20.0, gt, 0, 0, 2.0) == (2000.0, -4000.0)
    # a 5 px radius spans 2 * 1000 m
    x1, y1 = pixel_to_meter_xy(5.0, 15.0, gt, 0, 0, 2.0)
    x2, y2 = pixel_to_meter_xy(15.0, 25.0, gt, 0, 0, 2.0)
    assert (x2 - x1, y1 - y2) == (2000.0, 2000.0)


def test_pixel_to_meter_origin_case():
    gt = GeoTransform(x_min=-500.0, y_max=750.0, resolution=1.0, body_radius=R)
    assert pixel_to_meter_xy(0.0, 0.0, gt, 0, 0, 1.0) == (-500.0, 750.0)
    assert pixel_to_meter_xy(2.0, 2.0, gt, 0, 0, 1.0) == (-498.0, 748.0)  # 1 px radius, 2 m box


def test_pixel_to_meter_with_patch_offset():
    gt = GeoTransform(x_min=0.0, y_max=0.0, resolution=100.0, body_radius=R)
    assert pixel_to_meter_xy(0.0, 0.0, gt, 512, 512, 2.0) == (51200.0, -51200.0)
    x1, y1 = pixel_to_meter_xy(-5.0, -5.0, gt, 512, 512, 2.0)
    x2, y2 = pixel_to_meter_xy(5.0, 5.0, gt, 512, 512, 2.0)
    assert (x2 - x1, y1 - y2) == (2000.0, 2000.0)


def test_meter_to_pixel_inverts_the_example():
    gt = GeoTransform(x_min=0.0, y_max=0.0, resolution=100.0, body_radius=R)
    assert meter_to_pixel_xy(2000.0, -4000.0, gt, 0, 0, 2.0) == (10.0, 20.0)
    # the 1000 m radius box comes back 2 * 5 px wide
    assert meter_to_pixel_xy(1000.0, -3000.0, gt, 0, 0, 2.0) == (5.0, 15.0)
    assert meter_to_pixel_xy(3000.0, -5000.0, gt, 0, 0, 2.0) == (15.0, 25.0)


def test_meter_to_pixel_at_left_edge():
    gt = GeoTransform(x_min=0.0, y_max=0.0, resolution=100.0, body_radius=R)
    x_pxl, _ = meter_to_pixel_xy(0.0, -100.0, gt, 0, 6, 2.0)
    assert x_pxl == -6 / 2.0


def test_round_trip_many_samples():
    rng = np.random.default_rng(11)
    gt = GeoTransform(x_min=-5.46e6, y_max=1.82e6, resolution=100.0, body_radius=R)
    for delta_f in (1.0, 2.0, 8.0):
        for _ in range(300):
            x, y, r = rng.uniform(0, 512), rng.uniform(0, 512), rng.uniform(0.1, 100)
            row0 = int(rng.integers(0, 40000))
            col0 = int(rng.integers(0, 40000))
            # box corners (x - r, y - r) and (x + r, y + r) to meters and back
            xs, ys = np.array([x - r, x + r]), np.array([y - r, y + r])
            x_m, y_m = pixel_to_meter_xy(xs, ys, gt, row0, col0, delta_f)
            bx, by = meter_to_pixel_xy(x_m, y_m, gt, row0, col0, delta_f)
            assert np.all(np.abs(bx - xs) < 1e-6)
            assert np.all(np.abs(by - ys) < 1e-6)
            assert abs((bx[1] - bx[0]) / 2.0 - r) < 1e-6


def test_monotone_axes():
    gt = GeoTransform(x_min=0.0, y_max=0.0, resolution=50.0, body_radius=R)
    xs = [pixel_to_meter_xy(x, 10.0, gt, 0, 0, 2.0)[0] for x in (1.0, 2.0, 5.0)]
    assert xs[0] < xs[1] < xs[2]
    ys = [pixel_to_meter_xy(10.0, y, gt, 0, 0, 2.0)[1] for y in (1.0, 2.0, 5.0)]
    assert ys[0] > ys[1] > ys[2]


@given(
    r_pxl=st.floats(min_value=0.01, max_value=500.0),
    delta_f=st.sampled_from([1.0, 2.0, 8.0]),
    s=st.floats(min_value=1.0, max_value=500.0),
)
def test_box_width_scaling_is_exact(r_pxl, delta_f, s):
    gt = GeoTransform(x_min=0.0, y_max=0.0, resolution=s, body_radius=R)
    x1, y1 = pixel_to_meter_xy(-r_pxl, -r_pxl, gt, 0, 0, delta_f)
    x2, y2 = pixel_to_meter_xy(r_pxl, r_pxl, gt, 0, 0, delta_f)
    assert (x2 - x1) / 2.0 == r_pxl * s * delta_f
    assert (y1 - y2) / 2.0 == r_pxl * s * delta_f


def test_lonlat_projection_cases():
    gt = GeoTransform(x_min=0.0, y_max=0.0, resolution=100.0, body_radius=R)
    assert lonlat_to_meter(0.0, 0.0, gt) == (0.0, 0.0)
    x, _ = lonlat_to_meter(180.0, 0.0, gt)
    assert x == pytest.approx(math.pi * R, abs=1e-6)
    with pytest.raises(GeoError):
        lonlat_to_meter(10.0, 91.0, gt)


def test_lonlat_round_trip():
    gt = GeoTransform(x_min=0.0, y_max=0.0, resolution=100.0, body_radius=R)
    rng = np.random.default_rng(3)
    for _ in range(200):
        lon = rng.uniform(-180, 180)
        lat = rng.uniform(-90, 90)
        x, y = lonlat_to_meter(lon, lat, gt)
        lon2, lat2 = meter_to_lonlat(x, y, gt)
        assert abs(lon2 - lon) < 1e-9
        assert abs(lat2 - lat) < 1e-9
