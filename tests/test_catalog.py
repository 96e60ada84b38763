"""Catalog loading, combining, filtering and box projection tests."""

import math

import numpy as np
import pytest

from craterpipe.catalog import Catalog, filter_by_region, filter_by_size, load_catalog, to_boxes
from craterpipe.errors import CatalogError

from conftest import LUNAR_RADIUS, write_catalog_csv


def cat_of(diams, name="t", lon0=0.0, lat0=0.0):
    n = len(diams)
    return Catalog(name, [f"c{i}" for i in range(n)], [lon0 + i * 0.1 for i in range(n)], [lat0] * n, diams)


def one_crater(lon, lat, diam_km):
    return Catalog("t", ["a"], [lon], [lat], [diam_km])


def test_load_empty_file_with_header(tmp_path):
    path = write_catalog_csv(tmp_path, "empty.csv", [])
    cat = load_catalog(path)
    assert len(cat) == 0


def test_load_zero_byte_file(tmp_path):
    path = tmp_path / "zero.csv"
    path.write_bytes(b"")
    cat = load_catalog(path)
    assert (len(cat), cat.n_rejected, cat.name) == (0, 0, "zero")


def test_load_single_row(tmp_path):
    path = write_catalog_csv(tmp_path, "one.csv", [["a1", 10, -5, 7.2]])
    cat = load_catalog(path)
    assert len(cat) == 1
    assert (cat.ids[0], cat.lon[0], cat.lat[0], cat.diam_km[0]) == ("a1", 10.0, -5.0, 7.2)


def test_load_rejects_invalid_rows_with_count(tmp_path):
    path = write_catalog_csv(
        tmp_path, "bad.csv", [["a", 0, 0, 5.0], ["b", 0, 0, -1.0], ["c", 0, 95.0, 2.0]]
    )
    cat = load_catalog(path)
    assert len(cat) == 1
    assert cat.n_rejected == 2


def test_load_rejects_a_radius_that_overflows(tmp_path, gt100):
    """A finite diameter whose radius in meters overflows would project to
    an infinite box, so the row is rejected and counted."""
    path = write_catalog_csv(tmp_path, "huge.csv", [["a", 0, 0, 5.0], ["b", 1, 1, 1e306], ["c", 2, 2, 3.0]])
    cat = load_catalog(path)
    assert cat.ids.tolist() == ["a", "c"] and cat.n_rejected == 1
    assert np.isfinite(to_boxes(cat, gt100)).all()


def test_load_missing_columns(tmp_path):
    path = tmp_path / "cols.csv"
    path.write_text("lon,lat\n1,2\n")
    with pytest.raises(CatalogError, match="missing columns"):
        load_catalog(path)


def test_load_malformed_above_tolerance(tmp_path):
    path = write_catalog_csv(tmp_path, "mal.csv", [["a", "x", 0, 5.0], ["b", 0, 0, 5.0]])
    with pytest.raises(CatalogError) as err:
        load_catalog(path)
    assert str(err.value) == f"{path}:2: non-numeric field (could not convert string to float: 'x')"


def test_load_named_schema(tmp_path):
    path = tmp_path / "r.csv"
    path.write_text(
        "CRATER_ID,LAT_CIRC_IMG,LON_CIRC_IMG,DIAM_CIRC_IMG\n00-1-1,10.5,40.0,3.3\n"
    )
    cat = load_catalog(path, schema="robbins")
    assert cat.ids[0] == "00-1-1"
    assert cat.diam_km[0] == 3.3


def test_save_round_trip(tmp_path):
    cat = cat_of([5.0, 12.0])
    path = write_catalog_csv(tmp_path, "out.csv", zip(cat.ids, cat.lon, cat.lat, cat.diam_km))
    loaded = load_catalog(path)
    assert loaded.ids.tolist() == cat.ids.tolist() and loaded.diam_km.tolist() == [5.0, 12.0]


def test_filter_by_size_half_open():
    cat = cat_of([4.9, 5.0, 19.99, 20.0])
    out = filter_by_size(cat, 5.0, 20.0)
    assert out.diam_km.tolist() == [5.0, 19.99]
    assert len(filter_by_size(cat, 20.0)) == 1


def test_filter_by_size_nested_equals_tighter():
    cat = cat_of(list(np.linspace(1, 30, 25)))
    once = filter_by_size(filter_by_size(cat, 2.0, 25.0), 5.0, 20.0)
    direct = filter_by_size(cat, 5.0, 20.0)
    assert once.ids.tolist() == direct.ids.tolist()


def test_filter_by_size_empty_window():
    cat = cat_of([5.0, 10.0])
    assert len(filter_by_size(cat, 6.0, 6.0001)) == 0


def test_filter_by_region_identity_and_empty():
    cat = cat_of([5.0, 6.0, 7.0])
    assert len(filter_by_region(cat, -180, 180, -90, 90)) == 3
    assert len(filter_by_region(cat, 100, 120, 0, 10)) == 0


def test_filter_by_region_boundary_inclusion():
    cat = one_crater(60.0, 0.0, 5.0)
    assert len(filter_by_region(cat, 60.0, 180.0, -60.0, 60.0)) == 1
    assert len(filter_by_region(cat, -180.0, 60.0, -60.0, 60.0)) == 0


def test_to_boxes_unit_case(gt100):
    cat = one_crater(0.0, 0.0, 2.0)
    boxes = to_boxes(cat, gt100)
    assert boxes.shape == (1, 4)
    assert boxes[0].tolist() == [-1000.0, -1000.0, 1000.0, 1000.0]


def test_to_boxes_preserves_order(gt100):
    cat = cat_of([2.0, 4.0])
    boxes = to_boxes(cat, gt100)
    assert len(boxes) == len(cat) == 2
    assert boxes[1, 2] - boxes[1, 0] == pytest.approx(4000.0)


def test_to_boxes_projection_substitution(gt100):
    cat = one_crater(90.0, 0.0, 20.0)
    boxes = to_boxes(cat, gt100)
    cx = (boxes[0, 0] + boxes[0, 2]) / 2.0
    assert cx == pytest.approx(LUNAR_RADIUS * math.pi / 2.0, rel=1e-12)
    assert (boxes[0, 2] - boxes[0, 0]) / 2.0 == pytest.approx(10_000.0)


def test_duplicate_ids_rejected():
    with pytest.raises(CatalogError, match="^catalog 't' has duplicate crater id 'b'$"):
        Catalog("t", ["a", "b", "c", "b", "a"], [0, 1, 2, 3, 4], [0] * 5, [1.0] * 5)
