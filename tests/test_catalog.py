"""Catalog loading, truth-row selection and box projection tests."""

import math
import re
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from craterpipe.catalog import Catalog, in_size_range, load_catalog, select, to_boxes
from craterpipe.config import CatalogConfig
from craterpipe.errors import CatalogError
from craterpipe.geo import GeoTransform
from craterpipe.runner import _load_truth

from conftest import LUNAR_RADIUS, write_catalog_csv
from reference import select_rows

GT = GeoTransform(x_min=0.0, y_max=0.0, resolution=100.0, body_radius=LUNAR_RADIUS)


def bits(values):
    return np.asarray(values, dtype=np.float64).view(np.uint64).tolist()


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


def test_a_missing_catalog_is_named_before_a_bad_schema(tmp_path):
    path = tmp_path / "gone.csv"
    with pytest.raises(CatalogError) as err:
        load_catalog(path, schema="no-such-preset")
    assert str(err.value) == f"catalog file not found: {path}"


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


@pytest.mark.parametrize(
    "schema, header",
    [("robbins", "CRATER_ID,LAT_CIRC_IMG,LON_CIRC_IMG,DIAM_CIRC_IMG"), ("head", "Lon,Lat,Diam_km")],
)
def test_catalog_with_a_byte_order_mark_loads_as_without(tmp_path, schema, header):
    rows = ["00-1-1,10.5,40.0,3.3", "00-1-2,11.5,41.0,4.4"] if schema == "robbins" else ["40.0,10.5,3.3"]
    (tmp_path / "plain").mkdir(), (tmp_path / "marked").mkdir()
    plain, marked = tmp_path / "plain" / "cat.csv", tmp_path / "marked" / "cat.csv"
    plain.write_text("\n".join([header, *rows]) + "\n", encoding="utf-8")
    marked.write_text("\n".join([header, *rows]) + "\n", encoding="utf-8-sig")
    assert marked.read_bytes().startswith(b"\xef\xbb\xbf")
    want, got = load_catalog(plain, schema=schema), load_catalog(marked, schema=schema)
    for col in ("ids", "lon", "lat", "diam_km"):
        assert getattr(got, col).tolist() == getattr(want, col).tolist(), col
    if schema == "robbins":
        assert got.ids.tolist() == ["00-1-1", "00-1-2"]
        marked.write_text("\n".join([header, rows[0], rows[0]]) + "\n", encoding="utf-8-sig")
        with pytest.raises(CatalogError, match="duplicate crater id '00-1-1'"):
            load_catalog(marked, schema=schema)


def test_save_round_trip(tmp_path):
    cat = cat_of([5.0, 12.0])
    path = write_catalog_csv(tmp_path, "out.csv", zip(cat.ids, cat.lon, cat.lat, cat.diam_km))
    loaded = load_catalog(path)
    assert loaded.ids.tolist() == cat.ids.tolist() and loaded.diam_km.tolist() == [5.0, 12.0]


def test_in_size_range_half_open():
    cat = cat_of([4.9, 5.0, 19.99, 20.0])
    out = cat.take(in_size_range(cat.diam_km, 5.0, 20.0))
    assert out.diam_km.tolist() == [5.0, 19.99]
    assert in_size_range(cat.diam_km, 20.0, None).sum() == 1


def test_in_size_range_nested_equals_tighter():
    cat = cat_of(list(np.linspace(1, 30, 25)))
    outer = cat.take(in_size_range(cat.diam_km, 2.0, 25.0))
    once = outer.take(in_size_range(outer.diam_km, 5.0, 20.0))
    direct = cat.take(in_size_range(cat.diam_km, 5.0, 20.0))
    assert once.ids.tolist() == direct.ids.tolist()


def test_in_size_range_empty_window():
    cat = cat_of([5.0, 10.0])
    assert not in_size_range(cat.diam_km, 6.0, 6.0001).any()


def test_region_identity_and_empty(gt100):
    cat = cat_of([5.0, 6.0, 7.0])
    assert len(select(cat, gt100, (-180, 180, -90, 90), None, None)[0]) == 3
    assert len(select(cat, gt100, (100, 120, 0, 10), None, None)[0]) == 0


def test_region_boundary_inclusion(gt100):
    cat = one_crater(60.0, 0.0, 5.0)
    assert len(select(cat, gt100, (60.0, 180.0, -60.0, 60.0), None, None)[0]) == 1
    assert len(select(cat, gt100, (-180.0, 60.0, -60.0, 60.0), None, None)[0]) == 0


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


def test_duplicate_ids_rejected(tmp_path):
    path = write_catalog_csv(tmp_path, "t.csv", [[cid, i, 0, 1.0] for i, cid in enumerate(["a", "b", "c", "b", "a"])])
    with pytest.raises(CatalogError, match=f"^{re.escape(str(path))}: catalog 't' has duplicate crater id 'b'$"):
        load_catalog(path)


def test_catalog_columns_are_read_only_views_of_what_it_is_given():
    lon = np.array([1.0, 2.0])
    cat = Catalog("t", ["a", "b"], lon, [0.0, 0.0], [1.0, 2.0])
    assert np.shares_memory(cat.lon, lon)
    assert lon.flags.writeable and not cat.lon.flags.writeable


# rows and windows on one another's edges, and longitudes and diameters whose boxes overflow
EDGE_LONS = [-10.0, 0.0, 5.0, 10.0]
EDGE_LATS = [-90.0, -5.0, 0.0, 5.0, 90.0]
EDGE_DIAMS = [1.0, 5.0, 20.0]


@st.composite
def truth_window(draw):
    """(rows, region, dmin_km, dmax_km) as a catalog file and its config hold them."""
    rows = [
        (
            f"c{i}",
            draw(st.sampled_from(EDGE_LONS + [1e306, -1e306]) | st.floats(-180.0, 360.0)),
            draw(st.sampled_from(EDGE_LATS) | st.floats(-90.0, 90.0)),
            draw(st.sampled_from(EDGE_DIAMS + [1e305]) | st.floats(0.01, 100.0)),
        )
        for i in range(draw(st.integers(0, 12)))
    ]
    bounds = st.lists(st.sampled_from(EDGE_LONS), min_size=2, max_size=2, unique=True).map(sorted)
    lat_bounds = st.lists(st.sampled_from(EDGE_LATS), min_size=2, max_size=2, unique=True).map(sorted)
    region = draw(st.none() | st.tuples(bounds, lat_bounds).map(lambda b: (*b[0], *b[1])))
    dmin, dmax = draw(st.lists(st.sampled_from(EDGE_DIAMS), min_size=2, max_size=2, unique=True).map(sorted))
    return rows, region, draw(st.sampled_from([None, dmin])), draw(st.sampled_from([None, dmax]))


def assert_chosen_as_the_oracle(cat, boxes, window, n_rejected):
    rows, region, dmin_km, dmax_km = window
    kept, want_boxes, n_overflowed = select_rows(rows, GT, region, dmin_km, dmax_km)
    assert cat.ids.tolist() == [r[0] for r in kept]
    for k, col in enumerate((cat.lon, cat.lat, cat.diam_km), start=1):
        assert bits(col) == bits([r[k] for r in kept])
    assert bits(boxes) == bits(np.array(want_boxes).reshape(-1, 4))
    assert cat.n_rejected == n_rejected + n_overflowed


@settings(max_examples=150, deadline=None)
@given(window=truth_window())
def test_truth_rows_match_the_row_by_row_oracle(window):
    rows, region, dmin_km, dmax_km = window
    cat = Catalog("t", *([r[k] for r in rows] for k in range(4)), n_rejected=3)
    assert_chosen_as_the_oracle(*select(cat, GT, region, dmin_km, dmax_km), window, 3)


_BAND_BOUND = st.none() | st.sampled_from(EDGE_DIAMS) | st.floats(0.01, 100.0)


@settings(max_examples=150, deadline=None)
@given(window=truth_window(), band=st.tuples(_BAND_BOUND, _BAND_BOUND))
def test_band_mask_of_the_selected_boxes_is_the_band_projected_again(window, band):
    """An oracle band's truth boxes are the boxes select gave, masked by the
    band's size range: bit for bit the band's rows projected on their own."""
    rows, region, dmin_km, dmax_km = window
    cat = Catalog("t", *([r[k] for r in rows] for k in range(4)))
    truth, boxes = select(cat, GT, region, dmin_km, dmax_km)
    mask = in_size_range(truth.diam_km, *band)
    assert bits(boxes[mask]) == bits(to_boxes(truth.take(mask), GT))


@settings(max_examples=60, deadline=None)
@given(window=truth_window())
def test_load_truth_matches_the_row_by_row_oracle(tmp_path_factory, window):
    rows, region, dmin_km, dmax_km = window
    path = write_catalog_csv(tmp_path_factory.mktemp("truth"), "truth.csv", rows)
    cat_cfg = CatalogConfig(str(path), region=region, dmin_km=dmin_km, dmax_km=dmax_km)
    assert_chosen_as_the_oracle(*_load_truth(SimpleNamespace(resolve=Path), cat_cfg, GT), window, 0)
