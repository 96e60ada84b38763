"""Columnar text I/O against the row-by-row oracles in reference.py.

The catalog and record loaders convert whole columns; the reference loaders
parse one row at a time. On drawn files, malformed rows, blank lines, quoted
fields, comments, ragged rows and float()-only spellings included, both must
give the same ids, the same values bit for bit, the same n_rejected and the
same error messages. The writers must give the bytes csv.writer and repr
give, and what they write must read back bit for bit.
"""

import csv
import io
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from craterpipe.catalog import load_catalog, save_catalog
from craterpipe.detector import load_detections
from craterpipe.errors import CatalogError, DetectionError
from craterpipe.geo import GeoTransform, lonlat_to_meter, meter_to_lonlat
from craterpipe.postprocess import DetectionSet, load_global_detections, write_global_detections
from craterpipe.textcols import csv_text, write_csv

from reference import load_catalog_rows, load_detection_rows

SETTINGS = settings(max_examples=150, deadline=None)
GT = GeoTransform(x_min=0.0, y_max=0.0, resolution=100.0, body_radius=1_737_400.0)


def bits(values):
    return np.asarray(values, dtype=np.float64).view(np.uint64).tolist()


def quote(field):
    return '"' + field.replace('"', '""') + '"'


# float()-only spellings, non-numbers and plain numbers
NUMBER = st.one_of(
    st.floats(-200.0, 200.0).map(repr),
    st.integers(-100, 100).map(str),
    st.sampled_from(["1_0", " 1.5", "2.5 ", "inf", "-inf", "nan", "1e1", "+3", ".5", "0x1", "x", "", "1,5", "1e"]),
    st.sampled_from(["-90", "90.0", "0", "-0.0", "-90.000001"]),
)


@st.composite
def catalog_text(draw):
    header = draw(st.sampled_from([
        ["id", "lon", "lat", "diam_km"],
        ["lon", "lat", "diam_km"],
        ["lat", "id", "diam_km", "lon", "extra"],
        ["id", "lon", "lat", "diam_km", "lon"],
    ]))
    lines = [",".join(header)]
    for _ in range(draw(st.integers(0, 12))):
        kind = draw(st.sampled_from(["row", "row", "row", "blank", "comment"]))
        if kind == "blank":
            lines.append("")
            continue
        n = len(header) + draw(st.integers(-2, 1))
        fields = [draw(NUMBER) for _ in range(max(n, 1))]
        if "id" in header:
            fields[min(header.index("id"), len(fields) - 1)] = draw(st.sampled_from(["a", "b", "c,d", 'q"t', "#x"]))
        if kind == "comment":
            fields[0] = "#" + fields[0]
        lines.append(",".join(quote(f) if ("," in f or '"' in f or draw(st.booleans())) else f for f in fields))
    eol = draw(st.sampled_from(["\n", "\r\n"]))
    return eol.join(lines) + draw(st.sampled_from(["", eol]))


@SETTINGS
@given(text=catalog_text(), tolerance=st.sampled_from([0.0, 0.5, 1.0]))
def test_load_catalog_matches_the_row_by_row_loader(tmp_path_factory, text, tolerance):
    path = tmp_path_factory.mktemp("cat") / "c.csv"
    path.write_text(text, newline="")
    mapping = {"id": "id", "lon": "lon", "lat": "lat", "diam_km": "diam_km"}
    try:
        expected = load_catalog_rows(path, mapping, "t", tolerance)
    except CatalogError as exc:
        with pytest.raises(CatalogError) as got:
            load_catalog(path, schema=mapping, name="t", max_malformed_fraction=tolerance)
        assert str(got.value) == str(exc)
        return
    cat = load_catalog(path, schema=mapping, name="t", max_malformed_fraction=tolerance)
    rows, n_rejected = expected if expected is not None else ([], 0)
    assert cat.ids.tolist() == [r[0] for r in rows]
    for k, col in enumerate((cat.lon, cat.lat, cat.diam_km), start=1):
        assert bits(col) == bits([r[k] for r in rows])
    assert cat.n_rejected == n_rejected
    assert [c.id for c in cat.craters] == [r[0] for r in rows]


def test_load_catalog_reads_chunks_like_one_pass(tmp_path):
    # more rows than one chunk, a malformed row and a blank line in each
    lines = ["id,lon,lat,diam_km"]
    for i in range(10_000):
        lines.append("" if i % 4999 == 7 else f"c{i},{i * 0.01!r},{(i % 180) - 90.5!r},{'x' if i % 5001 == 3 else 1.5}")
    path = tmp_path / "big.csv"
    path.write_text("\n".join(lines) + "\n")
    mapping = {"lon": "lon", "lat": "lat", "diam_km": "diam_km"}
    rows, n_rejected = load_catalog_rows(path, mapping, "big", 0.01)
    cat = load_catalog(path, schema=mapping, max_malformed_fraction=0.01)
    assert cat.ids.tolist() == [r[0] for r in rows] and cat.n_rejected == n_rejected
    assert bits(cat.lat) == bits([r[2] for r in rows])


PATCH = st.sampled_from(["p0", "p1", " p2 ", "", 'q"t'])


@st.composite
def record_text(draw):
    lines = []
    for _ in range(draw(st.integers(0, 10))):
        kind = draw(st.sampled_from(["ok", "ok", "ok", "odd", "blank", "comment"]))
        if kind == "blank":
            lines.append(draw(st.sampled_from(["", "   ", "\t"])))
            continue
        if kind == "comment":
            lines.append(draw(st.sampled_from(["# a,b", "  #x"])))
            continue
        x1, y1 = draw(st.floats(0, 100)), draw(st.floats(0, 100))
        w, h = draw(st.floats(0.5, 40)), draw(st.floats(0.5, 40))
        fields = [draw(PATCH), repr(x1), repr(y1), repr(x1 + w), repr(y1 + h), repr(draw(st.floats(0, 1)))]
        if kind == "odd":
            i = draw(st.integers(0, 6))
            if i == 6:
                fields = fields[: draw(st.integers(1, 5))] if draw(st.booleans()) else fields + ["1"]
            else:
                fields[i] = draw(NUMBER)
        lines.append(",".join(fields))
    eol = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    return eol.join(lines) + draw(st.sampled_from(["", eol]))


@SETTINGS
@given(text=record_text(), score_floor=st.sampled_from([None, 0.5]), ps_r=st.sampled_from([None, 128]))
def test_load_detections_matches_the_row_by_row_loader(tmp_path_factory, text, score_floor, ps_r):
    path = tmp_path_factory.mktemp("rec") / "r.csv"
    path.write_text(text, newline="")
    try:
        expected = load_detection_rows(path, score_floor=score_floor, ps_r=ps_r)
    except DetectionError as exc:
        with pytest.raises(DetectionError) as got:
            load_detections(path, score_floor=score_floor, ps_r=ps_r)
        assert str(got.value) == str(exc)
        return
    got = load_detections(path, score_floor=score_floor, ps_r=ps_r)
    expected = sorted(expected, key=lambda r: r[0])  # grouped by patch id, file order within
    assert got.patch_ids.tolist() == [r[0] for r in expected]
    assert bits(got.boxes.reshape(-1)) == bits([v for r in expected for v in r[1]])
    assert bits(got.scores) == bits([r[2] for r in expected])


@pytest.mark.parametrize("faults", [
    {},  # clean, over three chunks
    {6000: "p1,1.0,2.0,oops,4.0,0.5"},  # a parse error in the second chunk
    {6000: "p1,1.0,2.0,3.0"},  # a short line in the second chunk
    {9000: "p1,5.0,2.0,3.0,4.0,0.5", 9500: "p1,1.0"},  # a bad record, then a short line
    {2000: "p1,1.0,2.0,3.0,4.0,1.5", 4200: "p1,1.0"},  # a bad record ahead of a later parse error
])
def test_load_detections_across_chunks_matches_the_row_by_row_loader(tmp_path, faults):
    lines = [f"p{i % 7},{i % 50}.5,1.0,{i % 50 + 3}.25,9.0,0.{i % 10}" for i in range(10_000)]
    lines[100], lines[5000] = "", "# comment"
    for i, line in faults.items():
        lines[i] = line
    path = tmp_path / "r.csv"
    path.write_text("\n".join(lines) + "\n")
    try:
        expected = load_detection_rows(path)
    except DetectionError as exc:
        with pytest.raises(DetectionError) as got:
            load_detections(path)
        assert str(got.value) == str(exc)
        return
    got = load_detections(path)
    expected = sorted(expected, key=lambda r: r[0])
    assert got.patch_ids.tolist() == [r[0] for r in expected]
    assert bits(got.boxes.reshape(-1)) == bits([v for r in expected for v in r[1]])


IDS = st.text(alphabet=st.sampled_from('ab ,"\r\n#x0'), min_size=1, max_size=6)


@st.composite
def detection_sets(draw):
    n = draw(st.integers(0, 8))
    finite = st.floats(-1e7, 1e7)
    x1 = [draw(finite) for _ in range(n)]
    y1 = [draw(finite) for _ in range(n)]
    boxes = [(x, y, x + draw(st.floats(1e-3, 1e4)), y + draw(st.floats(1e-3, 1e4))) for x, y in zip(x1, y1)]
    pixel = [(a, b, a + draw(st.floats(0.01, 50)), b + draw(st.floats(0.01, 50)))
             for a, b in ((draw(st.floats(0, 100)), draw(st.floats(0, 100))) for _ in range(n))]
    scores = [draw(st.floats(0, 1)) for _ in range(n)]
    ids = [draw(IDS) for _ in range(n)]
    return DetectionSet(boxes, scores, ids, pixel)


@SETTINGS
@given(dets=detection_sets())
def test_global_detections_round_trip_and_match_csv_writer(tmp_path_factory, dets):
    path = tmp_path_factory.mktemp("g") / "d.csv"
    write_global_detections(dets, path)
    expected = io.StringIO(newline="")
    writer = csv.writer(expected)
    writer.writerow(["x1_m", "y1_m", "x2_m", "y2_m", "score", "patch_id", "px1", "py1", "px2", "py2"])
    for d in dets:
        writer.writerow([repr(v) for v in d.box] + [repr(d.score), d.patch_id] + [repr(v) for v in d.pixel_box])
    assert path.read_bytes() == expected.getvalue().encode()
    back = load_global_detections(path)
    assert back.patch_ids.tolist() == dets.patch_ids.tolist()
    for a, b in ((back.boxes, dets.boxes), (back.scores, dets.scores), (back.pixel_boxes, dets.pixel_boxes)):
        assert bits(a.reshape(-1)) == bits(b.reshape(-1))


@SETTINGS
@given(rows=st.lists(st.tuples(IDS, st.floats(allow_nan=True, allow_infinity=True)), max_size=6))
def test_write_csv_matches_csv_writer_and_repr(tmp_path_factory, rows):
    path = tmp_path_factory.mktemp("w") / "t.csv"
    write_csv(path, ["id", "v"], [csv_text([s for s, _ in rows]), np.array([v for _, v in rows], dtype=np.float64)])
    expected = io.StringIO(newline="")
    writer = csv.writer(expected)
    writer.writerow(["id", "v"])
    writer.writerows([s, repr(v)] for s, v in rows)
    assert path.read_bytes() == expected.getvalue().encode()


def test_save_catalog_matches_csv_writer_across_chunks(tmp_path):
    from craterpipe.catalog import Catalog, CatalogCrater

    special = [CatalogCrater('a,"b"', 0.1, -2.5, 3.0), CatalogCrater("c", -0.0, 1e-300, math.inf)]
    cat = Catalog("t", special + [CatalogCrater(f"x{i}", i / 7, -i / 1e4, i + 0.5) for i in range(9000)])
    save_catalog(cat, tmp_path / "c.csv")
    expected = io.StringIO(newline="")
    writer = csv.writer(expected)
    writer.writerow(["id", "lon", "lat", "diam_km"])
    for c in cat.craters:
        writer.writerow([c.id, repr(c.lon), repr(c.lat), repr(c.diam_km)])
    assert (tmp_path / "c.csv").read_bytes() == expected.getvalue().encode()


@SETTINGS
@given(lon=st.floats(-1e300, 1e300), lat=st.floats(-90.0, 90.0), x=st.floats(allow_nan=False))
def test_lonlat_pair_is_math_radians_and_degrees(lon, lat, x):
    r = GT.body_radius
    mx, my = lonlat_to_meter(lon, lat, GT)
    assert type(mx) is float and type(my) is float
    assert bits([mx, my]) == bits([r * math.radians(lon), r * math.radians(lat)])
    back = meter_to_lonlat(x, x, GT)
    assert type(back[0]) is float
    assert bits(back) == bits([math.degrees(x / r)] * 2)
    ax, ay = lonlat_to_meter(np.array([lon, 0.0]), np.array([lat, lat]), GT)
    assert bits([ax[0], ay[0]]) == bits([mx, my])


def test_lonlat_to_meter_rejects_the_first_latitude_out_of_range():
    with pytest.raises(Exception, match=r"latitude out of range \[-90, 90\]: 91.5"):
        lonlat_to_meter(np.zeros(3), np.array([0.0, 91.5, -100.0]), GT)
    with pytest.raises(Exception, match="latitude out of range"):
        lonlat_to_meter(0.0, math.nan, GT)
