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
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from craterpipe import textcols
from craterpipe.catalog import load_catalog
from craterpipe.detector import load_detections
from craterpipe.errors import CatalogError, DetectionError
from craterpipe.geo import GeoTransform, lonlat_to_meter, meter_to_lonlat
from craterpipe.postprocess import load_global_detections, write_global_detections
from craterpipe.textcols import csv_text, write_csv

from conftest import detection_set, ids_of, on_origin
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
@given(text=catalog_text())
def test_load_catalog_matches_the_row_by_row_loader(tmp_path_factory, text):
    path = tmp_path_factory.mktemp("cat") / "c.csv"
    path.write_text(text, newline="")
    mapping = {"id": "id", "lon": "lon", "lat": "lat", "diam_km": "diam_km"}
    try:
        expected = load_catalog_rows(path, mapping, "t")
    except CatalogError as exc:
        with pytest.raises(CatalogError) as got:
            load_catalog(path, schema=mapping, name="t")
        assert str(got.value) == str(exc)
        return
    cat = load_catalog(path, schema=mapping, name="t")
    rows, n_rejected = expected if expected is not None else ([], 0)
    assert cat.ids.tolist() == [r[0] for r in rows]
    for k, col in enumerate((cat.lon, cat.lat, cat.diam_km), start=1):
        assert bits(col) == bits([r[k] for r in rows])
    assert cat.n_rejected == n_rejected


def test_load_catalog_reads_chunks_like_one_pass(tmp_path):
    # more rows than one chunk, a rejected row and a blank line in each
    lines = ["id,lon,lat,diam_km"]
    for i in range(10_000):
        lines.append("" if i % 4999 == 7 else f"c{i},{i * 0.01!r},{(i % 180) - 90.5!r},1.5")
    path = tmp_path / "big.csv"
    path.write_text("\n".join(lines) + "\n")
    mapping = {"lon": "lon", "lat": "lat", "diam_km": "diam_km"}
    rows, n_rejected = load_catalog_rows(path, mapping, "big")
    cat = load_catalog(path, schema=mapping)
    assert cat.ids.tolist() == [r[0] for r in rows] and cat.n_rejected == n_rejected
    assert bits(cat.lat) == bits([r[2] for r in rows])


# the patch ids of the table records load onto: a quoted id is read as it stands
RECORD_IDS = ["p0", "p1", "p2", "p3", "p4", "p5", "p6", "p#1", "p#3", '"p1"', 'q"t']
PATCH = st.sampled_from(["p0", "p1", " p2 ", 'q"t'] * 4 + ["", "p9"])  # "" and p9 are unknown


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
@given(text=record_text(), score_floor=st.sampled_from([None, 0.5]), ps_r=st.sampled_from([128, 4096]))
def test_load_detections_matches_the_row_by_row_loader(tmp_path_factory, text, score_floor, ps_r):
    path = tmp_path_factory.mktemp("rec") / "r.csv"
    path.write_text(text, newline="")
    assert_records_match_the_row_by_row_loader(path, score_floor, ps_r)


@pytest.mark.parametrize("faults", [
    {},  # clean, over three chunks
    {6000: "p1,1.0,2.0,oops,4.0,0.5"},  # a parse error in the second chunk
    {6000: "p1,1.0,2.0,3.0"},  # a short line in the second chunk
    {9000: "p1,5.0,2.0,3.0,4.0,0.5", 9500: "p1,1.0"},  # a bad record, then a short line
    {2000: "p1,1.0,2.0,3.0,4.0,1.5", 4200: "p1,1.0"},  # a bad record ahead of a later parse error
    {3000: "p9,1.0,2.0,3.0,4.0,0.1", 7000: "p1,1.0"},  # an unknown id ahead of a later parse error
])
def test_load_detections_across_chunks_matches_the_row_by_row_loader(tmp_path, faults):
    lines = record_lines(10_000)
    lines[100], lines[5000] = "", "# comment"
    for i, line in faults.items():
        lines[i] = line
    path = tmp_path / "r.csv"
    path.write_text("\n".join(lines) + "\n")
    assert_records_match_the_row_by_row_loader(path)


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
    return detection_set(boxes, scores, ids, pixel)


@SETTINGS
@given(dets=detection_sets())
def test_global_detections_round_trip_and_match_csv_writer(tmp_path_factory, dets):
    path = tmp_path_factory.mktemp("g") / "d.csv"
    write_global_detections(dets, path)
    expected = io.StringIO(newline="")
    writer = csv.writer(expected)
    writer.writerow(["x1_m", "y1_m", "x2_m", "y2_m", "score", "patch_id", "px1", "py1", "px2", "py2"])
    for box, score, patch_id, pixel_box in zip(
        dets.boxes.tolist(), dets.scores.tolist(), dets.patch_ids.tolist(), dets.pixel_boxes.tolist()
    ):
        writer.writerow([repr(v) for v in box] + [repr(score), patch_id] + [repr(v) for v in pixel_box])
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


def test_write_csv_makes_its_directory(tmp_path):
    path = tmp_path / "a" / "b" / "t.csv"
    write_csv(path, ["v"], [np.array([0.5])], eol="\n")
    assert path.read_text() == "v\n0.5\n"


def test_save_catalog_matches_csv_writer_across_chunks(tmp_path):
    """A catalog's columns, written by write_csv over several chunks, give
    the bytes csv.writer gives."""
    rows = [('a,"b"', 0.1, -2.5, 3.0), ("c", -0.0, 1e-300, math.inf)]
    rows += [(f"x{i}", i / 7, -i / 1e4, i + 0.5) for i in range(9000)]
    ids, lon, lat, diam_km = zip(*rows)
    columns = [csv_text(ids)] + [np.array(col, dtype=np.float64) for col in (lon, lat, diam_km)]
    write_csv(tmp_path / "c.csv", ["id", "lon", "lat", "diam_km"], columns)
    expected = io.StringIO(newline="")
    writer = csv.writer(expected)
    writer.writerow(["id", "lon", "lat", "diam_km"])
    for crater_id, *values in rows:
        writer.writerow([crater_id] + [repr(v) for v in values])
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


# ---------------------------------------------------------------------------
# the loadtxt fast path: chunks it reads, chunks it hands to the row-by-row
# path, and both in one file

# mostly plain numbers, so most drawn files reach loadtxt; the odd ones are
# float()-only spellings, spellings float() rejects, and values loadtxt reads
# around characters float() does not strip
FAST_NUMBER = st.one_of(
    st.floats(-200.0, 200.0).map(repr),
    st.floats(-200.0, 200.0).map(repr),
    st.integers(-100, 100).map(str),
    st.sampled_from(["1_0", "١٢", " 1.5", "2.5 ", "\xa03", "1.5\x1f", "\x1c2", "inf", "-nan", "Infinity",
                     ".5", "5.", "1e500", "0x1p3", "nan(1)", "", "  ", "x", "1e", "1#"]),
)


@st.composite
def plain_catalog_text(draw):
    """Catalogs with rows short or long but holding every mapped column,
    whitespace-only lines, # at the start or inside a row, and seldom a quote."""
    header = draw(st.sampled_from([
        ["id", "lon", "lat", "diam_km"],
        ["lon", "lat", "diam_km", "extra", "more"],
        ["lat", "id", "diam_km", "lon", "extra"],
        ["id", "lon", "lat", "diam_km", "lon"],
    ]))
    held = max(i for i, name in enumerate(header) if name in ("lon", "lat", "diam_km")) + 1
    lines = [",".join(header)]
    for _ in range(draw(st.integers(0, 12))):
        kind = draw(st.sampled_from(["row"] * 6 + ["blank", "space", "hash", "quoted"]))
        if kind in ("blank", "space"):
            lines.append("" if kind == "blank" else draw(st.sampled_from([" ", "\t", "\u3000"])))
            continue
        short = draw(st.booleans())
        n = draw(st.integers(1, len(header) - 1) if short else st.integers(held, len(header) + 2))
        fields = [draw(FAST_NUMBER) for _ in range(n)]
        if "id" in header and header.index("id") < n:
            fields[header.index("id")] = draw(st.sampled_from(["a", "b", "#c", "d#e", " f ", ""]))
        if kind == "hash":
            fields[0] = draw(st.sampled_from(["#", " #"])) + fields[0]
        elif kind == "quoted":
            fields[draw(st.integers(0, n - 1))] = quote(draw(st.sampled_from(["g,h", 'q"t', "n\nl", "3.5"])))
        lines.append(",".join(fields))
    eol = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    return eol.join(lines) + draw(st.sampled_from(["", eol]))


def assert_catalog_matches_the_row_by_row_loader(path):
    mapping = {"id": "id", "lon": "lon", "lat": "lat", "diam_km": "diam_km"}
    try:
        expected = load_catalog_rows(path, mapping, "t")
    except CatalogError as exc:
        with pytest.raises(CatalogError) as got:
            load_catalog(path, schema=mapping, name="t")
        assert str(got.value) == str(exc)
        return
    cat = load_catalog(path, schema=mapping, name="t")
    rows, n_rejected = expected if expected is not None else ([], 0)
    assert cat.ids.tolist() == [r[0] for r in rows]
    for k, col in enumerate((cat.lon, cat.lat, cat.diam_km), start=1):
        assert bits(col) == bits([r[k] for r in rows])
    assert cat.n_rejected == n_rejected


def assert_records_match_the_row_by_row_loader(path, score_floor=None, ps_r=512):
    placements = on_origin(RECORD_IDS, ps_r)
    try:
        expected = load_detection_rows(path, RECORD_IDS, ps_r, score_floor)
    except DetectionError as exc:
        with pytest.raises(DetectionError) as got:
            load_detections(path, placements, score_floor)
        assert str(got.value) == str(exc)
        return
    got = load_detections(path, placements, score_floor)
    expected = sorted(expected, key=lambda r: r[0])  # grouped by patch id, file order within
    assert ids_of(got) == [r[0] for r in expected]
    assert bits(got.boxes.reshape(-1)) == bits([v for r in expected for v in r[1]])
    assert bits(got.scores) == bits([r[2] for r in expected])


# chunks of 1-3 lines put fast and row-by-row chunks into one small file
CHUNK = st.sampled_from([1, 2, 3, 4096])


@SETTINGS
@given(text=plain_catalog_text(), chunk=CHUNK)
def test_plain_catalogs_in_any_chunking_match_the_row_by_row_loader(tmp_path_factory, text, chunk):
    path = tmp_path_factory.mktemp("cat") / "c.csv"
    path.write_text(text, newline="")
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(textcols, "_CHUNK", chunk)
        assert_catalog_matches_the_row_by_row_loader(path)


@st.composite
def plain_record_text(draw):
    """Record files with whitespace-only lines, # at the start of a line or
    inside a record, and odd fields."""
    lines = []
    for _ in range(draw(st.integers(0, 10))):
        kind = draw(st.sampled_from(["ok"] * 6 + ["odd", "blank", "comment", "hash"]))
        if kind == "blank":
            lines.append(draw(st.sampled_from(["", "", "   ", "\t", "\u3000"])))
            continue
        if kind == "comment":
            lines.append(draw(st.sampled_from(["# a,b", "  #p0,1,2,3,4,0.5", "#"])))
            continue
        x1, y1 = draw(st.floats(0, 100)), draw(st.floats(0, 100))
        w, h = draw(st.floats(0.5, 40)), draw(st.floats(0.5, 40))
        ids = ["p0", "p1", " p2 ", "p#3"] if kind == "hash" else ["p0", "p1", " p2 "] * 3 + ["p9"]  # p9 is unknown
        patch = draw(st.sampled_from(ids))
        fields = [patch, repr(x1), repr(y1), repr(x1 + w), repr(y1 + h), repr(draw(st.floats(0, 1)))]
        if kind == "hash" and draw(st.booleans()):
            fields[draw(st.integers(1, 5))] += "#"
        if kind == "odd":
            i = draw(st.integers(0, 6))
            if i == 6:
                fields = fields[: draw(st.integers(1, 5))] if draw(st.booleans()) else fields + ["1"]
            else:
                fields[i] = draw(FAST_NUMBER)
        lines.append(",".join(fields))
    eol = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    return eol.join(lines) + draw(st.sampled_from(["", eol]))


@SETTINGS
@given(text=plain_record_text(), score_floor=st.sampled_from([None, 0.5]), ps_r=st.sampled_from([128, 4096]),
       chunk=CHUNK)
def test_plain_records_in_any_chunking_match_the_row_by_row_loader(tmp_path_factory, text, score_floor, ps_r, chunk):
    path = tmp_path_factory.mktemp("rec") / "r.csv"
    path.write_text(text, newline="")
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(textcols, "_CHUNK", chunk)
        assert_records_match_the_row_by_row_loader(path, score_floor, ps_r)


@SETTINGS
@given(dets=detection_sets(), chunk=CHUNK)
def test_global_detections_round_trip_in_any_chunking(tmp_path_factory, dets, chunk):
    """Ids holding quotes, commas and line breaks split a row over lines,
    and with short chunks over chunks."""
    path = tmp_path_factory.mktemp("g") / "d.csv"
    write_global_detections(dets, path)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(textcols, "_CHUNK", chunk)
        back = load_global_detections(path)
    assert back.patch_ids.tolist() == dets.patch_ids.tolist()
    for a, b in ((back.boxes, dets.boxes), (back.scores, dets.scores), (back.pixel_boxes, dets.pixel_boxes)):
        assert bits(a.reshape(-1)) == bits(b.reshape(-1))


def count_row_by_row_chunks(monkeypatch):
    """A list that gets the first row number of each chunk the row-by-row
    path converts."""
    calls, convert = [], textcols._convert
    monkeypatch.setattr(textcols, "_convert", lambda *args: calls.append(args[1]) or convert(*args))
    return calls


def record_lines(n):
    return [f"p{i % 7},{i % 50}.5,1.0,{i % 50 + 3}.25,9.0,0.{i % 10}" for i in range(n)]


@pytest.mark.parametrize("line, fallback", [
    ("# a comment", True),
    ("  # an indented comment", True),
    ('"p1",1.0,2.0,3.0,4.0,0.5', True),  # any quote sends its chunk row by row
    ("p1,1_0,2.0,30.0,4.5,0.5", True),
    ("p1,١,2.0,3.0,4.5,0.5", True),
    ("p1,1.0,2.0,3.0,4.5,0.5\x1f", True),  # the line strips it, float() would not
    ("   ", True),
    ("p#1,1.0,2.0,3.0,4.5,0.5", False),  # a # inside a record is data
    ("", False),
])
def test_one_odd_line_sends_only_its_chunk_row_by_row(tmp_path, monkeypatch, line, fallback):
    lines = record_lines(12_000)
    lines[5000] = line
    lines[9000] = "p1,1.0,2.0,3.0,4.0,1.5"  # a bad score in the third chunk
    path = tmp_path / "r.csv"
    path.write_text("\n".join(lines) + "\n")
    calls = count_row_by_row_chunks(monkeypatch)
    with pytest.raises(DetectionError) as err:
        load_detections(path, on_origin(RECORD_IDS))
    assert str(err.value) == f"{path}:9001: score 1.5 outside [0, 1]"
    assert calls == ([4097] if fallback else [])
    lines[9000] = lines[9001]
    path.write_text("\n".join(lines) + "\n")
    assert_records_match_the_row_by_row_loader(path)


def test_a_catalog_over_chunks_mixes_both_paths(tmp_path, monkeypatch):
    lines = ["id,lon,lat,diam_km"] + [f"c{i},{i * 0.01!r},{(i % 180) - 89.5!r},1.5" for i in range(13_000)]
    lines[3] = "c2,1.0"  # short: malformed
    lines[5000] = '"c4999",1.0,2.0,3.0'
    lines[9500] = "c9499,1_0,2.0,3.0"
    lines[12_100] = "c12099,x,2.0,3.0"  # malformed
    lines[12_500] = "c12499,1.0,2.0,3.0,extra,more"  # ragged, read by loadtxt
    path = tmp_path / "c.csv"
    path.write_text("\r\n".join(lines) + "\r\n")
    calls = count_row_by_row_chunks(monkeypatch)
    assert_catalog_matches_the_row_by_row_loader(path)
    assert calls == [2, 4098, 8194]  # the last chunk takes the fast path


def test_global_line_numbers_count_csv_rows_across_chunks(tmp_path, monkeypatch):
    n = 10_000
    dets = detection_set([(float(i), 0.0, i + 1.0, 1.0) for i in range(n)], [0.5] * n,
                         ["a\nb" if i == 5000 else f"p{i}" for i in range(n)], [(0.0, 0.0, 1.0, 1.0)] * n)
    path = tmp_path / "g.csv"
    write_global_detections(dets, path)
    lines = path.read_bytes().decode().splitlines(keepends=True)
    bad_line = 9001  # physical line; the id over two lines makes it csv row 9000
    lines[bad_line - 1] = lines[bad_line - 1].replace(",0.5,", ",1.5,")
    path.write_text("".join(lines), newline="")
    calls = count_row_by_row_chunks(monkeypatch)
    with pytest.raises(DetectionError) as err:
        load_global_detections(path)
    assert str(err.value) == f"{path}:9000: score 1.5 outside [0, 1]"
    assert calls == [4098]


def test_clean_files_never_reach_the_row_by_row_path(tmp_path, monkeypatch):
    """A clean file sliding back to the slow path would pass every other test."""
    lines = record_lines(10_000)
    lines[100] = ""
    (tmp_path / "r.csv").write_text("\n".join(lines) + "\n")
    dets = detection_set([(float(i), 0.0, i + 1.0, 1.0) for i in range(9000)], [0.5] * 9000,
                         [f"p {i}" for i in range(9000)], [(0.0, 0.0, 1.0, 1.0)] * 9000)
    write_global_detections(dets, tmp_path / "g.csv")
    rows = ["id,lon,lat,diam_km"] + [f"c{i},{i * 0.01!r},{(i % 180) - 90.5!r},{i % 7}" for i in range(9000)]
    (tmp_path / "c.csv").write_text("\n".join(rows[:50] + [""] + rows[50:]) + "\n")
    placements = on_origin(RECORD_IDS)
    expected = load_detections(tmp_path / "r.csv", placements), load_global_detections(tmp_path / "g.csv")
    mapping = {"id": "id", "lon": "lon", "lat": "lat", "diam_km": "diam_km"}
    catalog_rows, n_rejected = load_catalog_rows(tmp_path / "c.csv", mapping, "c")

    def refuse(*args):
        raise AssertionError("a clean chunk went the row-by-row way")

    monkeypatch.setattr(textcols, "_convert", refuse)
    got = load_detections(tmp_path / "r.csv", placements)
    assert bits(got.boxes.reshape(-1)) == bits(expected[0].boxes.reshape(-1))
    assert ids_of(got) == ids_of(expected[0])
    back = load_global_detections(tmp_path / "g.csv")
    assert back.patch_ids.tolist() == dets.patch_ids.tolist() == expected[1].patch_ids.tolist()
    cat = load_catalog(tmp_path / "c.csv")
    assert cat.ids.tolist() == [r[0] for r in catalog_rows] and cat.n_rejected == n_rejected


@pytest.mark.parametrize("blank", ["", "\n", "\n\n\n"], ids=["empty", "blank", "blanks"])
def test_empty_and_header_only_files_load_without_a_warning(tmp_path, blank):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        (tmp_path / "r.csv").write_text(blank + "  \n" * bool(blank))
        assert load_detections(tmp_path / "r.csv", on_origin(["p0"])).scores.size == 0
        (tmp_path / "g.csv").write_text(blank and "x1_m,y1_m,x2_m,y2_m,score,patch_id,px1,py1,px2,py2" + blank)
        assert len(load_global_detections(tmp_path / "g.csv")) == 0
        (tmp_path / "c.csv").write_text("id,lon,lat,diam_km" + blank)
        assert len(load_catalog(tmp_path / "c.csv")) == 0


def test_a_field_csv_reader_refuses_is_refused_whatever_the_chunk(tmp_path):
    path = tmp_path / "c.csv"
    path.write_text("id,lon,lat,diam_km\n" + "x" * (csv.field_size_limit() + 1) + ",1.0,2.0,3.0\n")
    with pytest.raises(csv.Error, match="field larger than field limit"):
        load_catalog(path)


# every line break str.splitlines knows, \r\n included
LINE_BREAKS = ["\n", "\r", "\r\n", "\v", "\f", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"]


@SETTINGS
@given(pieces=st.lists(st.one_of(st.sampled_from(LINE_BREAKS), st.text("ab,# é", max_size=3)), max_size=16),
       block=st.integers(1, 5))
def test_text_lines_are_the_lines_of_the_whole_text(pieces, block):
    """Blocks of one to five characters put every line break, and the two
    halves of a CR LF pair, at a block edge."""
    data = "".join(pieces).encode("utf-8")
    whole = io.TextIOWrapper(io.BytesIO(data), encoding="utf-8").read().splitlines()
    assert list(textcols.text_lines(io.TextIOWrapper(io.BytesIO(data), encoding="utf-8"), block)) == whole


def test_load_detections_holds_a_chunk_not_the_file(tmp_path):
    """A 4 MB record file of mostly comment lines loads within a small part
    of its size: the file is read a block at a time, not whole."""
    comment = "# " + "x" * 98
    lines = [f"p{i},1.0,2.0,3.0,4.0,0.5" if i % 100 == 0 else comment for i in range(40_000)]
    path = tmp_path / "r.csv"
    path.write_text("\n".join(lines) + "\n")
    placements = on_origin([f"p{i}" for i in range(0, 40_000, 100)])
    tracemalloc.start()
    try:
        assert load_detections(path, placements).scores.size == 400
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < path.stat().st_size / 2, peak
