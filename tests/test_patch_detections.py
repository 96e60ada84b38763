"""Raw per-patch detections as columns: the mapping detect_patches and
load_detections return, and the pipeline that runs on it."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from craterpipe.detector import DetectorInterface, PatchDetections, load_detections, save_detections
from craterpipe.errors import DetectionError
from craterpipe.geo import GeoTransform
from craterpipe.postprocess import BoundaryFilterConfig, DetectionSet, NmsConfig, run_pipeline
from craterpipe.raster import PatchPlacement, PatchSpec
from craterpipe.runner import detect_patches

from conftest import LUNAR_RADIUS, patch_columns
from reference import group_by_patch, scalar_pipeline

GT = GeoTransform(x_min=0.0, y_max=0.0, resolution=100.0, body_radius=LUNAR_RADIUS)
# a transform whose products round, so the order of operations shows in the bits
GT_INEXACT = GeoTransform(x_min=-1234.567, y_max=89.1, resolution=0.7, body_radius=LUNAR_RADIUS)
PS_R = 64
PATCH_IDS = ["r000000_c000000", "r000000_c000064", "r000064_c000000", "r000064_c000064", "r000128_c000000"]
PATCH_INDEX = {p: (int(p[1:7]), int(p[9:]), 2.0) for p in PATCH_IDS}

# pixel boxes on a coarse lattice so that boxes of neighbouring patches
# coincide after globalization and score ties are common
_corner = st.integers(0, 60)
_side = st.integers(1, 24)
_score = st.sampled_from([0.25, 0.5, 0.5, 0.75, 1.0])


@st.composite
def per_patch_detections(draw):
    """A patch id -> [(box, score), ...] dict in unsorted insertion order,
    some patches without rows."""
    ids = draw(st.permutations(PATCH_IDS))[: draw(st.integers(0, len(PATCH_IDS)))]
    out = {}
    for patch_id in ids:
        rows = draw(st.lists(st.tuples(_corner, _corner, _side, _side, _score), max_size=12))
        out[patch_id] = [((x, y, min(x + w, PS_R), min(y + h, PS_R)), s) for x, y, w, h, s in rows]
    return out


def interleaved_columns(per_patch, data):
    """The same rows built as columns from one flat list whose patches are
    interleaved at random, each patch's rows kept in their order."""
    queues = {p: list(rows) for p, rows in per_patch.items()}
    owners = data.draw(st.permutations([p for p, rows in per_patch.items() for _ in rows]))
    flat = [queues[p].pop(0) for p in owners]
    return PatchDetections(owners, [box for box, _ in flat], [score for _, score in flat], keys=per_patch)


def assert_same_columns(got: PatchDetections, want: PatchDetections):
    assert got.patches == want.patches
    assert got.patch_ids.tolist() == want.patch_ids.tolist()
    assert got.boxes.tobytes() == want.boxes.tobytes()
    assert got.scores.tobytes() == want.scores.tobytes()


def assert_same_set(got: DetectionSet, want: DetectionSet):
    assert got.boxes.tobytes() == want.boxes.tobytes()
    assert got.scores.tobytes() == want.scores.tobytes()
    assert got.pixel_boxes.tobytes() == want.pixel_boxes.tobytes()
    assert got.patch_ids.tolist() == want.patch_ids.tolist()


@settings(max_examples=120, deadline=None)
@given(
    per_patch_detections(),
    st.data(),
    st.sampled_from([0, 1, 5]),
    st.sampled_from([None, 0.0, 0.3, 1.0]),
    st.sampled_from([GT, GT_INEXACT]),
)
def test_pipeline_on_columns_equals_pipeline_on_lists(per_patch, data, m, delta, gt):
    columns = interleaved_columns(per_patch, data)
    assert_same_columns(columns, patch_columns(per_patch))
    assert list(columns) == sorted(per_patch)
    bcfg = BoundaryFilterConfig(m)
    ncfg = NmsConfig(delta=delta or 0.0, enabled=delta is not None)
    got = run_pipeline(columns, PATCH_INDEX, gt, PS_R, bcfg, ncfg)
    # the scalar reference on the lists of rows, one detection at a time in sorted patch order
    want = scalar_pipeline(per_patch, PATCH_INDEX, gt, PS_R, m, delta)
    assert_same_set(got, DetectionSet(*zip(*want)) if want else DetectionSet([], [], [], []))


@settings(max_examples=60, deadline=None)
@given(per_patch_detections(), st.data())
def test_save_detections_writes_the_same_bytes_from_both_forms(tmp_path_factory, per_patch, data):
    """Columns built from rows grouped by patch and from rows interleaved
    write the same records, which read back as the same columns."""
    tmp = tmp_path_factory.mktemp("save")
    save_detections(patch_columns(per_patch), tmp / "grouped.csv")
    save_detections(interleaved_columns(per_patch, data), tmp / "interleaved.csv")
    assert (tmp / "grouped.csv").read_bytes() == (tmp / "interleaved.csv").read_bytes()
    back = load_detections(tmp / "interleaved.csv")
    assert_same_columns(back, patch_columns({p: rows for p, rows in per_patch.items() if rows}))


def test_values_have_a_len_that_builds_no_detection():
    """A lookup gives the range of the patch's row indices into the columns,
    so its len is the patch's row count and reads no row."""
    columns = patch_columns({"b": [((1.5, 2.0, 3.0, 4.0), 0.25), ((0, 0, 9, 9), 1.0)] * 2, "a": [], "c": []})
    assert [len(v) for v in columns.values()] == [0, 4, 0]
    assert list(columns) == list(columns.keys()) == list(dict(columns)) == ["a", "b", "c"]
    rows = columns["b"]
    assert columns.boxes[rows][1].tolist() == [0.0, 0.0, 9.0, 9.0] and columns.scores[rows][2] == 0.25


# ---------------------------------------------------------------------------
# detect_patches: a detector's (boxes, scores) per patch, grouped and checked


class StubDetector(DetectorInterface):
    """Returns the (boxes, scores) it was given for each patch id."""

    def __init__(self, outputs):
        self.outputs = outputs

    def detect(self, patch):
        return self.outputs[patch.patch_id]


_outputs = st.lists(st.tuples(_corner, _corner, _side, _side, _score), max_size=6).map(
    lambda rows: (np.array([(x, y, x + w, y + h) for x, y, w, h, _ in rows], dtype=np.float64).reshape(-1, 4),
                  np.array([s for *_, s in rows], dtype=np.float64))
)


@settings(max_examples=80, deadline=None)
@given(st.permutations(PATCH_IDS), st.lists(_outputs, min_size=len(PATCH_IDS), max_size=len(PATCH_IDS)))
def test_detect_patches_groups_like_the_scalar_reference(patch_ids, outputs):
    patches = [PatchPlacement(p, int(p[1:7]), int(p[9:]), PatchSpec(128, 64)) for p in patch_ids]
    detector = StubDetector(dict(zip(patch_ids, outputs)))
    want = group_by_patch(patch_ids, outputs)
    for workers in (1, 2):
        got = detect_patches(patches, detector, workers)
        assert got.patches == tuple(sorted(patch_ids))  # patches without rows included
        assert list(zip(got.patch_ids.tolist(), map(tuple, got.boxes.tolist()), got.scores.tolist())) == want


# ---------------------------------------------------------------------------
# load_detections: the first bad record fails the load with its line number


GOOD = "pA,1.0,2.0,11.0,12.0,0.9"
BAD_RECORDS = [
    ("pA,1.0,2.0,11.0,12.0", "expected 6 fields, got 5"),
    ("pA,1.0,2.0,11.0,12.0,0.9,7", "expected 6 fields, got 7"),
    ("pA,1.0,two,11.0,12.0,0.9", "non-numeric field (could not convert string to float: 'two')"),
    ("pA,9.0,2.0,3.0,12.0,0.9", "degenerate box (9.0, 2.0, 3.0, 12.0) in patch pA"),
    ("pA,1.0,nan,3.0,12.0,0.9", "degenerate box (1.0, nan, 3.0, 12.0) in patch pA"),
    ("pA,-1.0,2.0,3.0,12.0,0.9", "negative coordinates in box (-1.0, 2.0, 3.0, 12.0)"),
    ("pA,1.0,2.0,3.0,12.0,1.5", "score 1.5 outside [0, 1]"),
    ("pA,1.0,2.0,3.0,12.0,nan", "score nan outside [0, 1]"),
    ("pA,1.0,2.0,600.0,12.0,0.9", "box exceeds patch side 512"),
    ("pA,1.0,2.0,3.0,inf,0.9", "non-finite coordinates in box (1.0, 2.0, 3.0, inf)"),
]


@pytest.mark.parametrize("record, message", BAD_RECORDS, ids=[m for _, m in BAD_RECORDS])
def test_bad_record_names_its_line(tmp_path, record, message):
    path = tmp_path / "d.csv"
    path.write_text(f"# model output\n{GOOD}\n\n{record}\n{GOOD}\n")
    with pytest.raises(DetectionError) as err:
        load_detections(path, score_floor=0.5, ps_r=512)
    assert str(err.value) == f"{path}:4: {message}"


@pytest.mark.parametrize("first, second", [(0, 3), (3, 0), (6, 8), (8, 6), (2, 4)])
def test_the_first_bad_record_wins(tmp_path, first, second):
    (rec_a, msg_a), (rec_b, _) = BAD_RECORDS[first], BAD_RECORDS[second]
    path = tmp_path / "d.csv"
    path.write_text(f"{GOOD}\n{rec_a}\n{GOOD}\n{rec_b}\n")
    with pytest.raises(DetectionError) as err:
        load_detections(path, ps_r=512)
    assert str(err.value) == f"{path}:2: {msg_a}"


def test_score_floor_drops_after_checking(tmp_path):
    path = tmp_path / "d.csv"
    path.write_text("pB,1.0,2.0,11.0,12.0,0.2\npA,1.0,2.0,11.0,12.0,0.9\npB,3.0,4.0,13.0,14.0,0.5\n")
    loaded = load_detections(path, score_floor=0.5)
    assert list(loaded) == ["pA", "pB"]
    assert loaded.boxes[loaded["pB"]].tolist() == [[3.0, 4.0, 13.0, 14.0]]
    assert loaded.scores.tolist() == [0.9, 0.5]
    path.write_text("pA,1.0,2.0,11.0,12.0,0.9\npB,9.0,2.0,3.0,12.0,0.2\n")  # bad and below the floor
    with pytest.raises(DetectionError, match=":2: degenerate box"):
        load_detections(path, score_floor=0.5)


def test_unknown_patch_error_names_the_first_row():
    row = ((1, 1, 9, 9), 0.5)
    unknown = patch_columns({"z": [row], "a": [row]})
    with pytest.raises(DetectionError, match="unknown patch id 'a'"):  # rows merge in sorted patch order
        run_pipeline(unknown, PATCH_INDEX, GT, PS_R, BoundaryFilterConfig(0), NmsConfig(0.3))
    # a patch whose rows the boundary filter dropped is never looked up
    edge = ((0, 0, 9, 9), 0.5)
    per_patch = patch_columns({"a": [edge], PATCH_IDS[0]: [row]})
    out = run_pipeline(per_patch, PATCH_INDEX, GT, PS_R, BoundaryFilterConfig(0), NmsConfig(0.3))
    assert out.patch_ids.tolist() == [PATCH_IDS[0]]
