"""Synthetic oracle detector and detection-record file tests."""

import ast
import inspect

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from craterpipe import detector as detector_mod
from craterpipe import runner
from craterpipe.detector import (
    DetectorInterface,
    NoiseConfig,
    SyntheticDetector,
    load_detections,
    save_detections,
)
from craterpipe.errors import DetectionError
from craterpipe.geo import GeoTransform
from craterpipe.raster import FusedPatch, PatchPlacement, PatchSpec, patch_placements, tile
from craterpipe.runner import detect_patches

from conftest import LUNAR_RADIUS, make_grid, on_origin, patch_columns
from reference import row_invariant_error, synthetic_detect_scalar


GT = GeoTransform(x_min=0.0, y_max=0.0, resolution=100.0, body_radius=LUNAR_RADIUS)
SPEC = PatchSpec(ps_a=1024, ps_r=512, overlap_fraction=0.5)


def blank_patch(patch_id="r000000_c000000", row0=0, col0=0, spec=SPEC):
    channels = np.zeros((3, spec.ps_r, spec.ps_r), dtype=np.uint8)
    return FusedPatch(patch_id=patch_id, row0=row0, col0=col0, spec=spec, channels=channels)


def planted(centers_radii):
    """Truth boxes in meters around the given (x, y, radius) circles."""
    x_m, y_m, r_m = np.array(centers_radii, dtype=np.float64).reshape(-1, 3).T
    return np.stack([x_m - r_m, y_m - r_m, x_m + r_m, y_m + r_m], axis=1)


EMPTY = np.empty((0, 4))


def test_detector_imports_nothing_from_catalog():
    """The oracle takes the boxes catalog.select projected, so it has no
    use for the catalog module."""
    tree = ast.parse(inspect.getsource(detector_mod))
    nodes = [n for n in ast.walk(tree) if isinstance(n, (ast.Import, ast.ImportFrom))]
    names = [getattr(n, "module", None) or "" for n in nodes] + [a.name for n in nodes for a in n.names]
    assert "textcols" in names and not [name for name in names if "catalog" in name.split(".")], names


def test_no_truth_no_noise_gives_empty():
    boxes, scores = SyntheticDetector(EMPTY, GT, NoiseConfig()).detect(blank_patch())
    assert boxes.shape == (0, 4) and scores.shape == (0,)


def test_zero_noise_exact_projection():
    # crater of radius 5 km centered 25.6 km into the patch
    truth = planted([(25_600.0, -25_600.0, 5_000.0)])
    boxes, scores = SyntheticDetector(truth, GT, NoiseConfig()).detect(blank_patch())
    assert len(scores) == 1
    x1, y1, x2, y2 = boxes[0]
    # center at pixel 128, radius 25 resized pixels
    assert abs(x1 - 103.0) < 0.5 and abs(x2 - 153.0) < 0.5
    assert abs(y1 - 103.0) < 0.5 and abs(y2 - 153.0) < 0.5
    assert 0.7 <= scores[0] <= 1.0


def test_miss_rate_one_gives_empty():
    truth = planted([(25_600.0, -25_600.0, 5_000.0)])
    boxes, scores = SyntheticDetector(truth, GT, NoiseConfig(miss_rate=1.0)).detect(blank_patch())
    assert len(boxes) == len(scores) == 0


def test_crater_on_patch_edge_is_clipped_to_distance_zero():
    truth = planted([(0.0, -25_600.0, 5_000.0)])  # centered on the left edge
    boxes, _ = SyntheticDetector(truth, GT, NoiseConfig()).detect(blank_patch())
    assert len(boxes) == 1
    assert boxes[0, 0] == 0.0  # touches the boundary


def test_crater_spanning_two_patches_detected_in_both():
    # center inside the overlap zone of two horizontally adjacent patches
    truth = planted([(76_800.0, -25_600.0, 5_000.0)])
    p_left = blank_patch("r000000_c000000", 0, 0)
    p_right = blank_patch("r000000_c000512", 0, 512)
    det = SyntheticDetector(truth, GT, NoiseConfig())
    (left, _), (right, _) = det.detect(p_left), det.detect(p_right)
    assert len(left) == 1 and len(right) == 1


def test_determinism_and_order_independence():
    truth = planted([(25_600.0, -25_600.0, 5_000.0), (60_000.0, -60_000.0, 4_000.0)])
    noise = NoiseConfig(center_jitter_px=2.0, radius_jitter_frac=0.1,
                        false_positive_rate=1.5, miss_rate=0.2, seed=42)
    det = SyntheticDetector(truth, GT, noise)
    patches = [blank_patch(f"r000000_c{c:06d}", 0, c) for c in (0, 512, 1024)]
    first = [det.detect(p) for p in patches]
    second = [det.detect(p) for p in reversed(patches)][::-1]
    assert [(b.tobytes(), s.tobytes()) for b, s in first] == [(b.tobytes(), s.tobytes()) for b, s in second]


def test_false_positive_poisson_statistics():
    noise_seedless = dict(false_positive_rate=2.0, fp_radius_px=(10.0, 40.0))
    totals = []
    for seed in range(40):
        det = SyntheticDetector(EMPTY, GT, NoiseConfig(seed=seed, **noise_seedless))
        count = 0
        for c in range(100):
            count += len(det.detect(blank_patch(f"r000000_c{c:06d}", 0, c))[1])
        totals.append(count)
    mean = np.mean(totals)
    # per-seed totals are Poisson(200); the mean of 40 draws has sigma 2.236
    assert abs(mean - 200.0) < 3.0 * np.sqrt(200.0 / 40.0)


def test_clipping_never_exceeds_patch():
    truth = planted(
        [(x * 1000.0, -y * 1000.0, 8_000.0) for x in range(0, 110, 20) for y in range(0, 110, 20)]
    )
    noise = NoiseConfig(center_jitter_px=30.0, radius_jitter_frac=0.5,
                        false_positive_rate=3.0, seed=7)
    boxes, _ = SyntheticDetector(truth, GT, noise).detect(blank_patch())
    for x1, y1, x2, y2 in boxes:
        assert 0.0 <= x1 < x2 <= 512.0
        assert 0.0 <= y1 < y2 <= 512.0


def test_fused_patch_and_placement_give_identical_detections():
    n, spec = 96, PatchSpec(32, 16, 0.5)
    rng = np.random.default_rng(3)
    grids = [make_grid(rng.normal(size=(n, n)), band_kind=k) for k in ("intensity", "elevation")]
    grids.append(make_grid(rng.uniform(0.0, 90.0, size=(n, n)), band_kind="slope"))
    truth = planted([(x * 100.0, -y * 100.0, 600.0) for x in range(4, 96, 9) for y in range(2, 96, 11)])
    noise = NoiseConfig(center_jitter_px=1.5, radius_jitter_frac=0.1,
                        false_positive_rate=1.0, miss_rate=0.2, seed=11, fp_radius_px=(2.0, 6.0))
    det = SyntheticDetector(truth, GT, noise)
    patches = tile(*grids, spec)
    placements = patch_placements(n, n, spec)
    assert [(p.patch_id, p.row0, p.col0, p.spec, p.delta_f) for p in patches] == [
        (p.patch_id, p.row0, p.col0, p.spec, p.delta_f) for p in placements
    ]
    found = [(b.tobytes(), s.tobytes()) for b, s in map(det.detect, placements)]
    assert sum(len(det.detect(p)[1]) for p in placements) > len(placements)
    assert [(b.tobytes(), s.tobytes()) for b, s in map(det.detect, patches)] == found


# A 64 -> 32 patch at mosaic pixel (64, 32): boxes are drawn on the integer
# pixel lattice around it, so box edges land exactly on the window edges.
_WINDOW = PatchPlacement("r000064_c000032", 64, 32, PatchSpec(64, 32))
_lattice = st.integers(min_value=-20, max_value=140)
_box = st.tuples(_lattice, _lattice, st.integers(1, 30), st.integers(1, 30))


@settings(max_examples=150, deadline=None)
@given(
    boxes=st.lists(_box, max_size=40),
    miss=st.sampled_from([0.0, 0.3, 1.0]),
    jitter=st.sampled_from([0.0, 2.5]),
    radius_jitter=st.sampled_from([0.0, 0.2]),
    fp_rate=st.sampled_from([0.0, 1.5]),
    seed=st.integers(0, 2**32 - 1),
)
def test_mask_candidate_search_equals_scalar_loop(boxes, miss, jitter, radius_jitter, fp_rate, seed):
    s = GT.resolution
    truth_boxes = np.array(
        [(c * s, -(r + h) * s, (c + w) * s, -r * s) for c, r, w, h in boxes], dtype=np.float64
    ).reshape(-1, 4)
    noise = NoiseConfig(center_jitter_px=jitter, radius_jitter_frac=radius_jitter,
                        false_positive_rate=fp_rate, miss_rate=miss, seed=seed, fp_radius_px=(1.0, 8.0))
    det = SyntheticDetector(truth_boxes, GT, noise)
    boxes, scores = det.detect(_WINDOW)
    got = [(_WINDOW.patch_id, tuple(b), s) for b, s in zip(boxes.tolist(), scores.tolist())]
    assert got == synthetic_detect_scalar(truth_boxes, GT, noise, _WINDOW)


# SyntheticDetector.detect draws each candidate with rng.random(),
# rng.standard_normal(out=row) into a row of three and rng.random(), and
# applies NumPy's own formulas to whole columns. These pin the identities it
# relies on, values and generator state alike.


def test_standard_normal_of_three_is_three_scalar_draws():
    """A candidate's draws, as detect makes them and as five scalar calls."""
    scalar, rewritten, into = (np.random.default_rng(2024) for _ in range(3))
    want = [(scalar.random(), scalar.standard_normal(), scalar.standard_normal(), scalar.standard_normal(),
             scalar.random()) for _ in range(5_000)]
    got = [(rewritten.random(), *rewritten.standard_normal(3), rewritten.random()) for _ in range(5_000)]
    assert np.array(got).tobytes() == np.array(want).tobytes()
    assert rewritten.bit_generator.state == scalar.bit_generator.state
    normals, uniforms = np.empty((5_000, 3)), []
    for row in normals:
        uniforms.append(into.random())
        into.standard_normal(out=row)
        uniforms.append(into.random())
    u_miss, u_score = np.array(uniforms).reshape(-1, 2).T
    assert np.column_stack([u_miss, normals, u_score]).tobytes() == np.array(want).tobytes()
    assert into.bit_generator.state == scalar.bit_generator.state


@pytest.mark.parametrize("lo, hi", [(0.7, 1.0), (0.3, 0.9), (12.5, 50.0), (1.0, 8.0), (0.0, 512.0)])
def test_uniform_is_lo_plus_range_times_random(lo, hi):
    scalar, rewritten = np.random.default_rng(2024), np.random.default_rng(2024)
    want = np.array([scalar.uniform(lo, hi) for _ in range(20_000)])
    one_by_one = np.array([rewritten.random() for _ in range(10_000)])
    got = lo + (hi - lo) * np.concatenate([one_by_one, rewritten.random(10_000)])
    assert got.tobytes() == want.tobytes()
    assert rewritten.bit_generator.state == scalar.bit_generator.state


@pytest.mark.parametrize("s", [0.0, 0.1, 1.0, 1.5, 2.5, 30.0])
def test_normal_is_zero_plus_scale_times_standard_normal(s):
    scalar, rewritten = np.random.default_rng(2024), np.random.default_rng(2024)
    want = np.array([scalar.normal(0.0, s) for _ in range(20_000)])
    got = 0.0 + s * np.array([rewritten.standard_normal() for _ in range(20_000)])
    assert got.tobytes() == want.tobytes()
    assert rewritten.bit_generator.state == scalar.bit_generator.state


def test_detect_patches_gives_equal_columns_for_any_worker_count(monkeypatch):
    """One worker detects in the calling thread, with no pool; two use a pool."""
    truth = planted([(x * 100.0, -y * 100.0, 900.0) for x in range(5, 400, 17) for y in range(3, 400, 13)])
    noise = NoiseConfig(center_jitter_px=1.5, radius_jitter_frac=0.1,
                        false_positive_rate=2.0, miss_rate=0.1, seed=5, fp_radius_px=(2.0, 9.0))
    det = SyntheticDetector(truth, GT, noise)
    patches = patch_placements(400, 400, PatchSpec(64, 32, 0.5))
    with monkeypatch.context() as no_pool:
        no_pool.setattr(runner, "ThreadPoolExecutor", lambda *a, **k: pytest.fail("one worker made a pool"))
        one = detect_patches(patches, det, 1)
    two = detect_patches(patches, det, 2)
    assert one.patches == two.patches == tuple(sorted(p.patch_id for p in patches))
    assert len(one.scores) > len(patches)
    assert one.patch_ids.tolist() == two.patch_ids.tolist()
    assert one.boxes.tobytes() == two.boxes.tobytes()
    assert one.scores.tobytes() == two.scores.tobytes()


def test_a_detector_returning_a_list_still_drives_the_pipeline():
    class ListDetector(DetectorInterface):
        """Returns its boxes and scores as plain lists."""

        def detect(self, patch):
            return ([[1.0, 2.0, 3.0, 4.0]], [0.5]) if patch.col0 == 0 else ([], [])

    patches = patch_placements(128, 64, PatchSpec(64, 32, 0.5))
    cols = detect_patches(patches, ListDetector(), 2)
    assert list(cols) == sorted(p.patch_id for p in patches)
    assert cols.boxes.tolist() == [[1.0, 2.0, 3.0, 4.0]] and cols.scores.tolist() == [0.5]


class ColumnsDetector(DetectorInterface):
    """Returns the rows per_patch holds for each patch."""

    def __init__(self, per_patch):
        self.per_patch = per_patch

    def detect(self, patch):
        rows = self.per_patch[patch.patch_id]
        return self.per_patch.boxes[rows], self.per_patch.scores[rows]


def test_detection_invariants():
    """A detector row breaking an invariant fails detect_patches, naming its
    patch; the first bad row in sorted patch order wins."""
    patches = patch_placements(128, 64, PatchSpec(64, 32, 0.5))
    pid = patches[1].patch_id
    good = ((1.0, 2.0, 3.0, 4.0), 0.5)
    for bad in [((10.0, 0.0, 5.0, 20.0), 0.5), ((0.0, 0.0, 5.0, 5.0), 1.5), ((0.0, np.nan, 5.0, 5.0), 0.5)]:
        rows = {p.patch_id: [good] for p in patches}
        rows[pid], rows[patches[2].patch_id] = [good, bad], [bad]
        for workers in (1, 2):
            with pytest.raises(DetectionError) as err:
                detect_patches(patches, ColumnsDetector(patch_columns(rows, patches)), workers)
            assert str(err.value) == f"patch {pid}: {row_invariant_error(pid, *bad)}"

    class MismatchedDetector(DetectorInterface):
        def detect(self, patch):
            return [[1.0, 2.0, 3.0, 4.0]], [0.5, 0.5]

    with pytest.raises(DetectionError, match="1 boxes but 2 scores"):
        detect_patches(patches, MismatchedDetector(), 1)


# ---------------------------------------------------------------------------
# record files


def test_load_detections_empty_file(tmp_path):
    path = tmp_path / "d.csv"
    path.write_text("")
    loaded = load_detections(path, on_origin(["pA"]))
    assert len(loaded["pA"]) == 0 and loaded.boxes.shape == (0, 4)


def test_load_detections_groups_by_patch(tmp_path):
    path = tmp_path / "d.csv"
    path.write_text(
        "pA,1.0,2.0,11.0,12.0,0.9\n"
        "pA,3.0,4.0,13.0,14.0,0.8\n"
        "pB,5.0,6.0,15.0,16.0,0.7\n"
    )
    grouped = load_detections(path, on_origin(["pB", "pA"]))
    assert sorted(grouped) == ["pA", "pB"]
    assert len(grouped["pA"]) == 2


def test_load_detections_rejects_bad_box_with_line(tmp_path):
    path = tmp_path / "d.csv"
    path.write_text("pA,1.0,2.0,11.0,12.0,0.9\npA,9.0,2.0,3.0,12.0,0.9\n")
    with pytest.raises(DetectionError, match=":2:"):
        load_detections(path, on_origin(["pA"]))


def test_load_detections_score_floor_and_ps_r(tmp_path):
    path = tmp_path / "d.csv"
    path.write_text("pA,1.0,2.0,11.0,12.0,0.9\npA,3.0,4.0,13.0,14.0,0.2\n")
    grouped = load_detections(path, on_origin(["pA"]), score_floor=0.5)
    assert len(grouped["pA"]) == 1
    path2 = tmp_path / "d2.csv"
    path2.write_text("pA,1.0,2.0,600.0,12.0,0.9\n")
    with pytest.raises(DetectionError, match="exceeds patch side 512"):
        load_detections(path2, on_origin(["pA"], 512))


def test_save_load_round_trip(tmp_path):
    placements = on_origin(["pB", "pA"])
    per_patch = patch_columns({"pB": [((1.5, 2.5, 3.5, 4.5), 0.25)], "pA": [((0.0, 0.0, 10.0, 10.0), 1.0)]}, placements)
    path = tmp_path / "d.csv"
    save_detections(per_patch, path)
    assert path.read_text() == "pA,0.0,0.0,10.0,10.0,1.0\npB,1.5,2.5,3.5,4.5,0.25\n"  # sorted patch order
    loaded = load_detections(path, placements)
    assert list(loaded) == ["pA", "pB"]
    assert loaded.boxes.tolist() == per_patch.boxes.tolist() and loaded.scores.tolist() == [1.0, 0.25]
