"""The sparse overlap primitive against the dense IOU matrix, and NMS built
on it against the quadratic reference."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from craterpipe import postprocess
from craterpipe.evaluate import EvalConfig, match_and_count
from craterpipe.postprocess import nms, overlap_pairs

from conftest import detection_set, global_set
from reference import iou_matrix, quadratic_nms

ORIGINS = st.sampled_from([0.0, 1e-2, 3.5, 1e3, -5e6, 1e7])
UNITS = st.sampled_from([1e-2, 0.1, 1.0, 1e3, 1e5])


@st.composite
def lattice_boxes(draw, max_boxes=30):
    """Boxes on an integer lattice: identical, nested and edge-sharing boxes
    are common."""
    origin, unit = draw(ORIGINS), draw(UNITS)
    corners = draw(st.lists(st.tuples(*[st.integers(0, 12)] * 2, *[st.integers(1, 6)] * 2), max_size=max_boxes))
    return np.array(
        [(origin + x * unit, origin + y * unit, origin + (x + w) * unit, origin + (y + h) * unit)
         for x, y, w, h in corners],
        dtype=np.float64,
    ).reshape(-1, 4)


@st.composite
def heavy_tailed_boxes(draw, max_boxes=30):
    """Positions spread over 100 units and sides spread over six decades, so
    a search window sized for typical boxes would miss the large ones."""
    origin, unit = draw(ORIGINS), draw(UNITS)
    log_side = st.floats(-2.0, 4.0)
    rows = draw(st.lists(st.tuples(st.floats(0, 100), st.floats(0, 100), log_side, log_side), max_size=max_boxes))
    return np.array(
        [(origin + x * unit, origin + y * unit, origin + x * unit + 10**lw * unit, origin + y * unit + 10**lh * unit)
         for x, y, lw, lh in rows],
        dtype=np.float64,
    ).reshape(-1, 4)


def assert_scatter_equals_dense(a, b):
    i, j, v = overlap_pairs(a, b)
    assert len(set(zip(i.tolist(), j.tolist()))) == i.size  # each pair once
    assert np.all(v > 0.0)
    scattered = np.zeros((a.shape[0], b.shape[0]))
    scattered[i, j] = v
    dense = iou_matrix(a, b)
    assert scattered.tobytes() == dense.tobytes()  # bit for bit


def assert_self_join_equals_upper_triangle(b):
    i, j, v = overlap_pairs(b)
    assert np.all(i < j)  # each pair once, oriented i < j, no box with itself
    assert len(set(zip(i.tolist(), j.tolist()))) == i.size
    assert np.all(v > 0.0)
    scattered = np.zeros((b.shape[0], b.shape[0]))
    scattered[i, j] = v
    dense = iou_matrix(b, b)
    assert scattered.tobytes() == np.triu(dense, 1).tobytes()  # bit for bit


@settings(max_examples=150, deadline=None)
@given(lattice_boxes(), lattice_boxes())
def test_overlap_pairs_equal_dense_on_lattice_boxes(a, b):
    assert_scatter_equals_dense(a, b)
    assert_scatter_equals_dense(a, a)
    assert_self_join_equals_upper_triangle(a)
    assert_self_join_equals_upper_triangle(np.vstack([a, b, a]))  # every box of a twice


@settings(max_examples=150, deadline=None)
@given(heavy_tailed_boxes(), heavy_tailed_boxes())
def test_overlap_pairs_equal_dense_on_heavy_tailed_boxes(a, b):
    assert_scatter_equals_dense(a, b)
    assert_scatter_equals_dense(np.vstack([a, b]), b)
    assert_self_join_equals_upper_triangle(np.vstack([a, b]))


def test_overlap_pairs_empty_inputs():
    box = np.array([[0.0, 0.0, 1.0, 1.0]])
    for a, b in ((np.zeros((0, 4)), box), (box, np.zeros((0, 4))), ([], [])):
        i, j, v = overlap_pairs(a, b)
        assert i.size == j.size == v.size == 0
    for a in (np.zeros((0, 4)), [], box):  # a self-join of no box or of one box
        i, j, v = overlap_pairs(a)
        assert i.size == j.size == v.size == 0


def test_self_join_identical_nested_and_touching():
    boxes = np.array(
        [
            [0.0, 0.0, 10.0, 10.0],
            [0.0, 0.0, 10.0, 10.0],  # identical to 0
            [2.0, 2.0, 4.0, 4.0],  # nested in 0 and 1, a smaller size class
            [10.0, 0.0, 20.0, 10.0],  # shares an edge with 0 and 1
            [10.0, 10.0, 20.0, 20.0],  # shares an edge with 3, a corner with 0 and 1
        ]
    )
    i, j, v = overlap_pairs(boxes)
    assert dict(zip(zip(i.tolist(), j.tolist()), v.tolist())) == {(0, 1): 1.0, (0, 2): 0.04, (1, 2): 0.04}


def test_overlap_pairs_identical_nested_and_touching():
    a = np.array([[0.0, 0.0, 10.0, 10.0]])
    b = np.array(
        [
            [0.0, 0.0, 10.0, 10.0],  # identical
            [2.0, 2.0, 4.0, 4.0],  # nested
            [10.0, 0.0, 20.0, 10.0],  # shares the right edge
            [0.0, 10.0, 10.0, 20.0],  # shares the top edge
            [10.0, 10.0, 20.0, 20.0],  # shares a corner
        ]
    )
    i, j, v = overlap_pairs(a, b)
    got = dict(zip(j.tolist(), v.tolist()))
    assert got == {0: 1.0, 1: 4.0 / 100.0}
    assert np.all(i == 0)


def test_overlap_pairs_huge_box_over_tiny_ones():
    tiny = np.array([[x, y, x + 1e-2, y + 1e-2] for x in np.linspace(0, 1e6, 7) for y in (0.0, 5e5)])
    huge = np.array([[-1.0, -1.0, 2e6, 2e6]])
    assert_scatter_equals_dense(huge, tiny)
    assert_scatter_equals_dense(tiny, huge)
    assert_self_join_equals_upper_triangle(np.vstack([tiny[:5], huge, tiny[5:]]))


def test_box_edges_on_strip_boundaries():
    """Every box is one unit tall with y1 on a multiple of the unit, so the
    strips (a power of two above the mean box height: two units here) have
    box edges on every boundary, and stacked boxes touch there."""
    rng = np.random.default_rng(7)
    for unit in (2.0**-20, 1.0, 8.0, 2.0**30):
        (x1, y1), w = rng.integers(0, 40, (2, 300)) * unit, rng.integers(1, 5, 300) * unit
        boxes = np.stack([x1, y1, x1 + w, y1 + unit], axis=1)
        assert_scatter_equals_dense(boxes[:150], boxes[150:])
        assert_scatter_equals_dense(boxes[150:], boxes[:150])
        assert_self_join_equals_upper_triangle(boxes)


@st.composite
def with_non_finite(draw, boxes):
    """boxes with NaN or an infinity drawn into a few of their coordinates."""
    boxes = draw(boxes).copy()
    for _ in range(draw(st.integers(0, 4)) if boxes.shape[0] else 0):
        row, col = draw(st.integers(0, boxes.shape[0] - 1)), draw(st.integers(0, 3))
        boxes[row, col] = draw(st.sampled_from([np.nan, np.inf, -np.inf]))
    return boxes


ANY_BOXES = st.one_of(lattice_boxes(), heavy_tailed_boxes())


@settings(max_examples=150, deadline=None)
@given(with_non_finite(ANY_BOXES), with_non_finite(ANY_BOXES))
def test_rows_with_a_non_finite_coordinate_form_no_pair(a, b):
    """Such a row pairs with nothing and hides no pair: the pairs are the
    dense scatter over the finite rows alone."""
    fa, fb = np.isfinite(a).all(axis=1), np.isfinite(b).all(axis=1)
    i, j, v = overlap_pairs(a, b)
    assert fa[i].all() and fb[j].all() and np.all(v > 0.0)
    scattered, dense = np.zeros((2, a.shape[0], b.shape[0]))
    scattered[i, j] = v
    dense[np.ix_(fa, fb)] = iou_matrix(a[fa], b[fb])
    assert scattered.tobytes() == dense.tobytes()

    i, j, v = overlap_pairs(a)
    assert fa[i].all() and fa[j].all() and np.all(i < j) and np.all(v > 0.0)
    scattered, dense = np.zeros((2, a.shape[0], a.shape[0]))
    scattered[i, j] = v
    dense[np.ix_(fa, fa)] = np.triu(iou_matrix(a[fa], a[fa]), 1)
    assert scattered.tobytes() == dense.tobytes()


def pair_set(i, j, v):
    """Pairs as a set of (i, j, the bits of the IOU), so NaN IOUs compare equal."""
    return set(zip(i.tolist(), j.tolist(), v.view(np.uint64).tolist()))


MIN_IOUS = st.one_of(st.sampled_from([0.0, 0.1, 0.5, 1.0]), st.floats(0.0, 1.0))


def dense_pairs(a, b, min_iou, upper=False):
    """The pairs of the dense reference: finite rows that intersect with
    positive area, with their iou_matrix IOU, where that is not below
    min_iou; with upper, only the pairs i < j."""
    iw = np.minimum(a[:, None, 2], b[None, :, 2]) - np.maximum(a[:, None, 0], b[None, :, 0])
    ih = np.minimum(a[:, None, 3], b[None, :, 3]) - np.maximum(a[:, None, 1], b[None, :, 1])
    v = iou_matrix(a, b)
    pair = (iw > 0.0) & (ih > 0.0) & ~(v < min_iou)
    pair &= np.isfinite(a).all(axis=1)[:, None] & np.isfinite(b).all(axis=1)[None, :]
    if upper:
        pair = np.triu(pair, 1)
    i, j = np.nonzero(pair)
    return pair_set(i, j, v[i, j])


@settings(max_examples=150, deadline=None)
@given(with_non_finite(ANY_BOXES), with_non_finite(ANY_BOXES), st.sampled_from([1.0, 1e150, 1e200]), MIN_IOUS)
def test_min_iou_keeps_the_pairs_not_below_it(a, b, scale, min_iou):
    """The pairs at min_iou are the unfiltered pairs, the dense reference's,
    whose IOU is not below it. Scaled by 1e150 or 1e200, some or all box
    areas overflow, and the NaN IOU of an overlapping pair of such boxes is
    kept."""
    a, b = a * scale, b * scale
    with np.errstate(over="ignore", invalid="ignore"):
        assert pair_set(*overlap_pairs(a, b, min_iou=min_iou)) == dense_pairs(a, b, min_iou)
        assert pair_set(*overlap_pairs(a, min_iou=min_iou)) == dense_pairs(a, a, min_iou, upper=True)


def test_min_iou_keeps_a_pair_exactly_at_it():
    boxes = np.array([[0.0, 0.0, 10.0, 10.0], [0.0, 0.0, 10.0, 10.0], [0.0, 0.0, 10.0, 5.0], [0.0, 0.0, 10.0, 20.0]])
    at = {m: sorted(zip(*(c.tolist() for c in overlap_pairs(boxes, min_iou=m)))) for m in (0.25, 0.5, 1.0)}
    assert at[1.0] == [(0, 1, 1.0)]
    assert at[0.5] == [(0, 1, 1.0), (0, 2, 0.5), (0, 3, 0.5), (1, 2, 0.5), (1, 3, 0.5)]
    assert at[0.25] == sorted(at[0.5] + [(2, 3, 0.25)])


@settings(max_examples=100, deadline=None)
@given(ANY_BOXES, ANY_BOXES, st.integers(1, 5))
def test_blocks_of_a_few_candidates_give_the_same_pairs(a, b, block):
    """With a budget of a few candidates a block every join is cut into
    many blocks; the scatter still equals the dense matrix bit for bit."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(postprocess, "_BLOCK", block)
        assert_scatter_equals_dense(a, b)
        assert_self_join_equals_upper_triangle(np.vstack([a, b]))


def test_a_run_of_candidates_longer_than_a_block_is_cut_across_blocks(monkeypatch):
    """A wide box ahead of 40 small ones in its strip meets all of them, one
    run of 40 candidates: with 3 a block, its run fills several blocks alone."""
    monkeypatch.setattr(postprocess, "_BLOCK", 3)
    small = np.array([[1.0 + k, 0.0, 1.5 + k, 1.0] for k in range(40)])
    boxes = np.vstack([[0.0, 0.0, 100.0, 1.0], small])
    assert sum(bool(np.all(i == 0)) for i, _ in postprocess._candidates(boxes, None)) >= 2
    assert_self_join_equals_upper_triangle(boxes)
    assert_scatter_equals_dense(boxes[:1], small)
    assert_scatter_equals_dense(small, boxes[:1])


SCORES = st.sampled_from([0.1, 0.5, 0.5, 0.9])  # forced score ties
DELTAS = st.one_of(st.sampled_from([0.0, 0.1, 0.3, 0.5, 1.0]), st.floats(0.0, 1.0))


@settings(max_examples=150, deadline=None)
@given(st.one_of(lattice_boxes(), heavy_tailed_boxes()), st.data(), DELTAS)
def test_nms_matches_quadratic_reference_with_ties(boxes, data, delta):
    scores = data.draw(st.lists(SCORES, min_size=len(boxes), max_size=len(boxes)))
    dets = global_set(boxes, scores, [f"p{i}" for i in range(len(scores))])
    expected = [f"p{i}" for i in quadratic_nms(boxes, scores, delta)]
    assert nms(dets, delta).patch_ids.tolist() == expected


@st.composite
def ranked_chains(draw):
    """Chains of 10-unit boxes, each stepping 1 to 9 units right of the one
    before and scoring no higher, so every box but a chain's first has an
    earlier-ranked neighbour (equal scores rank by x1). The rows come
    shuffled; a row's patch id is its input index."""
    boxes, scores = [], []
    for chain in range(draw(st.integers(1, 3))):
        x, score = 0.0, 1.0
        for _ in range(draw(st.integers(2, 25))):
            boxes.append((x, 100.0 * chain, x + 10.0, 100.0 * chain + 10.0))
            scores.append(score)
            x += draw(st.integers(1, 9))
            score -= draw(st.sampled_from([0.0, 0.01, 0.1]))
    order = draw(st.permutations(range(len(boxes))))
    return np.array(boxes)[order], [scores[k] for k in order]


@settings(max_examples=150, deadline=None)
@given(ranked_chains(), DELTAS)
def test_nms_matches_quadratic_reference_on_ranked_chains(chains, delta):
    boxes, scores = chains
    dets = global_set(boxes, scores, [f"p{i}" for i in range(len(scores))])
    expected = [f"p{i}" for i in quadratic_nms(boxes, scores, delta)]
    assert nms(dets, delta).patch_ids.tolist() == expected


# ---------------------------------------------------------------------------
# memory is bounded by the inputs and the overlapping pairs, not N x M


def _crater_boxes(rng, n, extent_m=2.0e6):
    diam = np.exp(rng.uniform(np.log(1e3), np.log(2e4), n))
    cx, cy = rng.uniform(0, extent_m, (2, n))
    return np.stack([cx - diam / 2, cy - diam / 2, cx + diam / 2, cy + diam / 2], axis=1)


def test_scoring_and_nms_memory_bounded_on_50k_by_20k():
    """50,000 detections (40,000 jittered copies of truth craters plus 10,000
    false ones) against 20,000 truth craters of 1-20 km on a 2,000 km square.
    A dense IOU matrix would take 8 GB. Matching peaked at 20 MB when its
    bound was set and now peaks at 9.9 MB. NMS, which keeps only the pairs at
    IOU >= delta, peaked at 6.7 MB (8.6 MB when it kept every pair), and its
    bound allows about 2x that."""
    rng = np.random.default_rng(50)
    truth = _crater_boxes(rng, 20_000)
    copies = truth[rng.integers(0, truth.shape[0], 40_000)]
    side = (copies[:, 2] - copies[:, 0])[:, None]
    jitter = rng.normal(0, 0.05, (copies.shape[0], 2)).repeat(2, axis=1) * side
    boxes = np.vstack([copies + jitter, _crater_boxes(rng, 10_000)])
    dets = detection_set(boxes, rng.uniform(0, 1, boxes.shape[0]), ["p"] * boxes.shape[0], np.zeros_like(boxes))

    for bound_mb, run in (
        (40, lambda: match_and_count(dets, truth, EvalConfig(u=0.3))),
        (14, lambda: nms(dets, 0.3)),
    ):
        tracemalloc.start()
        try:
            run()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < bound_mb * 1e6, (peak, bound_mb)


def _peak_mb(run) -> float:
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1] / 1e6
    finally:
        tracemalloc.stop()


def test_memory_follows_the_pairs_kept_not_the_candidates():
    """10,000 boxes of side 10 on a unit lattice: each meets 360 others, 1.6M
    pairs in all, but only 117,210 pairs reach IOU 0.5. Keeping every pair
    peaked at 164 MB (NMS at 0.5 too, when it did); at 0.5 the join peaked at
    8.0 MB and NMS at 9.4 MB. The bound allows about 2x that."""
    x, y = np.meshgrid(np.arange(100.0), np.arange(100.0))
    boxes = np.hstack([np.stack([x.ravel(), y.ravel()], axis=1)] * 2) + [0.0, 0.0, 10.0, 10.0]
    dets = detection_set(boxes, np.random.default_rng(3).uniform(0, 1, 10_000), ["p"] * 10_000, np.zeros_like(boxes))
    assert overlap_pairs(boxes, min_iou=0.5)[0].size == 117_210
    assert _peak_mb(lambda: overlap_pairs(boxes, min_iou=0.5)) < 20.0
    assert _peak_mb(lambda: nms(dets, 0.5)) < 20.0


def test_one_tall_box_among_short_ones_stays_linear():
    """A box 1e6 tall and wide among 10,000 boxes 1 tall: it meets every
    short box, and the strips follow the short boxes' height, so it is put
    in about one strip per short box. Measured peaks were 1.1-1.5 MB; the
    bound allows about 2x that."""
    rng = np.random.default_rng(6)
    xy = rng.uniform(0, 1e6, (10_000, 2))
    short, tall = np.hstack([xy, xy + 1.0]), np.array([[0.0, 0.0, 1e6, 1e6]])
    for args in ((np.vstack([short[:5000], tall, short[5000:]]),), (tall, short), (short, tall)):
        assert overlap_pairs(*args)[0].size == 10_000
        assert _peak_mb(lambda: overlap_pairs(*args)) < 3.0


def test_one_box_far_taller_than_the_rest_does_not_set_the_strips():
    """20,000 unit boxes at density 0.1 plus one box 1e12 tall. With strips
    as tall as the mean height every short box would share one strip, and
    every pair overlapping in x would be a candidate: about 2e7 of them and
    ~100 MB. Capping heights at 64 times the median keeps the strips short.
    Measured peaks were 85-145 bytes per box or pair."""
    rng = np.random.default_rng(12)
    xy = rng.uniform(0, 450, (20_000, 2))
    short, tall = np.hstack([xy, xy + 1.0]), np.array([[200.0, -5e11, 201.0, 5e11]])
    for args in ((np.vstack([short[:10_000], tall, short[10_000:]]),), (tall, short), (short, tall),
                 (short[:10_000], np.vstack([short[10_000:], tall]))):
        n_pairs = overlap_pairs(*args)[0].size
        assert _peak_mb(lambda: overlap_pairs(*args)) < 300 * (20_001 + n_pairs) / 1e6


def test_many_tall_boxes_over_sparse_rows():
    """Three boxes spanning everything over 2,000 unit boxes spread far
    apart in y: with the capped heights each tall box would meet about
    2,000 strips, more than 3 strips a box in all, so a coarser strip height
    is searched for. The pairs still equal the dense reference."""
    rng = np.random.default_rng(13)
    xy = rng.uniform(0, 1, (2000, 2)) * [100.0, 1e6]
    short = np.hstack([xy, xy + 1.0])
    tall = np.array([[10.0 * k, -1e12, 10.0 * k + 50.0, 1e12] for k in range(3)])
    boxes = np.vstack([short[:1000], tall, short[1000:]])
    assert_self_join_equals_upper_triangle(boxes)
    assert_scatter_equals_dense(tall, short)
    assert_scatter_equals_dense(short[:1000], np.vstack([tall, short[1000:]]))


def _power_law_boxes(rng, n, lo_km=1.0, hi_km=2500.0, extent_m=1.0e7):
    """Crater boxes with diameters from lo_km to hi_km, the number above D
    falling as D**-2, as in global lunar catalogs."""
    u = rng.uniform(0, 1, n)
    diam = lo_km * (1 - u * (1 - (lo_km / hi_km) ** 2)) ** -0.5 * 1e3
    cx, cy = rng.uniform(0, extent_m, (2, n))
    return np.stack([cx - diam / 2, cy - diam / 2, cx + diam / 2, cy + diam / 2], axis=1)


def test_power_law_catalog_memory_bounded():
    """50,000 against 50,000 crater boxes of 1-2,500 km on a 10,000 km
    square. The self-join peaked at 5.7 MB and the join of the two sets at
    12.5 MB; the size-class search this sweep replaced peaked at 15.7 and
    14.2 MB, which bound them here."""
    rng = np.random.default_rng(2500)
    a, b = _power_law_boxes(rng, 50_000), _power_law_boxes(rng, 50_000)
    assert _peak_mb(lambda: overlap_pairs(a)) < 15.7
    assert _peak_mb(lambda: overlap_pairs(a, b)) < 14.2
