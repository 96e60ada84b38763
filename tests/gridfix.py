"""Constructed per-patch detection fixture with a known best (m, delta).

The scene is a 2048x2048-pixel mosaic at 100 m/px, tiled into nine
1024->512 patches at 50% overlap (resize factor 2). Sixteen truth craters of
10 km box side are planted where each is comfortably interior to at least
two patches. Detections are then written directly, in patch pixel frames,
to realize four controlled effects:

* every crater gets its primary detection plus an identical copy from a
  second covering patch (overlap duplicates; IOU 1 so any NMS level merges
  them),
* twelve craters carry low-score "clone" boxes whose IOU against the
  primary detection sits strictly inside one bracket of the NMS grid
  (0.2-0.3, 0.3-0.4, 0.4-0.5, or above 0.5) while staying below the 0.3
  match threshold against every truth box, so each clone turns into a false
  positive exactly when the NMS threshold rises past its bracket,
* two close pairs of craters whose detections overlap at IOU 0.15, so an
  NMS threshold of 0.1 suppresses one true detection per pair,
* sixteen false boxes hugging patch edges at distances 0, 0.5, 3 and 8
  pixels, removed progressively as the boundary threshold m grows through
  0, 1, 5, 10.

Consequences, all verified by construction-time assertions: at m=10 and
delta=0.2 the pipeline scores a perfect 1.0 F1; F1 strictly increases along
m in {0,1,5,10} at delta=0.2; precision is non-increasing and recall
non-decreasing along delta at m=10; and with NMS disabled precision drops
to 32/68, below half of the delta=0.2 value.
"""

from dataclasses import dataclass

import numpy as np

from craterpipe.detector import PatchDetections
from craterpipe.geo import GeoTransform
from craterpipe.raster import PatchSpec, patch_placements

from conftest import index_of, patch_columns
from reference import iou

LUNAR_RADIUS = 1_737_400.0

S = 100.0  # meters per mosaic pixel
PS_A = 1024
PS_R = 512
DELTA_F = 2.0
MOSAIC = 2048
SIDE_M = 10_000.0  # truth box side in meters (10 km)

# Clone geometry per tier, as fractions of the box side:
#   d1: forward (+x) shift of the primary detection away from the truth box
#   fwd: extra +x shift of the forward clone relative to the detection
#   orth: +-y shift of the two orthogonal clones relative to the detection
# The resulting clone-vs-detection IOU lands strictly inside the bracket.
_TIERS = {
    "survives_at_0.3": (0.04, 0.60, 0.60),
    "survives_at_0.4": (0.16, 0.4815, 0.4815),
    "survives_at_0.5": (0.30, 0.55 / 1.45, 0.55 / 1.45),
    "survives_never": (0.38, 0.25, 0.30),
}
_TIER_BRACKETS = {
    "survives_at_0.3": (0.2, 0.3),
    "survives_at_0.4": (0.3, 0.4),
    "survives_at_0.5": (0.4, 0.5),
    "survives_never": (0.5, 1.0),
}

PAIR_IOU = 0.15
PAIR_OFFSET = SIDE_M * (1.0 - PAIR_IOU) / (1.0 + PAIR_IOU)

BOUNDARY_DISTANCES = (0.0, 0.5, 3.0, 8.0)  # resized pixels from the left edge


@dataclass
class GridFixture:
    per_patch: PatchDetections
    rows: dict  # patch id -> [(pixel box, score), ...], the rows of per_patch
    patch_index: dict  # patch id -> (row0, col0, delta_f) of per_patch's placements
    gt: GeoTransform
    truth_boxes: np.ndarray
    ps_r: int
    n_truth: int
    n_boxes_total: int
    n_tp_boxes: int
    n_clones: int


def _square(cx, cy, side):
    h = side / 2.0
    return (cx - h, cy - h, cx + h, cy + h)


def _covering_patches(box_m, margin_m):
    """Patches whose window contains the box with the given meter margin."""
    out = []
    for row0 in (0, 512, 1024):
        for col0 in (0, 512, 1024):
            x_lo = col0 * S
            x_hi = (col0 + PS_A) * S
            y_hi = -row0 * S
            y_lo = -(row0 + PS_A) * S
            if (
                box_m[0] - margin_m >= x_lo
                and box_m[2] + margin_m <= x_hi
                and box_m[1] - margin_m >= y_lo
                and box_m[3] + margin_m <= y_hi
            ):
                out.append((row0, col0))
    return out


def _to_pixel_box(box_m, row0, col0):
    x1 = ((box_m[0]) / S - col0) / DELTA_F
    x2 = ((box_m[2]) / S - col0) / DELTA_F
    y1 = ((-box_m[3]) / S - row0) / DELTA_F
    y2 = ((-box_m[1]) / S - row0) / DELTA_F
    return (x1, y1, x2, y2)


def build_grid_fixture() -> GridFixture:
    gt = GeoTransform(x_min=0.0, y_max=0.0, resolution=S, body_radius=LUNAR_RADIUS)
    placements = patch_placements(MOSAIC, MOSAIC, PatchSpec(PS_A, PS_R, 0.5))
    patch_index = index_of(placements)
    assert sorted(v[:2] for v in patch_index.values()) == [(r0, c0) for r0 in (0, 512, 1024) for c0 in (0, 512, 1024)]
    pid = {v[:2]: k for k, v in patch_index.items()}
    rows: dict[str, list[tuple]] = {k: [] for k in patch_index}

    # slot centers in mosaic pixels; each slot is inside >= 2 patch windows
    axis = (650.0, 880.0, 1160.0, 1390.0)
    slots = [(x, y) for y in axis for x in axis]

    margin_m = (10.0 + 1.0) * DELTA_F * S  # clear the m=10 boundary filter

    truth_boxes: list[tuple] = []
    global_boxes: list[tuple[tuple, str]] = []  # (meter box, group) for the overlap audit
    n_boxes = 0
    n_tp_boxes = 0
    n_clones = 0

    def emit(box_m, score, patches, group):
        nonlocal n_boxes
        for row0, col0 in patches:
            pix = _to_pixel_box(box_m, row0, col0)
            assert min(pix[0], pix[1], PS_R - pix[2], PS_R - pix[3]) > 10.0, (group, pix)
            rows[pid[(row0, col0)]].append((pix, score))
            n_boxes += 1
        global_boxes.append((box_m, group))

    tier_names = list(_TIERS)
    for i, (sx, sy) in enumerate(slots[:12]):
        tier = tier_names[i % 4]
        d1, fwd, orth = _TIERS[tier]
        lo, hi = _TIER_BRACKETS[tier]
        cx, cy = sx * S, -sy * S
        truth = _square(cx, cy, SIDE_M)
        truth_boxes.append(truth)

        det_box = _square(cx + d1 * SIDE_M, cy, SIDE_M)
        assert iou(det_box, truth) >= 0.305, (tier, iou(det_box, truth))
        covering = _covering_patches(det_box, margin_m)
        assert len(covering) >= 2, (i, covering)
        emit(det_box, 0.95, covering[:1], f"s{i}")
        emit(det_box, 0.90, covering[1:2], f"s{i}")
        n_tp_boxes += 2

        clones = [
            _square(cx + (d1 + fwd) * SIDE_M, cy, SIDE_M),
            _square(cx + d1 * SIDE_M, cy + orth * SIDE_M, SIDE_M),
            _square(cx + d1 * SIDE_M, cy - orth * SIDE_M, SIDE_M),
        ]
        for j, clone in enumerate(clones):
            q = iou(clone, det_box)
            assert lo + 0.005 < q < hi - 0.005 or (hi == 1.0 and q > lo + 0.005), (tier, j, q)
            assert iou(clone, truth) <= 0.295, (tier, j, iou(clone, truth))
            emit(clone, 0.5, covering[:1], f"s{i}")
            n_clones += 1

    # close pairs: detection equals the truth box, partner offset along x
    for k, slot in enumerate((slots[12], slots[14])):
        sx, sy = slot
        for part in range(2):
            cx = sx * S + part * PAIR_OFFSET
            cy = -sy * S
            truth = _square(cx, cy, SIDE_M)
            truth_boxes.append(truth)
            covering = _covering_patches(truth, margin_m)
            assert len(covering) >= 2, (k, part, covering)
            emit(truth, 0.95 - 0.01 * part, covering[:1], f"pair{k}")
            emit(truth, 0.90 - 0.01 * part, covering[1:2], f"pair{k}")
            n_tp_boxes += 2

    # the two pair detections overlap each other at IOU 0.15 exactly
    assert abs(iou(truth_boxes[-1], truth_boxes[-2]) - PAIR_IOU) < 1e-9

    # boundary-hugging false positives in the four corner patches
    fp_size = 40.0
    corner_patches = [(0, 0), (0, 1024), (1024, 0), (1024, 1024)]
    for row0, col0 in corner_patches:
        for t, dist in enumerate(BOUNDARY_DISTANCES):
            y0 = 100.0 + 100.0 * t
            pix = (dist, y0, dist + fp_size, y0 + fp_size)
            assert min(pix[0], pix[1], PS_R - pix[2], PS_R - pix[3]) == dist
            rows[pid[(row0, col0)]].append((pix, 0.5))
            n_boxes += 1
            gx1 = (col0 + pix[0] * DELTA_F) * S
            gx2 = (col0 + pix[2] * DELTA_F) * S
            gy2 = -(row0 + pix[1] * DELTA_F) * S
            gy1 = -(row0 + pix[3] * DELTA_F) * S
            global_boxes.append(((gx1, gy1, gx2, gy2), f"bfp{row0}.{col0}.{t}"))

    # audit: boxes from different groups never overlap; within-pair overlap is
    # asserted exactly above, so any stray interaction fails the build here
    for a in range(len(global_boxes)):
        for b in range(a + 1, len(global_boxes)):
            box_a, group_a = global_boxes[a]
            box_b, group_b = global_boxes[b]
            if group_a != group_b:
                assert iou(box_a, box_b) == 0.0, (group_a, group_b)

    return GridFixture(
        per_patch=patch_columns(rows, placements),
        rows=rows,
        patch_index=patch_index,
        gt=gt,
        truth_boxes=np.array(truth_boxes, dtype=np.float64),
        ps_r=PS_R,
        n_truth=len(truth_boxes),
        n_boxes_total=n_boxes,
        n_tp_boxes=n_tp_boxes,
        n_clones=n_clones,
    )
