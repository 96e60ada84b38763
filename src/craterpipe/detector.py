"""Detection interface plus the two shipped implementations.

The neural detector is a seam: anything that maps a patch to scored boxes
can drive the pipeline. A detector's detect(patch) returns two arrays, the
(N, 4) pixel boxes of that patch and their (N,) scores, as Mask R-CNN gives
them per image. Two implementations live here. The synthetic oracle
detector maps catalog.select's truth boxes into each patch and emits
noisy detections; it exists so the post-processing and evaluation stages
can be exercised and accepted without a trained model. It reads only a
patch's placement (id, offset, spec), so it takes a PatchPlacement or a
FusedPatch alike. The external path ingests detection records produced by
a real model.

Past that seam raw detections are columns: PatchDetections holds a band's
patch table, its PatchPlacements in sorted patch id order, and every row
with its integer code into that table, for postprocess.run_pipeline; a
code is decoded to its id only where a file or a message prints it. It is
what runner.detect_patches builds from the detector's arrays, and what
load_detections builds from the record lines, read as columns by
textcols.read_columns. Both check every row against the same invariants
(invalid) and name the first bad row with row_error; load_detections also
names the first record whose patch id is not in the table, whatever its
score.

Detection record wire format, one record per line, comma separated, no
header (blank lines and lines starting with ``#`` are ignored):

    patch_id,x1,y1,x2,y2,score

Coordinates are resized-patch pixels as decimal text, score in [0, 1].
"""

from __future__ import annotations

import zlib
from abc import ABC, abstractmethod
from collections.abc import Iterator, Mapping, Sequence
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import DetectionError
from .geo import GeoTransform, meter_to_pixel_xy, pixel_to_meter_xy
from .raster import PatchPlacement
from .textcols import open_text, raise_first, read_columns, text_lines, write_csv

__all__ = [
    "invalid",
    "row_error",
    "PatchDetections",
    "NoiseConfig",
    "DetectorInterface",
    "SyntheticDetector",
    "load_detections",
    "save_detections",
]


def invalid(boxes: np.ndarray, scores: np.ndarray) -> np.ndarray:
    """The mask of rows, (N, 4) pixel boxes and (N,) scores, that break the
    detection invariants: x1 < x2, y1 < y2, x1, y1 >= 0, a score in [0, 1]
    and finite corners."""
    x1, y1, x2, y2 = boxes.T
    bad = ~((x1 < x2) & (y1 < y2)) | (x1 < 0) | (y1 < 0) | ~((scores >= 0.0) & (scores <= 1.0))
    return bad | ~np.isfinite(boxes).all(axis=1)


def row_error(patch_id: str, box, score) -> str:
    """What the first invariant a row of patch_id breaks reads as, checked in
    the order degenerate, negative, score, non-finite."""
    box, score = tuple(map(float, box)), float(score)
    x1, y1, x2, y2 = box
    if not (x1 < x2 and y1 < y2):
        return f"degenerate box {box} in patch {patch_id}"
    if x1 < 0 or y1 < 0:
        return f"negative coordinates in box {box}"
    if not 0.0 <= score <= 1.0:
        return f"score {score} outside [0, 1]"
    return f"non-finite coordinates in box {box}"


class PatchDetections(Mapping):
    """Raw detections of a band's patches held as columns: patch id -> that patch's rows.

    placements is the band's patch table in sorted patch id order and patches
    its ids, patches without rows included. boxes is an (N, 4) float64 array
    of pixel boxes, scores an (N,) float64 array and codes an (N,) intp array
    of each row's index into placements, so its id is patches[codes[i]]. Rows
    are grouped in table order, keeping each patch's own row order. Looking
    up a patch gives the range of its row indices into the columns.
    """

    def __init__(self, placements: Sequence[PatchPlacement], codes, boxes, scores) -> None:
        """Placements in any order and rows in any order, each row's code its
        index into placements as given; both are sorted here."""
        by_id = sorted(range(len(placements)), key=lambda k: placements[k].patch_id)
        self.placements = tuple(placements[k] for k in by_id)
        self.patches = tuple(p.patch_id for p in self.placements)
        codes = np.argsort(by_id)[np.asarray(codes, dtype=np.intp).reshape(-1)]
        order = np.argsort(codes, kind="stable")
        self.codes = codes[order]
        self.boxes = np.asarray(boxes, dtype=np.float64).reshape(-1, 4)[order]
        self.scores = np.asarray(scores, dtype=np.float64).reshape(-1)[order]
        self._index = {k: i for i, k in enumerate(self.patches)}
        self._bounds = np.searchsorted(self.codes, np.arange(len(self.patches) + 1)).tolist()

    def __getitem__(self, key: str) -> range:
        k = self._index[key]
        return range(self._bounds[k], self._bounds[k + 1])

    def __iter__(self) -> Iterator[str]:
        return iter(self.patches)

    def __len__(self) -> int:
        return len(self.patches)


@dataclass(frozen=True)
class NoiseConfig:
    """Noise model of the synthetic detector.

    center_jitter_px perturbs box centers (std dev, resized pixels),
    radius_jitter_frac scales radii by 1 + N(0, frac^2), miss_rate drops
    truth craters, false_positive_rate is the expected count of spurious
    boxes per patch (Poisson), with radii drawn uniformly from
    fp_radius_px. All randomness derives from (seed, patch_id), so patches
    can be processed in any order or thread count with identical results.
    """

    center_jitter_px: float = 0.0
    radius_jitter_frac: float = 0.0
    false_positive_rate: float = 0.0
    miss_rate: float = 0.0
    seed: int = 0
    fp_radius_px: tuple[float, float] = (12.5, 50.0)

    def __post_init__(self) -> None:
        if not all(r >= 0 for r in (self.center_jitter_px, self.radius_jitter_frac, self.false_positive_rate)):
            raise DetectionError("noise rates must be non-negative")
        if not 0.0 <= self.miss_rate <= 1.0:
            raise DetectionError(f"miss_rate must be in [0, 1], got {self.miss_rate}")
        lo, hi = self.fp_radius_px
        if not 0 < lo <= hi:
            raise DetectionError(f"bad fp_radius_px range {self.fp_radius_px}")


class DetectorInterface(ABC):
    """Contract every detector implementation satisfies.

    detect must be deterministic given (patch, seed) and safe to call
    concurrently on distinct patches. A detector that reads pixels takes
    FusedPatches; one that reads only placements may also take
    PatchPlacements.
    """

    @abstractmethod
    def detect(self, patch: PatchPlacement) -> tuple[np.ndarray, np.ndarray]:
        """Return the patch's (N, 4) pixel boxes and (N,) scores, each row
        within the invariants of invalid; boxes may be clipped to the patch
        boundary."""


def _patch_rng(seed: int, patch_id: str) -> np.random.Generator:
    return np.random.default_rng(
        np.random.SeedSequence([seed & 0xFFFFFFFF, zlib.crc32(patch_id.encode("utf-8"))])
    )


class SyntheticDetector(DetectorInterface):
    """Oracle detector driven by truth boxes and a noise model.

    truth_boxes holds catalog.select's (N, 4) float64 boxes in meters on gt.
    For every one that intersects the patch window, a detection is emitted
    with probability 1 - miss_rate at its pixel-frame projection, center
    jittered, radius scaled, clipped to the patch. Poisson-many spurious
    boxes are added uniformly over the patch. True detections score in
    [0.7, 1.0), spurious in [0.3, 0.9); the exact ranges are arbitrary but
    fixed, since only the ordering matters downstream. It never reads channels.
    Its noise is drawn one candidate at a time in a fixed order, the miss
    test, three normals and the score, so each patch's stream is fixed; the
    rest is column arithmetic with the scalar draws' bits.
    """

    def __init__(self, truth_boxes: np.ndarray, gt: GeoTransform, noise: NoiseConfig):
        self.truth_boxes, self.gt, self.noise = truth_boxes, gt, noise

    def detect(self, patch: PatchPlacement) -> tuple[np.ndarray, np.ndarray]:
        gt, noise, row0, col0, df = self.gt, self.noise, patch.row0, patch.col0, patch.delta_f
        ps_a, ps_r = patch.spec.ps_a, patch.spec.ps_r
        rng = _patch_rng(noise.seed, patch.patch_id)

        # the window in meters: its corners at resize factor 1
        x_lo, y_hi = pixel_to_meter_xy(0, 0, gt, row0, col0, 1.0)
        x_hi, y_lo = pixel_to_meter_xy(ps_a, ps_a, gt, row0, col0, 1.0)

        b = self.truth_boxes
        hit = ~((b[:, 0] >= x_hi) | (b[:, 2] <= x_lo) | (b[:, 1] >= y_hi) | (b[:, 3] <= y_lo))
        bx1, by1, bx2, by2 = b[hit].T

        # One draw per candidate keeps the stream stable across configs: the
        # miss test, three standard normals (standard_normal(out=row) gives
        # three scalar calls' values), the score. normal(0, s) is 0 + s * z and
        # uniform(lo, hi) lo + (hi - lo) * u: the columns are the scalar bits.
        random, normal = rng.random, rng.standard_normal
        normals, uniforms = np.empty((bx1.size, 3)), []
        draw = uniforms.append
        for row in normals:
            draw(random())
            normal(out=row)
            draw(random())
        zx, zy, zr = normals.T
        u_miss, u_score = np.array(uniforms).reshape(-1, 2).T
        px1, py1 = meter_to_pixel_xy(bx1, by2, gt, row0, col0, df)
        px2, py2 = meter_to_pixel_xy(bx2, by1, gt, row0, col0, df)
        cx = (px1 + px2) / 2.0 + (0.0 + noise.center_jitter_px * zx)
        cy = (py1 + py2) / 2.0 + (0.0 + noise.center_jitter_px * zy)
        half = np.maximum((px2 - px1) / 2.0 * (1.0 + (0.0 + noise.radius_jitter_frac * zr)), 0.25)
        score = 0.7 + (1.0 - 0.7) * u_score
        found = u_miss >= noise.miss_rate

        # Poisson-many spurious boxes: radius, center x, center y, score
        u = rng.random((rng.poisson(noise.false_positive_rate), 4))
        lo, hi = noise.fp_radius_px
        cx = np.concatenate([cx[found], ps_r * u[:, 1]])  # uniform(0, ps_r)
        cy = np.concatenate([cy[found], ps_r * u[:, 2]])
        half = np.concatenate([half[found], lo + (hi - lo) * u[:, 0]])
        score = np.concatenate([score[found], 0.3 + (0.9 - 0.3) * u[:, 3]])

        boxes = np.stack([np.maximum(cx - half, 0.0), np.maximum(cy - half, 0.0),
                          np.minimum(cx + half, float(ps_r)), np.minimum(cy + half, float(ps_r))], axis=1)
        kept = (boxes[:, 0] < boxes[:, 2]) & (boxes[:, 1] < boxes[:, 3])
        return boxes[kept], score[kept]


def load_detections(
    path: str | Path, placements: Sequence[PatchPlacement], score_floor: float | None = None
) -> PatchDetections:
    """Read a detection record file onto a band's patch table, grouped by patch id.

    placements is the band's non-empty patch table, all on one spec. Every
    record is checked, in this order, against the invariants, the patch side
    ps_r of that spec and the table's ids; the first bad record fails the
    load with its line number, whether it breaks a check or does not parse.
    score_floor optionally drops records scoring below it, once all are
    checked, for model outputs that were not thresholded upstream.
    """
    path = Path(path)
    with open_text(path, DetectionError, "detections file") as fh:
        linenos, ids, rows, bad = read_columns(text_lines(fh), range(1, 6), 0, width=6, records=True)
    ids = [s.strip() for s in ids.tolist()]
    code_of = {p.patch_id: k for k, p in enumerate(placements)}
    codes = np.fromiter((code_of.get(s, -1) for s in ids), dtype=np.intp, count=len(ids))
    boxes, score, ps_r = rows[:, :4], rows[:, 4], placements[0].spec.ps_r
    raise_first(path, linenos, bad, [
        (invalid(boxes, score), lambda r: row_error(ids[r], boxes[r], score[r])),
        ((boxes[:, 2] > ps_r) | (boxes[:, 3] > ps_r), lambda r: f"box exceeds patch side {ps_r}"),
        (codes < 0, lambda r: f"unknown patch id {ids[r]!r}"),
    ])
    keep = ~(score < score_floor) if score_floor is not None else slice(None)
    return PatchDetections(placements, codes[keep], boxes[keep], score[keep])


def save_detections(per_patch: PatchDetections, path: str | Path) -> None:
    """Write detections in the record wire format, patches in sorted order."""
    ids = np.array(per_patch.patches, dtype=object)[per_patch.codes]
    write_csv(path, [], [ids, *per_patch.boxes.T, per_patch.scores], eol="\n")
