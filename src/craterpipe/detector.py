"""Detection interface plus the two shipped implementations.

The neural detector is a seam: anything that maps a patch to scored boxes
can drive the pipeline. A detector's detect(patch) returns two arrays, the
(N, 4) pixel boxes of that patch and their (N,) scores, as Mask R-CNN gives
them per image. Two implementations live here. The synthetic oracle
detector projects a truth catalog into each patch and emits configurable
noisy detections; it exists so the post-processing and evaluation stages
can be exercised and accepted without a trained model. It reads only a
patch's placement (id, offset, spec), so it takes a PatchPlacement or a
FusedPatch alike. The external path ingests detection records produced by
a real model.

Past that seam raw detections are columns: PatchDetections holds every
patch's rows in sorted patch id order, for postprocess.run_pipeline. It is
what runner.detect_patches builds from the detector's arrays, and what
load_detections builds from the record lines, read as columns by
textcols.read_columns. Both check every row against the same
invariants (invalid) and name the first bad row with row_error.

Detection record wire format, one record per line, comma separated, no
header (blank lines and lines starting with ``#`` are ignored):

    patch_id,x1,y1,x2,y2,score

Coordinates are resized-patch pixels as decimal text, score in [0, 1].
"""

from __future__ import annotations

import zlib
from abc import ABC, abstractmethod
from collections.abc import Iterable, Iterator, Mapping
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import catalog as catalog_mod
from .errors import DetectionError
from .geo import GeoTransform, meter_to_pixel_xy, pixel_to_meter_xy
from .raster import PatchPlacement
from .textcols import gather, raise_first, read_columns, text_lines, write_csv

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
    """Raw per-patch detections held as columns: patch id -> that patch's rows.

    boxes is an (N, 4) float64 array of pixel boxes, scores an (N,) float64
    array and patch_ids an (N,) object array of str. patches holds the
    mapping's keys in sorted order, patches without rows included. Rows are
    grouped in that order, keeping each patch's own row order, and codes
    gives each row's index into patches. Looking up a patch gives the range
    of its row indices into the columns.
    """

    def __init__(self, patch_ids, boxes, scores, keys: Iterable[str] = ()) -> None:
        """Rows in any order, grouped here; keys adds patches without rows."""
        patch_ids = list(patch_ids)
        self.patches = tuple(sorted(set(patch_ids).union(keys)))
        index = {k: i for i, k in enumerate(self.patches)}
        codes = np.fromiter((index[p] for p in patch_ids), dtype=np.intp, count=len(patch_ids))
        order = np.argsort(codes, kind="stable")
        self.codes = codes[order]
        self.boxes = np.asarray(boxes, dtype=np.float64).reshape(-1, 4)[order]
        self.scores = np.asarray(scores, dtype=np.float64).reshape(-1)[order]
        self.patch_ids = np.array(self.patches, dtype=object)[self.codes]
        self._index = index
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
        if min(self.center_jitter_px, self.radius_jitter_frac, self.false_positive_rate) < 0:
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
    """Oracle detector driven by a truth catalog and a noise model.

    For every truth crater whose projected box intersects the patch window,
    a detection is emitted with probability 1 - miss_rate at the pixel-frame
    projection of the truth box, center jittered, radius scaled, clipped to
    the patch. Poisson-many spurious boxes are added uniformly over the
    patch. True detections score in [0.7, 1.0), spurious in [0.3, 0.9); the
    exact ranges are arbitrary but fixed, since only the ordering matters
    downstream. It never reads channels.
    """

    def __init__(self, truth: catalog_mod.Catalog, gt: GeoTransform, noise: NoiseConfig):
        self.gt = gt
        self.noise = noise
        self.truth_boxes = catalog_mod.to_boxes(truth, gt)

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
        # miss test, three standard normals, the score. NumPy's normal(0, s)
        # is 0 + s * z and its uniform(lo, hi) is lo + (hi - lo) * u, so the
        # columns below equal the scalar draws bit for bit.
        random, normal = rng.random, rng.standard_normal
        draws = np.array([(random(), normal(), normal(), normal(), random()) for _ in range(bx1.size)])
        u_miss, zx, zy, zr, u_score = draws.reshape(-1, 5).T
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


def load_detections(path: str | Path, score_floor: float | None = None, ps_r: int | None = None) -> PatchDetections:
    """Read a detection record file, grouped by patch id.

    Records are invariant-checked; the first bad record fails the load with
    its line number, whether it breaks an invariant or does not parse.
    score_floor optionally drops records scoring below it, for model outputs
    that were not thresholded upstream. When ps_r is given, coordinates
    beyond it are rejected too.
    """
    path = Path(path)
    if not path.exists():
        raise DetectionError(f"detections file not found: {path}")
    with open(path) as fh:
        linenos, ids, rows, bad = gather(read_columns(text_lines(fh), range(1, 6), 0, width=6, records=True))
    ids = [s.strip() for s in ids.tolist()]
    boxes, score = rows[:, :4], rows[:, 4]
    too_big = (boxes[:, 2] > ps_r) | (boxes[:, 3] > ps_r) if ps_r is not None else np.zeros(len(ids), dtype=bool)
    raise_first(path, linenos, bad, [
        (invalid(boxes, score), lambda r: row_error(ids[r], boxes[r], score[r])),
        (too_big, lambda r: f"box exceeds patch side {ps_r}"),
    ])
    keep = np.flatnonzero(~(score < score_floor)) if score_floor is not None else np.arange(len(ids))
    return PatchDetections([ids[i] for i in keep.tolist()], boxes[keep], score[keep])


def save_detections(per_patch: PatchDetections, path: str | Path) -> None:
    """Write detections in the record wire format, patches in sorted order."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    write_csv(path, [], [per_patch.patch_ids, *per_patch.boxes.T, per_patch.scores], eol="\n")
