"""Detection interface plus the two shipped implementations.

The neural detector is a seam: anything that maps a fused patch to scored
boxes can drive the pipeline. Two implementations live here. The synthetic
oracle detector projects a truth catalog into each patch and emits
configurable noisy detections; it exists so the post-processing and
evaluation stages can be exercised and accepted without a trained model.
It reads only a patch's placement (id, offset, spec, resize factor), so it
takes a PatchPlacement or a FusedPatch alike. The external path ingests
detection records produced by a real model.

A detector returns a sequence of Detection per patch: a list, or, from the
oracle, the column-backed rows a PatchDetections lookup gives, so the oracle
builds no Detection. Past that seam raw detections are columns:
PatchDetections maps patch ids to rows held as arrays, in sorted patch id
order, for postprocess.run_pipeline. It is what runner.detect_patches
returns, and what load_detections builds from the record lines, split once,
each numeric field converted as one column.

Detection record wire format, one record per line, comma separated, no
header (blank lines and lines starting with ``#`` are ignored):

    patch_id,x1,y1,x2,y2,score

Coordinates are resized-patch pixels as decimal text, score in [0, 1].
"""

from __future__ import annotations

import math
import zlib
from abc import ABC, abstractmethod
from collections.abc import Iterable, Iterator, Mapping, Sequence
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import catalog as catalog_mod
from .errors import DetectionError
from .geo import GeoTransform, meter_to_pixel_xy, pixel_to_meter_xy
from .raster import FusedPatch, PatchPlacement
from .textcols import parse_records, raise_first, write_csv

__all__ = [
    "Detection",
    "PatchDetections",
    "NoiseConfig",
    "DetectorInterface",
    "SyntheticDetector",
    "load_detections",
    "save_detections",
]


@dataclass(frozen=True)
class Detection:
    """A scored box in the pixel frame of one resized patch."""

    patch_id: str
    box: tuple[float, float, float, float]
    score: float

    def __post_init__(self) -> None:
        # normalize numpy scalars so equality and repr behave like floats
        object.__setattr__(self, "box", tuple(float(v) for v in self.box))
        object.__setattr__(self, "score", float(self.score))
        x1, y1, x2, y2 = self.box
        if not (x1 < x2 and y1 < y2):
            raise DetectionError(f"degenerate box {self.box} in patch {self.patch_id}")
        if x1 < 0 or y1 < 0:
            raise DetectionError(f"negative coordinates in box {self.box}")
        if not 0.0 <= self.score <= 1.0:
            raise DetectionError(f"score {self.score} outside [0, 1]")
        if not all(map(math.isfinite, self.box)):
            raise DetectionError(f"non-finite coordinates in box {self.box}")

    @staticmethod
    def invalid(boxes: np.ndarray, scores: np.ndarray) -> np.ndarray:
        """The mask of rows, (N, 4) boxes and (N,) scores, that __post_init__ rejects."""
        x1, y1, x2, y2 = boxes.T
        bad = ~((x1 < x2) & (y1 < y2)) | (x1 < 0) | (y1 < 0) | ~((scores >= 0.0) & (scores <= 1.0))
        return bad | ~np.isfinite(boxes).all(axis=1)


class PatchDetections(Mapping):
    """Raw per-patch detections held as columns: patch id -> that patch's rows.

    boxes is an (N, 4) float64 array of pixel boxes, scores an (N,) float64
    array and patch_ids an (N,) object array of str. patches holds the
    mapping's keys in sorted order, patches without rows included. Rows are
    grouped in that order, keeping each patch's own row order, and codes
    gives each row's index into patches. Looking up a patch gives a sequence
    of its rows whose len() reads no rows; a Detection is built only for a
    row that a caller reads.
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

    @classmethod
    def of(cls, per_patch: Mapping[str, Sequence[Detection]]) -> PatchDetections:
        """The columns of a patch id -> detections mapping; a PatchDetections
        is returned as it is. Every detection must carry its key as patch id."""
        if isinstance(per_patch, cls):
            return per_patch
        parts = [_PatchRows.of(key, dets) for key, dets in per_patch.items()]
        ids = np.repeat(np.array(list(per_patch), dtype=object), [len(p) for p in parts])
        boxes = np.concatenate([np.empty((0, 4))] + [p.boxes for p in parts])
        return cls(ids, boxes, np.concatenate([np.empty(0)] + [p.scores for p in parts]), keys=per_patch.keys())

    def __getitem__(self, key: str) -> _PatchRows:
        k = self._index[key]
        lo, hi = self._bounds[k], self._bounds[k + 1]
        return _PatchRows(key, self.boxes[lo:hi], self.scores[lo:hi])

    def __iter__(self) -> Iterator[str]:
        return iter(self.patches)

    def __len__(self) -> int:
        return len(self.patches)


class _PatchRows(Sequence):
    """One patch's rows as columns, and as Detections on demand: what a
    PatchDetections lookup and SyntheticDetector.detect return."""

    def __init__(self, patch_id: str, boxes: np.ndarray, scores: np.ndarray) -> None:
        self.patch_id, self.boxes, self.scores = patch_id, boxes, scores

    @classmethod
    def of(cls, patch_id: str, dets: Sequence[Detection]) -> _PatchRows:
        """dets as the rows of patch_id, each carrying it; rows of that patch
        are returned as they are."""
        if isinstance(dets, cls) and dets.patch_id == patch_id:
            return dets
        for d in dets:
            if d.patch_id != patch_id:
                raise DetectionError(f"detection of patch {d.patch_id!r} listed under patch {patch_id!r}")
        boxes = np.array([d.box for d in dets], dtype=np.float64).reshape(-1, 4)
        return cls(patch_id, boxes, np.array([d.score for d in dets], dtype=np.float64))

    def __len__(self) -> int:
        return self.scores.shape[0]

    def __getitem__(self, i: int) -> Detection:
        return Detection(self.patch_id, tuple(self.boxes[i].tolist()), self.scores[i])

    def __iter__(self) -> Iterator[Detection]:
        for box, score in zip(self.boxes.tolist(), self.scores.tolist()):
            yield Detection(self.patch_id, tuple(box), score)

    def __eq__(self, other) -> bool:
        if isinstance(other, (_PatchRows, list, tuple)):
            return list(self) == list(other)
        return NotImplemented

    __hash__ = None


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
    concurrently on distinct patches. channel_layout declares what the
    implementation accepts: "any", or "distinct" for detectors that need
    three genuinely different channels. A detector that reads pixels takes
    FusedPatches and calls check_channels; one that reads only placements
    may also take PatchPlacements.
    """

    channel_layout: str = "any"

    def check_channels(self, patch: FusedPatch) -> None:
        if self.channel_layout == "distinct":
            c = patch.channels
            if np.array_equal(c[0], c[1]) and np.array_equal(c[1], c[2]):
                raise DetectionError(
                    f"detector requires 3 distinct channels but patch {patch.patch_id} "
                    "carries one replicated band"
                )

    @abstractmethod
    def detect(self, patch: FusedPatch | PatchPlacement) -> Sequence[Detection]:
        """Return detections satisfying the Detection invariants, as a list
        or any sequence; boxes may be clipped to the patch boundary."""


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

    channel_layout = "any"

    def __init__(self, truth: catalog_mod.Catalog, gt: GeoTransform, noise: NoiseConfig):
        self.gt = gt
        self.noise = noise
        self.truth_boxes = catalog_mod.to_boxes(truth, gt)

    def detect(self, patch: FusedPatch | PatchPlacement) -> _PatchRows:
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
        return _PatchRows(patch.patch_id, boxes[kept], score[kept])


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
    lines = enumerate(map(str.strip, path.read_text().splitlines()), start=1)
    numbered = ((n, s.split(",")) for n, s in lines if s and s[0] != "#")
    linenos, ids, rows, parse_error = parse_records(numbered, 6, 0, path)
    ids = list(map(str.strip, ids))
    boxes, score = rows[:, :4], rows[:, 4]
    too_big = (boxes[:, 2] > ps_r) | (boxes[:, 3] > ps_r) if ps_r is not None else np.zeros(len(ids), dtype=bool)
    raise_first(path, linenos, [
        (Detection.invalid(boxes, score), lambda r: Detection(ids[r], tuple(boxes[r].tolist()), score[r])),
        (too_big, lambda r: f"box exceeds patch side {ps_r}"),
    ], parse_error)
    keep = np.flatnonzero(~(score < score_floor)) if score_floor is not None else np.arange(len(ids))
    return PatchDetections([ids[i] for i in keep.tolist()], boxes[keep], score[keep])


def save_detections(per_patch: Mapping[str, Sequence[Detection]], path: str | Path) -> None:
    """Write detections in the record wire format, patches in sorted order."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    cols = PatchDetections.of(per_patch)
    write_csv(path, [], [cols.patch_ids, *cols.boxes.T, cols.scores], eol="\n")
