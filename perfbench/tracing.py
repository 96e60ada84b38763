"""Outside-in tracing of one operation, from the benchmark's own files.

Each traced layer function is replaced, for the life of one operation
process, by a wrapper around the name its caller looks up: the names that
``craterpipe.runner``, ``craterpipe.evaluate`` and ``craterpipe.postprocess``
call through, plus ``craterpipe.catalog``'s module attributes, which runner
and detector reach as ``catalog_mod.<name>``. A wrapper records a span (name,
start, end, parent span, operation id) and then, outside the span, updates
the layer's counters. The time the counters take is charged to the enclosing
span as bookkeeping, so that per operation

    sum(span self times) + runner self time + bookkeeping == wall time.

Only the main thread is traced. Detector worker threads run inside the
``detector.detect`` span and are not split further.
"""

from __future__ import annotations

import threading
import time
from collections import Counter
from pathlib import Path

# Self time of each span name is reported under this metric.
SELF_METRIC = {
    "raster.load": "raster.load_s",
    "raster.resample": "raster.resample_s",
    "raster.slope": "raster.slope_s",
    "raster.tile": "raster.tile_s",
    "catalog.load": "catalog.load_s",
    "catalog.to_boxes": "catalog.to_boxes_s",
    "detector.detect": "detector.detect_s",
    "detector.parse": "detector.parse_s",
    "postprocess.pipeline": "postprocess.boundary_globalize_s",
    "postprocess.nms": "postprocess.nms_s",
    "evaluate.match": "evaluate.match_s",
    "evaluate.localization": "evaluate.localization_s",
    "evaluate.crossverify": "evaluate.crossverify_s",
    "evaluate.gridsearch": "evaluate.gridsearch_self_s",
    "io.write": "io.write_s",
    "io.read": "io.read_s",
    "io.manifest": "io.manifest_s",
}
# Inclusive time of each span name is reported under this metric.
TOTAL_METRIC = {"postprocess.pipeline": "postprocess.pipeline_s"}

COUNT_METRICS = (
    "raster.mpix_in",
    "raster.patches",
    "raster.patch_mb_built",
    "catalog.rows",
    "detector.raw_dets",
    "detector.candidate_tests",
    "detector.records",
    "detector.floor_dropped",
    "postprocess.calls",
    "postprocess.in",
    "postprocess.after_boundary",
    "postprocess.after_nms",
    "evaluate.match_calls",
    "evaluate.iou_cells",
    "io.bytes_written",
    "io.bytes_hashed",
)


def _size(path) -> int:
    p = Path(path)
    return p.stat().st_size if p.exists() else 0


def _count_load_raster(c, args, kwargs, grid):
    c["raster.mpix_in"] += grid.width * grid.height / 1e6


def _count_tile(c, args, kwargs, patches):
    c["raster.patches"] += len(patches)
    c["raster.patch_mb_built"] += sum(p.channels.nbytes for p in patches) / 1e6


def _count_catalog(c, args, kwargs, cat):
    c["catalog.rows"] += len(cat)


def _count_detect(c, args, kwargs, per_patch):
    """Raw detections, plus how many truth boxes the oracle tests per patch
    and how many of those intersect the patch window."""
    import numpy as np

    patches, detector = args[0], args[1]
    c["detector.raw_dets"] += sum(len(v) for v in per_patch.values())
    boxes = getattr(detector, "truth_boxes", None)
    if boxes is None or not patches:
        return
    boxes = np.asarray(boxes, dtype=np.float64).reshape(-1, 4)
    gt, s = detector.gt, detector.gt.resolution
    col0 = np.array([p.col0 for p in patches], dtype=np.float64)[:, None]
    row0 = np.array([p.row0 for p in patches], dtype=np.float64)[:, None]
    ps_a = np.array([p.spec.ps_a for p in patches], dtype=np.float64)[:, None]
    x_lo, x_hi = gt.x_min + col0 * s, gt.x_min + (col0 + ps_a) * s
    y_hi, y_lo = gt.y_max - row0 * s, gt.y_max - (row0 + ps_a) * s
    hit = ~(
        (boxes[:, 0] >= x_hi) | (boxes[:, 2] <= x_lo) | (boxes[:, 1] >= y_hi) | (boxes[:, 3] <= y_lo)
    )
    c["detector.candidate_tests"] += hit.size
    c["detector.candidate_hits"] += int(hit.sum())


def _count_parse(c, args, kwargs, per_patch):
    kept = sum(len(v) for v in per_patch.values())
    with open(args[0]) as fh:
        records = sum(1 for line in fh if line.strip() and not line.lstrip().startswith("#"))
    c["detector.records"] += records
    c["detector.floor_dropped"] += records - kept


def _count_pipeline(c, args, kwargs, survivors):
    c["postprocess.calls"] += 1
    c["postprocess.in"] += sum(len(v) for v in args[0].values())


def _count_nms(c, args, kwargs, survivors):
    c["postprocess.after_boundary"] += len(args[0])
    c["postprocess.after_nms"] += len(survivors)


def _count_match(c, args, kwargs, report):
    c["evaluate.match_calls"] += 1
    c["evaluate.iou_cells"] += len(args[0]) * len(args[1])


def _count_localization(c, args, kwargs, report):
    c["evaluate.iou_cells"] += len(args[0]) * len(args[1])


def _count_crossverify(c, args, kwargs, report):
    c["evaluate.iou_cells"] += len(args[0]) * (len(args[1]) + len(args[2]))


def _written(path_arg):
    def count(c, args, kwargs, result):
        c["io.bytes_written"] += _size(args[path_arg])

    return count


def _count_manifest(c, args, kwargs, path):
    c["io.bytes_hashed"] += sum(_size(p) for p in list(args[3]) + list(args[4]))


def targets():
    """(module, attribute, span name, counter) for every traced call site."""
    from craterpipe import catalog, evaluate, postprocess, runner

    return [
        (runner, "load_raster", "raster.load", _count_load_raster),
        (runner, "resample", "raster.resample", None),
        (runner, "compute_slope", "raster.slope", None),
        (runner, "tile", "raster.tile", _count_tile),
        (runner, "replicate_single_band", "raster.tile", _count_tile),
        (catalog, "load_catalog", "catalog.load", _count_catalog),
        (catalog, "to_boxes", "catalog.to_boxes", None),
        (runner, "detect_patches", "detector.detect", _count_detect),
        (runner, "load_detections", "detector.parse", _count_parse),
        (runner, "run_pipeline", "postprocess.pipeline", _count_pipeline),
        (evaluate, "run_pipeline", "postprocess.pipeline", _count_pipeline),
        (postprocess, "nms", "postprocess.nms", _count_nms),
        (runner, "match_and_count", "evaluate.match", _count_match),
        (evaluate, "match_and_count", "evaluate.match", _count_match),
        (runner, "localization_stats", "evaluate.localization", _count_localization),
        (runner, "cross_verify", "evaluate.crossverify", _count_crossverify),
        (runner, "grid_search", "evaluate.gridsearch", None),
        (runner, "write_global_detections", "io.write", _written(1)),
        (runner, "write_catalog_export", "io.write", _written(2)),
        (runner, "write_metrics", "io.write", _written(1)),
        (runner, "write_gridsearch", "io.write", _written(1)),
        (runner, "load_global_detections", "io.read", None),
        (runner, "write_manifest", "io.manifest", _count_manifest),
    ]


class Tracer:
    """Spans and counters of one operation, run in this process."""

    def __init__(self, op: int) -> None:
        self.op = op
        self.spans: list[dict] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._main = threading.get_ident()
        self._top_bookkeeping = 0.0

    def install(self) -> None:
        """Wrap every traced call site. The operation's process exits after
        the operation, so the wrappers are never removed."""
        for module, attr, name, count in targets():
            setattr(module, attr, self._wrap(getattr(module, attr), name, count))

    def _wrap(self, fn, name, count):
        def traced(*args, **kwargs):
            if threading.get_ident() != self._main:
                return fn(*args, **kwargs)
            parent = self._stack[-1] if self._stack else None
            span = {"name": name, "start": 0.0, "end": 0.0, "parent": parent, "op": self.op,
                    "bookkeeping": 0.0}
            self._stack.append(len(self.spans))
            self.spans.append(span)
            span["start"] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                self._stack.pop()
            if count is not None:
                t0 = time.perf_counter()
                count(self.counts, args, kwargs, result)
                spent = time.perf_counter() - t0
                if parent is None:
                    self._top_bookkeeping += spent
                else:
                    self.spans[parent]["bookkeeping"] += spent
            return result

        return traced

    def metrics(self, wall_s: float) -> dict[str, float]:
        """Per-layer metrics of the operation, whose wall time was wall_s."""
        child_s = Counter()
        for s in self.spans:
            if s["parent"] is not None:
                child_s[s["parent"]] += s["end"] - s["start"]
        out = {m: 0.0 for m in list(SELF_METRIC.values()) + list(TOTAL_METRIC.values())}
        top_s = 0.0
        bookkeeping = self._top_bookkeeping
        for i, s in enumerate(self.spans):
            dur = s["end"] - s["start"]
            out[SELF_METRIC[s["name"]]] += dur - child_s[i] - s["bookkeeping"]
            if s["name"] in TOTAL_METRIC:
                out[TOTAL_METRIC[s["name"]]] += dur
            bookkeeping += s["bookkeeping"]
            if s["parent"] is None:
                top_s += dur
        out["runner.self_s"] = wall_s - top_s - self._top_bookkeeping
        out["trace.bookkeeping_s"] = bookkeeping
        for name in COUNT_METRICS:
            out[name] = float(self.counts[name])
        tests = self.counts["detector.candidate_tests"]
        out["detector.hit_frac"] = self.counts["detector.candidate_hits"] / tests if tests else 0.0
        after_boundary = self.counts["postprocess.after_boundary"]
        out["postprocess.nms_keep_frac"] = (
            self.counts["postprocess.after_nms"] / after_boundary if after_boundary else 0.0
        )
        return out
