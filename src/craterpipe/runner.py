"""Orchestration of the pipeline stages behind the CLI commands.

A run goes: load and validate the rasters, place the patch windows per size
band, detect per patch on a thread pool, boundary-filter, globalize,
deduplicate, union the bands, gate by size, count against the truth catalog,
and write reports plus a manifest. Merging is always over sorted patch ids,
so results are identical for any worker count. Post-processing gets the
configured (m, delta), delta None when NMS is disabled, as a grid cell does.
A catalog comes with its boxes (_load_truth): a row whose box overflows is
dropped and counted there, so neither the oracle nor the counting sees it.

Every command loads the raster stack through load_stack, which makes every
check on it, co-registration included. Values are built only where
something reads them: tile with image export reads the resampled elevation
and the derived slope and cuts fused byte patches. run, detect, gridsearch,
crossmatch and tile without images read no pixels, since the synthetic
oracle and the external records need only each patch's placement, so they
pass PatchPlacements to the detector.
"""

from __future__ import annotations

import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np

from . import catalog as catalog_mod
from .config import CatalogConfig, PipelineConfig, file_digests, write_manifest
from .detector import (
    DetectorInterface,
    PatchDetections,
    SyntheticDetector,
    invalid,
    load_detections,
    row_error,
    save_detections,
)
from .errors import ConfigError, DetectionError, RasterError
from .evaluate import (
    EvalConfig,
    GridSearchResult,
    MetricsReport,
    cross_verify,
    grid_search,
    localization_stats,
    match_and_count,
    size_gate,
    write_gridsearch,
    write_metrics,
)
from .geo import GeoTransform
from .postprocess import (
    DetectionSet,
    load_global_detections,
    run_pipeline,
    write_catalog_export,
    write_global_detections,
)
from .raster import (
    PatchPlacement,
    PatchSpec,
    RasterGrid,
    check_co_registered,
    check_nan_marked,
    compute_slope,
    load_raster,
    patch_placements,
    replicate_single_band,
    resample,
    tile,
    write_patch_image,
)
from .textcols import csv_text, write_csv

__all__ = [
    "load_stack",
    "detect_patches",
    "run_full",
    "run_tile",
    "run_detect_dump",
    "run_gridsearch",
    "run_crossmatch",
]


def _input_paths(cfg: PipelineConfig) -> list[Path]:
    paths = []
    for p in (cfg.intensity_path, cfg.elevation_path, cfg.slope_path, cfg.single_band_path):
        rp = cfg.resolve(p)
        if rp is not None:
            paths.append(rp)
            hdr = rp.with_suffix(".hdr")
            if hdr.exists():
                paths.append(hdr)
    for cat in (cfg.truth_catalog, cfg.verify_catalog):
        if cat is not None:
            paths.append(cfg.resolve(cat.path))
    if cfg.detector.kind == "external" and cfg.detector.path:
        paths.append(cfg.resolve(cfg.detector.path))
    return [p for p in paths if p.exists()]


def load_stack(cfg: PipelineConfig) -> list[RasterGrid]:
    """Load the raster inputs: [single_band], or [intensity, elevation, slope].

    The stack's geotransform is stack[0].geotransform. Elevation is
    resampled onto the intensity resolution when they differ; slope is
    derived from elevation when not supplied. In single-band mode only that
    raster is loaded. Every check on the stack runs here, co-registration
    last; a resampled elevation or a derived slope builds values on first read.
    """
    if cfg.single_band_path is not None:
        return [load_raster(cfg.resolve(cfg.single_band_path))]

    intensity = load_raster(cfg.resolve(cfg.intensity_path))
    elevation = load_raster(cfg.resolve(cfg.elevation_path))
    res = intensity.geotransform.resolution
    if elevation.geotransform.resolution != res:
        elevation = resample(elevation, res)
    slope = load_raster(cfg.resolve(cfg.slope_path)) if cfg.slope_path is not None else compute_slope(elevation)
    for name, grid in (("elevation", elevation), ("slope", slope)):
        if grid.width != intensity.width or grid.height != intensity.height:
            raise RasterError(
                f"{name} grid {grid.width}x{grid.height} does not match "
                f"intensity {intensity.width}x{intensity.height}"
            )
    check_co_registered([intensity, elevation, slope])
    return [intensity, elevation, slope]


def _band_spec(band) -> PatchSpec:
    return PatchSpec(ps_a=band.ps_a, ps_r=band.ps_r, overlap_fraction=band.overlap)


def detect_patches(patches: list[PatchPlacement], detector: DetectorInterface, workers: int) -> PatchDetections:
    """Run the detector over patches on a thread pool.

    Each patch's (boxes, scores) arrays are merged by patch id into one set
    of columns, so completion order is irrelevant to the output. The first
    row, in sorted patch id order, that breaks the detection invariants
    fails the run with its patch named.
    """
    if workers <= 1:
        results = [detector.detect(p) for p in patches]
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(detector.detect, patches))
    ids = [p.patch_id for p in patches]
    boxes = [np.asarray(b, dtype=np.float64).reshape(-1, 4) for b, _ in results]
    scores = [np.asarray(s, dtype=np.float64).reshape(-1) for _, s in results]
    for patch_id, b, s in zip(ids, boxes, scores):
        if len(b) != len(s):
            raise DetectionError(f"patch {patch_id}: {len(b)} boxes but {len(s)} scores")
    rows = np.repeat(np.array(ids, dtype=object), list(map(len, scores)))
    boxes, scores = np.concatenate([np.empty((0, 4)), *boxes]), np.concatenate([np.empty(0), *scores])
    cols = PatchDetections(rows, boxes, scores, keys=ids)
    bad = np.flatnonzero(invalid(cols.boxes, cols.scores))
    if bad.size:
        r, patch_id = bad[0], cols.patch_ids[bad[0]]
        raise DetectionError(f"patch {patch_id}: {row_error(patch_id, cols.boxes[r], cols.scores[r])}")
    return cols


def _load_truth(
    cfg: PipelineConfig, cat_cfg: CatalogConfig, gt: GeoTransform
) -> tuple[catalog_mod.Catalog, np.ndarray]:
    """The catalog cat_cfg names, filtered as it says, and its boxes on gt.

    A row whose box or box area overflows to a value that is not finite (a
    finite but huge longitude or diameter) could match no detection, so it
    is dropped and counted in n_rejected, as the loader's own rejects are.
    """
    cat = catalog_mod.load_catalog(cfg.resolve(cat_cfg.path), schema=cat_cfg.schema)
    if cat_cfg.region is not None:
        cat = catalog_mod.filter_by_region(cat, *cat_cfg.region)
    if cat_cfg.dmin_km is not None or cat_cfg.dmax_km is not None:
        cat = catalog_mod.filter_by_size(cat, cat_cfg.dmin_km or 0.0, cat_cfg.dmax_km)
    with np.errstate(over="ignore", invalid="ignore"):
        boxes = catalog_mod.to_boxes(cat, gt)
        area = (boxes[:, 2] - boxes[:, 0]) * (boxes[:, 3] - boxes[:, 1])
    ok = np.isfinite(boxes).all(axis=1) & np.isfinite(area)
    if ok.all():
        return cat, boxes
    n_rejected = cat.n_rejected + int((~ok).sum())
    kept = catalog_mod.Catalog(cat.name, cat.ids[ok], cat.lon[ok], cat.lat[ok], cat.diam_km[ok], n_rejected)
    return kept, boxes[ok]


def _band_detections(
    cfg: PipelineConfig, band, stack, truth: catalog_mod.Catalog, gt: GeoTransform
) -> tuple[dict[str, tuple[int, int, float]], PatchDetections]:
    """Place one band's patches and produce its raw detections.

    Returns the patch index (patch id -> row0, col0, delta_f), one entry per
    patch, and the detections keyed by patch id. An external file maps onto
    the one band's grid and may name no patch outside it; the synthetic
    oracle sees the truth craters inside the band's size range.
    """
    patches = patch_placements(stack[0].width, stack[0].height, _band_spec(band))
    patch_index = {p.patch_id: (p.row0, p.col0, p.delta_f) for p in patches}
    if cfg.detector.kind == "external":
        per_patch = load_detections(
            cfg.resolve(cfg.detector.path), score_floor=cfg.detector.score_floor, ps_r=band.ps_r
        )
        unknown = set(per_patch) - set(patch_index)
        if unknown:
            raise ConfigError(f"external detections reference unknown patch ids: {sorted(unknown)[:5]}")
    else:
        band_truth = catalog_mod.filter_by_size(truth, band.dmin_km, band.dmax_km)
        detector = SyntheticDetector(band_truth, gt, cfg.detector.noise)
        per_patch = detect_patches(patches, detector, cfg.workers)
    return patch_index, per_patch


def _per_band_detections(cfg: PipelineConfig, stack, truth, gt) -> tuple[DetectionSet, dict]:
    """Detect and post-process every band; return the union plus per-band
    context for reporting."""
    all_survivors: list[DetectionSet] = []
    info: dict[str, dict] = {}
    for band in cfg.bands:
        patch_index, per_patch = _band_detections(cfg, band, stack, truth, gt)
        delta = cfg.nms_delta if cfg.nms_enabled else None
        survivors = run_pipeline(per_patch, patch_index, gt, band.ps_r, cfg.boundary_m, delta)
        all_survivors.append(survivors)
        info[band.name] = {
            "n_patches": len(patch_index),
            "n_raw": len(per_patch.scores),
            "n_survivors": len(survivors),
        }
    return DetectionSet.concat(all_survivors), info


def run_full(cfg: PipelineConfig) -> tuple[MetricsReport, list[Path]]:
    """The complete run: detection through metrics, with files written.

    Returns the metrics and the files written to cfg.out_path, all but the
    manifest.

    The input digests for the manifest are taken on one background thread
    from the start: hashing the rasters is the longest read of a run, and
    sha256 releases the interpreter lock, so it overlaps the pipeline. An
    error of the pipeline takes precedence over one of the hashing.
    """
    if cfg.truth_catalog is None:
        raise ConfigError("run needs a truth_catalog")
    if cfg.detector.kind == "external" and len(cfg.bands) != 1:
        raise ConfigError("an external detections file maps onto exactly one band's patch grid")
    out_dir = cfg.out_path
    out_dir.mkdir(parents=True, exist_ok=True)
    timings: dict[str, float] = {}
    t_total = time.perf_counter()
    with ThreadPoolExecutor(max_workers=1) as hasher:
        digests = hasher.submit(file_digests, _input_paths(cfg))
        metrics, written = _run_stages(cfg, out_dir, timings)
        t0 = time.perf_counter()
        inputs = digests.result()
        timings["inputs_digest_wait"] = time.perf_counter() - t0
    timings["total"] = time.perf_counter() - t_total
    write_manifest(out_dir, cfg, timings, inputs, written)
    return metrics, written


def _run_stages(cfg: PipelineConfig, out_dir: Path, timings: dict[str, float]) -> tuple[MetricsReport, list[Path]]:
    """Load, detect, post-process, evaluate and write every output of run
    but the manifest, recording stage times in timings."""
    t0 = time.perf_counter()
    stack = load_stack(cfg)
    gt = stack[0].geotransform
    truth, truth_boxes = _load_truth(cfg, cfg.truth_catalog, gt)
    timings["load"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    survivors, band_info = _per_band_detections(cfg, stack, truth, gt)
    timings["detect_and_postprocess"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    gated = size_gate(survivors, cfg.eval)
    metrics = match_and_count(gated, truth_boxes, cfg.eval)
    loc = localization_stats(gated, truth_boxes, cfg.eval)
    timings["evaluate"] = time.perf_counter() - t0

    written = []
    det_path = out_dir / "detections_global.csv"
    write_global_detections(survivors, det_path)
    written.append(det_path)

    cat_path = out_dir / "detections_catalog.csv"
    write_catalog_export(survivors, gt, cat_path, provenance={"seed": cfg.seed})
    written.append(cat_path)
    written.append(Path(str(cat_path) + ".provenance.json"))

    metrics_path = out_dir / "metrics.csv"
    write_metrics(
        metrics,
        metrics_path,
        extra={
            "n_gated_out": len(survivors) - len(gated),
            "loc_mean_iou_pct": "" if loc.mean_iou_pct is None else repr(loc.mean_iou_pct),
            "loc_std_iou_pct": "" if loc.std_iou_pct is None else repr(loc.std_iou_pct),
            "loc_n_matched": loc.n_matched,
        },
    )
    written.append(metrics_path)

    summary_path = out_dir / "summary.txt"
    summary_path.write_text(_summary_text(cfg, metrics, loc, band_info, truth.n_rejected))
    written.append(summary_path)
    return metrics, written


def _summary_text(cfg, metrics, loc, band_info, n_rejected) -> str:
    lines = [
        f"detections kept: {metrics.n_detections} (of which TP {metrics.tp}, FP {metrics.fp})",
        f"truth craters:   {metrics.n_truth} (FN {metrics.fn}, raw {metrics.fn_raw})",
        f"truth catalog rows rejected: {n_rejected}",
        f"precision = {metrics.precision:.6f}{'' if metrics.precision_defined else ' (undefined: no detections)'}",
        f"recall    = {metrics.recall:.6f}{'' if metrics.recall_defined else ' (undefined: no truth)'}",
        f"f1        = {metrics.f1:.6f}{'' if metrics.f1_defined else ' (undefined)'}",
        f"iou threshold u = {metrics.u}",
    ]
    if loc.n_matched:
        lines.append(
            f"localization: mean {loc.mean_iou_pct:.2f}% std {loc.std_iou_pct:.2f}% over {loc.n_matched} matches"
        )
    else:
        lines.append("localization: no matched detections")
    for name, info in band_info.items():
        lines.append(
            f"band {name}: {info['n_patches']} patches, {info['n_raw']} raw detections, "
            f"{info['n_survivors']} after post-processing"
        )
    lines.append(f"boundary m = {cfg.boundary_m}, nms delta = {cfg.nms_delta}, nms enabled = {cfg.nms_enabled}")
    return "\n".join(lines) + "\n"


def run_tile(cfg: PipelineConfig, export_images: bool = True) -> tuple[Path, int]:
    """Write the patch index (and optionally patch images) for every band.

    Only image export reads pixels. After the checks of load_stack it names
    each raster read from a file holding NaN cells that its nodata sentinel
    does not mark (a resampled elevation on its resampled cells)."""
    out_dir = cfg.out_path
    out_dir.mkdir(parents=True, exist_ok=True)
    stack = load_stack(cfg)
    if export_images:
        paths = [cfg.single_band_path] if len(stack) == 1 else [cfg.intensity_path, cfg.elevation_path, cfg.slope_path]
        for grid, path in zip(stack, paths):
            if path is not None:
                check_nan_marked(grid, cfg.resolve(path))
    n_total = 0
    index_path = out_dir / "patch_index.csv"
    with open(index_path, "w", newline="") as fh:
        fh.write("patch_id,row0,col0,delta_f\n")
        for band in cfg.bands:
            spec = _band_spec(band)
            if not export_images:
                patches = patch_placements(stack[0].width, stack[0].height, spec)
            elif len(stack) == 1:
                patches = replicate_single_band(stack[0], spec, scale_mode=cfg.scale_mode)
            else:
                patches = tile(*stack, spec, scale_mode=cfg.scale_mode)
            n_total += len(patches)
            for p in patches:
                fh.write(f"{p.patch_id},{p.row0},{p.col0},{p.delta_f!r}\n")
                if export_images:
                    write_patch_image(p, out_dir / "patches" / band.name / f"{p.patch_id}.ppm")
    return index_path, n_total


def run_detect_dump(cfg: PipelineConfig) -> list[Path]:
    """Synthetic-only dump of per-patch detections in the wire format.

    Patch ids are only unique within one band's tiling, so multi-band
    configs get one file per band.
    """
    if cfg.detector.kind != "synthetic":
        raise ConfigError("the detect command only supports the synthetic detector")
    if cfg.truth_catalog is None:
        raise ConfigError("detect needs a truth_catalog")
    out_dir = cfg.out_path
    out_dir.mkdir(parents=True, exist_ok=True)
    stack = load_stack(cfg)
    gt = stack[0].geotransform
    truth, _ = _load_truth(cfg, cfg.truth_catalog, gt)
    paths = []
    for band in cfg.bands:
        _, per_patch = _band_detections(cfg, band, stack, truth, gt)
        name = "detections_patch.csv" if len(cfg.bands) == 1 else f"detections_patch_{band.name}.csv"
        path = out_dir / name
        save_detections(per_patch, path)
        paths.append(path)
    return paths


def run_gridsearch(cfg: PipelineConfig) -> tuple[GridSearchResult, Path]:
    """Sweep (m, delta) on the configured inputs and write the cell table."""
    if cfg.truth_catalog is None:
        raise ConfigError("gridsearch needs a truth_catalog")
    if len(cfg.bands) != 1:
        raise ConfigError("gridsearch expects exactly one size band")
    out_dir = cfg.out_path
    out_dir.mkdir(parents=True, exist_ok=True)
    stack = load_stack(cfg)
    gt = stack[0].geotransform
    truth, truth_boxes = _load_truth(cfg, cfg.truth_catalog, gt)
    band = cfg.bands[0]
    patch_index, per_patch = _band_detections(cfg, band, stack, truth, gt)

    result = grid_search(
        per_patch,
        patch_index,
        gt,
        truth_boxes,
        band.ps_r,
        cfg.grid.m_set,
        cfg.grid.delta_set,
        cfg.eval,
        include_no_nms=cfg.grid.include_no_nms,
    )
    path = out_dir / "gridsearch.csv"
    write_gridsearch(result, path)
    return result, path


def run_crossmatch(cfg: PipelineConfig, detections_path: str | Path | None = None) -> tuple:
    """Classify a detections file against the truth and verify catalogs."""
    if cfg.truth_catalog is None or cfg.verify_catalog is None:
        raise ConfigError("crossmatch needs both truth_catalog and verify_catalog")
    out_dir = cfg.out_path
    out_dir.mkdir(parents=True, exist_ok=True)

    if cfg.geotransform is not None:
        gt = cfg.geotransform
    else:
        try:
            gt = load_stack(cfg)[0].geotransform
        except (RasterError, ConfigError) as exc:
            raise ConfigError(
                "crossmatch needs either a geotransform block in the config or loadable rasters"
            ) from exc

    det_path = Path(detections_path) if detections_path else cfg.out_path / "detections_global.csv"
    dets = load_global_detections(det_path)
    gated = size_gate(dets, cfg.eval)

    cat_a, boxes_a = _load_truth(cfg, cfg.truth_catalog, gt)
    cat_b, boxes_b = _load_truth(cfg, cfg.verify_catalog, gt)
    report = cross_verify(gated, boxes_a, boxes_b, cfg.eval)

    path = out_dir / "crossmatch.csv"
    classes = {"known": report.known, "confirmed_new": report.confirmed_new, "unverified": report.unverified}
    order = [i for indices in classes.values() for i in indices]
    labels = [cls for cls, indices in classes.items() for _ in indices]
    columns = [labels, list(map(str, order)), csv_text(gated.patch_ids[order].tolist()), gated.scores[order]]
    write_csv(path, ["class", "detection_index", "patch_id", "score"], columns, eol="\n")
    summary = out_dir / "crossmatch_summary.txt"
    k, c, uv = report.counts
    summary.write_text(
        f"known (in primary catalog):        {k}\n"
        f"confirmed new (only in verifier):  {c}\n"
        f"unverified (in neither):           {uv}\n"
        f"total detections classified:       {k + c + uv}\n"
        f"iou threshold u = {report.u}\n"
        f"truth catalog rows rejected:       {cat_a.n_rejected}\n"
        f"verify catalog rows rejected:      {cat_b.n_rejected}\n"
    )
    return report, path
