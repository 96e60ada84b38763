"""Orchestration of the pipeline stages behind the CLI commands.

A run goes: load and validate the rasters, place the patch windows per size
band, detect per patch on a thread pool, boundary-filter, globalize,
deduplicate, union the bands, gate by size, count against the truth catalog,
and write reports plus a manifest. Merging is always over sorted patch ids,
so results are identical for any worker count. Post-processing gets the
configured (m, delta), delta None when NMS is disabled, as a grid cell does.
A band's patch placements are its one patch table: the raw detections
carry each row's code into it, and post-processing reads each row's offsets
from it; an external record naming no patch of the table fails the load at
its line.
A catalog comes with its boxes: _load_truth is load_catalog, then
catalog.select, so neither the oracle nor the counting sees a row that
select drops, an overflowing box's row included.

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
from dataclasses import asdict
from pathlib import Path

import numpy as np

from . import catalog as catalog_mod
from .config import CatalogConfig, PipelineConfig, write_manifest
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
from .geo import GeoTransform, meter_to_lonlat
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


def _stack_files(cfg: PipelineConfig) -> list[tuple[str | None, Path | None]]:
    """(role, file) of each raster of the stack, in stack order: the single
    band, whose role is None since it may declare any band, or intensity,
    elevation and slope, the slope's file None when it is derived."""
    if cfg.single_band_path is not None:
        return [(None, cfg.resolve(cfg.single_band_path))]
    paths = (cfg.intensity_path, cfg.elevation_path, cfg.slope_path)
    return [(role, cfg.resolve(p)) for role, p in zip(("intensity", "elevation", "slope"), paths)]


def _input_paths(cfg: PipelineConfig) -> list[Path]:
    """The files run's outputs depend on: each raster's header, the truth
    catalog, the external records. A payload's bytes decide no output: its
    header fixes its length, which load_raster checks, and the checks that
    read its values only pass or fail the run."""
    paths = [path.with_suffix(".hdr") for _, path in _stack_files(cfg) if path is not None]
    paths.append(cfg.resolve(cfg.truth_catalog.path))
    if cfg.detector.kind == "external":
        paths.append(cfg.resolve(cfg.detector.path))
    return paths


def load_stack(cfg: PipelineConfig) -> list[RasterGrid]:
    """Load the raster inputs: [single_band], or [intensity, elevation, slope].

    The stack's geotransform is stack[0].geotransform. Every raster loaded
    from a file must declare its role's band; a single band may declare any.
    Elevation is resampled onto the intensity resolution when they differ;
    slope is derived from elevation when not supplied. Every check on the
    stack runs here, the extent last (the top and bottom row centres within
    +-90 degrees latitude, else the first raster's header is named); a
    resampled elevation or a derived slope builds values on first read.
    """
    files = _stack_files(cfg)
    stack = []
    for role, path in files:
        grid = None if path is None else load_raster(path)
        if role is not None and grid is not None and grid.band_kind != role:
            raise RasterError(f"{path}: {role} raster declares band = {grid.band_kind}, not {role}")
        stack.append(grid)
    if len(stack) == 3:
        intensity, elevation, slope = stack
        res = intensity.geotransform.resolution
        if elevation.geotransform.resolution != res:
            elevation = resample(elevation, res)
        if slope is None:
            slope = compute_slope(elevation)
        stack = [intensity, elevation, slope]
        check_co_registered(stack)
    gt, height = stack[0].geotransform, stack[0].height  # centres, since a grid may overshoot a pole by < 1 cell
    lats = [meter_to_lonlat(0.0, gt.y_max - gt.resolution * (row + 0.5), gt)[1] for row in (0, height - 1)]
    if height and not all(abs(lat) <= 90.0 for lat in lats):
        raise RasterError(f"{files[0][1].with_suffix('.hdr')}: a row centre lies at latitude {max(lats, key=abs):.2f}, "
                          "past a pole")
    return stack


def _band_spec(band) -> PatchSpec:
    return PatchSpec(ps_a=band.ps_a, ps_r=band.ps_r, overlap_fraction=band.overlap)


def detect_patches(patches: list[PatchPlacement], detector: DetectorInterface, workers: int) -> PatchDetections:
    """Run the detector over patches, in the calling thread for one worker
    and on a thread pool of that many for more.

    Each patch's (boxes, scores) arrays become its rows of one set of columns
    on the patches' table, grouped in sorted patch id order, so completion
    order is irrelevant to the output. The first row, in that order, that
    breaks the detection invariants fails the run with its patch named.
    """
    if workers == 1:
        results = list(map(detector.detect, patches))
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(detector.detect, patches))
    boxes = [np.asarray(b, dtype=np.float64).reshape(-1, 4) for b, _ in results]
    scores = [np.asarray(s, dtype=np.float64).reshape(-1) for _, s in results]
    for patch, b, s in zip(patches, boxes, scores):
        if len(b) != len(s):
            raise DetectionError(f"patch {patch.patch_id}: {len(b)} boxes but {len(s)} scores")
    codes = np.repeat(np.arange(len(patches)), list(map(len, scores)))
    boxes, scores = np.concatenate([np.empty((0, 4)), *boxes]), np.concatenate([np.empty(0), *scores])
    cols = PatchDetections(patches, codes, boxes, scores)
    bad = np.flatnonzero(invalid(cols.boxes, cols.scores))
    if bad.size:
        r, patch_id = bad[0], cols.patches[cols.codes[bad[0]]]
        raise DetectionError(f"patch {patch_id}: {row_error(patch_id, cols.boxes[r], cols.scores[r])}")
    return cols


def _load_truth(
    cfg: PipelineConfig, cat_cfg: CatalogConfig, gt: GeoTransform
) -> tuple[catalog_mod.Catalog, np.ndarray]:
    """The truth rows of the catalog cat_cfg names and their boxes on gt,
    as catalog_mod.select chooses them."""
    cat = catalog_mod.load_catalog(cfg.resolve(cat_cfg.path), schema=cat_cfg.schema)
    return catalog_mod.select(cat, gt, cat_cfg.region, cat_cfg.dmin_km, cat_cfg.dmax_km)


def _band_detections(
    cfg: PipelineConfig, band, stack, truth: catalog_mod.Catalog, boxes: np.ndarray
) -> PatchDetections:
    """Place one band's patches and produce its raw detections on them.

    An external file maps onto the one band's grid; the synthetic oracle
    sees the truth boxes of the craters in the band's size range.
    """
    patches = patch_placements(stack[0].width, stack[0].height, _band_spec(band))
    if cfg.detector.kind == "external":
        return load_detections(cfg.resolve(cfg.detector.path), patches, score_floor=cfg.detector.score_floor)
    in_band = catalog_mod.in_size_range(truth.diam_km, band.dmin_km, band.dmax_km)
    detector = SyntheticDetector(boxes[in_band], stack[0].geotransform, cfg.detector.noise)
    return detect_patches(patches, detector, cfg.workers)


def _per_band_detections(cfg: PipelineConfig, stack, truth, boxes) -> tuple[DetectionSet, dict]:
    """Detect and post-process every band; return the union plus per-band
    context for reporting."""
    all_survivors: list[DetectionSet] = []
    info: dict[str, dict] = {}
    for band in cfg.bands:
        per_patch = _band_detections(cfg, band, stack, truth, boxes)
        delta = cfg.nms_delta if cfg.nms_enabled else None
        survivors = run_pipeline(per_patch, stack[0].geotransform, band.ps_r, cfg.boundary_m, delta)
        all_survivors.append(survivors)
        info[band.name] = {
            "n_patches": len(per_patch),
            "n_raw": len(per_patch.scores),
            "n_survivors": len(survivors),
        }
    return DetectionSet.concat(all_survivors), info


def run_full(cfg: PipelineConfig) -> tuple[MetricsReport, list[Path]]:
    """The complete run: detection through metrics, with files written.

    Returns the metrics and the files written to cfg.out_path, all but the
    manifest.
    """
    if cfg.truth_catalog is None:
        raise ConfigError("run needs a truth_catalog")
    if cfg.detector.kind == "external" and len(cfg.bands) != 1:
        raise ConfigError("an external detections file maps onto exactly one band's patch grid")
    out_dir = cfg.out_path
    timings: dict[str, float] = {}
    t_total = time.perf_counter()
    metrics, written = _run_stages(cfg, out_dir, timings)
    timings["total"] = time.perf_counter() - t_total
    write_manifest(out_dir, cfg, timings, _input_paths(cfg), written)
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
    survivors, band_info = _per_band_detections(cfg, stack, truth, truth_boxes)
    timings["detect_and_postprocess"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    gated = size_gate(survivors, cfg.eval)
    metrics = match_and_count(gated, truth_boxes, cfg.eval)
    loc = localization_stats(gated, truth_boxes, cfg.eval)
    timings["evaluate"] = time.perf_counter() - t0

    det_path = out_dir / "detections_global.csv"
    write_global_detections(survivors, det_path)

    cat_path = out_dir / "detections_catalog.csv"
    write_catalog_export(survivors, gt, cat_path, provenance={"seed": cfg.seed})

    metrics_path = out_dir / "metrics.csv"
    write_metrics(
        metrics,
        metrics_path,
        extra={
            "n_gated_out": len(survivors) - len(gated),
            **{f"loc_{k}": "" if v is None else v for k, v in asdict(loc).items()},
        },
    )

    summary_path = out_dir / "summary.txt"
    summary_path.write_text(_summary_text(cfg, metrics, loc, band_info, truth.n_rejected))
    return metrics, [det_path, cat_path, Path(str(cat_path) + ".provenance.json"), metrics_path, summary_path]


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
    does not mark (a resampled elevation on its resampled cells), and every
    band is placed before a patch is cut. Nothing is written before those
    checks pass: the first patch image, or else the index, written once at
    the end, makes the output directory."""
    stack = load_stack(cfg)
    if export_images:
        for (_, path), grid in zip(_stack_files(cfg), stack):
            if path is not None:
                check_nan_marked(grid, path)
    placed = [patch_placements(stack[0].width, stack[0].height, _band_spec(band)) for band in cfg.bands]
    rows = []
    for band, patches in zip(cfg.bands, placed):
        if export_images and len(stack) == 1:
            patches = replicate_single_band(stack[0], _band_spec(band), scale_mode=cfg.scale_mode)
        elif export_images:
            patches = tile(*stack, _band_spec(band), scale_mode=cfg.scale_mode)
        for p in patches:
            rows.append((band.name, p.patch_id, str(p.row0), str(p.col0), p.delta_f))
            if export_images:
                write_patch_image(p, cfg.out_path / "patches" / band.name / f"{p.patch_id}.ppm")
    names, ids, row0, col0, delta_f = zip(*rows)
    index_path = cfg.out_path / "patch_index.csv"
    columns = [csv_text(names), ids, row0, col0, np.array(delta_f, dtype=np.float64)]
    write_csv(index_path, ["band", "patch_id", "row0", "col0", "delta_f"], columns, eol="\n")
    return index_path, len(rows)


def run_detect_dump(cfg: PipelineConfig) -> list[Path]:
    """Synthetic-only dump of per-patch detections in the wire format.

    Patch ids are only unique within one band's tiling, so multi-band
    configs get one file per band, written once every band is detected.
    """
    if cfg.detector.kind != "synthetic":
        raise ConfigError("the detect command only supports the synthetic detector")
    if cfg.truth_catalog is None:
        raise ConfigError("detect needs a truth_catalog")
    stack = load_stack(cfg)
    truth, boxes = _load_truth(cfg, cfg.truth_catalog, stack[0].geotransform)
    dumps = [_band_detections(cfg, band, stack, truth, boxes) for band in cfg.bands]
    paths = []
    for band, per_patch in zip(cfg.bands, dumps):
        name = "detections_patch.csv" if len(cfg.bands) == 1 else f"detections_patch_{band.name}.csv"
        path = cfg.out_path / name
        save_detections(per_patch, path)
        paths.append(path)
    return paths


def run_gridsearch(cfg: PipelineConfig) -> tuple[GridSearchResult, Path]:
    """Sweep (m, delta) on the configured inputs and write the cell table."""
    if cfg.truth_catalog is None:
        raise ConfigError("gridsearch needs a truth_catalog")
    if len(cfg.bands) != 1:
        raise ConfigError("gridsearch expects exactly one size band")
    stack = load_stack(cfg)
    gt = stack[0].geotransform
    truth, truth_boxes = _load_truth(cfg, cfg.truth_catalog, gt)
    band = cfg.bands[0]
    per_patch = _band_detections(cfg, band, stack, truth, truth_boxes)

    result = grid_search(
        per_patch,
        gt,
        truth_boxes,
        band.ps_r,
        cfg.grid.m_set,
        cfg.grid.delta_set,
        cfg.eval,
        include_no_nms=cfg.grid.include_no_nms,
    )
    path = cfg.out_path / "gridsearch.csv"
    write_gridsearch(result, path)
    return result, path


def run_crossmatch(cfg: PipelineConfig, detections_path: str | Path | None = None) -> tuple:
    """Classify a detections file against the truth and verify catalogs."""
    if cfg.truth_catalog is None or cfg.verify_catalog is None:
        raise ConfigError("crossmatch needs both truth_catalog and verify_catalog")
    gt = cfg.geotransform if cfg.geotransform is not None else load_stack(cfg)[0].geotransform

    det_path = Path(detections_path) if detections_path else cfg.out_path / "detections_global.csv"
    dets = load_global_detections(det_path)
    gated = size_gate(dets, cfg.eval)

    cat_a, boxes_a = _load_truth(cfg, cfg.truth_catalog, gt)
    cat_b, boxes_b = _load_truth(cfg, cfg.verify_catalog, gt)
    report = cross_verify(gated, boxes_a, boxes_b, cfg.eval)

    path = cfg.out_path / "crossmatch.csv"
    classes = {"known": report.known, "confirmed_new": report.confirmed_new, "unverified": report.unverified}
    order = [i for indices in classes.values() for i in indices]
    labels = [cls for cls, indices in classes.items() for _ in indices]
    ids = np.array(csv_text(gated.patches), dtype=object)[gated.codes[order]]
    columns = [labels, list(map(str, order)), ids, gated.scores[order]]
    write_csv(path, ["class", "detection_index", "patch_id", "score"], columns, eol="\n")
    summary = cfg.out_path / "crossmatch_summary.txt"
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
