"""Crater detection pipeline.

Turns georeferenced rasters (optical intensity, elevation, slope) into a
crater catalog: overlapping fused patches go through a pluggable detector,
detections are boundary-filtered, globalized to map coordinates and
deduplicated, and the result is scored against ground-truth catalogs.
"""

from .catalog import Catalog, combine, filter_by_region, filter_by_size, load_catalog, to_boxes
from .detector import DetectorInterface, NoiseConfig, PatchDetections, SyntheticDetector, load_detections
from .errors import PipelineError
from .evaluate import (
    CrossVerifyReport,
    EvalConfig,
    GridSearchResult,
    LocalizationReport,
    MetricsReport,
    cross_verify,
    grid_search,
    iou,
    localization_stats,
    match_and_count,
    size_gate,
)
from .geo import GeoTransform, lonlat_to_meter, meter_to_lonlat, meter_to_pixel_xy, pixel_to_meter_xy
from .postprocess import (
    BoundaryFilterConfig,
    DetectionSet,
    NmsConfig,
    nms,
    run_pipeline,
)
from .raster import (
    FusedPatch,
    PatchSpec,
    RasterGrid,
    compute_slope,
    load_raster,
    replicate_single_band,
    resample,
    save_raster,
    tile,
)

__version__ = "0.1.0"
