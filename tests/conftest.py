"""Shared fixtures: small in-memory grids, detection columns and on-disk
raster/catalog files."""

import numpy as np
import pytest

from craterpipe.detector import PatchDetections
from craterpipe.geo import GeoTransform
from craterpipe.postprocess import DetectionSet, overlap_pairs
from craterpipe.raster import RasterGrid, save_raster

LUNAR_RADIUS = 1_737_400.0


@pytest.fixture
def gt100():
    return GeoTransform(x_min=0.0, y_max=0.0, resolution=100.0, body_radius=LUNAR_RADIUS)


def make_grid(values, band_kind="elevation", resolution=100.0, nodata=None,
              x_min=0.0, y_max=0.0, body_radius=LUNAR_RADIUS):
    values = np.asarray(values, dtype=np.float64)
    return RasterGrid(
        width=values.shape[1],
        height=values.shape[0],
        band_kind=band_kind,
        source=values,
        geotransform=GeoTransform(x_min=x_min, y_max=y_max, resolution=resolution, body_radius=body_radius),
        nodata=nodata,
    )


def planar_dem(n, gx=0.0, gy=0.0, resolution=100.0):
    """Elevation plane with the given metric gradients, sampled at cell centers."""
    cols = (np.arange(n) + 0.5) * resolution
    rows = (np.arange(n) + 0.5) * resolution
    return make_grid(gy * rows[:, None] + gx * cols[None, :], resolution=resolution)


def write_raster(tmp_path, name, grid, dtype="float64"):
    path = tmp_path / name
    save_raster(grid, path, dtype=dtype)
    return path


def write_catalog_csv(tmp_path, name, rows, header="id,lon,lat,diam_km"):
    path = tmp_path / name
    lines = [header] + [",".join(str(v) for v in row) for row in rows]
    path.write_text("\n".join(lines) + "\n")
    return path


def patch_columns(rows_by_patch):
    """The PatchDetections of a patch id -> [(box, score), ...] dict; every
    key is a patch, with rows or without."""
    ids = [p for p, rows in rows_by_patch.items() for _ in rows]
    flat = [row for rows in rows_by_patch.values() for row in rows]
    return PatchDetections(ids, [box for box, _ in flat], [score for _, score in flat], keys=rows_by_patch)


def pair_iou(a, b):
    """The IOU overlap_pairs gives the boxes a and b; 0 when they form no pair."""
    _, _, v = overlap_pairs([a], [b])
    return float(v[0]) if v.size else 0.0


def global_set(boxes, scores=0.9, patch_ids="p"):
    """A DetectionSet of meter boxes, each with the pixel box (0, 0, 1, 1);
    a single score or patch id is given to every row."""
    boxes = np.asarray(boxes, dtype=np.float64).reshape(-1, 4)
    n = boxes.shape[0]
    ids = np.broadcast_to(np.array(patch_ids, dtype=object), n)
    return DetectionSet(boxes, np.broadcast_to(scores, n), ids, np.tile([0.0, 0.0, 1.0, 1.0], (n, 1)))
