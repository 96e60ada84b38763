"""Shared fixtures: small in-memory grids, detection columns and on-disk
raster/catalog files."""

import numpy as np
import pytest

from craterpipe.detector import PatchDetections
from craterpipe.geo import GeoTransform
from craterpipe.postprocess import DetectionSet, overlap_pairs
from craterpipe.raster import PatchPlacement, PatchSpec, RasterGrid, save_raster

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


def placed(patch_index, ps_r=512):
    """The PatchPlacements of a patch id -> (row0, col0, delta_f) dict, each
    on an unoverlapped spec of resized side ps_r."""
    return [
        PatchPlacement(p, r0, c0, PatchSpec(round(df * ps_r), ps_r, 0.0)) for p, (r0, c0, df) in patch_index.items()
    ]


def on_origin(patch_ids, ps_r=512):
    """PatchPlacements of patch_ids, every one at the mosaic origin with resize factor 1."""
    return placed(dict.fromkeys(patch_ids, (0, 0, 1.0)), ps_r)


def index_of(placements):
    """The patch id -> (row0, col0, delta_f) dict of placements."""
    return {p.patch_id: (p.row0, p.col0, p.delta_f) for p in placements}


def patch_columns(rows_by_patch, placements):
    """The PatchDetections on placements of a patch id -> [(box, score), ...]
    dict, every key of which is a placement's id."""
    code = {p.patch_id: k for k, p in enumerate(placements)}
    flat = [(code[p], box, score) for p, rows in rows_by_patch.items() for box, score in rows]
    codes, boxes, scores = zip(*flat) if flat else ((), (), ())
    return PatchDetections(placements, codes, boxes, scores)


def pair_iou(a, b):
    """The IOU overlap_pairs gives the boxes a and b; 0 when they form no pair."""
    _, _, v = overlap_pairs([a], [b])
    return float(v[0]) if v.size else 0.0


def detection_set(boxes, scores, patch_ids, pixel_boxes, rows=None):
    """The DetectionSet of rows with these patch ids, its table the ids in
    first-seen order."""
    code_of = {}
    codes = [code_of.setdefault(p, len(code_of)) for p in patch_ids]
    return DetectionSet(boxes, scores, codes, tuple(code_of), pixel_boxes, rows)


def ids_of(cols):
    """Each row's patch id, decoded from the table of a PatchDetections or a DetectionSet."""
    return [cols.patches[k] for k in cols.codes.tolist()]


def global_set(boxes, scores=0.9, patch_ids="p"):
    """A DetectionSet of meter boxes, each with the pixel box (0, 0, 1, 1);
    a single score or patch id is given to every row."""
    boxes = np.asarray(boxes, dtype=np.float64).reshape(-1, 4)
    n = boxes.shape[0]
    ids = np.broadcast_to(np.array(patch_ids, dtype=object), n)
    return detection_set(boxes, np.broadcast_to(scores, n), ids, np.tile([0.0, 0.0, 1.0, 1.0], (n, 1)))
