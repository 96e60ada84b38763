"""Coordinate algebra linking patch pixels, mosaic meters, and lon/lat.

A detection lives in the pixel frame of a resized patch. Its mosaic-frame
position in meters follows from the patch offset, the resize factor, and the
mosaic geotransform. Catalog entries arrive as lon/lat/diameter and are
placed on the mosaic through a simple-cylindrical (equirectangular)
projection with a configurable sphere radius, so lunar and martian data both
work without code changes.

This module is the only place that knows the projection: the rest of the
package converts coordinates through the functions below. The pixel/meter
and lon/lat/meter pairs work element by element on floats or NumPy arrays;
the latter multiply by the constants math.radians and math.degrees use.
All functions here are pure and safe to call from any number of threads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import GeoError

__all__ = [
    "GeoTransform",
    "pixel_to_meter_xy",
    "meter_to_pixel_xy",
    "lonlat_to_meter",
    "meter_to_lonlat",
]


@dataclass(frozen=True)
class GeoTransform:
    """Placement of a mosaic on a simple-cylindrical projection.

    x_min is the easting of the mosaic's left edge and y_max the northing of
    its top edge, both in meters. resolution is the pixel size in
    meters/pixel and body_radius the radius of the projection sphere. All
    four are finite; resolution and body_radius are positive.
    """

    x_min: float
    y_max: float
    resolution: float
    body_radius: float

    def __post_init__(self) -> None:
        for name in ("resolution", "body_radius"):
            if not getattr(self, name) > 0:  # NaN fails too
                raise GeoError(f"{name} must be positive, got {getattr(self, name)}")
        for name in ("x_min", "y_max", "resolution", "body_radius"):
            if not math.isfinite(getattr(self, name)):
                raise GeoError(f"{name} must be finite, got {getattr(self, name)}")


def pixel_to_meter_xy(
    x_pxl: float,
    y_pxl: float,
    gt: GeoTransform,
    patch_row0: float,
    patch_col0: float,
    delta_f: float,
) -> tuple[float, float]:
    """Map a resized-patch pixel position to mosaic meters.

    The patch offset (patch_row0, patch_col0) is expressed in mosaic pixels;
    it is what globalizes a per-patch coordinate. Northing decreases as the
    pixel row increases. Every argument but gt may be a NumPy array.
    """
    s = gt.resolution
    x_meter = gt.x_min + (patch_col0 + x_pxl * delta_f) * s
    y_meter = gt.y_max - (patch_row0 + y_pxl * delta_f) * s
    return x_meter, y_meter


def meter_to_pixel_xy(
    x_meter: float,
    y_meter: float,
    gt: GeoTransform,
    patch_row0: float,
    patch_col0: float,
    delta_f: float,
) -> tuple[float, float]:
    """Exact algebraic inverse of pixel_to_meter_xy."""
    s = gt.resolution
    x_pxl = ((x_meter - gt.x_min) / s - patch_col0) / delta_f
    y_pxl = ((gt.y_max - y_meter) / s - patch_row0) / delta_f
    return x_pxl, y_pxl


def lonlat_to_meter(lon: float, lat: float, gt: GeoTransform) -> tuple[float, float]:
    """Project lon/lat degrees onto the mosaic plane (simple cylindrical)."""
    bad = ~((np.asarray(lat) >= -90.0) & (np.asarray(lat) <= 90.0))
    if bad.any():
        raise GeoError(f"latitude out of range [-90, 90]: {np.asarray(lat)[bad].flat[0]}")
    r = gt.body_radius
    return r * (lon * (math.pi / 180.0)), r * (lat * (math.pi / 180.0))


def meter_to_lonlat(x: float, y: float, gt: GeoTransform) -> tuple[float, float]:
    """Inverse of lonlat_to_meter."""
    r = gt.body_radius
    return x / r * (180.0 / math.pi), y / r * (180.0 / math.pi)
