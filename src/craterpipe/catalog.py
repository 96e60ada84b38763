"""Ground-truth crater catalogs: loading, filtering, geometrizing.

Catalogs are comma-separated text with a header row. Column names differ
between the common catalog families, so the loader takes a schema: either a
preset name from SCHEMAS or an explicit column mapping. Rows that parse but
violate the crater invariants (a value that is not finite, a radius in
meters that is not finite, non-positive diameter, latitude out of range)
are rejected and counted; rows that do not parse at all count as malformed
and abort the load once their fraction exceeds a tolerance.

A catalog is held as columns, and only as columns: the loader converts whole
columns (see textcols), filters are masks and to_boxes projects them at
once. A box that overflows there needs the geotransform to be seen, so the
runner drops such rows after to_boxes. Nothing here mutates.
"""

from __future__ import annotations

import csv
from pathlib import Path

import numpy as np

from .errors import CatalogError
from .geo import GeoTransform, lonlat_to_meter
from .textcols import read_columns

__all__ = [
    "SCHEMAS",
    "Catalog",
    "load_catalog",
    "filter_by_size",
    "filter_by_region",
    "to_boxes",
]

# Shipped column mappings for the usual catalog families. "id" is optional;
# absent ids are synthesized from the row number.
SCHEMAS: dict[str, dict[str, str]] = {
    "generic": {"id": "id", "lon": "lon", "lat": "lat", "diam_km": "diam_km"},
    "head": {"lon": "Lon", "lat": "Lat", "diam_km": "Diam_km"},
    "povilaitis": {"lon": "lon", "lat": "lat", "diam_km": "diam_km"},
    "robbins": {
        "id": "CRATER_ID",
        "lon": "LON_CIRC_IMG",
        "lat": "LAT_CIRC_IMG",
        "diam_km": "DIAM_CIRC_IMG",
    },
}


class Catalog:
    """A crater catalog as columns: ids, an (N,) object array of str, and lon,
    lat (degrees) and diam_km, (N,) float64 arrays. Ids are unique and
    columns read-only. n_rejected counts the rows dropped on the way in; a
    filter keeps it and the name.
    """

    def __init__(self, name: str, ids, lon, lat, diam_km, n_rejected: int = 0) -> None:
        self.name, self.n_rejected = name, n_rejected
        self.ids = np.array(ids, dtype=object).reshape(-1)
        self.lon, self.lat, self.diam_km = (np.array(v, dtype=np.float64).reshape(-1) for v in (lon, lat, diam_km))
        for col in (self.ids, self.lon, self.lat, self.diam_km):
            col.flags.writeable = False
        if len(set(self.ids.tolist())) != self.ids.size:
            raise CatalogError(f"catalog {name!r} has duplicate crater ids")

    def __len__(self) -> int:
        return self.ids.size

    def _select(self, keep: np.ndarray) -> Catalog:
        return Catalog(self.name, self.ids[keep], self.lon[keep], self.lat[keep], self.diam_km[keep], self.n_rejected)


def _resolve_schema(schema: str | dict[str, str]) -> dict[str, str]:
    if isinstance(schema, str):
        if schema not in SCHEMAS:
            raise CatalogError(f"unknown schema preset {schema!r}, expected one of {sorted(SCHEMAS)}")
        return SCHEMAS[schema]
    for key in ("lon", "lat", "diam_km"):
        if key not in schema:
            raise CatalogError(f"schema mapping is missing the {key!r} column")
    return schema


def load_catalog(
    path: str | Path,
    schema: str | dict[str, str] = "generic",
    name: str | None = None,
    max_malformed_fraction: float = 0.0,
) -> Catalog:
    """Read a delimited-text catalog, chunks of rows as columns.

    Rows failing the crater invariants (a value that is not finite, a
    diameter <= 0 or so large that its radius in meters, diam_km * 500, is
    not finite, a latitude outside [-90, 90]) are dropped and counted in
    n_rejected. Malformed rows (a mapped field missing or non-numeric) are
    also dropped, but if their fraction of all data rows exceeds
    max_malformed_fraction the load fails. Fields read as with csv.DictReader:
    blank rows are skipped, also when numbering rows for synthesized ids, a
    missing field reads None and a repeated column name its last column.
    """
    path = Path(path)
    if not path.exists():
        raise CatalogError(f"catalog file not found: {path}")
    mapping = _resolve_schema(schema)
    cat_name = name if name is not None else path.stem

    with open(path, newline="") as fh:
        header = next(csv.reader(fh), None)
        if header is None:
            return Catalog(cat_name, (), (), (), ())
        index = {col: i for i, col in enumerate(header)}
        missing = [mapping[k] for k in ("lon", "lat", "diam_km") if mapping[k] not in index]
        if missing:
            raise CatalogError(f"{path}: missing columns: {', '.join(missing)}")
        numeric = [index[mapping[k]] for k in ("lon", "lat", "diam_km")]
        id_at = index.get(mapping.get("id"))
        ids, values, n_rows, n_malformed = [], [], 0, 0
        for _, texts, vals, malformed in read_columns(fh, numeric, id_at):
            _, lat, diam = vals.T
            # a malformed value reads NaN, and a radius that overflows reads inf
            with np.errstate(over="ignore"):
                valid = np.isfinite(vals).all(axis=1) & np.isfinite(diam * 500.0)
            keep = np.flatnonzero(valid & (diam > 0) & (lat >= -90.0) & (lat <= 90.0))
            if id_at is None:
                ids += [f"{cat_name}#{k}" for k in (keep + n_rows + 1).tolist()]
            else:
                ids += texts[keep].tolist()
            values.append(vals[keep])
            n_rows += len(vals)
            n_malformed += len(malformed)

    if n_rows > 0 and n_malformed / n_rows > max_malformed_fraction:
        raise CatalogError(
            f"{path}: {n_malformed} of {n_rows} rows are malformed "
            f"(tolerance {max_malformed_fraction})"
        )
    lon, lat, diam = np.concatenate(values).T
    return Catalog(cat_name, ids, lon, lat, diam, n_rows - len(ids))


def filter_by_size(cat: Catalog, dmin_km: float, dmax_km: float | None = None) -> Catalog:
    """Craters with dmin <= diameter < dmax (dmax None means unbounded).

    Half-open on purpose: adjacent size bins partition without double
    counting.
    """
    if dmax_km is not None and not dmin_km < dmax_km:
        raise CatalogError(f"need dmin < dmax, got [{dmin_km}, {dmax_km})")
    keep = cat.diam_km >= dmin_km
    if dmax_km is not None:
        keep &= cat.diam_km < dmax_km
    return cat._select(keep)


def filter_by_region(cat: Catalog, lon_min: float, lon_max: float, lat_min: float, lat_max: float) -> Catalog:
    """Craters with lon in [lon_min, lon_max) and lat in [lat_min, lat_max)."""
    if lon_min >= lon_max or lat_min >= lat_max:
        raise CatalogError(
            f"empty or inverted region bounds: lon [{lon_min}, {lon_max}), lat [{lat_min}, {lat_max})"
        )
    keep = (lon_min <= cat.lon) & (cat.lon < lon_max) & (lat_min <= cat.lat) & (cat.lat < lat_max)
    return cat._select(keep)


def to_boxes(cat: Catalog, gt: GeoTransform) -> np.ndarray:
    """Project craters onto the mosaic plane as (N, 4) boxes in meters.

    Each crater becomes the tight axis-aligned square around its rim circle:
    [x - r, y - r, x + r, y + r] with r = diam_km * 500. Order is preserved.
    """
    x, y = lonlat_to_meter(cat.lon, cat.lat, gt)
    r = cat.diam_km * 500.0
    return np.stack([x - r, y - r, x + r, y + r], axis=1)
