"""Ground-truth crater catalogs: loading, selecting truth rows, geometrizing.

Catalogs are comma-separated text with a header row. Column names differ
between the common catalog families, so the loader takes a schema: either a
preset name from SCHEMAS or an explicit column mapping. Rows that parse but
violate the crater invariants (a value that is not finite, a radius in
meters that is not finite, non-positive diameter, latitude out of range)
are rejected and counted; the first row that does not parse at all fails
the load as path:line, as it does in the detection files, and after it a
repeated crater id.

A catalog is held as columns, and only as columns: the loader reads the
file as whole columns by one textcols.read_columns call, and select alone
chooses the truth rows, by a mask of region and size range, one to_boxes
projection and a finite box and box area, which only the geotransform
shows. Nothing here mutates.
"""

from __future__ import annotations

import csv
from pathlib import Path

import numpy as np

from .errors import CatalogError
from .geo import GeoTransform, lonlat_to_meter
from .textcols import open_text, read_columns

__all__ = [
    "SCHEMAS",
    "Catalog",
    "load_catalog",
    "resolve_schema",
    "in_size_range",
    "select",
    "check_size_range",
    "check_region",
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
    lat (degrees) and diam_km, (N,) float64 arrays. Each column is a
    read-only view of what it was given, not a copy. Ids are unique, which
    load_catalog checks once; nothing here checks them again. n_rejected
    counts the rows dropped on the way in; take keeps it and the name.
    """

    def __init__(self, name: str, ids, lon, lat, diam_km, n_rejected: int = 0) -> None:
        self.name, self.n_rejected = name, n_rejected
        self.ids = np.asarray(ids, dtype=object).reshape(-1)
        self.lon, self.lat, self.diam_km = (np.asarray(v, dtype=np.float64).reshape(-1) for v in (lon, lat, diam_km))
        for col in (self.ids, self.lon, self.lat, self.diam_km):
            col.flags.writeable = False

    def __len__(self) -> int:
        return self.ids.size

    def take(self, keep: np.ndarray, n_dropped: int = 0) -> Catalog:
        """The rows keep selects, in order, with n_dropped more rows rejected."""
        cols = (self.ids[keep], self.lon[keep], self.lat[keep], self.diam_km[keep])
        return Catalog(self.name, *cols, self.n_rejected + n_dropped)


def resolve_schema(schema: str | dict[str, str]) -> dict[str, str]:
    if isinstance(schema, str):
        if schema not in SCHEMAS:
            raise CatalogError(f"unknown schema preset {schema!r}, expected one of {sorted(SCHEMAS)}")
        return SCHEMAS[schema]
    for key in ("lon", "lat", "diam_km"):
        if key not in schema:
            raise CatalogError(f"schema mapping is missing the {key!r} column")
    return schema


def load_catalog(path: str | Path, schema: str | dict[str, str] = "generic", name: str | None = None) -> Catalog:
    """Read a delimited-text catalog as whole columns.

    Rows failing the crater invariants (a value that is not finite, a
    diameter <= 0 or so large that its radius in meters, diam_km * 500, is
    not finite, a latitude outside [-90, 90]) are dropped and counted in
    n_rejected. The first malformed row (a mapped field missing or
    non-numeric) fails the load, named by its row number (the header is row
    1) and what is wrong with it; then an id that repeats one of a kept row
    does, named by the id. Synthesized ids, name#k, are unique and go
    unchecked. Fields read as with csv.DictReader: blank rows are skipped,
    also when numbering rows for synthesized ids, a missing field reads None
    and a repeated column name its last column.
    """
    path = Path(path)
    cat_name = name if name is not None else path.stem
    with open_text(path, CatalogError, "catalog file", newline="") as fh:
        mapping = resolve_schema(schema)
        header = next(csv.reader(fh), None)
        if header is None:
            return Catalog(cat_name, (), (), (), ())
        index = {col: i for i, col in enumerate(header)}
        missing = [mapping[k] for k in ("lon", "lat", "diam_km") if mapping[k] not in index]
        if missing:
            raise CatalogError(f"{path}: missing columns: {', '.join(missing)}")
        numeric = [index[mapping[k]] for k in ("lon", "lat", "diam_km")]
        id_at = index.get(mapping.get("id"))
        _, texts, vals, bad = read_columns(fh, numeric, id_at, first=2)
    if bad:
        line = min(bad)
        raise CatalogError(f"{path}:{line}: {bad[line]}")
    _, lat, diam = vals.T
    # a radius that overflows reads inf
    with np.errstate(over="ignore"):
        valid = np.isfinite(vals).all(axis=1) & np.isfinite(diam * 500.0)
    keep = valid & (diam > 0) & (lat >= -90.0) & (lat <= 90.0)
    if not keep.all():
        texts, vals = texts[keep], vals[keep]
    if id_at is None:
        texts = [f"{cat_name}#{k}" for k in (np.flatnonzero(keep) + 1).tolist()]
    else:
        _check_unique_ids(texts.tolist(), path, cat_name)
    return Catalog(cat_name, texts, *vals.T, len(keep) - len(vals))


def _check_unique_ids(ids: list, path: Path, name: str) -> None:
    if len(set(ids)) != len(ids):
        seen = set()
        repeat = next(i for i in ids if i in seen or seen.add(i))
        raise CatalogError(f"{path}: catalog {name!r} has duplicate crater id {repeat!r}")


def in_size_range(diam_km: np.ndarray, dmin_km: float | None, dmax_km: float | None) -> np.ndarray:
    """The mask of dmin_km <= diam_km < dmax_km, a None bound unbounded. Half-open
    on purpose: adjacent size bins partition without double counting."""
    keep = np.ones(diam_km.shape, dtype=bool) if dmin_km is None else diam_km >= dmin_km
    return keep if dmax_km is None else keep & (diam_km < dmax_km)


def select(
    cat: Catalog, gt: GeoTransform, region: tuple | None, dmin_km: float | None, dmax_km: float | None
) -> tuple[Catalog, np.ndarray]:
    """The rows of cat in region ((lon_min, lon_max, lat_min, lat_max) as
    half-open ranges, None for all) and in_size_range, as config checked
    them, and their boxes on gt. A row whose box or box area overflows (a
    finite but huge longitude or diameter) matches no detection, so it is
    dropped and counted in n_rejected, as the loader's own rejects are."""
    window = in_size_range(cat.diam_km, dmin_km, dmax_km)
    if region is not None:
        lon_min, lon_max, lat_min, lat_max = region
        window &= (lon_min <= cat.lon) & (cat.lon < lon_max) & (lat_min <= cat.lat) & (cat.lat < lat_max)
    if not window.all():
        cat = cat.take(window)
    with np.errstate(over="ignore", invalid="ignore"):
        boxes = to_boxes(cat, gt)
        # a box corner that is not finite makes the area not finite too
        ok = np.isfinite((boxes[:, 2] - boxes[:, 0]) * (boxes[:, 3] - boxes[:, 1]))
    if ok.all():
        return cat, boxes
    return cat.take(ok, int((~ok).sum())), boxes[ok]


def check_size_range(dmin_km: float, dmax_km: float | None) -> None:
    """Refuse an empty diameter range [dmin_km, dmax_km); dmax None means unbounded."""
    if dmax_km is not None and not dmin_km < dmax_km:
        raise CatalogError(f"need dmin < dmax, got [{dmin_km}, {dmax_km})")


def check_region(lon_min: float, lon_max: float, lat_min: float, lat_max: float) -> None:
    """Refuse region bounds that are empty or inverted."""
    if not (lon_min < lon_max and lat_min < lat_max):
        raise CatalogError(f"empty or inverted region bounds: lon [{lon_min}, {lon_max}), lat [{lat_min}, {lat_max})")


def to_boxes(cat: Catalog, gt: GeoTransform) -> np.ndarray:
    """Project craters onto the mosaic plane as (N, 4) boxes in meters.

    Each crater becomes the tight axis-aligned square around its rim circle:
    [x - r, y - r, x + r, y + r] with r = diam_km * 500. Order is preserved.
    """
    x, y = lonlat_to_meter(cat.lon, cat.lat, gt)
    r = cat.diam_km * 500.0
    return np.stack([x - r, y - r, x + r, y + r], axis=1)
