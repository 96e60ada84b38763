"""Georeferenced raster grids: file IO, resampling, slope, byte scaling, tiling.

The on-disk format is deliberately plain: a raw little-endian scalar payload
(row-major) plus a text header sidecar next to it (same stem, ``.hdr``
extension) declaring dimensions, scalar type, band kind, nodata sentinel and
the geotransform. See read_header for the exact keys. load_raster maps the
payload read-only and reads no value: pages are read when something reads
them, so inputs must not change while a grid is in use.

Tiling cuts a mosaic into overlapping square windows, scales each window
linearly to bytes, box-downsamples it to the detector input size and stamps
it with the resize factor needed to map detections back to mosaic pixels.
All grid types are immutable after construction (a grid built on first
read swaps its builder for the values); tiling emits independent patches
and is safe to parallelize per patch.

resample and compute_slope make every check when they are called and
return a grid whose values are built the first time something reads them,
so a caller that needs only a grid's band, size and geotransform builds no
values; RasterGrid builds them in the row windows (_windows) that the
whole-grid checks reduce over. check_co_registered is the check tile makes
on its grids, and patch_placements gives patch_grid's windows as
PatchPlacements, a FusedPatch's geometry without its channels, so
consumers that never read pixels can work from placements alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from .errors import GeoError, RasterError
from .geo import GeoTransform

__all__ = [
    "BAND_KINDS",
    "RasterGrid",
    "PatchSpec",
    "PatchPlacement",
    "FusedPatch",
    "read_header",
    "load_raster",
    "save_raster",
    "resample",
    "compute_slope",
    "check_co_registered",
    "check_nan_marked",
    "tile",
    "replicate_single_band",
    "patch_grid",
    "patch_placements",
    "write_patch_image",
]

BAND_KINDS = ("intensity", "elevation", "slope")

_DTYPES = {
    "uint8": "<u1",
    "int16": "<i2",
    "int32": "<i4",
    "float32": "<f4",
    "float64": "<f8",
}

# Bytes of values per row window (_windows) of a build or a whole-grid check.
_WINDOW_BYTES = 1 << 22


def _windows(height: int, row_bytes: int) -> list[slice]:
    """Row slices covering height rows of row_bytes each in order, at most
    _WINDOW_BYTES (one row at least) per slice; the last stops at height.
    Work over them holds temporaries the size of a window, not a grid."""
    step = max(1, _WINDOW_BYTES // max(1, row_bytes))
    return [slice(r, min(r + step, height)) for r in range(0, height, step)]


@dataclass(frozen=True)
class RasterGrid:
    """A single-band georeferenced grid.

    source is the (height, width) value array, or a builder: a function of
    a row slice giving those rows' float64 values. values is the array: a
    built one is built window by window the first time values is read,
    checked as a given one is, and then kept.
    Elevation is meters, slope degrees, intensity unitless. Cells equal to
    the nodata sentinel are invalid (NaN cells when the sentinel is NaN).
    """

    width: int
    height: int
    band_kind: str
    source: np.ndarray | Callable[[slice], np.ndarray]
    geotransform: GeoTransform
    nodata: float | None = None

    def __post_init__(self) -> None:
        if self.band_kind not in BAND_KINDS:
            raise RasterError(f"unknown band kind {self.band_kind!r}, expected one of {BAND_KINDS}")
        if callable(self.source):
            return
        _shaped(self.values, (self.height, self.width), self)
        if self.band_kind == "slope" and np.issubdtype(self.values.dtype, np.floating):
            for rows in _windows(self.height, self.width * self.values.itemsize):
                v = self.values[rows]
                # NaN fails both tests, so a valid NaN cell is out of range
                if (~((v >= 0.0) & (v <= 90.0)) & self.valid_mask(rows)).any():
                    raise RasterError("slope values must lie in [0, 90] degrees")

    @property
    def values(self) -> np.ndarray:
        if callable(self.source):
            out = np.empty((self.height, self.width))
            for rows in _windows(self.height, self.width * out.itemsize):
                out[rows] = _shaped(self.source(rows), out[rows].shape, self)  # a wrong shape may broadcast
            built = RasterGrid(self.width, self.height, self.band_kind, out, self.geotransform, self.nodata)
            # drops the builder and what it holds, such as a mapped input
            object.__setattr__(self, "source", built.source)
        return self.source

    def valid_mask(self, rows: slice | np.ndarray = slice(None)) -> np.ndarray:
        """Which cells of the given rows (a slice or row indices; all rows by
        default) are valid."""
        values = self.values[rows]
        if self.nodata is None:
            return np.ones(values.shape, dtype=bool)
        if math.isnan(self.nodata):
            return ~np.isnan(values)
        return values != self.nodata


def _shaped(values: np.ndarray, shape: tuple, grid: RasterGrid) -> np.ndarray:
    if values.shape != shape:
        raise RasterError(f"value shape {values.shape} does not match declared {grid.height}x{grid.width} grid")
    return values


@dataclass(frozen=True)
class PatchSpec:
    """Window geometry for tiling: actual side, resized side and overlap."""

    ps_a: int
    ps_r: int
    overlap_fraction: float = 0.5

    def __post_init__(self) -> None:
        if self.ps_r <= 0 or self.ps_a <= 0:
            raise RasterError(f"patch sides must be positive, got {self.ps_a}/{self.ps_r}")
        if self.ps_r > self.ps_a:
            raise RasterError(f"ps_r ({self.ps_r}) must not exceed ps_a ({self.ps_a})")
        if not 0.0 <= self.overlap_fraction < 1.0:
            raise RasterError(f"overlap_fraction must be in [0, 1), got {self.overlap_fraction}")
        stride = self.ps_a * (1.0 - self.overlap_fraction)
        if abs(stride - round(stride)) > 1e-9 or round(stride) < 1:
            raise RasterError(
                f"ps_a * (1 - overlap) must be a positive integer stride, got {stride}"
            )

    @property
    def stride(self) -> int:
        return round(self.ps_a * (1.0 - self.overlap_fraction))

    @property
    def delta_f(self) -> float:
        return self.ps_a / self.ps_r


@dataclass(frozen=True)
class PatchPlacement:
    """Where one patch window sits in the mosaic: a FusedPatch's geometry."""

    patch_id: str
    row0: int
    col0: int
    spec: PatchSpec

    @property
    def delta_f(self) -> float:
        """The resize factor ps_a / ps_r."""
        return self.spec.delta_f


@dataclass(frozen=True)
class FusedPatch(PatchPlacement):
    """A resized 3-channel byte patch at its placement in the mosaic.

    channels has shape (3, ps_r, ps_r), uint8, ordered (intensity,
    elevation, slope).
    """

    channels: np.ndarray

    def __post_init__(self) -> None:
        if self.channels.shape != (3, self.spec.ps_r, self.spec.ps_r):
            raise RasterError(
                f"channels shape {self.channels.shape} does not match ps_r={self.spec.ps_r}"
            )
        if self.channels.dtype != np.uint8:
            raise RasterError("patch channels must be uint8")


# ---------------------------------------------------------------------------
# file IO


def _header_path(path: str | Path) -> Path:
    return Path(path).with_suffix(".hdr")


def read_header(path: str | Path) -> dict:
    """Parse the text sidecar of a raster payload.

    Required keys: width, height, dtype, band, x_min, y_max, resolution,
    body_radius. Optional: nodata. One ``key = value`` pair per line; blank
    lines and ``#`` comments are ignored.
    """
    hdr_path = _header_path(path)
    if not hdr_path.exists():
        raise RasterError(f"raster header not found: {hdr_path}")
    fields: dict[str, str] = {}
    for lineno, raw in enumerate(hdr_path.read_text().splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise RasterError(f"{hdr_path}:{lineno}: expected 'key = value', got {raw!r}")
        key, _, value = line.partition("=")
        fields[key.strip()] = value.strip()

    required = ("width", "height", "dtype", "band", "x_min", "y_max", "resolution", "body_radius")
    missing = [k for k in required if k not in fields]
    if missing:
        raise RasterError(f"{hdr_path}: missing header keys: {', '.join(missing)}")
    if fields["dtype"] not in _DTYPES:
        raise RasterError(f"{hdr_path}: unknown dtype {fields['dtype']!r}")
    if fields["band"] not in BAND_KINDS:
        raise RasterError(f"{hdr_path}: unknown band kind {fields['band']!r}")

    def number(key: str, kind: type = float):
        try:
            return kind(fields[key])
        except ValueError:
            what = "an integer" if kind is int else "a number"
            raise RasterError(f"{hdr_path}: {key} = {fields[key]!r} is not {what}") from None

    width, height = number("width", int), number("height", int)
    if width < 0 or height < 0:
        raise RasterError(f"{hdr_path}: width and height must not be negative, got {width}x{height}")
    try:
        gt = GeoTransform(*(number(k) for k in ("x_min", "y_max", "resolution", "body_radius")))
    except GeoError as exc:
        raise RasterError(f"{hdr_path}: {exc}") from exc
    nodata = number("nodata") if "nodata" in fields else None
    return {"width": width, "height": height, "dtype": fields["dtype"], "band": fields["band"],
            "nodata": nodata, "geotransform": gt}


def load_raster(path: str | Path) -> RasterGrid:
    """Map a raw payload read-only, plus its header sidecar, into a RasterGrid."""
    path = Path(path)
    if not path.exists():
        raise RasterError(f"raster payload not found: {path}")
    hdr = read_header(path)
    if not path.is_file():
        raise RasterError(f"{path}: raster payload is not a regular file")
    dtype, shape = np.dtype(_DTYPES[hdr["dtype"]]), (hdr["height"], hdr["width"])
    if (size := path.stat().st_size) != shape[0] * shape[1] * dtype.itemsize:
        raise RasterError(f"{path}: payload holds {size // dtype.itemsize} values, "
                          f"header declares {shape[0] * shape[1]}")
    # an empty file cannot be mapped
    values = np.memmap(path, dtype, mode="r", shape=shape) if size else np.frombuffer(b"", dtype).reshape(shape)
    try:
        return RasterGrid(
            width=hdr["width"],
            height=hdr["height"],
            band_kind=hdr["band"],
            source=values,
            geotransform=hdr["geotransform"],
            nodata=hdr["nodata"],
        )
    except RasterError as exc:
        raise RasterError(f"{path}: {exc}") from exc


def save_raster(grid: RasterGrid, path: str | Path, dtype: str = "float32") -> None:
    """Write payload and header sidecar for a grid."""
    if dtype not in _DTYPES:
        raise RasterError(f"unknown dtype {dtype!r}")
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_bytes(np.ascontiguousarray(grid.values, dtype=_DTYPES[dtype]).tobytes())
    gt = grid.geotransform
    lines = [
        f"width = {grid.width}",
        f"height = {grid.height}",
        f"dtype = {dtype}",
        f"band = {grid.band_kind}",
        f"x_min = {gt.x_min!r}",
        f"y_max = {gt.y_max!r}",
        f"resolution = {gt.resolution!r}",
        f"body_radius = {gt.body_radius!r}",
    ]
    if grid.nodata is not None:
        lines.append(f"nodata = {grid.nodata!r}")
    _header_path(path).write_text("\n".join(lines) + "\n")


# ---------------------------------------------------------------------------
# grid operations


def check_nan_marked(grid: RasterGrid, path: str | Path) -> None:
    """Fail, naming path, when grid holds NaN cells that its nodata sentinel
    does not mark. Such cells turn every value derived from them into NaN."""
    if not np.issubdtype(grid.values.dtype, np.floating):
        return
    stray = int(np.count_nonzero(np.isnan(grid.values) & grid.valid_mask()))
    if stray:
        sentinel = "none" if grid.nodata is None else repr(grid.nodata)
        raise RasterError(
            f"{path}: {grid.band_kind} holds NaN cells that its nodata sentinel ({sentinel}) does not "
            f"mark ({stray} of {grid.values.size}); declare nodata = nan in its header"
        )


def resample(grid: RasterGrid, target_resolution: float) -> RasterGrid:
    """Bilinearly resample a grid to a new resolution.

    The output extent covers the input extent (sizes round up), cell centers
    are aligned to the shared top-left corner and edges are replicated where
    a sample falls outside the input cell-center lattice. A cell is nodata
    when any input cell contributing weight to it is nodata. The checks run
    here, the all-nodata one over row windows; values are built on first
    read.
    """
    if not target_resolution > 0:
        raise RasterError(f"target resolution must be positive, got {target_resolution}")
    if not any(grid.valid_mask(r).any() for r in _windows(grid.height, grid.width * grid.values.itemsize)):
        raise RasterError("cannot resample an all-nodata grid")
    gt = grid.geotransform
    size = [n * gt.resolution / target_resolution for n in (grid.width, grid.height)]
    if not all(map(math.isfinite, size)):
        raise RasterError(f"cannot resample {grid.width}x{grid.height} cells of {gt.resolution} m to "
                          f"{target_resolution} m: the resampled size is not finite")
    width, height = map(math.ceil, size)
    out_gt = GeoTransform(gt.x_min, gt.y_max, target_resolution, gt.body_radius)
    return RasterGrid(width, height, grid.band_kind, lambda rows: _bilinear(grid, width, target_resolution, rows),
                      out_gt, grid.nodata)


def _bilinear(grid: RasterGrid, out_w: int, target_resolution: float, rows: slice) -> np.ndarray:
    """resample's values for the output rows in rows. They gather only the
    input rows they read and convert those to float64."""
    s_in = grid.geotransform.resolution
    s_out = target_resolution

    def axis_samples(out: np.ndarray, n_in: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        pos = (out + 0.5) * s_out / s_in - 0.5
        i0 = np.floor(pos).astype(np.int64)
        frac = pos - i0
        lo = np.clip(i0, 0, n_in - 1)
        hi = np.clip(i0 + 1, 0, n_in - 1)
        return lo, hi, frac

    c0, c1, fx = axis_samples(np.arange(out_w), grid.width)
    r0, r1, fy = axis_samples(np.arange(rows.start, rows.stop), grid.height)
    wx1, wy1 = fx[np.newaxis, :], fy[:, np.newaxis]
    v0 = np.asarray(grid.values[r0], dtype=np.float64)
    v1 = np.asarray(grid.values[r1], dtype=np.float64)
    out = (
        (1.0 - wy1) * ((1.0 - wx1) * v0[:, c0] + wx1 * v0[:, c1])
        + wy1 * ((1.0 - wx1) * v1[:, c0] + wx1 * v1[:, c1])
    )
    if grid.nodata is not None:
        bad0, bad1 = ~grid.valid_mask(r0), ~grid.valid_mask(r1)
        eps = 1e-12
        w00 = (1.0 - wy1) * (1.0 - wx1)
        w01 = (1.0 - wy1) * wx1
        w10 = wy1 * (1.0 - wx1)
        w11 = wy1 * wx1
        poisoned = (
            (bad0[:, c0] & (w00 > eps))
            | (bad0[:, c1] & (w01 > eps))
            | (bad1[:, c0] & (w10 > eps))
            | (bad1[:, c1] & (w11 > eps))
        )
        out[poisoned] = grid.nodata
    return out


def compute_slope(dem: RasterGrid) -> RasterGrid:
    """Derive a slope grid (degrees) from an elevation grid.

    Uses the 3x3 finite-difference scheme with (1, 2, 1) weighting per
    column/row, gradients divided by 8 * resolution, slope =
    arctan(sqrt(gx^2 + gy^2)). Border cells see edge-replicated neighbors.
    A cell is nodata when any cell of its 3x3 window is nodata. The checks
    on band kind and size run here; values are built on first read.
    """
    if dem.band_kind != "elevation":
        raise RasterError(f"slope needs an elevation grid, got {dem.band_kind!r}")
    if dem.width < 3 or dem.height < 3:
        raise RasterError(f"grid too small for slope: {dem.width}x{dem.height}")
    return RasterGrid(dem.width, dem.height, "slope", lambda rows: _slope(dem, rows), dem.geotransform, dem.nodata)


def _slope(dem: RasterGrid, rows: slice) -> np.ndarray:
    """compute_slope's values for rows, from rows start - 1 to stop; past a
    border the border row is read again, as edge padding does."""
    s = dem.geotransform.resolution
    halo = np.clip(np.arange(rows.start - 1, rows.stop + 1), 0, dem.height - 1)
    z = np.pad(np.asarray(dem.values[halo], dtype=np.float64), ((0, 0), (1, 1)), mode="edge")

    nw, n, ne = z[:-2, :-2], z[:-2, 1:-1], z[:-2, 2:]
    w_, e_ = z[1:-1, :-2], z[1:-1, 2:]
    sw, s_, se = z[2:, :-2], z[2:, 1:-1], z[2:, 2:]

    gx = ((ne + 2.0 * e_ + se) - (nw + 2.0 * w_ + sw)) / (8.0 * s)
    gy = ((sw + 2.0 * s_ + se) - (nw + 2.0 * n + ne)) / (8.0 * s)
    slope = np.degrees(np.arctan(np.hypot(gx, gy)))

    nodata = dem.nodata
    if nodata is not None:
        valid = np.pad(dem.valid_mask(halo), ((0, 0), (1, 1)), mode="edge")
        ok = np.ones(slope.shape, dtype=bool)
        for dr in (0, 1, 2):
            for dc in (0, 1, 2):
                ok &= valid[dr : dr + slope.shape[0], dc : dc + slope.shape[1]]
        slope[~ok] = nodata
    return slope


def _byte_scale(
    values: np.ndarray, valid: np.ndarray, bounds: tuple[float, float] | None = None
) -> np.ndarray:
    """Linear 0-255 scaling over valid cells; invalid and degenerate -> 0.

    bounds fixes the (vmin, vmax) range externally (mosaic-wide scaling);
    by default the range comes from the valid cells themselves.
    """
    out = np.zeros(values.shape, dtype=np.uint8)
    if not valid.any():
        return out
    v = np.asarray(values, dtype=np.float64)
    vmin, vmax = bounds if bounds is not None else (v[valid].min(), v[valid].max())
    if vmax == vmin:
        return out
    scaled = np.clip(np.rint(255.0 * (v - vmin) / (vmax - vmin)), 0, 255)
    out[valid] = scaled[valid].astype(np.uint8)
    return out


def _axis_offsets(size: int, ps_a: int, stride: int) -> list[int]:
    """Window start offsets covering [0, size); the last window is anchored
    at size - ps_a rather than padded, so no terrain is fabricated."""
    offsets = list(range(0, size - ps_a + 1, stride))
    if offsets[-1] != size - ps_a:
        offsets.append(size - ps_a)
    return offsets


def patch_grid(width: int, height: int, spec: PatchSpec) -> list[tuple[str, int, int]]:
    """Placement of every patch window for a mosaic of the given size.

    Returns (patch_id, row0, col0) in row-major order. Patch ids embed the
    zero-padded offsets so lexicographic and spatial order agree.
    """
    if width < spec.ps_a or height < spec.ps_a:
        raise RasterError(
            f"mosaic {width}x{height} is smaller than the patch side {spec.ps_a}"
        )
    rows = _axis_offsets(height, spec.ps_a, spec.stride)
    cols = _axis_offsets(width, spec.ps_a, spec.stride)
    return [
        (f"r{r0:06d}_c{c0:06d}", r0, c0)
        for r0 in rows
        for c0 in cols
    ]


def patch_placements(width: int, height: int, spec: PatchSpec) -> list[PatchPlacement]:
    """patch_grid's windows as placements, in the same order."""
    return [
        PatchPlacement(patch_id, r0, c0, spec)
        for patch_id, r0, c0 in patch_grid(width, height, spec)
    ]


def _area_average(window: np.ndarray, out_side: int) -> np.ndarray:
    """Box-filter downsample of a square array to out_side x out_side."""
    n = window.shape[0]
    if n == out_side:
        return np.asarray(window, dtype=np.float64)
    if n % out_side == 0:
        f = n // out_side
        return window.reshape(out_side, f, out_side, f).mean(axis=(1, 3))
    w = _box_weights(n, out_side)
    return w @ np.asarray(window, dtype=np.float64) @ w.T


def _box_weights(n: int, out: int) -> np.ndarray:
    f = n / out
    w = np.zeros((out, n))
    for j in range(out):
        lo = j * f
        hi = lo + f
        for i in range(int(math.floor(lo)), min(int(math.ceil(hi)), n)):
            w[j, i] = min(hi, i + 1.0) - max(lo, float(i))
    return w / f


def check_co_registered(grids: list[RasterGrid]) -> None:
    """The check tile makes before cutting: every grid shares the first
    one's size and geotransform. Band kinds may differ."""
    first = grids[0]
    if not all(
        g.width == first.width and g.height == first.height and g.geotransform == first.geotransform
        for g in grids[1:]
    ):
        raise RasterError("intensity, elevation and slope grids must share size and geotransform")


def _mosaic_range(grid: RasterGrid) -> tuple[float, float] | None:
    """The min and max of grid's valid cells, window by window; None if none."""
    lo, hi = np.inf, -np.inf
    for rows in _windows(grid.height, grid.width * grid.values.itemsize):
        v = np.asarray(grid.values[rows], dtype=np.float64)[grid.valid_mask(rows)]
        lo, hi = np.min(v, initial=lo), np.max(v, initial=hi)
    return None if lo > hi else (float(lo), float(hi))


def tile(
    intensity: RasterGrid,
    elevation: RasterGrid,
    slope: RasterGrid,
    spec: PatchSpec,
    scale_mode: str = "patch",
) -> list[FusedPatch]:
    """Cut three co-registered grids into fused overlapping byte patches.

    Each ps_a-sided window is extracted per channel, scaled linearly to
    bytes, box-downsampled to ps_r x ps_r and stamped with the resize factor.
    scale_mode "patch" computes the linear scale per window (maximizes local
    contrast); "mosaic" uses the global min/max instead. Nodata cells map to
    byte 0 before downsampling.
    """
    grids = [intensity, elevation, slope]
    check_co_registered(grids)
    if scale_mode not in ("patch", "mosaic"):
        raise RasterError(f"unknown scale_mode {scale_mode!r}")

    masks = [g.valid_mask() for g in grids]
    mosaic_ranges = [_mosaic_range(g) for g in grids] if scale_mode == "mosaic" else None

    patches = []
    for p in patch_placements(intensity.width, intensity.height, spec):
        r0, c0 = p.row0, p.col0
        channels = np.empty((3, spec.ps_r, spec.ps_r), dtype=np.uint8)
        for k, grid in enumerate(grids):
            win = grid.values[r0 : r0 + spec.ps_a, c0 : c0 + spec.ps_a]
            ok = masks[k][r0 : r0 + spec.ps_a, c0 : c0 + spec.ps_a]
            bounds = mosaic_ranges[k] if scale_mode == "mosaic" else None
            byte = _byte_scale(win, ok, bounds=bounds)
            channels[k] = np.rint(_area_average(byte, spec.ps_r)).astype(np.uint8)
        patches.append(FusedPatch(p.patch_id, r0, c0, spec, channels))
    return patches


def replicate_single_band(
    grid: RasterGrid, spec: PatchSpec, scale_mode: str = "patch"
) -> list[FusedPatch]:
    """Tile a single band into all three channels.

    Single-input inference is realized by replication: the one available
    band is scaled and copied into each channel position before tiling.
    """
    return tile(grid, grid, grid, spec, scale_mode=scale_mode)


def write_patch_image(patch: FusedPatch, path: str | Path) -> None:
    """Export a fused patch as a binary PPM (P6) for visual inspection."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    side = patch.spec.ps_r
    rgb = np.ascontiguousarray(np.moveaxis(patch.channels, 0, 2))
    with open(path, "wb") as fh:
        fh.write(f"P6\n{side} {side}\n255\n".encode("ascii"))
        fh.write(rgb.tobytes())
