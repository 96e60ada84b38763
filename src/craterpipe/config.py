"""Pipeline configuration file and run manifest.

The config file is JSON and is the single source of truth for a run. CLI
flags are written over the keys they replace before the one reader runs, so a
flag passes the same checks as the file. One seed at the top drives all
randomness. One table per section names each key and its reader: an absent
key takes its dataclass's default, null is read where the key allows it, and
a key no table names is refused. Errors name the key by its path, with list
indices (bands.0.ps_a). Text fields take JSON strings, numbers finite JSON
numbers. Referenced paths are resolved relative to the config file's
directory and checked at run time, not load time, so configs can be written
ahead of their inputs.
"""

from __future__ import annotations

import hashlib
import json
import math
from collections.abc import Iterable, Mapping
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path

from .catalog import check_region, check_size_range, resolve_schema
from .detector import NoiseConfig
from .errors import ConfigError, GeoError, PipelineError
from .evaluate import EvalConfig
from .geo import GeoTransform, meter_to_lonlat
from .raster import PatchSpec
from .textcols import open_text

__all__ = [
    "BandConfig",
    "DetectorConfig",
    "CatalogConfig",
    "GridConfig",
    "PipelineConfig",
    "load_config",
    "write_manifest",
    "sha256_file",
]


@dataclass(frozen=True)
class BandConfig:
    """One crater size band and its tiling geometry."""

    name: str
    ps_a: int
    ps_r: int
    overlap: float = 0.5
    dmin_km: float = 0.0
    dmax_km: float | None = None

    def __post_init__(self) -> None:
        PatchSpec(self.ps_a, self.ps_r, self.overlap)
        check_size_range(self.dmin_km, self.dmax_km)


@dataclass(frozen=True)
class DetectorConfig:
    kind: str = "synthetic"  # "synthetic" | "external"
    noise: NoiseConfig = field(default_factory=NoiseConfig)
    path: str | None = None
    score_floor: float | None = None


@dataclass(frozen=True)
class CatalogConfig:
    path: str
    schema: str = "generic"
    region: tuple[float, float, float, float] | None = None  # lon_min, lon_max, lat_min, lat_max
    dmin_km: float | None = None
    dmax_km: float | None = None

    def __post_init__(self) -> None:
        resolve_schema(self.schema)
        if self.region is not None:
            check_region(*self.region)
        check_size_range(self.dmin_km or 0.0, self.dmax_km)


@dataclass(frozen=True)
class GridConfig:
    m_set: tuple[int, ...] = (0, 1, 5, 10)
    delta_set: tuple[float, ...] = (0.1, 0.2, 0.3, 0.4, 0.5)
    include_no_nms: bool = True


@dataclass(frozen=True)
class PipelineConfig:
    seed: int = 0
    workers: int = 1
    out_dir: str = "out"
    scale_mode: str = "patch"
    intensity_path: str | None = None
    elevation_path: str | None = None
    slope_path: str | None = None
    single_band_path: str | None = None
    bands: tuple[BandConfig, ...] = ()
    detector: DetectorConfig = field(default_factory=DetectorConfig)
    truth_catalog: CatalogConfig | None = None
    verify_catalog: CatalogConfig | None = None
    geotransform: GeoTransform | None = None
    boundary_m: int = 10
    nms_delta: float = 0.2
    nms_enabled: bool = True
    eval: EvalConfig = field(default_factory=EvalConfig)
    grid: GridConfig = field(default_factory=GridConfig)
    base_dir: str = "."

    def resolve(self, p: str | None) -> Path | None:
        if p is None:
            return None
        path = Path(p)
        return path if path.is_absolute() else Path(self.base_dir) / path

    @property
    def out_path(self) -> Path:
        return self.resolve(self.out_dir)

    def validate(self) -> None:
        if self.workers < 1:
            raise ConfigError(f"workers must be >= 1, got {self.workers}")
        if self.scale_mode not in ("patch", "mosaic"):
            raise ConfigError(f"unknown scale_mode {self.scale_mode!r}")
        if self.detector.kind not in ("synthetic", "external"):
            raise ConfigError(f"unknown detector kind {self.detector.kind!r}")
        if self.detector.kind == "external" and not self.detector.path:
            raise ConfigError("external detector needs a detections path")
        if not self.bands:
            raise ConfigError("at least one size band is required")
        names = [b.name for b in self.bands]  # a band's name keys its outputs, and its folder
        for k, name in enumerate(names):
            if name in ("", ".", "..") or "/" in name or "\\" in name:
                raise ConfigError(f"bands.{k}.name {name!r} is not one plain folder name")
            if name in names[:k]:
                raise ConfigError(f"bands.{k}.name {name!r} repeats bands.{names.index(name)}.name")
        spans = sorted(
            (b.dmin_km, float("inf") if b.dmax_km is None else b.dmax_km, b.name) for b in self.bands
        )
        for (lo1, hi1, n1), (lo2, hi2, n2) in zip(spans, spans[1:]):
            if lo2 < hi1:
                raise ConfigError(f"size bands {n1!r} and {n2!r} overlap")
        three_band = [f"rasters.{k}" for k in ("intensity", "elevation", "slope")
                      if getattr(self, f"{k}_path") is not None]
        if self.single_band_path is not None and three_band:
            raise ConfigError(f"rasters.single_band is set together with {', '.join(three_band)}")
        if self.single_band_path is None and (self.intensity_path is None or self.elevation_path is None):
            raise ConfigError("need intensity and elevation rasters, or a single_band raster")
        for m in (self.boundary_m, *self.grid.m_set):
            if not (isinstance(m, int) and m >= 0):
                raise ConfigError(f"m must be a non-negative integer, got {m!r}")
        for delta in (self.nms_delta, *self.grid.delta_set):
            if not 0.0 <= delta <= 1.0:
                raise ConfigError(f"delta must be in [0, 1], got {delta}")


def _float(value, key: str) -> float:
    """value as a finite float (json reads NaN, Infinity and 1e999)."""
    number = _number(value, key, float)
    if not math.isfinite(number):
        raise ValueError(f"{key} must be finite, got {number}")
    return number


def _int(value, key: str) -> int:
    return _number(value, key, int)


def _number(value, key: str, to: type):
    """to(value), refused naming key if to cannot convert it; a JSON boolean or string is not a
    number, and a number with a fractional part is refused as an int, not truncated."""
    try:
        if not (isinstance(value, (bool, str)) or to is int and isinstance(value, float) and not value.is_integer()):
            return to(value)
    except (TypeError, ValueError, OverflowError):  # float() of an integer past the float range
        pass
    raise ValueError(f"{key} must be {'an integer' if to is int else 'a number'}, got {value!r}")


def _typed(types, kind: str):
    """A reader of a value JSON gives as one of types, taken as it is: bool("false") would read True."""

    def read(value, key: str):
        if not isinstance(value, types):
            raise ValueError(f"{key} must be {kind}, got {value!r}")
        return value

    return read


_str, _bool = _typed(str, "a string"), _typed(bool, "true or false")
_schema = _typed((str, dict), "a preset name or a column mapping")


def _list(value, key: str, n: int | None = None) -> list:
    """value, which must be a JSON list, of n items when n is given."""
    if not isinstance(value, list) or n is not None and len(value) != n:
        raise ValueError(f"{key} must be a list{'' if n is None else f' of {n}'}, got {value!r}")
    return value


def _opt(read):
    """A reader of null as None and of any other value with read."""
    return lambda value, key: None if value is None else read(value, key)


def _each(read, n: int | None = None):
    """A reader of a JSON list into a tuple, each item read with read and named by the list's key."""
    return lambda value, key: tuple(read(v, key) for v in _list(value, key, n))


def _section(readers: Mapping, cls=dict, required: Iterable[str] = ()):
    """A reader of a JSON object into cls(**values); an absent key takes cls's default."""
    return lambda value, key: cls(**_read(value, f"{key}.", readers, required))


def _read(raw, where: str, readers: Mapping, required: Iterable[str] = ()) -> dict:
    """raw's values by key, each read with its reader and named where + key in errors; a key
    no reader names is refused."""
    if not isinstance(raw, dict):
        raise ValueError(f"{where[:-1]} must be an object, got {raw!r}")
    unknown = [key for key in raw if key not in readers]
    if unknown:
        raise ValueError(f"unknown key {where}{unknown[0]}")
    for key in required:
        if key not in raw:
            raise KeyError(key)
    return {key: readers[key](value, where + key) for key, value in raw.items()}


def _bands(value, key: str) -> tuple[BandConfig, ...]:
    """Each band is a section named by its index; a band without a name is named band<index>."""
    return tuple(
        BandConfig(**{"name": f"band{i}", **_read(band, f"{key}.{i}.", _BAND, ("ps_a", "ps_r"))})
        for i, band in enumerate(_list(value, key))
    )


def _geotransform(value, key: str) -> GeoTransform:
    try:
        gt = GeoTransform(**_read(value, f"{key}.", _GEOTRANSFORM, _GEOTRANSFORM))
    except GeoError as exc:  # its message starts with the field's name
        raise ValueError(f"{key}.{exc}") from exc
    _, lat = meter_to_lonlat(0.0, gt.y_max - gt.resolution / 2, gt)
    if not abs(lat) <= 90.0:
        raise ValueError(f"{key}.y_max = {gt.y_max!r} puts the top row centre at latitude {lat:.2f}, past a pole")
    return gt


# One table per config section: each JSON key and the reader of its value.
_BAND = {"name": _str, "ps_a": _int, "ps_r": _int, "overlap": _float, "dmin_km": _float, "dmax_km": _opt(_float)}
_NOISE = {
    **dict.fromkeys(("center_jitter_px", "radius_jitter_frac", "false_positive_rate", "miss_rate"), _float),
    "fp_radius_px": _each(_float, 2),
}
_DETECTOR = {"kind": _str, "noise": _section(_NOISE, NoiseConfig), "path": _opt(_str), "score_floor": _opt(_float)}
_CATALOG = {
    "path": _str, "schema": _schema, "region": _opt(_each(_float, 4)), "dmin_km": _opt(_float), "dmax_km": _opt(_float),
}
_GEOTRANSFORM = dict.fromkeys(("x_min", "y_max", "resolution", "body_radius"), _float)
_CONFIG = {
    "seed": _int, "workers": _int, "out_dir": _str, "scale_mode": _str, "boundary_m": _int,
    "rasters": _section(dict.fromkeys(("intensity", "elevation", "slope", "single_band"), _opt(_str))),
    "bands": _bands,
    "detector": _section(_DETECTOR, DetectorConfig),
    "truth_catalog": _opt(_section(_CATALOG, CatalogConfig, ("path",))),
    "verify_catalog": _opt(_section(_CATALOG, CatalogConfig, ("path",))),
    "geotransform": _opt(_geotransform),
    "nms": _section({"delta": _float, "enabled": _bool}),
    "eval": _section({"u": _float, "size_floor_km": _opt(_float), "size_ceiling_km": _opt(_float)}, EvalConfig),
    "grid": _section({"m_set": _each(_int), "delta_set": _each(_float), "include_no_nms": _bool}, GridConfig),
}


def load_config(path: str | Path, overrides: Mapping[str, object] | None = None) -> PipelineConfig:
    """Parse and validate a JSON pipeline config. overrides ({"nms.delta": 0.3})
    replace the file's values before any check runs, so they pass the same checks."""
    path = Path(path)
    try:
        with open_text(path, ConfigError, "config file") as fh:
            raw = json.load(fh)
    except ValueError as exc:  # bad JSON, or an integer past int()'s digit limit
        raise ConfigError(f"{path}: invalid JSON ({exc})") from exc
    if not isinstance(raw, dict):
        raise ConfigError(f"{path}: expected a JSON object, got {type(raw).__name__}")
    try:
        for key, value in (overrides or {}).items():
            section, _, name = key.rpartition(".")
            (raw.setdefault(section, {}) if section else raw)[name] = value
        cfg = _config_from(raw, path.parent)
        cfg.validate()
    except KeyError as exc:
        raise ConfigError(f"{path}: missing key {exc}") from exc
    except ConfigError as exc:
        raise ConfigError(f"{path}: {exc}") from exc
    except (TypeError, ValueError, PipelineError) as exc:
        raise ConfigError(f"{path}: malformed value ({exc})") from exc
    return cfg


def _config_from(raw: dict, base_dir: Path) -> PipelineConfig:
    """The config a parsed JSON object describes; paths stay relative to base_dir. The rasters
    section fills the *_path fields, nms the nms_* fields; the top-level seed seeds the noise."""
    values = _read(raw, "", _CONFIG)
    values.update({f"{k}_path": v for k, v in values.pop("rasters", {}).items()})
    values.update({f"nms_{k}": v for k, v in values.pop("nms", {}).items()})
    cfg = PipelineConfig(**values, base_dir=str(base_dir))
    return replace(cfg, detector=replace(cfg.detector, noise=replace(cfg.detector.noise, seed=cfg.seed)))


# ---------------------------------------------------------------------------
# run manifest


# Hashing reads through one reused buffer: a fresh bytes object per chunk
# costs an allocation.
_HASH_CHUNK = 1 << 20


def sha256_file(path: str | Path) -> str:
    h = hashlib.sha256()
    buf = bytearray(_HASH_CHUNK)
    view = memoryview(buf)
    with open(path, "rb", buffering=0) as fh:
        while n := fh.readinto(buf):
            h.update(view[:n])
    return h.hexdigest()


def write_manifest(
    out_dir: str | Path,
    cfg: PipelineConfig,
    timings_s: dict[str, float],
    inputs: list[str | Path],
    outputs: list[str | Path],
) -> Path:
    """Record the config snapshot, stage timings and file digests.

    Inputs and outputs are digested, in the order given, so identical
    re-runs are verifiable: inputs are keyed by their path as given,
    outputs by their path relative to out_dir. The manifest lists every
    output file except itself.
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    snapshot = asdict(cfg)
    manifest = {
        "config": snapshot,
        "timings_s": {k: round(v, 6) for k, v in timings_s.items()},
        "inputs": {str(p): sha256_file(p) for p in inputs},
        "outputs": {str(Path(p).relative_to(out_dir)): sha256_file(p) for p in outputs},
    }
    path = out_dir / "manifest.json"
    path.write_text(json.dumps(manifest, indent=2, default=str) + "\n")
    return path
