"""Pipeline configuration file and run manifest.

The config file is JSON and is the single source of truth for a run. CLI
flags are written over the keys they replace before the one reader runs, so a
flag passes the same checks as the file. One seed at the top drives all
randomness. Text fields take JSON strings, numbers finite JSON numbers.
Referenced paths are resolved relative to the config file's directory and
checked at run time, not load time, so configs can be written ahead of their
inputs.
"""

from __future__ import annotations

import hashlib
import json
import math
from collections.abc import Iterable, Mapping
from dataclasses import asdict, dataclass, field
from pathlib import Path

from .detector import NoiseConfig
from .errors import ConfigError, DetectionError, EvalError, GeoError
from .evaluate import EvalConfig
from .geo import GeoTransform

__all__ = [
    "BandConfig",
    "DetectorConfig",
    "CatalogConfig",
    "GridConfig",
    "PipelineConfig",
    "load_config",
    "write_manifest",
    "sha256_file",
    "file_digests",
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
        spans = sorted(
            (b.dmin_km, float("inf") if b.dmax_km is None else b.dmax_km, b.name) for b in self.bands
        )
        for (lo1, hi1, n1), (lo2, hi2, n2) in zip(spans, spans[1:]):
            if lo2 < hi1:
                raise ConfigError(f"size bands {n1!r} and {n2!r} overlap")
        if self.single_band_path is None and (self.intensity_path is None or self.elevation_path is None):
            raise ConfigError("need intensity and elevation rasters, or a single_band raster")
        for m in (self.boundary_m, *self.grid.m_set):
            if not (isinstance(m, int) and m >= 0):
                raise ConfigError(f"m must be a non-negative integer, got {m!r}")
        for delta in (self.nms_delta, *self.grid.delta_set):
            if not 0.0 <= delta <= 1.0:
                raise ConfigError(f"delta must be in [0, 1], got {delta}")


def _noise_from(d: dict, seed: int) -> NoiseConfig:
    lo, hi = (_float(v, "fp_radius_px") for v in d.get("fp_radius_px", NoiseConfig.fp_radius_px))
    rates = ("center_jitter_px", "radius_jitter_frac", "false_positive_rate", "miss_rate")
    return NoiseConfig(
        **{k: _float(d.get(k, getattr(NoiseConfig, k)), k) for k in rates},
        seed=seed,
        fp_radius_px=(lo, hi),
    )


def _float(value, key: str) -> float:
    """value as a finite float (json reads NaN, Infinity and 1e999); a JSON boolean is not a number."""
    if isinstance(value, bool):
        raise ValueError(f"{key} must be a number, got {value!r}")
    if not math.isfinite(number := float(value)):
        raise ValueError(f"{key} must be finite, got {number}")
    return number


def _opt_float(d: dict, key: str) -> float | None:
    """The float under key; None when the key is absent or null."""
    v = d.get(key)
    return None if v is None else _float(v, key)


def _int(value, key: str) -> int:
    """value as an int; a boolean or a number with a fractional part is rejected, not truncated."""
    if isinstance(value, bool) or isinstance(value, float) and not value.is_integer():
        raise ValueError(f"{key} must be an integer, got {value!r}")
    return int(value)


def _str(value, key: str, null: bool = True) -> str | None:
    """value, which must be a JSON string, or null where null is allowed."""
    if not (isinstance(value, str) or null and value is None):
        raise ValueError(f"{key} must be a string, got {value!r}")
    return value


def _bool(value, key: str) -> bool:
    """value, which must be a JSON boolean: bool("false") would read True."""
    if not isinstance(value, bool):
        raise ValueError(f"{key} must be true or false, got {value!r}")
    return value


def _catalog_from(d: dict | None, key: str) -> CatalogConfig | None:
    if d is None:
        return None
    schema = d.get("schema", CatalogConfig.schema)
    if not isinstance(schema, (str, dict)):
        raise ValueError(f"{key}.schema must be a preset name or a column mapping, got {schema!r}")
    region = d.get("region")
    if region and len(region) != 4:
        raise ValueError(f"region must hold 4 numbers (lon_min, lon_max, lat_min, lat_max), got {region!r}")
    return CatalogConfig(
        path=_str(d["path"], f"{key}.path", null=False),
        schema=schema,
        region=tuple(_float(v, "region") for v in region) if region else None,
        dmin_km=_opt_float(d, "dmin_km"),
        dmax_km=_opt_float(d, "dmax_km"),
    )


def load_config(path: str | Path, overrides: Mapping[str, object] | None = None) -> PipelineConfig:
    """Parse and validate a JSON pipeline config. overrides ({"nms.delta": 0.3})
    replace the file's values before any check runs, so they pass the same checks."""
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"config file not found: {path}")
    try:
        raw = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: invalid JSON ({exc})") from exc
    if not isinstance(raw, dict):
        raise ConfigError(f"{path}: expected a JSON object, got {type(raw).__name__}")
    try:
        for key, value in (overrides or {}).items():
            section, _, name = key.rpartition(".")
            (raw.setdefault(section, {}) if section else raw)[name] = value
        cfg = _config_from(raw, path.parent)
    except KeyError as exc:
        raise ConfigError(f"{path}: missing key {exc}") from exc
    except (AttributeError, TypeError, ValueError, DetectionError, EvalError) as exc:
        raise ConfigError(f"{path}: malformed value ({exc})") from exc
    cfg.validate()
    return cfg


def _config_from(raw: dict, base_dir: Path) -> PipelineConfig:
    """The config a parsed JSON object describes; paths stay relative to base_dir."""
    seed = _int(raw.get("seed", PipelineConfig.seed), "seed")
    rasters = raw.get("rasters", {})

    det_raw = raw.get("detector", {})
    detector = DetectorConfig(
        kind=_str(det_raw.get("kind", DetectorConfig.kind), "detector.kind"),
        noise=_noise_from(det_raw.get("noise", {}), seed),
        path=_str(det_raw.get("path"), "detector.path"),
        score_floor=_opt_float(det_raw, "score_floor"),
    )

    bands = tuple(
        BandConfig(
            name=_str(b.get("name", f"band{i}"), "bands.name", null=False),
            ps_a=_int(b["ps_a"], "ps_a"),
            ps_r=_int(b["ps_r"], "ps_r"),
            overlap=_float(b.get("overlap", BandConfig.overlap), "overlap"),
            dmin_km=_float(b.get("dmin_km", BandConfig.dmin_km), "dmin_km"),
            dmax_km=_opt_float(b, "dmax_km"),
        )
        for i, b in enumerate(raw.get("bands", []))
    )

    gt_raw = raw.get("geotransform")
    gt_keys = ("x_min", "y_max", "resolution", "body_radius")
    try:
        geotransform = GeoTransform(*(_float(gt_raw[k], f"geotransform.{k}") for k in gt_keys)) if gt_raw else None
    except GeoError as exc:  # its message starts with the field's name
        raise ValueError(f"geotransform.{exc}") from exc

    nms_raw = raw.get("nms", {})
    eval_raw = raw.get("eval", {})
    grid_raw = raw.get("grid", {})

    return PipelineConfig(
        seed=seed,
        workers=_int(raw.get("workers", PipelineConfig.workers), "workers"),
        out_dir=_str(raw.get("out_dir", PipelineConfig.out_dir), "out_dir", null=False),
        scale_mode=_str(raw.get("scale_mode", PipelineConfig.scale_mode), "scale_mode"),
        intensity_path=_str(rasters.get("intensity"), "rasters.intensity"),
        elevation_path=_str(rasters.get("elevation"), "rasters.elevation"),
        slope_path=_str(rasters.get("slope"), "rasters.slope"),
        single_band_path=_str(rasters.get("single_band"), "rasters.single_band"),
        bands=bands,
        detector=detector,
        truth_catalog=_catalog_from(raw.get("truth_catalog"), "truth_catalog"),
        verify_catalog=_catalog_from(raw.get("verify_catalog"), "verify_catalog"),
        geotransform=geotransform,
        boundary_m=_int(raw.get("boundary_m", PipelineConfig.boundary_m), "boundary_m"),
        nms_delta=_float(nms_raw.get("delta", PipelineConfig.nms_delta), "nms.delta"),
        nms_enabled=_bool(nms_raw.get("enabled", PipelineConfig.nms_enabled), "nms.enabled"),
        eval=EvalConfig(
            u=_float(eval_raw.get("u", EvalConfig.u), "eval.u"),
            size_floor_km=_opt_float(eval_raw, "size_floor_km"),
            size_ceiling_km=_opt_float(eval_raw, "size_ceiling_km"),
        ),
        grid=GridConfig(
            m_set=tuple(_int(v, "grid.m_set") for v in grid_raw.get("m_set", GridConfig.m_set)),
            delta_set=tuple(_float(v, "grid.delta_set") for v in grid_raw.get("delta_set", GridConfig.delta_set)),
            include_no_nms=_bool(grid_raw.get("include_no_nms", GridConfig.include_no_nms), "grid.include_no_nms"),
        ),
        base_dir=str(base_dir),
    )


# ---------------------------------------------------------------------------
# run manifest


# Hashing reads through one reused buffer: a fresh bytes object per chunk
# costs an allocation, and larger chunks mean fewer interpreter-lock handoffs
# while sha256 runs on a background thread (hashlib releases the lock).
_HASH_CHUNK = 1 << 20


def sha256_file(path: str | Path) -> str:
    h = hashlib.sha256()
    buf = bytearray(_HASH_CHUNK)
    view = memoryview(buf)
    with open(path, "rb", buffering=0) as fh:
        while n := fh.readinto(buf):
            h.update(view[:n])
    return h.hexdigest()


def file_digests(paths: Iterable[str | Path]) -> dict[str, str]:
    """The SHA-256 of each file, keyed by its path as given, in order."""
    return {str(p): sha256_file(p) for p in paths}


def write_manifest(
    out_dir: str | Path,
    cfg: PipelineConfig,
    timings_s: dict[str, float],
    inputs: Mapping[str, str],
    outputs: list[str | Path],
) -> Path:
    """Record the config snapshot, stage timings and file digests.

    Inputs and outputs are digested so identical re-runs are verifiable.
    inputs holds the input digests already taken (path -> hex digest, as
    file_digests returns). The manifest lists every output file except
    itself.
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    snapshot = asdict(cfg)
    manifest = {
        "config": snapshot,
        "timings_s": {k: round(v, 6) for k, v in timings_s.items()},
        "inputs": dict(inputs),
        "outputs": {str(Path(p).relative_to(out_dir)): sha256_file(p) for p in outputs},
    }
    path = out_dir / "manifest.json"
    path.write_text(json.dumps(manifest, indent=2, default=str) + "\n")
    return path
