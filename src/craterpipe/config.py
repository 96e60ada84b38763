"""Pipeline configuration file and run manifest.

The config file is JSON and is the single source of truth for a run; CLI
flags override individual fields. One seed at the top drives all randomness.
Referenced paths are resolved relative to the config file's directory and
checked at run time, not load time, so configs can be written ahead of their
inputs.
"""

from __future__ import annotations

import hashlib
import json
from collections.abc import Iterable, Mapping
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path

from .detector import NoiseConfig
from .errors import ConfigError
from .evaluate import EvalConfig
from .geo import GeoTransform
from .postprocess import BoundaryFilterConfig, NmsConfig

__all__ = [
    "BandConfig",
    "DetectorConfig",
    "CatalogConfig",
    "GridConfig",
    "PipelineConfig",
    "load_config",
    "apply_overrides",
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
    kind: str  # "synthetic" | "external"
    noise: NoiseConfig | None = None
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
    detector: DetectorConfig = field(default_factory=lambda: DetectorConfig(kind="synthetic", noise=NoiseConfig()))
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

    def boundary_cfg(self) -> BoundaryFilterConfig:
        return BoundaryFilterConfig(self.boundary_m)

    def nms_cfg(self) -> NmsConfig:
        return NmsConfig(delta=self.nms_delta, enabled=self.nms_enabled)

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


def _noise_from(d: dict, seed: int) -> NoiseConfig:
    fp_range = d.get("fp_radius_px", (12.5, 50.0))
    return NoiseConfig(
        center_jitter_px=float(d.get("center_jitter_px", 0.0)),
        radius_jitter_frac=float(d.get("radius_jitter_frac", 0.0)),
        false_positive_rate=float(d.get("false_positive_rate", 0.0)),
        miss_rate=float(d.get("miss_rate", 0.0)),
        seed=seed,
        fp_radius_px=(float(fp_range[0]), float(fp_range[1])),
    )


def _opt_float(d: dict, key: str) -> float | None:
    """The float under key; None when the key is absent or null."""
    v = d.get(key)
    return None if v is None else float(v)


def _int(value, key: str) -> int:
    """value as an int; a number with a fractional part is rejected, not truncated."""
    if isinstance(value, float) and not value.is_integer():
        raise ValueError(f"{key} must be an integer, got {value!r}")
    return int(value)


def _catalog_from(d: dict | None) -> CatalogConfig | None:
    if d is None:
        return None
    if "path" not in d:
        raise ConfigError("catalog config needs a 'path'")
    region = d.get("region")
    return CatalogConfig(
        path=d["path"],
        schema=d.get("schema", "generic"),
        region=tuple(float(v) for v in region) if region else None,
        dmin_km=_opt_float(d, "dmin_km"),
        dmax_km=_opt_float(d, "dmax_km"),
    )


def load_config(path: str | Path) -> PipelineConfig:
    """Parse and validate a JSON pipeline config."""
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
        cfg = _config_from(raw, path.parent)
    except KeyError as exc:
        raise ConfigError(f"{path}: missing key {exc}") from exc
    except (AttributeError, TypeError, ValueError) as exc:
        raise ConfigError(f"{path}: malformed value ({exc})") from exc
    cfg.validate()
    return cfg


def _config_from(raw: dict, base_dir: Path) -> PipelineConfig:
    """The config a parsed JSON object describes; paths stay relative to base_dir."""
    seed = _int(raw.get("seed", 0), "seed")
    rasters = raw.get("rasters", {})

    det_raw = raw.get("detector", {"kind": "synthetic"})
    detector = DetectorConfig(
        kind=det_raw.get("kind", "synthetic"),
        noise=_noise_from(det_raw.get("noise", {}), seed),
        path=det_raw.get("path"),
        score_floor=_opt_float(det_raw, "score_floor"),
    )

    bands = tuple(
        BandConfig(
            name=b.get("name", f"band{i}"),
            ps_a=_int(b["ps_a"], "ps_a"),
            ps_r=_int(b["ps_r"], "ps_r"),
            overlap=float(b.get("overlap", 0.5)),
            dmin_km=float(b.get("dmin_km", 0.0)),
            dmax_km=_opt_float(b, "dmax_km"),
        )
        for i, b in enumerate(raw.get("bands", []))
    )

    gt_raw = raw.get("geotransform")
    geotransform = (
        GeoTransform(
            x_min=float(gt_raw["x_min"]),
            y_max=float(gt_raw["y_max"]),
            resolution=float(gt_raw["resolution"]),
            body_radius=float(gt_raw["body_radius"]),
        )
        if gt_raw
        else None
    )

    nms_raw = raw.get("nms", {})
    eval_raw = raw.get("eval", {})
    grid_raw = raw.get("grid", {})

    return PipelineConfig(
        seed=seed,
        workers=_int(raw.get("workers", 1), "workers"),
        out_dir=raw.get("out_dir", "out"),
        scale_mode=raw.get("scale_mode", "patch"),
        intensity_path=rasters.get("intensity"),
        elevation_path=rasters.get("elevation"),
        slope_path=rasters.get("slope"),
        single_band_path=rasters.get("single_band"),
        bands=bands,
        detector=detector,
        truth_catalog=_catalog_from(raw.get("truth_catalog")),
        verify_catalog=_catalog_from(raw.get("verify_catalog")),
        geotransform=geotransform,
        boundary_m=_int(raw.get("boundary_m", 10), "boundary_m"),
        nms_delta=float(nms_raw.get("delta", 0.2)),
        nms_enabled=bool(nms_raw.get("enabled", True)),
        eval=EvalConfig(
            u=float(eval_raw.get("u", 0.3)),
            size_floor_km=_opt_float(eval_raw, "size_floor_km"),
            size_ceiling_km=_opt_float(eval_raw, "size_ceiling_km"),
        ),
        grid=GridConfig(
            m_set=tuple(_int(v, "grid.m_set") for v in grid_raw.get("m_set", (0, 1, 5, 10))),
            delta_set=tuple(float(v) for v in grid_raw.get("delta_set", (0.1, 0.2, 0.3, 0.4, 0.5))),
            include_no_nms=bool(grid_raw.get("include_no_nms", True)),
        ),
        base_dir=str(base_dir),
    )


def apply_overrides(
    cfg: PipelineConfig,
    seed: int | None = None,
    workers: int | None = None,
    m: int | None = None,
    delta: float | None = None,
    no_nms: bool = False,
    u: float | None = None,
    size_floor_km: float | None = None,
    out: str | None = None,
) -> PipelineConfig:
    """Return a config with individual fields replaced by CLI flags."""
    new = cfg
    if seed is not None:
        new = replace(new, seed=seed)
        if new.detector.noise is not None:
            new = replace(new, detector=replace(new.detector, noise=replace(new.detector.noise, seed=seed)))
    if workers is not None:
        new = replace(new, workers=workers)
    if m is not None:
        new = replace(new, boundary_m=m)
    if delta is not None:
        new = replace(new, nms_delta=delta)
    if no_nms:
        new = replace(new, nms_enabled=False)
    if u is not None or size_floor_km is not None:
        new = replace(
            new,
            eval=EvalConfig(
                u=new.eval.u if u is None else u,
                size_floor_km=new.eval.size_floor_km if size_floor_km is None else size_floor_km,
                size_ceiling_km=new.eval.size_ceiling_km,
            ),
        )
    if out is not None:
        new = replace(new, out_dir=out)
    new.validate()
    return new


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
