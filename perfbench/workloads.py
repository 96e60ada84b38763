"""The benchmark's workloads: inputs generated from a seed, and the CLI calls
that make up one operation.

Every input is a pure function of (workload, seed, smoke). Craters are placed
with their centres inside the mosaic so that no result depends on how truth
outside the raster footprint is treated. Rasters, catalogs and detection
records are written through the formats the README documents.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

LUNAR_RADIUS = 1_737_400.0
RESOLUTION = 100.0
M_SET = (0, 1, 5, 10)
DELTA_SET = (0.1, 0.2, 0.3, 0.4, 0.5)


@dataclass(frozen=True)
class Scene:
    """Sizes of one workload's inputs."""

    mosaic_px: int
    ps_a: int
    ps_r: int
    n_truth: int
    diam_km: tuple[float, float]
    false_positives: float  # per patch
    workers: int = 1
    n_verify: int = 0  # external_crossmatch: verify catalog rows
    n_unseen: int = 0  # external_crossmatch: truth craters the model misses


SCENES = {
    "oracle_mosaic": {
        "full": Scene(4096, 1024, 512, 2000, (2.0, 20.0), 2.0, workers=2),
        "smoke": Scene(512, 256, 128, 40, (2.0, 6.0), 2.0, workers=2),
    },
    "gridsearch_sweep": {
        "full": Scene(2048, 512, 256, 2000, (1.0, 8.0), 3.0),
        "smoke": Scene(512, 256, 128, 60, (1.0, 4.0), 3.0),
    },
    "external_crossmatch": {
        "full": Scene(2048, 512, 512, 6000, (1.0, 6.0), 80.0, n_verify=3000, n_unseen=1000),
        "smoke": Scene(512, 256, 256, 120, (1.0, 4.0), 10.0, n_verify=60, n_unseen=30),
    },
}

@dataclass(frozen=True)
class Inputs:
    """What set-up wrote, and what a correct operation must report about it."""

    work_dir: Path
    config: Path
    mosaic_px: int
    n_truth: int
    n_verify: int
    n_records: int
    extent_m: tuple[float, float, float, float]  # x_min, y_min, x_max, y_max

    @property
    def out_dir(self) -> Path:
        return self.work_dir / "out"


def operation(workload: str, inputs: Inputs) -> list[list[str]]:
    """The CLI argument lists one operation runs, in order."""
    cfg = str(inputs.config)
    if workload == "oracle_mosaic":
        return [["run", "--config", cfg]]
    if workload == "gridsearch_sweep":
        return [["gridsearch", "--config", cfg]]
    dets = str(inputs.out_dir / "detections_global.csv")
    return [["run", "--config", cfg], ["crossmatch", "--config", cfg, "--detections", dets]]


def setup(workload: str, work_dir: Path, seed: int, smoke: bool) -> Inputs:
    """Write the workload's inputs and config under work_dir."""
    import numpy as np

    from craterpipe.geo import GeoTransform

    sc = SCENES[workload]["smoke" if smoke else "full"]
    work_dir.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng([seed, sorted(SCENES).index(workload)])
    gt = GeoTransform(x_min=0.0, y_max=0.0, resolution=RESOLUTION, body_radius=LUNAR_RADIUS)
    side_m = sc.mosaic_px * RESOLUTION
    band = {"name": "b", "ps_a": sc.ps_a, "ps_r": sc.ps_r, "overlap": 0.5, "dmin_km": 0.0, "dmax_km": None}
    config = {
        "seed": seed,
        "workers": sc.workers,
        "out_dir": "out",
        "bands": [band],
        "truth_catalog": {"path": "truth.csv", "schema": "generic"},
        "boundary_m": 10,
        "nms": {"delta": 0.2, "enabled": True},
        "eval": {"u": 0.3},
    }
    noise = {"center_jitter_px": 1.0, "false_positive_rate": sc.false_positives, "miss_rate": 0.05}
    n_records = 0

    truth = _craters(rng, sc.n_truth, sc.mosaic_px, sc.diam_km)
    _write_catalog(work_dir / "truth.csv", truth, gt)

    if workload == "oracle_mosaic":
        n = sc.mosaic_px
        _write_raster(work_dir / "intensity.bin", _texture(rng, n), "intensity", RESOLUTION, gt)
        half = n // 2
        yy, xx = np.mgrid[0:half, 0:half].astype(np.float32)
        phase = np.float32(rng.uniform(0.0, 2.0 * np.pi))
        dem = 800.0 * np.sin(xx / 37.0 + phase) * np.cos(yy / 53.0) + _texture(rng, half)
        _write_raster(work_dir / "dem.bin", dem, "elevation", 2.0 * RESOLUTION, gt)
        config["rasters"] = {"intensity": "intensity.bin", "elevation": "dem.bin"}
        config["detector"] = {"kind": "synthetic", "noise": noise}
    elif workload == "gridsearch_sweep":
        _write_raster(work_dir / "mosaic.bin", _texture(rng, sc.mosaic_px), "intensity", RESOLUTION, gt)
        config["rasters"] = {"single_band": "mosaic.bin"}
        config["detector"] = {"kind": "synthetic", "noise": noise}
        config["grid"] = {"m_set": list(M_SET), "delta_set": list(DELTA_SET), "include_no_nms": True}
    else:
        _write_raster(work_dir / "mosaic.bin", _texture(rng, sc.mosaic_px), "intensity", RESOLUTION, gt)
        # The verify catalog shares half its rows with the truth catalog and
        # holds the rest as craters only it knows; the modelled detector sees
        # both kinds, so crossmatch finds known, confirmed-new and unverified
        # detections.
        n_new = sc.n_verify - sc.n_verify // 2
        new = _craters(rng, n_new, sc.mosaic_px, sc.diam_km)
        shared = [c[: sc.n_verify // 2] for c in truth]
        verify = tuple(np.concatenate([a, b]) for a, b in zip(shared, new))
        _write_catalog(work_dir / "verify.csv", verify, gt)
        seen = tuple(np.concatenate([a[sc.n_unseen :], b]) for a, b in zip(truth, new))
        n_records = _write_records(work_dir / "records.csv", rng, seen, sc)
        config["rasters"] = {"single_band": "mosaic.bin"}
        config["detector"] = {"kind": "external", "path": "records.csv", "score_floor": 0.5}
        config["verify_catalog"] = {"path": "verify.csv", "schema": "generic"}

    config_path = work_dir / "config.json"
    config_path.write_text(json.dumps(config, indent=2) + "\n")
    return Inputs(
        work_dir=work_dir,
        config=config_path,
        mosaic_px=sc.mosaic_px,
        n_truth=sc.n_truth,
        n_verify=sc.n_verify,
        n_records=n_records,
        extent_m=(0.0, -side_m, side_m, 0.0),
    )


def _craters(rng, n: int, mosaic_px: int, diam_km: tuple[float, float]):
    """Centres (x_m, y_m) inside the mosaic and log-uniform diameters."""
    side_m = mosaic_px * RESOLUTION
    x = rng.uniform(0.0, side_m, n)
    y = -rng.uniform(0.0, side_m, n)
    lo, hi = diam_km
    d = lo * (hi / lo) ** rng.random(n)
    return x, y, d


def _texture(rng, n: int):
    import numpy as np

    return rng.random((n, n), dtype=np.float32) * np.float32(255.0)


def _write_raster(path: Path, values, band: str, resolution: float, gt) -> None:
    from craterpipe.geo import GeoTransform
    from craterpipe.raster import RasterGrid, save_raster

    h, w = values.shape
    grid_gt = GeoTransform(gt.x_min, gt.y_max, resolution, gt.body_radius)
    save_raster(RasterGrid(w, h, band, values, grid_gt), path, dtype="float32")


def _write_catalog(path: Path, craters, gt) -> None:
    from craterpipe.geo import meter_to_lonlat

    lines = ["id,lon,lat,diam_km"]
    for i, (x, y, d) in enumerate(zip(*craters)):
        lon, lat = meter_to_lonlat(float(x), float(y), gt)
        lines.append(f"{path.stem}{i},{lon!r},{lat!r},{float(d)!r}")
    path.write_text("\n".join(lines) + "\n")


def _write_records(path: Path, rng, craters, sc: Scene) -> int:
    """Detection records as a model would emit them on the tiling of sc.

    Each crater seen by the model yields one jittered box per patch window
    it overlaps; each patch also carries Poisson-many spurious boxes. Scores
    spread across the 0.5 floor so that the floor drops about a quarter of
    the records.
    """
    import numpy as np

    from craterpipe.raster import PatchSpec, patch_grid

    spec = PatchSpec(ps_a=sc.ps_a, ps_r=sc.ps_r, overlap_fraction=0.5)
    df = spec.delta_f
    x, y, d = craters
    r_px = d * 500.0 / RESOLUTION
    cx_px, cy_px = x / RESOLUTION, -y / RESOLUTION
    lines = []
    for patch_id, row0, col0 in patch_grid(sc.mosaic_px, sc.mosaic_px, spec):
        inside = (
            (cx_px + r_px > col0) & (cx_px - r_px < col0 + sc.ps_a)
            & (cy_px + r_px > row0) & (cy_px - r_px < row0 + sc.ps_a)
        )
        k = int(inside.sum())
        cx = (cx_px[inside] - col0) / df + rng.normal(0.0, 1.0, k)
        cy = (cy_px[inside] - row0) / df + rng.normal(0.0, 1.0, k)
        half = r_px[inside] / df
        score = rng.uniform(0.4, 1.0, k)
        n_fp = rng.poisson(sc.false_positives)
        cx = np.concatenate([cx, rng.uniform(0.0, sc.ps_r, n_fp)])
        cy = np.concatenate([cy, rng.uniform(0.0, sc.ps_r, n_fp)])
        half = np.concatenate([half, rng.uniform(5.0, 30.0, n_fp)])
        score = np.concatenate([score, rng.uniform(0.0, 0.8, n_fp)])
        x1 = np.maximum(cx - half, 0.0)
        y1 = np.maximum(cy - half, 0.0)
        x2 = np.minimum(cx + half, float(sc.ps_r))
        y2 = np.minimum(cy + half, float(sc.ps_r))
        ok = (x1 < x2) & (y1 < y2)
        for row in zip(x1[ok], y1[ok], x2[ok], y2[ok], score[ok]):
            lines.append(patch_id + "," + ",".join(repr(float(v)) for v in row))
    path.write_text("\n".join(lines) + "\n")
    return len(lines)
