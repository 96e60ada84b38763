"""Command-line entry point.

Subcommands wrap the runner stages; a JSON config file is the single source
of truth. Each override flag replaces one config key (_FLAG_KEYS), and is
written over the file's value before the config is read and checked.
Exit codes: 0 success, 1 usage error, 2 data or file error.
"""

from __future__ import annotations

import sys
from typing import Sequence

import click

from .config import load_config
from .errors import PipelineError
from .raster import check_nan_marked, compute_slope, load_raster, save_raster
from . import runner


@click.group()
def cli() -> None:
    """Crater detection pipeline: tiling, post-processing and evaluation."""


# The config key each override flag replaces, by the flag's parameter name.
_FLAG_KEYS = {
    "seed": "seed",
    "workers": "workers",
    "out": "out_dir",
    "m": "boundary_m",
    "delta": "nms.delta",
    "nms_enabled": "nms.enabled",
    "u": "eval.u",
    "size_floor_km": "eval.size_floor_km",
}


def _load(config_path: str, flags: dict):
    """The config with each given flag written over the key it replaces; a flag not given is None."""
    return load_config(config_path, {_FLAG_KEYS[k]: v for k, v in flags.items() if v is not None})


_config_option = click.option("--config", "config_path", required=True, type=str, help="Pipeline config JSON.")
_out_option = click.option("--out", type=str, help="Output directory (config key out_dir).")
_seed_option = click.option("--seed", type=int, help="Seed of all randomness (config key seed).")
_workers_option = click.option("--workers", type=int, help="Worker threads for detection (config key workers).")


def _run_options(fn):
    """The options run, detect and gridsearch share."""
    return _config_option(_seed_option(_workers_option(_out_option(fn))))


@cli.command("slope")
@click.argument("dem_path", type=str)
@click.argument("out_path", type=str)
def cmd_slope(dem_path: str, out_path: str) -> None:
    """Derive a slope raster (degrees) from an elevation raster."""
    dem = load_raster(dem_path)
    check_nan_marked(dem, dem_path)
    grid = compute_slope(dem)
    save_raster(grid, out_path)
    click.echo(f"wrote slope raster {out_path} ({grid.width}x{grid.height})")


@cli.command("tile")
@_config_option
@_out_option
@click.option("--export-images/--no-export-images", default=True, show_default=True,
              help="Also write each patch as a PPM image.")
def cmd_tile(config_path: str, export_images: bool, **flags) -> None:
    """Cut the configured rasters into patches and write the patch index."""
    cfg = _load(config_path, flags)
    index_path, n = runner.run_tile(cfg, export_images=export_images)
    click.echo(f"wrote {n} patches, index at {index_path}")


@cli.command("run")
@_run_options
@click.option("--m", type=int, help="Boundary filter distance in pixels (config key boundary_m).")
@click.option("--delta", type=float, help="NMS IOU threshold (config key nms.delta).")
@click.option("--no-nms", "nms_enabled", flag_value=False, default=None,
              help="Disable NMS (sets config key nms.enabled to false).")
@click.option("--u", type=float, help="Matching IOU threshold (config key eval.u).")
@click.option("--size-floor-km", type=float,
              help="Ignore detections below this diameter in km (config key eval.size_floor_km).")
def cmd_run(config_path, **flags) -> None:
    """Run the full pipeline and write detections, metrics and a manifest."""
    cfg = _load(config_path, flags)
    r, _ = runner.run_full(cfg)
    click.echo(
        f"kept {r.n_detections} detections against {r.n_truth} truth craters: "
        f"P={r.precision:.4f} R={r.recall:.4f} F1={r.f1:.4f}"
    )
    click.echo(f"outputs in {cfg.out_path}")


@cli.command("detect")
@_run_options
def cmd_detect(config_path, **flags) -> None:
    """Dump per-patch synthetic detections in the record wire format."""
    cfg = _load(config_path, flags)
    paths = runner.run_detect_dump(cfg)
    for path in paths:
        click.echo(f"wrote patch detections to {path}")


@cli.command("gridsearch")
@_run_options
def cmd_gridsearch(config_path, **flags) -> None:
    """Sweep the boundary and NMS thresholds; write the cell table."""
    cfg = _load(config_path, flags)
    result, path = runner.run_gridsearch(cfg)
    best_delta = "no-nms" if result.best_delta is None else f"{result.best_delta}"
    click.echo(f"best cell: m={result.best_m} delta={best_delta}; table at {path}")


@cli.command("crossmatch")
@_config_option
@click.option("--detections", default=None, type=str,
              help="Global detections CSV (default: <out_dir>/detections_global.csv).")
@_out_option
def cmd_crossmatch(config_path, detections, **flags) -> None:
    """Classify detections as known, confirmed new, or unverified."""
    cfg = _load(config_path, flags)
    report, path = runner.run_crossmatch(cfg, detections_path=detections)
    k, c, uv = report.counts
    click.echo(f"known={k} confirmed_new={c} unverified={uv}; detail at {path}")


def main(argv: Sequence[str] | None = None) -> int:
    """Invoke the CLI with the documented exit-code mapping."""
    try:
        cli.main(args=list(argv) if argv is not None else None,
                 prog_name="craterpipe", standalone_mode=False)
    except click.UsageError as exc:
        click.echo(f"usage error: {exc.format_message()}", err=True)
        return 1
    except click.ClickException as exc:
        exc.show()
        return 1
    except (PipelineError, OSError) as exc:
        click.echo(f"error: {exc}", err=True)
        return 2
    return 0


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
