"""Command-line entry point.

Subcommands wrap the runner stages; a JSON config file is the single source
of truth and flags override individual fields. Exit codes: 0 success,
1 usage error, 2 data or file error.
"""

from __future__ import annotations

import sys
from typing import Sequence

import click

from .config import apply_overrides, load_config
from .errors import PipelineError
from .raster import check_nan_marked, compute_slope, load_raster, save_raster
from . import runner


@click.group()
def cli() -> None:
    """Crater detection pipeline: tiling, post-processing and evaluation."""


def _load(config_path: str, **overrides):
    return apply_overrides(load_config(config_path), **overrides)


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
@click.option("--config", "config_path", required=True, type=str, help="Pipeline config JSON.")
@click.option("--out", default=None, type=str, help="Output directory override.")
@click.option("--export-images/--no-export-images", default=True, show_default=True,
              help="Also write each patch as a PPM image.")
def cmd_tile(config_path: str, out: str | None, export_images: bool) -> None:
    """Cut the configured rasters into patches and write the patch index."""
    cfg = _load(config_path, out=out)
    index_path, n = runner.run_tile(cfg, export_images=export_images)
    click.echo(f"wrote {n} patches, index at {index_path}")


_run_options = [
    click.option("--config", "config_path", required=True, type=str, help="Pipeline config JSON."),
    click.option("--seed", default=None, type=int, help="Override the config seed."),
    click.option("--workers", default=None, type=int, help="Worker threads for detection."),
    click.option("--out", default=None, type=str, help="Output directory override."),
]


def _with_options(opts):
    def wrap(fn):
        for opt in reversed(opts):
            fn = opt(fn)
        return fn
    return wrap


@cli.command("run")
@_with_options(_run_options)
@click.option("--m", default=None, type=int, help="Boundary filter distance (pixels).")
@click.option("--delta", default=None, type=float, help="NMS IOU threshold.")
@click.option("--no-nms", is_flag=True, default=False, help="Disable NMS.")
@click.option("--u", default=None, type=float, help="Matching IOU threshold.")
@click.option("--size-floor-km", default=None, type=float, help="Ignore detections below this diameter.")
def cmd_run(config_path, seed, workers, out, m, delta, no_nms, u, size_floor_km) -> None:
    """Run the full pipeline and write detections, metrics and a manifest."""
    cfg = _load(
        config_path,
        seed=seed,
        workers=workers,
        out=out,
        m=m,
        delta=delta,
        no_nms=no_nms,
        u=u,
        size_floor_km=size_floor_km,
    )
    r, _ = runner.run_full(cfg)
    click.echo(
        f"kept {r.n_detections} detections against {r.n_truth} truth craters: "
        f"P={r.precision:.4f} R={r.recall:.4f} F1={r.f1:.4f}"
    )
    click.echo(f"outputs in {cfg.out_path}")


@cli.command("detect")
@_with_options(_run_options)
def cmd_detect(config_path, seed, workers, out) -> None:
    """Dump per-patch synthetic detections in the record wire format."""
    cfg = _load(config_path, seed=seed, workers=workers, out=out)
    paths = runner.run_detect_dump(cfg)
    for path in paths:
        click.echo(f"wrote patch detections to {path}")


@cli.command("gridsearch")
@_with_options(_run_options)
def cmd_gridsearch(config_path, seed, workers, out) -> None:
    """Sweep the boundary and NMS thresholds; write the cell table."""
    cfg = _load(config_path, seed=seed, workers=workers, out=out)
    result, path = runner.run_gridsearch(cfg)
    best_delta = "no-nms" if result.best_delta is None else f"{result.best_delta}"
    click.echo(f"best cell: m={result.best_m} delta={best_delta}; table at {path}")


@cli.command("crossmatch")
@click.option("--config", "config_path", required=True, type=str, help="Pipeline config JSON.")
@click.option("--detections", default=None, type=str,
              help="Global detections CSV (default: <out_dir>/detections_global.csv).")
@click.option("--out", default=None, type=str, help="Output directory override.")
def cmd_crossmatch(config_path, detections, out) -> None:
    """Classify detections as known, confirmed new, or unverified."""
    cfg = _load(config_path, out=out)
    report, path = runner.run_crossmatch(cfg, detections_path=detections)
    k, c, uv = report.counts
    click.echo(f"known={k} confirmed_new={c} unverified={uv}; detail at {path}")


def main(argv: Sequence[str] | None = None) -> int:
    """Invoke the CLI with the documented exit-code mapping."""
    try:
        cli.main(args=list(argv) if argv is not None else None,
                 prog_name="craterpipe", standalone_mode=False)
    except click.exceptions.Exit as exc:
        return int(exc.exit_code)
    except click.UsageError as exc:
        click.echo(f"usage error: {exc.format_message()}", err=True)
        return 1
    except click.ClickException as exc:
        exc.show()
        return 1
    except PipelineError as exc:
        click.echo(f"error: {exc}", err=True)
        return 2
    except FileNotFoundError as exc:
        click.echo(f"error: missing file: {exc}", err=True)
        return 2
    except OSError as exc:
        click.echo(f"error: {exc}", err=True)
        return 2
    return 0


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
