"""craterpipe benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--smoke]

Run from the root of a craterpipe checkout; the program is imported from
./src. Workloads are defined in workloads.py and listed with their reasons
in BENCHMARK.json; perfbench/README.md states which layer metric should move
which end-to-end metric on which workload.

One run:

1. Set-up, seven times: a fresh process imports craterpipe and writes the
   workload's inputs, generated from --seed, under .perfbench/. setup_s is
   the median of the seven.
2. One warm-up operation, untimed but traced and checked. It leaves the
   inputs in the page cache, so cold-disk reads are never measured, and its
   trace gives the detection counts that dets_per_s divides by.
3. Operations back to back for --seconds: a closed loop with one client,
   since craterpipe is a batch tool. An operation is one or two
   craterpipe.cli.main([...]) calls in a process forked from this one, so
   its CPU time and peak RSS are its own and exclude set-up. The only
   threads are the pipeline's own detection workers. With --trace 1, every
   other operation is traced, and the untraced ones give the tracing
   overhead.

After each operation its outputs are checked (checks.py); a non-zero exit
code or a failed check counts the operation as failed. The last line of
standard output is one JSON object: with --trace 0 it holds the end-to-end
metrics (medians over operations), with --trace 1 the per-layer metrics
(medians over traced operations). The environment, per-operation samples
and, with --trace 1, every span are written to .perfbench/ at the end.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import pickle
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

# The pipeline's detection workers are the only threads an operation may use.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import checks  # noqa: E402
import workloads  # noqa: E402
from tracing import Tracer  # noqa: E402

DEFAULT_SEED = 1
SETUP_REPEATS = 7

END_TO_END = {
    "wall_s": "s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
    "mpix_per_s": "Mpix/s",
    "dets_per_s": "1/s",
    "f1": "ratio",
    "setup_s": "s",
}
# Printed with the end-to-end metrics but not in the JSON result: it is 0 on
# a correct program, and the result's "failed" and "attempted" carry it.
PRINTED_ONLY = {"failed_frac": "ratio"}

PER_LAYER = {
    "raster.load_s": "s",
    "raster.resample_s": "s",
    "raster.slope_s": "s",
    "raster.tile_s": "s",
    "raster.mpix_in": "Mpix",
    "raster.patches": "count",
    "raster.patch_mb_built": "MB",
    "catalog.load_s": "s",
    "catalog.to_boxes_s": "s",
    "catalog.rows": "count",
    "detector.detect_s": "s",
    "detector.raw_dets": "count",
    "detector.candidate_tests": "count",
    "detector.hit_frac": "ratio",
    "detector.parse_s": "s",
    "detector.records": "count",
    "detector.floor_dropped": "count",
    "postprocess.pipeline_s": "s",
    "postprocess.nms_s": "s",
    "postprocess.boundary_globalize_s": "s",
    "postprocess.calls": "count",
    "postprocess.in": "count",
    "postprocess.after_boundary": "count",
    "postprocess.after_nms": "count",
    "postprocess.nms_keep_frac": "ratio",
    "evaluate.match_s": "s",
    "evaluate.localization_s": "s",
    "evaluate.crossverify_s": "s",
    "evaluate.gridsearch_self_s": "s",
    "evaluate.match_calls": "count",
    "evaluate.iou_cells": "count",
    "io.write_s": "s",
    "io.read_s": "s",
    "io.manifest_s": "s",
    "io.bytes_written": "B",
    "io.bytes_hashed": "B",
    "runner.self_s": "s",
    "trace.bookkeeping_s": "s",
    "trace.wall_s": "s",
    "trace.untraced_wall_s": "s",
    "trace.overhead_frac": "ratio",
}


def _in_child(fn, args, log: Path):
    """Run fn(*args) in a forked process; return (its result, ok).

    The child's stdout and stderr go to log. Its result or traceback comes
    back through a pipe, and the child is always reaped before returning.
    """
    sys.stdout.flush()
    sys.stderr.flush()
    read_fd, write_fd = os.pipe()
    pid = os.fork()
    if pid == 0:
        code = 1
        try:
            os.close(read_fd)
            log_fd = os.open(log, os.O_WRONLY | os.O_CREAT | os.O_APPEND, 0o644)
            os.dup2(log_fd, 1)
            os.dup2(log_fd, 2)
            try:
                payload, code = (True, fn(*args)), 0
            except BaseException:
                payload = (False, traceback.format_exc())
            sys.stdout.flush()
            sys.stderr.flush()
            with os.fdopen(write_fd, "wb") as fh:
                pickle.dump(payload, fh)
        finally:
            os._exit(code)
    os.close(write_fd)
    with os.fdopen(read_fd, "rb") as fh:
        data = fh.read()
    _, status = os.waitpid(pid, 0)
    ok, result = pickle.loads(data) if data else (False, "child died without a result")
    ok = ok and os.waitstatus_to_exitcode(status) == 0
    if not ok:
        with open(log, "a") as fh:
            fh.write(f"\nchild failed: {result}\n")
    return result, ok


def _setup_child(workload: str, work_dir: Path, seed: int, smoke: bool, src: Path):
    t0 = time.perf_counter()
    import craterpipe

    if Path(craterpipe.__file__).resolve().parent != (src / "craterpipe").resolve():
        raise ImportError(f"craterpipe imported from {craterpipe.__file__}, not from {src}")
    inputs = workloads.setup(workload, work_dir, seed, smoke)
    return inputs, time.perf_counter() - t0


def _op_child(workload: str, inputs: workloads.Inputs, traced: bool, op: int):
    from craterpipe import cli

    tracer = Tracer(op) if traced else None
    if tracer is not None:
        tracer.install()
    codes = []
    ru0 = resource.getrusage(resource.RUSAGE_SELF)
    t0 = time.perf_counter()
    for argv in workloads.operation(workload, inputs):
        codes.append(cli.main(argv))
        if codes[-1] != 0:
            break
    wall = time.perf_counter() - t0
    ru1 = resource.getrusage(resource.RUSAGE_SELF)
    sample = {
        "op": op,
        "traced": traced,
        "codes": codes,
        "wall_s": wall,
        "cpu_s": (ru1.ru_utime - ru0.ru_utime) + (ru1.ru_stime - ru0.ru_stime),
        "peak_rss_mb": ru1.ru_maxrss / 1024.0,
    }
    if tracer is not None:
        sample["layers"] = tracer.metrics(wall)
        sample["spans"] = tracer.spans
    return sample


def _environment(root: Path) -> dict:
    import numpy

    try:
        getconf = subprocess.run(["getconf", "LEVEL3_CACHE_SIZE"], capture_output=True, text=True, timeout=10)
        l3_bytes = int(getconf.stdout)
    except (OSError, ValueError, subprocess.TimeoutExpired):
        l3_bytes = None
    src = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        src.update(path.relative_to(root).as_posix().encode() + b"\0" + path.read_bytes())
    return {
        "git_revision": _git_revision(root),
        "src_sha256": src.hexdigest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "l3_bytes": l3_bytes,
        "machine": platform.machine(),
    }


def _git_revision(root: Path) -> str | None:
    """HEAD's commit, read from .git without running git; None outside a
    git checkout."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _median(values):
    return statistics.median(values) if values else 0.0


def run_benchmark(workload: str, seed: int, seconds: float, trace: bool, smoke: bool = False,
                  root: Path | None = None, after_op=None) -> dict:
    """One benchmark run; returns the result with its samples.

    after_op(out_dir), when given, runs after each operation and before its
    outputs are checked; the benchmark's own test uses it to corrupt outputs.
    """
    root = Path.cwd() if root is None else root
    src = root / "src"
    base = root / ".perfbench"
    work = base / f"{workload}-{os.getpid()}"
    log = base / f"{workload}-{os.getpid()}.log"
    work.mkdir(parents=True, exist_ok=True)
    pinned = checks.pinned_digests(workload) if seed == DEFAULT_SEED and not smoke else None
    try:
        setups = []
        for _ in range(SETUP_REPEATS):
            result, ok = _in_child(_setup_child, (workload, work, seed, smoke, src), log)
            if not ok:
                raise RuntimeError(f"set-up failed; see {log}")
            setups.append(result)
        inputs = setups[-1][0]
        setup_s = [s for _, s in setups]

        import craterpipe.cli  # noqa: F401  (operations fork from an imported program)

        samples = []
        failures = []

        def one_op(traced: bool) -> dict:
            op = len(samples)
            shutil.rmtree(inputs.out_dir, ignore_errors=True)
            sample, ok = _in_child(_op_child, (workload, inputs, traced, op), log)
            if not ok:
                sample = {"op": op, "traced": traced, "codes": [], "error": sample}
            if after_op is not None:
                after_op(inputs.out_dir)
            problems, f1 = checks.check_outputs(workload, inputs, pinned)
            if not ok or any(sample["codes"]):
                problems.insert(0, f"operation exited with codes {sample['codes']}; see {log}")
            sample["f1"] = f1
            sample["problems"] = problems
            if problems:
                failures.append(sample)
            samples.append(sample)
            return sample

        warm = one_op(traced=True)
        typical = warm.get("wall_s", 0.0)
        timed = []
        min_ops = 2 if trace else 1
        t0 = time.perf_counter()
        while len(timed) < min_ops or time.perf_counter() - t0 + typical <= seconds:
            timed.append(one_op(traced=trace and len(timed) % 2 == 1))
            typical = _median([s["wall_s"] for s in timed if "wall_s" in s]) or typical
        measured_s = time.perf_counter() - t0
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if not failures:
        log.unlink(missing_ok=True)

    good = [s for s in timed if not s["problems"]] or [s for s in timed if "wall_s" in s]
    mosaic_mpix = inputs.mosaic_px ** 2 / 1e6
    layers = warm.get("layers", {})
    dets_per_op = layers.get("postprocess.in", 0.0)
    if trace:
        untraced = [s for s in good if not s["traced"]]
        traced = [s for s in good if s["traced"]]
        metrics = dict.fromkeys(PER_LAYER, 0.0)
        if traced:
            metrics.update({name: _median([s["layers"][name] for s in traced]) for name in traced[0]["layers"]})
        metrics["trace.wall_s"] = _median([s["wall_s"] for s in traced])
        metrics["trace.untraced_wall_s"] = _median([s["wall_s"] for s in untraced])
        base_wall = metrics["trace.untraced_wall_s"]
        metrics["trace.overhead_frac"] = (metrics["trace.wall_s"] - base_wall) / base_wall if base_wall else 0.0
        units = PER_LAYER
    else:
        walls = [s["wall_s"] for s in good]
        metrics = {
            "wall_s": _median(walls),
            "cpu_s": _median([s["cpu_s"] for s in good]),
            "peak_rss_mb": _median([s["peak_rss_mb"] for s in good]),
            "mpix_per_s": _median([mosaic_mpix / w for w in walls]),
            "dets_per_s": _median([dets_per_op / w for w in walls]),
            "f1": _median([s["f1"] for s in good if s["f1"] is not None]),
            "setup_s": _median(setup_s),
        }
        units = END_TO_END
    return {
        "workload": workload,
        "seed": seed,
        "smoke": smoke,
        "trace": trace,
        "correct": not failures,
        "attempted": len(samples),
        "failed": len(failures),
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
        "failed_frac": len(failures) / len(samples),
        "setup_samples_s": setup_s,
        "measured_s": measured_s,
        "inputs": {
            "mosaic_px": f"{inputs.mosaic_px}x{inputs.mosaic_px}",
            "truth_rows": inputs.n_truth,
            "verify_rows": inputs.n_verify,
            "records": inputs.n_records,
            "patches": int(layers.get("raster.patches", 0)),
            "raw_detections": int(dets_per_op / max(layers.get("postprocess.calls", 0.0), 1.0)),
        },
        "environment": _environment(root),
        "samples": samples,
    }


def _report(result: dict) -> list[str]:
    """Human-readable lines: every metric by name with its unit."""
    timed = [s for s in result["samples"][1:] if "wall_s" in s]
    lines = [
        f"workload {result['workload']}  seed {result['seed']}  trace {int(result['trace'])}"
        f"{'  smoke' if result['smoke'] else ''}",
        f"  closed loop, 1 client; {len(timed)} timed operations in {result['measured_s']:.1f} s "
        f"after 1 warm-up; set-up {SETUP_REPEATS} times; inputs in page cache (cold-disk reads not measured)",
        f"  inputs {json.dumps(result['inputs'])}",
        f"  environment {json.dumps(result['environment'])}",
    ]
    for name, m in result["metrics"].items():
        lines.append(f"  {name:34s} {m['value']:>16.6g} {m['unit']}")
    if not result["trace"]:
        for name, unit in PRINTED_ONLY.items():
            lines.append(f"  {name:34s} {result[name]:>16.6g} {unit}")
    for s in result["samples"]:
        for problem in s["problems"][:5]:
            lines.append(f"  FAILED op {s['op']}: {problem}")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.SCENES))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny inputs, for the benchmark's own test")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")

    root = Path.cwd()
    if not (root / "src" / "craterpipe" / "__init__.py").is_file():
        print(f"error: {root} is not a craterpipe checkout (no src/craterpipe); run from its root",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(root / "src"))
    try:
        result = run_benchmark(args.workload, args.seed, args.seconds, bool(args.trace), args.smoke, root)
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    out = root / ".perfbench" / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(result, indent=1) + "\n")
    print("\n".join(_report(result)))
    print(f"  samples, environment{' and spans' if args.trace else ''} in {out.relative_to(root)}")
    print(json.dumps({key: result[key] for key in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
