"""The benchmark's own test, on tiny (--smoke) versions of the workloads.

    python3 -m pytest -q perfbench
"""

import json
from pathlib import Path

import pytest

import run
from tracing import SELF_METRIC

ROOT = Path(__file__).resolve().parents[1]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def _main(capsys, *args) -> tuple[int, list[str]]:
    code = run.main(list(args))
    return code, capsys.readouterr().out.splitlines()


def test_benchmark_json_matches_the_benchmark():
    assert WORKLOADS == sorted(run.workloads.SCENES, key=WORKLOADS.index)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == run.PER_LAYER
    assert SPEC["command"] == ["python3", "perfbench/run.py"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_is_printed_with_its_unit(workload, capsys, monkeypatch):
    monkeypatch.chdir(ROOT)
    for trace, spec in ((0, SPEC["end_to_end"]), (1, SPEC["per_layer"])):
        code, lines = _main(capsys, "--workload", workload, "--seed", "3", "--seconds", "0",
                            "--trace", str(trace), "--smoke")
        assert code == 0
        result = json.loads(lines[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 2
        assert {n: m["unit"] for n, m in result["metrics"].items()} == {m["name"]: m["unit"] for m in spec}
        for m in spec:
            assert any(line.split()[:1] == [m["name"]] and line.split()[-1] == m["unit"] for line in lines)
        if trace == 0:
            for name, unit in run.PRINTED_ONLY.items():
                assert any(line.split()[:1] == [name] and line.split()[-1] == unit for line in lines)
            assert all(v["value"] > 0 for v in result["metrics"].values())


def test_layer_self_times_account_for_traced_wall(capsys, monkeypatch):
    monkeypatch.chdir(ROOT)
    for workload in WORKLOADS:
        result = run.run_benchmark(workload, seed=4, seconds=0, trace=True, smoke=True, root=ROOT)
        traced = [s for s in result["samples"] if s["traced"]]
        assert len(traced) >= 2  # the warm-up and at least one timed operation
        for s in traced:
            layers = s["layers"]
            accounted = sum(layers[m] for m in SELF_METRIC.values())
            accounted += layers["runner.self_s"] + layers["trace.bookkeeping_s"]
            assert accounted == pytest.approx(s["wall_s"], rel=1e-9, abs=1e-9)
            assert all(layers[m] >= 0 for m in SELF_METRIC.values())
            assert {span["op"] for span in s["spans"]} == {s["op"]}


def _rewrite(path: Path, edit) -> None:
    lines = path.read_text().splitlines()
    path.write_text("\n".join(edit(lines)) + "\n")


def _bump_tp(lines):
    header, values = lines[0].split(","), lines[1].split(",")
    i = header.index("tp")
    values[i] = str(int(values[i]) + 1)
    return [lines[0], ",".join(values)]


CORRUPTIONS = {
    "metrics tp": ("oracle_mosaic", "metrics.csv", _bump_tp),
    "detection dropped": ("oracle_mosaic", "detections_global.csv", lambda lines: lines[:-1]),
    "grid cell dropped": ("gridsearch_sweep", "gridsearch.csv", lambda lines: lines[:-1]),
    "crossmatch row dropped": ("external_crossmatch", "crossmatch.csv", lambda lines: lines[:-1]),
}


@pytest.mark.parametrize("case", sorted(CORRUPTIONS))
def test_corrupted_output_is_a_failure(case, monkeypatch):
    monkeypatch.chdir(ROOT)
    workload, name, edit = CORRUPTIONS[case]
    result = run.run_benchmark(workload, seed=5, seconds=0, trace=False, smoke=True, root=ROOT,
                               after_op=lambda out: _rewrite(out / name, edit))
    assert not result["correct"]
    assert result["failed"] == result["attempted"] >= 2
    assert result["failed_frac"] == 1.0


def test_pinned_digest_mismatch_is_a_failure(tmp_path):
    out = tmp_path / "out"
    out.mkdir()
    (out / "metrics.csv").write_text("x\n")
    inputs = run.workloads.Inputs(tmp_path, tmp_path / "config.json", 8, 0, 0, 0, (0.0, 0.0, 1.0, 1.0))
    problems, _ = run.checks.check_outputs("oracle_mosaic", inputs, {"metrics.csv": "0" * 64})
    assert any("pinned digest" in p for p in problems)


def test_refuses_to_run_outside_a_checkout(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    code, lines = _main(capsys, "--workload", WORKLOADS[0], "--seed", "1", "--seconds", "1", "--trace", "0")
    assert code != 0 and lines == []
