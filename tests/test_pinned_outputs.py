"""The benchmark's workloads at seed 1, full size, against the output digests
pinned in perfbench/digests.json.

These tests read perfbench/ and never modify it. Each builds a workload's
inputs, runs the CLI calls of one operation and asserts that the benchmark's
own output check finds no problem, so a change of any pinned output byte
fails here and not only in a benchmark run.
"""

import sys
from pathlib import Path

import pytest

from craterpipe.cli import main

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))  # checks imports workloads by name
import checks  # noqa: E402
import workloads  # noqa: E402


@pytest.mark.parametrize("workload", sorted(workloads.SCENES))
def test_workload_outputs_match_the_pinned_digests(tmp_path, workload):
    inputs = workloads.setup(workload, tmp_path, 1, False)
    for args in workloads.operation(workload, inputs):
        assert main(args) == 0, args
    problems, _ = checks.check_outputs(workload, inputs, checks.pinned_digests(workload))
    assert problems == []
