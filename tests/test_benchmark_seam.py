"""The names and call shapes the benchmark in perfbench/ traces.

perfbench/tracing.py wraps module attributes of craterpipe and counts the
detection sets passed through them. These tests read that file and never
modify it: they fail when a traced name disappears, when grid search stops
calling run_pipeline once per cell, or when a traced counter can no longer
take the length of what it is given.
"""

import importlib.util
import json
from collections import Counter
from pathlib import Path

from craterpipe import evaluate
from craterpipe.cli import main
from craterpipe.config import load_config
from craterpipe.runner import _input_paths

from scene import plant_craters, write_scene

ROOT = Path(__file__).resolve().parents[1]


def _tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", ROOT / "perfbench" / "tracing.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_resolves():
    for module, attr, _, _ in _tracing().targets():
        assert callable(getattr(module, attr, None)), f"{module.__name__}.{attr}"


def _count_calls(monkeypatch, counts):
    """Wrap every traced name so its counter runs after each call, as in a
    traced benchmark operation."""

    def wrap(fn, count):
        def traced(*args, **kwargs):
            result = fn(*args, **kwargs)
            if count is not None:
                count(counts, args, kwargs, result)
            return result

        return traced

    for module, attr, _, count in _tracing().targets():
        monkeypatch.setattr(module, attr, wrap(getattr(module, attr), count))


def test_grid_search_runs_the_pipeline_once_per_cell(tmp_path, monkeypatch):
    config = write_scene(tmp_path, plant_craters(6))  # 4 m values x (5 deltas + no NMS)
    calls = []
    real = evaluate.run_pipeline
    monkeypatch.setattr(evaluate, "run_pipeline", lambda *a, **k: calls.append(a) or real(*a, **k))
    assert main(["gridsearch", "--config", str(config)]) == 0
    assert len(calls) == 24


def test_traced_counters_take_the_length_of_detection_sets(tmp_path, monkeypatch):
    counts = Counter()
    _count_calls(monkeypatch, counts)
    config = write_scene(tmp_path, plant_craters(6))
    cfg = json.loads(config.read_text())
    cfg["verify_catalog"] = {"path": "truth.csv", "schema": "generic"}
    config.write_text(json.dumps(cfg))
    for command in ("run", "gridsearch", "crossmatch"):
        assert main([command, "--config", str(config)]) == 0, command
    assert counts["postprocess.calls"] == 1 + 24
    assert counts["evaluate.match_calls"] == 1
    assert 0 < counts["postprocess.after_nms"] <= counts["postprocess.after_boundary"] <= counts["postprocess.in"]
    # match, localization and cross-verification each count detections x truth
    assert counts["evaluate.iou_cells"] > 0


def test_traced_catalog_wrappers_see_each_load_and_projection(tmp_path, monkeypatch):
    """catalog.select projects through the module attribute to_boxes, so the
    wrapped catalog.load_catalog and catalog.to_boxes see every catalog load
    and every projection: one per truth selection, the oracle taking its
    boxes."""
    calls = Counter()

    def counted(real, span):
        return lambda *a, **k: calls.update([span]) or real(*a, **k)

    for module, attr, span, _ in _tracing().targets():
        if span.startswith("catalog."):
            monkeypatch.setattr(module, attr, counted(getattr(module, attr), span))
    config = write_scene(
        tmp_path, plant_craters(6), extra_config={"verify_catalog": {"path": "truth.csv", "schema": "generic"}}
    )
    expected = {"run": (1, 1), "gridsearch": (1, 1), "crossmatch": (2, 2)}
    for command, (loads, projections) in expected.items():
        calls.clear()
        assert main([command, "--config", str(config)]) == 0, command
        assert calls == {"catalog.load": loads, "catalog.to_boxes": projections}, command


def test_traced_counts_equal_the_raw_detections(tmp_path, monkeypatch):
    """The counters sum len() over the values of the per-patch mapping that
    detect_patches and load_detections return and run_pipeline takes; each
    sum must be the number of raw detections, read here from the files."""
    counts = Counter()
    _count_calls(monkeypatch, counts)
    config = write_scene(tmp_path, plant_craters(6), noise={"false_positive_rate": 3.0, "center_jitter_px": 1.0})
    assert main(["detect", "--config", str(config)]) == 0
    records = (tmp_path / "out" / "detections_patch.csv").read_text().splitlines()
    assert counts["detector.raw_dets"] == len(records) > 0

    counts.clear()
    assert main(["gridsearch", "--config", str(config)]) == 0
    assert counts["detector.raw_dets"] == len(records)
    assert counts["postprocess.in"] == 24 * len(records)

    # the same records read back as an external model's output, a score floor dropping some
    records_path = tmp_path / "records.csv"
    records_path.write_text("\n".join(records) + "\n")
    cfg = json.loads(config.read_text())
    cfg["detector"] = {"kind": "external", "path": "records.csv", "score_floor": 0.8}
    config.write_text(json.dumps(cfg))
    kept = sum(float(r.rsplit(",", 1)[1]) >= 0.8 for r in records)
    assert 0 < kept < len(records)
    counts.clear()
    assert main(["run", "--config", str(config)]) == 0
    assert counts["detector.records"] == len(records)
    assert counts["detector.records"] - counts["detector.floor_dropped"] == kept
    assert counts["postprocess.in"] == kept


def test_synthetic_detector_keeps_what_the_tracer_reads(tmp_path, monkeypatch):
    """_count_detect reads the oracle's truth_boxes and gt, and counts 0
    candidate tests without a word if they are gone, so the count is checked
    here; raster.mpix_in takes the size of every loaded grid, mapped or read."""
    counts = Counter()
    _count_calls(monkeypatch, counts)
    config = write_scene(tmp_path, plant_craters(6), noise={"false_positive_rate": 3.0, "center_jitter_px": 1.0})
    assert main(["detect", "--config", str(config)]) == 0
    # 3 x 3 windows of 256 px at a 128 px stride, each testing all 6 truth boxes
    assert counts["detector.candidate_tests"] == 9 * 6
    assert 0 < counts["detector.candidate_hits"] < 9 * 6
    assert counts["raster.mpix_in"] == 2 * 512 * 512 / 1e6  # intensity and DEM


def test_traced_manifest_hashes_every_input_and_output(tmp_path, monkeypatch):
    """_count_manifest sums the sizes of write_manifest's inputs and outputs
    arguments, so the digests run passes must iterate as the input paths."""
    counts = Counter()
    _count_calls(monkeypatch, counts)
    config = write_scene(tmp_path, plant_craters(6))
    assert main(["run", "--config", str(config)]) == 0
    inputs = _input_paths(load_config(config))
    outputs = [p for p in (tmp_path / "out").iterdir() if p.name != "manifest.json"]
    assert len(inputs) == 5 and len(outputs) == 5
    assert counts["io.bytes_hashed"] == sum(p.stat().st_size for p in inputs + outputs)
