"""README's examples run as written, so the docs cannot drift from the code."""

import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np

from craterpipe.cli import main
from craterpipe.config import load_config
from craterpipe.raster import load_raster

ROOT = Path(__file__).resolve().parent.parent
FENCED = re.compile(r"^```(\w*)\n(.*?)^```$", re.S | re.M)


def readme_block(lang, first_line):
    """The one fenced block of README.md in lang whose text starts with first_line."""
    blocks = [text for kind, text in FENCED.findall((ROOT / "README.md").read_text())
              if kind == lang and text.startswith(first_line)]
    assert len(blocks) == 1, (lang, first_line, len(blocks))
    return blocks[0]


def test_readme_examples_run(tmp_path):
    # the raster header format, written verbatim beside a payload
    (tmp_path / "g.hdr").write_text(readme_block("", "width = "))
    (tmp_path / "g.bin").write_bytes(np.zeros((512, 512), dtype=np.float32).tobytes())
    grid = load_raster(tmp_path / "g.bin")
    assert (grid.width, grid.height, grid.band_kind, grid.nodata) == (512, 512, "elevation", -9999.0)
    assert grid.values.dtype == np.float32

    # the quick start: make_demo.py, then run and gridsearch on what it wrote
    demo = tmp_path / "demo"
    demo.mkdir()
    (demo / "make_demo.py").write_text(readme_block("python", "# make_demo.py\n"))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(ROOT / "src"), os.environ.get("PYTHONPATH", "")])}
    subprocess.run([sys.executable, "make_demo.py"], cwd=demo, env=env, check=True, timeout=120)
    for command in ("run", "gridsearch"):
        assert main([command, "--config", str(demo / "config.json")]) == 0, command
    assert (demo / "out" / "summary.txt").exists() and (demo / "out" / "gridsearch.csv").exists()

    # the configuration reference, its // comments stripped
    text = re.sub(r"//.*$", "", readme_block("jsonc", "{"), flags=re.M)
    (tmp_path / "config.json").write_text(text)
    cfg = load_config(tmp_path / "config.json")
    assert [band.name for band in cfg.bands] == ["b5_20", "b20"]
