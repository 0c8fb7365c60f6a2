"""Every demo script and every README Python block runs to the end against the current API."""

import re
import runpy
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("[0-9][0-9]_*.py"))
README_BLOCKS = re.findall(r"^```python\n(.*?)^```$", (ROOT / "README.md").read_text(), re.M | re.S)


def test_all_demos_found():
    assert len(DEMOS) == 4


@pytest.mark.parametrize("path", DEMOS, ids=[p.stem for p in DEMOS])
def test_demo_runs(path, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)  # the demos write their CSVs to the working directory
    runpy.run_path(str(path), run_name="__main__")
    out = capsys.readouterr().out
    assert "written to" in out
    assert any(tmp_path.glob("*.csv"))


def test_readme_blocks_found():
    assert README_BLOCKS


@pytest.mark.parametrize("index", range(len(README_BLOCKS)))
def test_readme_block_runs(index, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)  # a block may write to the working directory
    code = compile(README_BLOCKS[index], f"README.md python block {index}", "exec")
    exec(code, {"__name__": "__main__"})
