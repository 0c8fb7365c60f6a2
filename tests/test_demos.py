"""Every demo script runs to the end against the current API."""

import runpy
from pathlib import Path

import pytest

DEMOS = sorted((Path(__file__).resolve().parent.parent / "demos").glob("[0-9][0-9]_*.py"))


def test_all_demos_found():
    assert len(DEMOS) == 4


@pytest.mark.parametrize("path", DEMOS, ids=[p.stem for p in DEMOS])
def test_demo_runs(path, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)  # the demos write their CSVs to the working directory
    runpy.run_path(str(path), run_name="__main__")
    out = capsys.readouterr().out
    assert "written to" in out
    assert any(tmp_path.glob("*.csv"))
