"""Every script under scripts/ imports against the current package, and
every name the package exports resolves on it.

A script is loaded as a module, so its imports run but its ``main`` does
not; a script that imports a removed name, or an ``__all__`` entry left
behind by one, fails here.  ``report_diff.py`` is also run on small
output directories made here, and ``step_solve_timing.py`` on one small
grid.
"""

import importlib.util
import json
import sys
from pathlib import Path

import pytest

import fracrd

SCRIPTS_DIR = Path(__file__).resolve().parents[1] / "scripts"
SCRIPTS = sorted(SCRIPTS_DIR.glob("*.py"))


def _load(path):
    """The script at path, loaded as a module: its imports run, its main does not."""
    spec = importlib.util.spec_from_file_location(f"_script_{path.stem}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_scripts_found():
    assert len(SCRIPTS) >= 3


@pytest.mark.parametrize("path", SCRIPTS, ids=lambda p: p.name)
def test_script_imports(path, monkeypatch):
    monkeypatch.setattr(sys, "path", list(sys.path))  # a script may extend it
    assert callable(_load(path).main)


@pytest.mark.parametrize("name", fracrd.__all__)
def test_package_export_resolves(name):
    assert hasattr(fracrd, name)


def test_step_solve_timing_runs(capsys, monkeypatch):
    monkeypatch.setattr(sys, "path", list(sys.path))
    _load(SCRIPTS_DIR / "step_solve_timing.py").main(ns=(8,))
    row = json.loads(capsys.readouterr().out.splitlines()[-1])["8"]
    assert row["operator_build_us"] > 0 and len(row) == 6


def _run_output(path, records, trace):
    """A ``fracrd run`` output directory: report.txt of the record lines
    (measured, expected, wall) and one trace."""
    path.mkdir()
    lines = [f"check=c/{name} params=a:1 measured={m} expected={e} tol=1 pass=true wall={w}"
             for name, (m, e, w) in records.items()]
    (path / "report.txt").write_text("\n".join(lines + ["# summary", "overall=pass"]) + "\n")
    (path / "t.csv").write_text("t,E\n" + "".join(f"{t},{e}\n" for t, e in trace))
    return str(path)


def test_report_diff_ignores_wall_and_prints_moves(tmp_path, capsys):
    report_diff = _load(SCRIPTS_DIR / "report_diff.py")
    base = _run_output(tmp_path / "a", {"r": (0.5, "<=1", 0.1)}, [(0, 1.0), (1, 2.0)])
    same = _run_output(tmp_path / "b", {"r": (0.5, "<=1", 9.9)}, [(0, 1.0), (1, 2.0)])
    assert report_diff.main([base, same]) == 0
    assert "records: 1 compared, 0 moved" in capsys.readouterr().out
    moved = _run_output(tmp_path / "c", {"r": (0.6, "<=1", 0.1)}, [(0, 1.0), (1, 2.2)])
    assert report_diff.main([base, moved]) == 0
    out = capsys.readouterr().out
    assert "measured 0.5 -> 0.6" in out and "1 moved" in out
    assert "trace t.csv: max rel deviation 0.0909" in out


def test_report_diff_fails_on_a_gate_or_record_set_change(tmp_path, capsys):
    report_diff = _load(SCRIPTS_DIR / "report_diff.py")
    base = _run_output(tmp_path / "a", {"r": (0.5, "<=1", 0.1)}, [(0, 1.0)])
    gate = _run_output(tmp_path / "b", {"r": (0.5, "<=2", 0.1)}, [(0, 1.0)])
    extra = _run_output(tmp_path / "c", {"r": (0.5, "<=1", 0.1), "s": (1, "<=1", 0.1)},
                        [(0, 1.0)])
    assert report_diff.main([base, gate]) == 1
    assert "expected <=1 -> <=2" in capsys.readouterr().out
    assert report_diff.main([base, extra]) == 1
    assert "check=c/s params=a:1" in capsys.readouterr().out
