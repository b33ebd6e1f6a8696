"""Every script under scripts/ imports against the current package, and
every name the package exports resolves on it.

A script is loaded as a module, so its imports run but its ``main`` does
not; a script that imports a removed name, or an ``__all__`` entry left
behind by one, fails here.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

import fracrd

SCRIPTS = sorted((Path(__file__).resolve().parents[1] / "scripts").glob("*.py"))


def test_scripts_found():
    assert len(SCRIPTS) >= 3


@pytest.mark.parametrize("path", SCRIPTS, ids=lambda p: p.name)
def test_script_imports(path, monkeypatch):
    monkeypatch.setattr(sys, "path", list(sys.path))  # a script may extend it
    spec = importlib.util.spec_from_file_location(f"_script_{path.stem}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    assert callable(module.main)


@pytest.mark.parametrize("name", fracrd.__all__)
def test_package_export_resolves(name):
    assert hasattr(fracrd, name)
