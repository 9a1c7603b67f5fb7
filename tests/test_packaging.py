"""ckspec runs on the standard library alone."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import ckspec

ROOT = Path(__file__).resolve().parents[1]

_SELF_CHECK_EVERY_FIXTURE = """
import os, sys
sys.modules["mpmath"] = None  # any import of mpmath now fails
import ckspec
from ckspec.cli import main
from ckspec.fixtures import NAMES, fixture_text
for name in NAMES:
    path = os.path.join(sys.argv[1], name + ".json")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(fixture_text(name))
    assert main(["analyze", path, "--self-check"]) == 0, name
"""


def test_runs_without_mpmath(tmp_path):
    src = str(Path(ckspec.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + [p for p in [env.get("PYTHONPATH")] if p])
    run = subprocess.run(
        [sys.executable, "-c", _SELF_CHECK_EVERY_FIXTURE, str(tmp_path)],
        env=env, capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stderr


def test_no_runtime_dependencies():
    tomllib = pytest.importorskip("tomllib")  # Python 3.11+
    with open(ROOT / "pyproject.toml", "rb") as fh:
        project = tomllib.load(fh)["project"]
    assert project["dependencies"] == []
