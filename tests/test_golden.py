"""Output digests of the command line on the fixtures and the test corpus.

``golden/cli_digests.json`` holds one sha256 per call, with its exit code:
``analyze --json``, the text report and ``analyze --self-check`` on every
fixture and corpus model, and ``certify --horizon 400`` at seven values of
lambda on every fixture.  Floats in certificates are rounded to 9
significant digits before hashing.  A refactor that changes any output
fails here.
"""

import hashlib
import io
import json
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

from ckspec.cli import main
from ckspec.fixtures import NAMES, fixture_text
from ckspec.model import model_to_json

from _corpus import corpus

GOLDEN = Path(__file__).parent / "golden" / "cli_digests.json"
LAMBDAS = ["3,0", "1/2,0", "1,0", "0,1", "-2,0", "9/8,0", "3/5,4/5"]


def _round(x):
    if isinstance(x, float):
        return float(f"{x:.9g}")
    if isinstance(x, dict):
        return {k: _round(v) for k, v in x.items()}
    if isinstance(x, list):
        return [_round(v) for v in x]
    return x


def _run(argv: list[str], round_floats: bool) -> dict:
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    text = out.getvalue()
    if round_floats and text:
        text = json.dumps(_round(json.loads(text)), sort_keys=True)
    blob = (text + "\0" + err.getvalue()).encode("utf-8")
    return {"sha256": hashlib.sha256(blob).hexdigest(), "exit": code}


def _calls(tmp: Path):
    """(label, argv, round_floats) for every recorded call."""
    paths = {}
    for name in NAMES:
        paths[name] = tmp / f"{name}.json"
        paths[name].write_text(fixture_text(name), "utf-8")
    for m in corpus():
        paths[m.name] = tmp / f"{m.name}.json"
        paths[m.name].write_text(model_to_json(m), "utf-8")
    for name, path in paths.items():
        for flag in ("--json", "--text", "--self-check"):
            yield f"analyze {flag} {name}", ["analyze", str(path), flag], False
    for name in NAMES:
        for lam in LAMBDAS:
            yield (f"certify {name} {lam}",
                   ["certify", str(paths[name]), f"--lambda={lam}",
                    "--horizon", "400"], True)


def digests(tmp: Path) -> dict:
    return {label: _run(argv, r) for label, argv, r in _calls(tmp)}


def test_cli_output_matches_golden_digests(tmp_path):
    want = json.loads(GOLDEN.read_text("utf-8"))
    got = digests(tmp_path)
    assert sorted(got) == sorted(want)
    changed = [label for label in want if got[label] != want[label]]
    assert changed == [], f"{len(changed)} calls changed output: {changed[:10]}"
