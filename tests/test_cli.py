import json
import math
import os
import re
import subprocess
import sys
import time
import xml.etree.ElementTree as ET
from pathlib import Path

import pytest

import ckspec
from ckspec.cli import build_parser, main
from ckspec.fixtures import NAMES, fixture_text
from ckspec.model import model_to_json, parse_model_json
from ckspec.oracle import DEFAULT_HORIZON

from _corpus import malformed_weights

GOLDEN_SVG = Path(__file__).parent / "golden" / "svg"


@pytest.fixture
def fixture_file(tmp_path):
    def save(name):
        path = tmp_path / f"{name}.json"
        path.write_text(fixture_text(name), "utf-8")
        return str(path)
    return save


def test_fixtures_list(capsys):
    assert main(["fixtures", "list"]) == 0
    out = capsys.readouterr().out.split()
    assert out == NAMES


def test_fixtures_emit_roundtrip(capsys):
    assert main(["fixtures", "emit", "half"]) == 0
    text = capsys.readouterr().out
    m = parse_model_json(text)
    assert m.name == "half"


def test_analyze_text(fixture_file, capsys):
    assert main(["analyze", fixture_file("half")]) == 0
    out = capsys.readouterr().out
    assert "sigma_1" in out and "disk r<=1" in out


def test_analyze_json(fixture_file, capsys):
    assert main(["analyze", fixture_file("ray1"), "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["model"] == "ray1"
    assert doc["sigma"]["annuli"] == [[[0, 1, 1], [1, 1, 1]]]


def test_analyze_self_check_all_fixtures(fixture_file):
    for name in NAMES:
        assert main(["analyze", fixture_file(name), "--self-check"]) == 0


def test_analyze_svg(fixture_file, tmp_path, capsys):
    out = tmp_path / "plot.svg"
    assert main(["analyze", fixture_file("per3_isolated"),
                 "--svg", str(out)]) == 0
    assert out.read_text("utf-8").startswith("<svg")


def test_exit_code_input_errors(tmp_path, capsys):
    missing = str(tmp_path / "nope.json")
    assert main(["analyze", missing]) == 1
    bad = tmp_path / "bad.json"
    bad.write_text('{"name": "x", "cycles": [], "rays": [], "zzz": 0}', "utf-8")
    assert main(["analyze", str(bad)]) == 1
    err = capsys.readouterr().err
    assert "zzz" in err
    noweight = tmp_path / "den.json"
    noweight.write_text(json.dumps({
        "name": "x",
        "cycles": [{"id": "a", "weights": [[1, 0, 0, 1]]}],
        "rays": [{"id": "r", "kind": "forward", "multiplicity": 1,
                  "omega": {"cycle": "a", "phase": 0}}]}), "utf-8")
    assert main(["analyze", str(noweight)]) == 1
    capsys.readouterr()

    ok = json.loads(fixture_text("zero"))
    dup = json.loads(fixture_text("zero"))
    index = dup["rays"][0]["exceptional"][0][0]
    dup["rays"][0]["exceptional"].append([index, 2, 1, 0, 1])
    not_list = dict(ok, cycles=5)
    bad_anchor = json.loads(fixture_text("zero"))
    bad_anchor["rays"][0]["omega"] = "C"
    bad_exceptional = json.loads(fixture_text("zero"))
    bad_exceptional["rays"][0]["exceptional"] = 3
    for doc, where in [(dup, "duplicate exceptional index"),
                       (not_list, "cycles: must be a list"),
                       (bad_anchor, "omega: must be an object"),
                       (bad_exceptional, "exceptional: must be a list")]:
        path = tmp_path / "case.json"
        path.write_text(json.dumps(doc), "utf-8")
        assert main(["analyze", str(path)]) == 1
        assert where in capsys.readouterr().err
    latin = tmp_path / "latin.json"
    latin.write_bytes(fixture_text("half").replace('"half"', '"hélf"')
                      .encode("latin-1"))
    assert main(["analyze", str(latin)]) == 1
    assert "not UTF-8" in capsys.readouterr().err
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 100_000 + "]" * 100_000, "utf-8")
    assert main(["analyze", str(deep)]) == 1
    assert "unreadable JSON" in capsys.readouterr().err
    assert main(["analyze", str(tmp_path)]) == 1
    assert "error:" in capsys.readouterr().err
    assert main(["fixtures", "emit", "nope"]) == 1
    assert "half" in capsys.readouterr().err
    half = tmp_path / "half.json"
    half.write_text(fixture_text("half"), "utf-8")
    for horizon in ("3", "1", "0", "-5"):
        for lam in ("0,1", "3,0"):  # an IN and an OUT certificate
            assert main(["certify", str(half), "--lambda", lam,
                         "--horizon", horizon]) == 1
            assert "--horizon" in capsys.readouterr().err
    # usage errors are input errors too: argparse alone would exit 2, the
    # code of an internal inconsistency
    for argv, where in [(["certify", str(half)], "--lambda"),
                        (["certify", "--lambda=0,1"], "model"),
                        (["certify", str(half), "--lambda=0,1",
                          "--horizon", "abc"], "--horizon"),
                        (["certify", str(half), "--lambda=0,1",
                          "--eps", "1e-3"], "--eps")]:
        assert main(argv) == 1, argv
        assert where in capsys.readouterr().err
    with pytest.raises(SystemExit) as help_exit:
        main(["certify", "--help"])
    assert help_exit.value.code == 0
    assert "--horizon" in capsys.readouterr().out


def test_malformed_weights_exit_1_with_a_located_message(tmp_path, capsys):
    path = tmp_path / "bad.json"
    for case, text, prefix in malformed_weights():
        path.write_text(text, "utf-8")
        assert main(["analyze", str(path)]) == 1, case
        err = capsys.readouterr().err
        assert err.startswith(f"error: {prefix}: "), (case, err)
        assert "Traceback" not in err, case



def _twocyc_with(edit):
    doc = json.loads(fixture_text("twocyc"))  # rays[0] two-sided S, rays[1] forward R
    edit(doc)
    return json.dumps(doc)


_INPUT_ERRORS = {
    "unknown-kind": (lambda d: d["rays"][1].update(kind="sideways"),
                     "ray 'R': unknown kind 'sideways'"),
    "two-sided-multiplicity": (lambda d: d["rays"][0].update(multiplicity=2),
                               "two-sided ray 'S' must have multiplicity 1"),
    "forward-alpha": (lambda d: d["rays"][1].update(alpha={"cycle": "B",
                                                           "phase": 0}),
                      "forward ray 'R' cannot carry an alpha anchor"),
    "multiplicity-0": (lambda d: d["rays"][1].update(multiplicity=0),
                       "ray 'R': bad multiplicity"),
    "multiplicity-minus-1": (lambda d: d["rays"][1].update(multiplicity=-1),
                             "ray 'R': bad multiplicity"),
    "negative-index": (lambda d: d["rays"][1].update(
        exceptional=[[-1, 2, 1, 0, 1]]), "ray 'R': negative exceptional index"),
    "missing-key": (lambda d: d["rays"][1].pop("kind"),
                    "rays[1]: missing key 'kind'"),
    "empty-weights": (lambda d: d["cycles"][0].update(weights=[]),
                      "cycles[0]: weights must be a nonempty list"),
    "multiplicity-1.5": (lambda d: d["rays"][1].update(multiplicity=1.5),
                         'rays[1]: multiplicity must be an int or "omega"'),
    "multiplicity-string": (lambda d: d["rays"][1].update(multiplicity="2"),
                            'rays[1]: multiplicity must be an int or "omega"'),
    "phase-string": (lambda d: d["rays"][1]["omega"].update(phase="0"),
                     "rays[1].omega: phase must be an int"),
}


@pytest.mark.parametrize("case", sorted(_INPUT_ERRORS))
def test_invalid_models_exit_1_with_a_located_message(case, tmp_path, capsys):
    edit, message = _INPUT_ERRORS[case]
    path = tmp_path / "bad.json"
    path.write_text(_twocyc_with(edit), "utf-8")
    assert main(["analyze", str(path)]) == 1
    out, err = capsys.readouterr()
    assert out == "" and err == f"error: {message}\n"


@pytest.mark.parametrize("weights, lam", [
    ([[10**400, 1, 0, 1]], f"{10**400},0"),
    ([[10**400, 1, 0, 1], [1, 10**400, 0, 1]], "1,0"),
], ids=["lambda", "weight"])
def test_certify_beyond_the_float_range_is_a_certificate_failure(
        weights, lam, tmp_path, capsys):
    # one cycle under a forward ray, lambda on its circle: the IN bump is
    # evaluated in floats, and lambda or a weight does not fit one
    path = tmp_path / "big.json"
    path.write_text(json.dumps({
        "name": "big", "cycles": [{"id": "C", "weights": weights}],
        "rays": [{"id": "R", "kind": "forward", "multiplicity": 1,
                  "omega": {"cycle": "C", "phase": 0}}]}), "utf-8")
    assert main(["analyze", str(path), "--self-check"]) == 0
    capsys.readouterr()
    assert main(["certify", str(path), f"--lambda={lam}"]) == 3
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("certificate failure: ")
    assert "beyond the float range" in err and err.count("\n") == 1

@pytest.fixture
def digit_cap():
    """Python's default cap on int <-> str conversion, restored afterwards."""
    saved = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    yield 4300
    sys.set_int_max_str_digits(saved)


def test_analyze_weights_beyond_the_int_digit_limit(fixture_file, tmp_path,
                                                    capsys, digit_cap):
    # a weight of any size is valid, so the CLI lifts the cap for its own
    # parse and print and then puts it back
    ten = "1" + "0" * 5000  # 10**5000, written without int -> str

    def half_with_weight(name, num, den):
        path = tmp_path / f"{name}.json"
        path.write_text(fixture_text("half").replace(
            "[1, 1, 0, 1]", f"[{num}, {den}, 0, 1]"), "utf-8")
        return str(path)

    one = half_with_weight("one", ten, ten)  # 10**5000 / 10**5000 == 1
    for fmt in ("--json", "--text"):
        assert main(["analyze", fixture_file("half"), fmt]) == 0
        want = capsys.readouterr()
        assert main(["analyze", one, fmt]) == 0
        assert capsys.readouterr() == want
    above = half_with_weight("above", ten[:-1] + "1", ten)
    assert main(["analyze", above, "--json"]) == 0
    out, err = capsys.readouterr()
    assert err == "" and re.search(r"\d{10000}", out)
    # the self-check takes integer roots of these 5,000-digit numbers
    start = time.perf_counter()
    assert main(["analyze", above, "--self-check"]) == 0
    assert time.perf_counter() - start < 5
    assert capsys.readouterr().err == ""
    assert sys.get_int_max_str_digits() == digit_cap


def _cli_process(*args, **kwargs) -> subprocess.Popen:
    """``ckspec`` in a fresh interpreter, importing this checkout."""
    src = str(Path(ckspec.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + [p for p in [env.get("PYTHONPATH")] if p])
    code = "import sys; from ckspec.cli import main; sys.exit(main())"
    return subprocess.Popen([sys.executable, "-c", code, *args], env=env,
                            stderr=subprocess.PIPE, **kwargs)


def test_closed_stdout_is_no_input_error(fixture_file):
    # the reader of the pipe is gone before the report is written
    for args in (["analyze", fixture_file("half"), "--self-check"],
                 ["analyze", fixture_file("per3_isolated"), "--json"],
                 ["fixtures", "list"]):
        proc = _cli_process(*args, stdout=subprocess.PIPE)
        proc.stdout.close()
        err = proc.stderr.read()
        proc.stderr.close()
        assert proc.wait(timeout=60) == 0, (args, err)
        assert err == b"", args


def test_one_parser_serves_every_call_of_a_process(fixture_file, capsys):
    half = fixture_file("half")
    assert main(["certify", half]) == 1  # --lambda is required
    assert "--lambda" in capsys.readouterr().err
    with pytest.raises(SystemExit) as info:
        main(["certify", "--help"])
    assert info.value.code == 0
    assert f"(default {DEFAULT_HORIZON})" in capsys.readouterr().out
    assert main(["analyze", "--bogus"]) == 1
    capsys.readouterr()
    # after those, a call prints what a fresh interpreter prints
    for args in (["analyze", half, "--json"],
                 ["certify", half, "--lambda=9/8,0", "--horizon", "400"]):
        code = main(args)
        out = capsys.readouterr().out
        proc = _cli_process(*args, stdout=subprocess.PIPE)
        fresh, err = proc.communicate(timeout=60)
        assert (code, out) == (proc.returncode, fresh.decode()), (args, err)
    assert build_parser.cache_info().misses == 1


def test_missing_model_file_is_an_input_error(tmp_path):
    missing = str(tmp_path / "nope.json")
    proc = _cli_process("analyze", missing, stdout=subprocess.DEVNULL)
    err = proc.stderr.read().decode()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 1
    assert err.startswith("error: ") and "nope.json" in err


def test_certify_in(fixture_file, capsys):
    assert main(["certify", fixture_file("half"), "--lambda", "0/1,1/1",
                 "--horizon", "2000"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["kind"] == "IN_upper" and doc["pass"]


def test_certify_out(fixture_file, capsys):
    assert main(["certify", fixture_file("half"), "--lambda", "3/1,0/1"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["kind"] == "OUT_neumann" and doc["margin"] < 1


def test_certify_out_margins_beyond_float_range(tmp_path, capsys):
    # |lambda|**2 / inf|w_1|**2 == 4 / 10**800 is far below the smallest
    # double; the margins come from the exact ratio, which is below 1
    path = tmp_path / "bigbare.json"
    path.write_text(json.dumps({
        "name": "bigbare",
        "cycles": [{"id": "F", "weights": [[1, 1, 0, 1]]},
                   {"id": "B", "weights": [[10**400, 1, 0, 1]]}],
        "rays": [{"id": "R", "kind": "forward", "multiplicity": 1,
                  "omega": {"cycle": "F", "phase": 0}}]}), "utf-8")
    assert main(["certify", str(path), "--lambda=2,0"]) == 0
    out, err = capsys.readouterr()
    doc = json.loads(out)
    assert err == "" and doc["kind"] == "OUT_neumann" and doc["pass"]
    assert doc["details"]["F"]["route"] == "neumann"
    assert doc["details"]["F"]["margin"] == 0.5
    assert doc["details"]["B"]["route"] == "inverse"
    assert 0 <= doc["details"]["B"]["margin"] < 1


def test_certify_chain_record(fixture_file, capsys):
    assert main(["certify", fixture_file("ray1"), "--lambda", "1/2,0/1"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["kind"] == "CHAIN_DIMS"
    assert doc["details"]["index"] == 1
    assert doc["details"]["in_sigma"] is True


def test_certify_bad_lambda(fixture_file, capsys):
    assert main(["certify", fixture_file("half"), "--lambda", "zzz"]) == 1


def test_parse_emit_parse_identity(fixture_file):
    for name in NAMES:
        m = parse_model_json(fixture_text(name))
        text = model_to_json(m)
        assert model_to_json(parse_model_json(text)) == text


def test_certify_negative_lambda(fixture_file, capsys):
    path = fixture_file("half")
    assert main(["certify", path, "--lambda=-9/8,0"]) == 0
    joined = capsys.readouterr().out
    assert main(["certify", path, "--lambda", "-9/8,0"]) == 0
    assert capsys.readouterr().out == joined
    assert json.loads(joined)["kind"] == "OUT_neumann"
    assert main(["certify", path, "--lambda", "-1/2,-1/1"]) == 0
    assert json.loads(capsys.readouterr().out)["lambda"] == "-1/2-1i"


def test_analyze_self_check_radii_closer_than_a_double(tmp_path):
    # cycle radii 1 and 1 + 10**-20 round to the same double; the stratum
    # between them still gets an exact sample
    path = tmp_path / "near.json"
    path.write_text(json.dumps({
        "name": "near",
        "cycles": [{"id": "A", "weights": [[1, 1, 0, 1]]},
                   {"id": "B", "weights": [[10**20 + 1, 10**20, 0, 1]]}],
        "rays": [{"id": "R", "kind": "forward", "multiplicity": 1,
                  "omega": {"cycle": "A", "phase": 0}},
                 {"id": "S", "kind": "two_sided", "multiplicity": 1,
                  "omega": {"cycle": "B", "phase": 0},
                  "alpha": {"cycle": "A", "phase": 0}}]}), "utf-8")
    assert main(["analyze", str(path), "--self-check"]) == 0


_SVG_NUMBER = re.compile(r"-?\d+(?:\.\d+)?(?:e-?\d+)?")


def test_analyze_svg_radius_beyond_float_range(tmp_path, capsys):
    # a bare cycle of weight 10**400 beside a forward ray on a weight-1
    # cycle: its radius has no float, but its ratio to itself does
    path = tmp_path / "huge.json"
    path.write_text(json.dumps({
        "name": "huge",
        "cycles": [{"id": "A", "weights": [[1, 1, 0, 1]]},
                   {"id": "B", "weights": [[10**400, 1, 0, 1]]}],
        "rays": [{"id": "R", "kind": "forward", "multiplicity": 1,
                  "omega": {"cycle": "A", "phase": 0}}]}), "utf-8")
    out = tmp_path / "huge.svg"
    assert main(["analyze", str(path), "--svg", str(out)]) == 0
    capsys.readouterr()
    root = ET.fromstring(out.read_text("utf-8"))
    assert root.tag == "{http://www.w3.org/2000/svg}svg"
    # the root 10**400 sits on the rim of the sigma panel, at 108 px
    dots = [c for c in root.iter("{http://www.w3.org/2000/svg}circle")
            if c.get("fill") == "#d62728"]
    assert dots and float(dots[0].get("cx")) == 120.0 + 108.0


def test_analyze_svg_fixtures_match_recorded_plots(fixture_file, tmp_path, capsys):
    # golden/svg holds the plots of an earlier release, which converted
    # each radius to a float before scaling it
    for name in NAMES:
        out = tmp_path / f"{name}.svg"
        assert main(["analyze", fixture_file(name), "--svg", str(out)]) == 0
        got = out.read_text("utf-8")
        want = (GOLDEN_SVG / f"{name}.svg").read_text("utf-8")
        assert _SVG_NUMBER.sub("#", got) == _SVG_NUMBER.sub("#", want), name
        pairs = zip(_SVG_NUMBER.findall(got), _SVG_NUMBER.findall(want))
        assert all(math.isclose(float(a), float(b), rel_tol=1e-9)
                   for a, b in pairs), name
    capsys.readouterr()
