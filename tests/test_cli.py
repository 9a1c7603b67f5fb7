import json

import pytest

from ckspec.cli import main
from ckspec.fixtures import NAMES, fixture_text
from ckspec.model import model_to_json, parse_model_json


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


def test_certify_in(fixture_file, capsys):
    assert main(["certify", fixture_file("half"), "--lambda", "0/1,1/1",
                 "--horizon", "2000"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["kind"] == "IN_upper" and doc["pass"]


def test_certify_out(fixture_file, capsys):
    assert main(["certify", fixture_file("half"), "--lambda", "3/1,0/1"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["kind"] == "OUT_neumann" and doc["margin"] < 1


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
