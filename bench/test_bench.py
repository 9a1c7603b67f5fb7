"""Tests of the benchmark's own code: the generator, the checks and the tracer.

    PYTHONPATH=src python -m pytest -q bench
"""

import copy
import json
import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(HERE), "src"), HERE]

import checks  # noqa: E402
import gen  # noqa: E402
import run  # noqa: E402
from ckspec import cli  # noqa: E402


def _output(op, tmp_path):
    (path,) = gen.write_models([op], str(tmp_path))
    code, _, out, err = run.call(cli.main, op.argv(path))
    assert checks.check(op, code, out, err) == []
    return json.loads(out)


@pytest.mark.parametrize("workload", gen.WORKLOADS)
def test_generator_gives_identical_files_for_a_seed(workload, tmp_path):
    first = gen.write_models(gen.build(workload, 7, 4), str(tmp_path / "a"))
    second = gen.write_models(gen.build(workload, 7, 4), str(tmp_path / "b"))
    other = [json.dumps(op.builder.doc()) for op in gen.build(workload, 8, 4)]
    for p, q in zip(first, second):
        with open(p, "rb") as fa, open(q, "rb") as fb:
            assert fa.read() == fb.read()
    mine = [json.dumps(op.builder.doc()) for op in gen.build(workload, 7, 4)]
    assert mine != other


def test_report_checks_reject_a_changed_radius(tmp_path):
    op = gen.build("longperiod", 3, 1)[0]
    rep = _output(op, tmp_path)
    bad = copy.deepcopy(rep)
    bad["critical_radii"][-1][0] += 1
    assert any("critical radii" in p for p in checks.check_report(op, bad))
    bad = copy.deepcopy(rep)
    bad["sigma"]["annuli"][-1][1][0] += 1
    assert any("spectral radius" in p for p in checks.check_report(op, bad))
    bad = copy.deepcopy(rep)
    bad["sigma_5"]["annuli"][-1][1][0] += 1
    assert any("outer radius" in p for p in checks.check_report(op, bad))


def test_report_checks_reject_a_dropped_or_foreign_root_set(tmp_path):
    op = gen.build("longperiod", 3, 1)[0]
    rep = _output(op, tmp_path)
    assert len(rep["sigma_l"]["root_sets"]) == 2  # P1 and P2
    bad = copy.deepcopy(rep)
    bad["sigma_l"]["root_sets"].pop()
    assert any("no root set" in p for p in checks.check_report(op, bad))
    bad = copy.deepcopy(rep)
    bad["sigma_l"]["root_sets"][0][0] += 1
    assert any("no bare cycle's" in p for p in checks.check_report(op, bad))


@pytest.mark.parametrize("k", range(len(gen.CERTIFY_ROUND)))
def test_certificate_checks_reject_a_failed_pass_or_wrong_kind(k, tmp_path):
    op = gen.build("certify", 5, k + 1)[k]
    cert = _output(op, tmp_path)
    bad = dict(cert, **{"pass": False})
    assert any("did not pass" in p for p in checks.check_certificate(op, bad))
    wrong = "CHAIN_DIMS" if cert["kind"] != "CHAIN_DIMS" else "IN_upper"
    bad = dict(cert, kind=wrong)
    assert any("kind" in p for p in checks.check_certificate(op, bad))


def test_certificate_checks_reject_a_wrong_route(tmp_path):
    op = gen.build("certify", 5, 3)[2]  # the root-separation draw
    cert = _output(op, tmp_path)
    bad = copy.deepcopy(cert)
    bad["details"]["B"]["route"] = "neumann"
    assert any("routes" in p for p in checks.check_certificate(op, bad))


def test_a_failed_call_is_a_failed_check():
    op = gen.build("analyze", 1, 1)[0]
    assert checks.check(op, 1, "", "error: no such file") != []


def test_tracer_counts_spans_and_restores_every_entry_point(tmp_path):
    from spans import LAYERS, Tracer
    op = gen.build("certify", 2, 2)[1]  # a Neumann draw
    (path,) = gen.write_models([op], str(tmp_path))
    originals = (cli.essential_spectra, cli.out_certificate, json.dumps)
    tracer = Tracer()
    tracer.install()
    try:
        code, _, out, err = run.call(tracer.op(cli.main), op.argv(path))
    finally:
        tracer.uninstall()
    assert checks.check(op, code, out, err) == []
    assert (cli.essential_spectra, cli.out_certificate, json.dumps) == originals
    s = tracer.summary()
    assert s["op"]["calls"] == 1
    assert s["spectra.essential"]["calls"] == 1
    assert s["oracle.out_cert"]["calls"] == 1
    assert tracer.out_cert_n == 8  # C+D reaches its Neumann margin at n = 8
    busy = sum(v["busy_s"] for v in s.values())
    root = tracer.end[0] - tracer.start[0]
    assert busy == pytest.approx(root, rel=1e-6)  # self times partition the op
    assert set(s) <= set(LAYERS) | {"op"}
