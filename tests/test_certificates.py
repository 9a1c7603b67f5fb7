import math
import time
from fractions import Fraction

import pytest

from ckspec.cli import main
from ckspec.exact import CirclePoint, QPoint, RationalComplex
from ckspec.fixtures import load_fixture
from ckspec.model import (Anchor, Cycle, OrbitModel, Ray, model_to_json,
                          validate)
from ckspec.oracle import (MarginNotReached, NoEligibleOrbit, in_certificate,
                           out_certificate)

RC = RationalComplex.of
Q = QPoint.of


def test_half_upper_certificate_decays():
    m = load_fixture("half")
    lam = Q(0, 1)  # alpha = i on the unit circle
    res = [in_certificate(m, lam, "upper", horizon=n).residual_ratio
           for n in (100, 1000, 10000)]
    assert res[0] > res[1] > res[2]
    assert res[2] <= 0.02
    for n, r in zip((100, 1000, 10000), res):
        assert r <= 5 / math.sqrt(n)


def test_half_lower_certificate():
    m = load_fixture("half")
    c = in_certificate(m, Q(0, 1), "lower", horizon=2000)
    assert c.kind == "IN_lower" and c.passed
    assert c.residual_ratio <= 5 / math.sqrt(2000)


def test_ray1_circle_certificate():
    m = load_fixture("ray1")
    res = [in_certificate(m, Q(1), "upper", horizon=n).residual_ratio
           for n in (100, 1000, 10000)]
    assert res[0] > res[1] > res[2]


def test_two_sided_alpha_end_certificate():
    m = load_fixture("twocyc")
    lam = Q(0, Fraction(1, 2))  # on the inner critical circle, angle pi/2
    c_up = in_certificate(m, lam, "upper", horizon=400)
    c_dn = in_certificate(m, lam, "lower", horizon=400)
    assert c_up.passed and c_dn.passed
    lam2 = Q(-2)  # outer circle
    assert in_certificate(m, lam2, "upper", horizon=400).passed
    assert in_certificate(m, lam2, "lower", horizon=400).passed


def test_irrational_circle_certificate():
    # period-3 cycle with radius 90^(1/3): certify at an exact circle point
    p = Cycle("P", (RC(1), RC(2), RC(45)))
    f = Cycle("F", (RC(1),))
    m = validate(OrbitModel("t", (p, f), (
        Ray("r", "forward", 1, Anchor("P", 0)),
        Ray("fw", "forward", 1, Anchor("F", 0)))))
    r = p.gm()
    assert r.rational_value() is None
    lam = CirclePoint(r, RC(Fraction(3, 5), Fraction(4, 5)))
    c = in_certificate(m, lam, "upper", horizon=4000)
    assert c.passed


def test_disk_interior_eigenvector_certificate():
    m = load_fixture("half")
    c = in_certificate(m, Q(Fraction(1, 2)), "upper", horizon=200)
    assert c.passed and c.residual_ratio < 1e-12
    assert c.details.get("exact_eigenvector")


def test_zero_witness_certificates():
    m = load_fixture("half")
    c = in_certificate(m, Q(0), "upper", horizon=100)
    assert c.passed and c.residual_ratio == 0.0
    bz = load_fixture("bundlezero")
    c2 = in_certificate(bz, Q(0), "lower", horizon=100)
    assert c2.passed and c2.residual_ratio == 0.0


def test_no_eligible_orbit():
    m = load_fixture("ray1")
    with pytest.raises(NoEligibleOrbit):
        in_certificate(m, Q(5), "upper", horizon=100)


def test_out_neumann():
    m = load_fixture("half")
    c = out_certificate(m, Q(2), horizon=200)
    assert c.passed and c.margin < 1
    assert all(v["route"] == "neumann" for v in c.details.values())
    assert c.details["F"]["n"] == 1


def test_out_per3_and_twocyc():
    c = out_certificate(load_fixture("per3_isolated"), Q(3), horizon=200)
    assert c.passed and c.details["P"]["n"] <= 64
    c2 = out_certificate(load_fixture("twocyc"), Q(4), horizon=200)
    assert c2.passed


def test_out_inverse_regime():
    a = Cycle("A", (RC(1),))
    b = Cycle("B", (RC(2),))
    f = Cycle("F", (RC(Fraction(1, 4)),))
    m = validate(OrbitModel("ladder", (a, b, f), (
        Ray("s", "two_sided", 1, Anchor("B", 0), Anchor("A", 0)),
        Ray("r", "forward", 1, Anchor("F", 0)))))
    c = out_certificate(m, Q(Fraction(1, 2)), horizon=200)
    assert c.passed
    assert c.details["A+B"]["route"] == "inverse"
    assert c.details["A+B"]["kernel_checked"]


def test_out_root_separation():
    m = load_fixture("per3_isolated")
    # on the radius-2 circle but away from the cube roots of 8
    c = out_certificate(m, Q(-2), horizon=200)
    assert c.passed
    assert c.details["P"]["route"] == "root_separation"


def test_out_rejects_zero_and_uncovered():
    m = load_fixture("half")
    with pytest.raises(MarginNotReached):
        out_certificate(m, Q(0), horizon=200)


def test_margin_not_reached_inside_spectrum():
    m = load_fixture("half")
    with pytest.raises(MarginNotReached):
        out_certificate(m, Q(Fraction(1, 2)), horizon=50)


def test_out_certificate_cost_does_not_grow_with_override_depth(tmp_path, capsys):
    # one cycle of weight 1 under a forward ray with weight 2 at index d: at
    # |lam| = 9/8 the Neumann bound holds once 2**2 is spread over n >= 8
    # steps, however deep the override sits
    outs = []
    for d in (3_000, 3_000_000):
        m = validate(OrbitModel("deep", (Cycle("A", (RC(1),)),), (
            Ray("R", "forward", 1, Anchor("A", 0),
                exceptional=((d, RC(2)),)),)))
        path = tmp_path / f"deep{d}.json"
        path.write_text(model_to_json(m), "utf-8")
        start = time.process_time()
        assert main(["certify", str(path), "--lambda=9/8,0"]) == 0
        elapsed = time.process_time() - start
        outs.append(capsys.readouterr().out)
    assert '"route": "neumann"' in outs[0] and '"pass": true' in outs[0]
    assert outs[1] == outs[0]
    assert elapsed < 1.0, f"certify at depth 3,000,000 took {elapsed:.2f} s"
