import math
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from ckspec.cli import main
from ckspec.exact import CirclePoint, QPoint, RationalComplex, RootPoint
from ckspec.fixtures import NAMES, load_fixture
from ckspec.model import (OMEGA, Anchor, Cycle, OrbitModel, Ray,
                          model_to_json, validate)
from ckspec.oracle import (DEFAULT_HORIZON, MarginNotReached, NoEligibleOrbit,
                           _abs2_streams, _components, _extreme_abs2_wn,
                           _submodel, chain_kernel_dim, in_certificate,
                           out_certificate)
from ckspec.spectra import essential_spectra, sample_grid

from _corpus import corpus, ladder

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


@pytest.mark.parametrize("c", [Fraction(1, 10), Fraction(6), Fraction(100)],
                         ids=str)
def test_in_certificates_pass_at_every_scale_of_lambda(c):
    # one cycle of weight c under a forward ray: lam = c lies on its circle,
    # and the bump's residual ratio grows like |lam|/sqrt(n)
    m = validate(OrbitModel("c", (Cycle("C", (RC(c),)),),
                            (Ray("R", "forward", 1, Anchor("C", 0)),)))
    for side in ("upper", "lower"):
        cert = in_certificate(m, Q(c), side, horizon=400)
        assert cert.passed, (side, cert.residual_ratio)


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


# ---------------------------------------------------------------------------
# IN certificates against the three bump loops that one builder replaced:
# each loop is kept here as it was, with its own period reader and witness
# search, and the floats must agree bit for bit


def _ref_locked_weights(m, ray, base):
    anchor = ray.omega if ray.is_forward or base >= 0 else ray.alpha
    per = [w.to_complex() for w in m.cycle(anchor.cycle).weights]
    return lambda i: per[(anchor.phase + i) % len(per)]


def _ref_upper_window(m, lam, ray, base, n):
    lamc = lam.to_complex()
    s = 1.0 / math.sqrt(n)
    anchor = ray.omega if ray.is_forward or base >= 0 else ray.alpha
    per = [v.to_complex() for v in m.cycle(anchor.cycle).weights]
    w = [per[(anchor.phase + base - i) % len(per)] for i in range(2 * n + 2)]
    coeff = []
    u = 1.0 + 0.0j
    for i in range(0, 2 * n + 1):
        if i > 0:
            u = u * w[i] / lamc
        coeff.append((1.0 - s) ** abs(i - n) * u)
    norm = max(abs(c) for c in coeff)
    pad = [0.0, *coeff, 0.0]
    resid = 0.0
    for i in range(2 * n + 1, -1, -1):
        tv = w[i] * pad[i] - lamc * pad[i + 1]
        resid = max(resid, abs(tv))
    return resid / norm


def _ref_lower_window(m, lam, ray, base, n):
    lamc = lam.to_complex()
    s = 1.0 / math.sqrt(n)
    w = _ref_locked_weights(m, ray, base)
    coeff = {}
    u = 1.0 + 0.0j
    for i in range(0, 2 * n + 1):
        if i > 0:
            u = u * w(base + i - 1) / lamc
        coeff[base + i] = (1.0 - s) ** abs(i - n) * u
    norm = sum(abs(c) for c in coeff.values())
    resid = 0.0
    for j in range(base, base + 2 * n + 2):
        tv = w(j - 1) * coeff.get(j - 1, 0.0) if j - 1 in coeff else 0.0
        tv -= lamc * coeff.get(j, 0.0)
        resid += abs(tv)
    return resid / norm


def _ref_eigenvector(m, lam, ray, n):
    lamc = lam.to_complex()
    w = _ref_locked_weights(m, ray, 0)
    coeff = {0: 1.0 + 0.0j}
    for i in range(n):
        coeff[i + 1] = lamc * coeff[i] / w(i)
    norm = max(abs(c) for c in coeff.values())
    resid = 0.0
    for j in range(0, n + 1):
        tv = w(j) * coeff.get(j + 1, 0.0) - lamc * coeff[j]
        resid = max(resid, abs(tv))
    return resid / norm


def _ref_in_certificate(m, lam, side, n):
    """(kind, residual ratio, details) of the witness the loops chose, or
    None where they found none."""
    kind = "IN_upper" if side == "upper" else "IN_lower"
    bump = _ref_upper_window if side == "upper" else _ref_lower_window
    r = lam.modulus()
    for cid, cyc in m.cycles.items():
        if cyc.gm() != r:
            continue
        for ray in m.rays_into(cid):
            _, lock_pos = m.lock_bounds(ray)
            base = lock_pos + 2 * n + 1 if side == "upper" else lock_pos
            return kind, bump(m, lam, ray, base, n), {"ray": ray.id,
                                                      "base_index": base}
        for ray in m.incident_rays(cid):
            if not ray.is_two_sided:
                continue
            lock_neg, lock_pos = m.lock_bounds(ray)
            on_omega = ray.omega.cycle == cid
            if side == "upper":
                base = lock_pos + 2 * n + 1 if on_omega else lock_neg
            else:
                base = lock_pos if on_omega else lock_neg - 2 * n - 1
            return kind, bump(m, lam, ray, base, n), {"ray": ray.id,
                                                      "base_index": base}
    if side == "upper":
        for ray in m.forward_rays():
            if ray.multiplicity == OMEGA and r < m.cycle(ray.omega.cycle).gm():
                return kind, _ref_eigenvector(m, lam, ray, n), {
                    "ray": ray.id, "exact_eigenvector": True}
    return None


def _assert_in_certificates_match_the_loops(m):
    """Every nonzero sample_grid point, both sides, horizons 4, 37, 400.
    Returns the number of certificates compared.  (At 0 the witnesses are
    exact, with residual 0, and no bump is built.)"""
    compared = 0
    for lam in sample_grid(m):
        if lam.is_zero:
            continue
        for side in ("upper", "lower"):
            for n in (4, 37, 400):
                where = (m.name, str(lam), side, n)
                want = _ref_in_certificate(m, lam, side, n)
                if want is None:
                    with pytest.raises(NoEligibleOrbit):
                        in_certificate(m, lam, side, horizon=n)
                    continue
                kind, ratio, details = want
                got = in_certificate(m, lam, side, horizon=n)
                assert got.residual_ratio == ratio, where
                assert got.kind == kind, where
                bound = 5.0 * max(1.0, abs(lam.to_complex())) / math.sqrt(n)
                assert got.passed == (ratio <= bound), where
                assert got.details == details, where
                compared += 1
    return compared


def test_in_certificates_match_the_loops_on_fixtures_and_corpus():
    models = [load_fixture(name) for name in NAMES] + corpus()
    compared = sum(_assert_in_certificates_match_the_loops(m) for m in models)
    assert compared > 1_000


_small_weights = st.builds(
    RationalComplex, st.fractions(-3, 3, max_denominator=3),
    st.sampled_from([Fraction(0), Fraction(1, 2), Fraction(-2)])).filter(
        lambda w: not w.is_zero)


@st.composite
def _two_sided_windows(draw):
    """Cycles A and B of periods 1..4 joined by a two-sided ray from B to A
    with overrides on both sides of index 0, up to 40 away, and a forward
    ray into A, into a bundle on A, or into a cycle F of radius 1, so that
    B's circle is reached from the alpha end alone."""
    cycles = [Cycle(c, tuple(draw(st.lists(_small_weights, min_size=1,
                                           max_size=4))))
              for c in ("A", "B")]
    over = draw(st.dictionaries(st.integers(-40, 40), _small_weights,
                                min_size=1, max_size=4))
    omega = Anchor("A", draw(st.integers(0, cycles[0].period - 1)))
    alpha = Anchor("B", draw(st.integers(0, cycles[1].period - 1)))
    ray = Ray("t", "two_sided", 1, omega, alpha, tuple(sorted(over.items())))
    into = draw(st.sampled_from(["A", "F"]))
    fwd = Ray("fw", "forward", draw(st.sampled_from([1, OMEGA])),
              Anchor(into, 0))
    return validate(OrbitModel("drawn", (*cycles, Cycle("F", (RC(1),))),
                               (ray, fwd)))


@settings(max_examples=40, deadline=None)
@given(_two_sided_windows())
def test_in_certificates_match_the_loops_on_drawn_two_sided_rays(m):
    assert _assert_in_certificates_match_the_loops(m) > 0


# ---------------------------------------------------------------------------
# OUT certificates: one route per component, whatever the point type


def test_every_point_outside_sigma_gets_an_out_certificate():
    models = ([load_fixture(name) for name in NAMES] + corpus()
              + [ladder(64, "ladder/64")])
    points = 0
    for m in models:
        sigma = essential_spectra(m).sigma
        for lam in sample_grid(m):
            if lam.is_zero or sigma.member(lam):
                continue
            cert = out_certificate(m, lam)
            assert cert.passed and cert.horizon == DEFAULT_HORIZON
            assert len(cert.details) == len(m.l_components()), (m.name, str(lam))
            points += 1
    assert points == 149


def test_out_root_separation_at_circle_and_root_points():
    # B: period 2 and W == 2, so lam**2 == -2 lies at angle pi from W and
    # the relative separation is sqrt(2/3)
    m = validate(OrbitModel("t", (Cycle("B", (RC(1), RC(2))),
                                  Cycle("F", (RC(Fraction(1, 2)),))),
                            (Ray("r", "forward", 1, Anchor("F", 0)),)))
    r = m.cycle("B").gm()
    want = 1.0 - math.sqrt(2 / 3)
    for lam in (CirclePoint(r, RC(0, 1)), RootPoint(RC(-2), 2, 1)):
        entry = out_certificate(m, lam).details["B"]
        assert entry["route"] == "root_separation" and entry["n"] == 2
        assert abs(entry["margin"] - want) < 1e-15
    # the roots of W themselves lie in sigma
    for lam in (CirclePoint(r, RC(-1)), RootPoint(RC(2), 2, 0)):
        with pytest.raises(MarginNotReached):
            out_certificate(m, lam)


def _ref_out_details(m, lam, horizon):
    """The details of the OUT certificate as the loops before the one
    margin loop built them, for a QPoint: one doubling loop per route over
    |lam|**2, and the root-separation margin from the exact lam**p - W.
    None where they reached no margin."""
    lam_abs2 = lam.z.abs2()
    details = {}
    for comp in _components(m):
        gms = [m.cycle(cid).gm() for cid in comp["cycles"]]
        mod = lam.modulus()
        entry = None
        if mod > max(gms):
            streams = _abs2_streams(m, comp, l_only=False)
            nn = 1
            while nn <= horizon:
                sup = _extreme_abs2_wn(streams, nn, want_max=True)
                if sup < lam_abs2**nn:
                    margin = float(sup / lam_abs2**nn) ** (0.5 / nn)
                    entry = {"route": "neumann", "n": nn, "margin": margin}
                    break
                nn *= 2
        elif mod < min(gms):
            invertible = (not any(m.cycle(cid).has_zero_weight
                                  for cid in comp["cycles"])
                          and not any(m.ray_has_zero(r) for r in comp["rays"]
                                      if r.is_two_sided))
            if invertible and chain_kernel_dim(_submodel(m, comp), lam) == 0:
                streams = _abs2_streams(m, comp, l_only=True)
                nn = 1
                while nn <= horizon:
                    inf_l = _extreme_abs2_wn(streams, nn, want_max=False)
                    if lam_abs2**nn < inf_l:
                        margin = float(lam_abs2**nn / inf_l) ** (0.5 / nn)
                        entry = {"route": "inverse", "n": nn, "margin": margin,
                                 "kernel_checked": True}
                        break
                    nn *= 2
        elif not comp["rays"] and len(comp["cycles"]) == 1:
            cyc = m.cycle(comp["cycles"][0])
            w = cyc.weight_product()
            lp = lam.z**cyc.period
            if lp != w:
                diff = RationalComplex(lp.re - w.re, lp.im - w.im)
                sep2 = diff.abs2()
                rel = float(sep2 / (lp.abs2() + w.abs2() + sep2)) ** 0.5
                entry = {"route": "root_separation", "n": cyc.period,
                         "margin": 1.0 - max(rel, 1e-12)}
        if entry is None:
            return None
        details["+".join(sorted(comp["cycles"]))] = entry
    return details


def _assert_out_matches_the_loops(m, lam):
    """Neumann and inverse entries agree bit for bit, root-separation
    margins to 1e-12 relative.  Returns the number of root separations."""
    want = _ref_out_details(m, lam, DEFAULT_HORIZON)
    if want is None:
        with pytest.raises(MarginNotReached):
            out_certificate(m, lam)
        return 0
    got = out_certificate(m, lam).details
    assert got.keys() == want.keys()
    separations = 0
    for label, entry in want.items():
        if entry["route"] == "root_separation":
            margin = got[label].pop("margin")
            assert abs(margin - entry.pop("margin")) <= 1e-12 * margin
            separations += 1
        assert got[label] == entry, (m.name, str(lam), label)
    return separations


def test_out_certificates_match_the_loops_on_fixtures_and_corpus():
    extra = [Q(3), Q(Fraction(1, 2)), Q(1), Q(0, 1), Q(-2), Q(Fraction(9, 8)),
             Q(Fraction(3, 5), Fraction(4, 5)), Q(0, -3), Q(4, 3)]
    separations = 0
    for m in [load_fixture(name) for name in NAMES] + corpus():
        sigma = essential_spectra(m).sigma
        for lam in [p for p in sample_grid(m) if isinstance(p, QPoint)] + extra:
            if not lam.is_zero and not sigma.member(lam):
                separations += _assert_out_matches_the_loops(m, lam)
    assert separations > 10


# rational directions of modulus one, down to an angle of about 2e-6
_directions = st.sampled_from(
    [RC(Fraction(k * k - 1, k * k + 1), Fraction(2 * k, k * k + 1))
     for k in (2, 3, 7, 100, 10**4, 10**6)]
    + [RC(-1), RC(0, 1), RC(Fraction(-3, 5), Fraction(-4, 5))])


@settings(max_examples=60, deadline=None)
@given(st.builds(RationalComplex, st.fractions(-9, 9, max_denominator=9),
                 st.fractions(-9, 9, max_denominator=9)).filter(
                     lambda z: not z.is_zero),
       st.sampled_from([1, 2, 3, 5, 7, 12]), _directions)
def test_out_root_separation_matches_the_exact_margin_on_drawn_cycles(z, p, v):
    # a bare cycle B with W == z**p * v: lam = z lies on B's circle, off
    # its roots, at angle arg v from them; F carries the forward ray
    b = Cycle("B", (z,) * (p - 1) + (z * v,))
    m = validate(OrbitModel("drawn", (b, Cycle("F", (RC(Fraction(1, 100)),))),
                            (Ray("r", "forward", 1, Anchor("F", 0)),)))
    assert _assert_out_matches_the_loops(m, QPoint(z)) == 1
