"""Chain-solver contract: values frozen from hand derivations.

The derivations solve w(k) f(phi k) = lam f(k) (resp. the dual atom chain)
directly on the named structure; each case is a one-paragraph argument in
the comments, independent of the classification engine.
"""

import math
import time
from collections import Counter
from fractions import Fraction

from hypothesis import given, settings, strategies as st

from ckspec import oracle
from ckspec.cli import main
from ckspec.exact import INF, QPoint, RationalComplex, RootPoint
from ckspec.fixtures import NAMES, load_fixture
from ckspec.model import (Anchor, Cycle, OrbitModel, Ray, ValidatedModel,
                          model_to_json, validate)
from ckspec.oracle import (_abs2_streams, _components, _extreme_abs2_wn,
                           _pattern, _placement, _transport_ratio,
                           _window_product, chain_defect_dim,
                           chain_kernel_dim)
from ckspec.spectra import sample_grid, self_check

from _corpus import corpus

RC = RationalComplex.of
Q = QPoint.of


def mk(cycles, rays, name="t"):
    return validate(OrbitModel(name, tuple(cycles), tuple(rays)))


FWD_AUX = Ray("fw", "forward", 1, Anchor("F", 0))
F_AUX = Cycle("F", (RC(1),))


def test_ray1_kernel_transitions():
    m = load_fixture("ray1")
    # |lam| < 1: the tail f(k_i) = lam^i f(k_0) decays, one free head value
    assert chain_kernel_dim(m, Q(Fraction(1, 2))) == 1
    # |lam| > 1: the forced tail grows, so continuity kills everything
    assert chain_kernel_dim(m, Q(2)) == 0
    # lam = 1 resonates with the fixed point; the ray extension is forced
    assert chain_kernel_dim(m, Q(1)) == 1
    assert chain_defect_dim(m, Q(Fraction(1, 2))) == 0
    assert chain_defect_dim(m, Q(1)) == 1  # dual eigenvector on the cycle


def test_half_bundle_infinite_kernel():
    m = load_fixture("half")
    # one free head value per bundle copy
    assert chain_kernel_dim(m, Q(Fraction(1, 2))) == INF
    assert chain_defect_dim(m, Q(Fraction(1, 2))) == 0
    assert chain_kernel_dim(m, Q(2)) == 0


def test_twocyc_two_sided_window():
    m = load_fixture("twocyc")
    # alpha end gm 1/2, omega end gm 2: decay both ways iff 1/2 < |lam| < 2
    assert chain_kernel_dim(m, Q(1)) == 1
    assert chain_defect_dim(m, Q(1)) == 0
    assert chain_kernel_dim(m, Q(3)) == 0
    # below gm(A) = 1/2 only the forward-ray head is free; the two-sided
    # window (1/2, 2) is closed there
    assert chain_kernel_dim(m, Q(Fraction(1, 4))) == 1


def test_twocyc_reversed_defect():
    # alpha gm 2, omega gm 1/2: summable dual chain iff 1/2 < |lam| < 2;
    # lam = i avoids the auxiliary fixed-point resonance at 1
    a = Cycle("A", (RC(Fraction(1, 2)),))
    b = Cycle("B", (RC(2),))
    ray = Ray("s", "two_sided", 1, Anchor("A", 0), Anchor("B", 0))
    m = mk([a, b, F_AUX], [ray, FWD_AUX])
    assert chain_defect_dim(m, Q(0, 1)) == 1
    assert chain_kernel_dim(m, Q(0, 1)) == 0


def test_zero_fixture_at_zero():
    m = load_fixture("zero")
    # free spots: the head, and the image of the exceptional zero
    assert chain_kernel_dim(m, Q(0)) == 2
    assert chain_defect_dim(m, Q(0)) == 1


def test_bundlezero_at_zero():
    m = load_fixture("bundlezero")
    assert chain_kernel_dim(m, Q(0)) == INF
    assert chain_defect_dim(m, Q(0)) == INF


def test_head_zero_weight_counts_twice():
    # w vanishing at the head: ker T is spanned by masses at the head and at
    # its image, while the dual kernel is the single atom at the head
    f = Cycle("F", (RC(1),))
    ray = Ray("r", "forward", 1, Anchor("F", 0), exceptional=((0, RC(0)),))
    m = mk([f], [ray])
    assert chain_kernel_dim(m, Q(0)) == 2
    assert chain_defect_dim(m, Q(0)) == 1


def test_resonant_pair_linked_by_two_sided_ray():
    a = Cycle("A", (RC(2),))
    b = Cycle("B", (RC(2),))
    # locked ray: transported scale must match exactly, one common eigenvector
    s = Ray("s", "two_sided", 1, Anchor("A", 0), Anchor("B", 0))
    m = mk([a, b, F_AUX], [s, FWD_AUX])
    assert chain_kernel_dim(m, Q(2)) == 1
    # the dual never links cycles: two independent atom chains
    assert chain_defect_dim(m, Q(2)) == 2
    # skewed window (weight 3 at index 0) still consistent: t_B = 3/2 t_A
    s2 = Ray("s", "two_sided", 1, Anchor("A", 0), Anchor("B", 0),
             exceptional=((0, RC(3)),))
    m2 = mk([a, b, F_AUX], [s2, FWD_AUX])
    assert chain_kernel_dim(m2, Q(2)) == 1
    # parallel rays with incompatible transports force both scales to zero
    s3 = Ray("s3", "two_sided", 1, Anchor("A", 0), Anchor("B", 0))
    m3 = mk([a, b, F_AUX], [s2, s3, FWD_AUX])
    assert chain_kernel_dim(m3, Q(2)) == 0


def test_resonant_self_loop():
    a = Cycle("A", (RC(2),))
    loop = Ray("s", "two_sided", 1, Anchor("A", 0), Anchor("A", 0))
    m = mk([a, F_AUX], [loop, FWD_AUX])
    assert chain_kernel_dim(m, Q(2)) == 1  # identity transport is consistent
    skew = Ray("s", "two_sided", 1, Anchor("A", 0), Anchor("A", 0),
               exceptional=((0, RC(3)),))
    m2 = mk([a, F_AUX], [skew, FWD_AUX])
    assert chain_kernel_dim(m2, Q(2)) == 0  # t = (3/2) t forces t = 0


def test_one_sided_resonance_needs_decay():
    # omega cycle resonant at lam=2, alpha cycle gm 3 > 2: the forced tail
    # grows toward the alpha end, killing the resonance
    a = Cycle("A", (RC(2),))
    b3 = Cycle("B", (RC(3),))
    s = Ray("s", "two_sided", 1, Anchor("A", 0), Anchor("B", 0))
    m = mk([a, b3, F_AUX], [s, FWD_AUX])
    assert chain_kernel_dim(m, Q(2)) == 0
    # with alpha gm 1 < 2 the transported tail decays: resonance survives
    b1 = Cycle("B", (RC(1),))
    m2 = mk([a, b1, F_AUX], [s, FWD_AUX])
    assert chain_kernel_dim(m2, Q(2)) == 1


def test_zero_cut_two_sided_ray():
    # a vanishing weight cuts the chain; above the cut lives a decaying
    # eigenvector for |lam| < gm(omega), below it a summable dual chain for
    # |lam| < gm(alpha)
    c3 = Cycle("C3", (RC(3),))
    c2 = Cycle("C2", (RC(2),))
    cut = Ray("s", "two_sided", 1, Anchor("C2", 0), Anchor("C3", 0),
              exceptional=((0, RC(0)),))
    m = mk([c3, c2, F_AUX], [cut, FWD_AUX])
    lam = Q(Fraction(3, 2))  # avoids the auxiliary fixed-point resonance
    assert chain_kernel_dim(m, lam) == 1
    assert chain_defect_dim(m, lam) == 1
    # the cut also silences the alpha resonance
    assert chain_kernel_dim(m, Q(3)) == 0
    assert chain_kernel_dim(m, Q(Fraction(5, 2))) == 0  # between the gms


def test_root_point_samples():
    p = Cycle("P", (RC(1), RC(2), RC(4)))
    m = mk([p, F_AUX], [FWD_AUX])
    for j in range(3):
        lam = RootPoint(RC(8), 3, j)
        assert chain_kernel_dim(m, lam) == 1
        assert chain_defect_dim(m, lam) == 1
    assert chain_kernel_dim(m, Q(2)) == 1  # the rational branch
    assert chain_kernel_dim(m, Q(-2)) == 0


def test_eventual_image_model():
    m = load_fixture("twocyc")
    image = ValidatedModel(OrbitModel(m.name, m.raw.cycles, m.two_sided_rays()))
    lam = Q(1)
    assert chain_kernel_dim(image, lam) == 1
    lam2 = Q(Fraction(1, 4))
    # the forward-ray head is transient: invisible to the eventual image
    assert chain_kernel_dim(image, lam2) == 0
    assert chain_kernel_dim(m, lam2) == 1


def _direct_abs2_wn(m, comp, n, l_only):
    """|w(k) ... w(phi^(n-1) k)|**2 at every start: each cycle phase, and
    ray indices reaching two anchor periods past each lock bound (windows
    further out repeat these)."""
    vals = []
    for cid in comp["cycles"]:
        cyc = m.cycle(cid)
        for ph in range(cyc.period):
            prod = RC(1)
            for t in range(n):
                prod = prod * cyc.weights[(ph + t) % cyc.period]
            vals.append(prod.abs2())
    for ray in comp["rays"]:
        if l_only and ray.is_forward:
            continue
        lock_neg, lock_pos = m.lock_bounds(ray)
        hi = lock_pos + 2 * m.cycle(ray.omega.cycle).period + 2
        lo = (0 if ray.is_forward
              else lock_neg - n - 2 * m.cycle(ray.alpha.cycle).period - 2)
        for start in range(lo, hi + 1):
            prod = RC(1)
            for t in range(n):
                prod = prod * m.ray_weight(ray, start + t)
            vals.append(prod.abs2())
    return vals


def _window_models():
    models = [load_fixture("zero"), load_fixture("bundlezero")]
    for m in corpus():
        two_sided_window = any(
            r.exceptional and r.exceptional[0][0] < 0 <= r.exceptional[-1][0]
            for r in m.two_sided_rays())
        zeros = any(c.has_zero_weight for c in m.cycles.values()) or any(
            v.is_zero for r in m.raw.rays for _, v in r.exceptional)
        if two_sided_window or zeros:
            models.append(m)
    # a deep window of distinct periods and phases, with a zero on the alpha
    # side and a large weight on the omega side
    models.append(mk(
        [Cycle("A", (RC(2), RC(1, 3), RC(-1, 1))),
         Cycle("W", (RC(1, 2), RC(0, 3))), F_AUX],
        [Ray("t", "two_sided", 1, Anchor("W", 1), Anchor("A", 2),
             ((-7, RC(0)), (-2, RC(5, 1)), (0, RC(1, 7)), (6, RC(9)))),
         FWD_AUX]))
    return models


def test_extreme_abs2_wn_matches_direct_products():
    models = _window_models()
    assert len(models) > 20
    for m in models:
        for comp in _components(m):
            for l_only in (False, True):
                streams = _abs2_streams(m, comp, l_only)
                for n in (1, 2, 4, 8, 16):
                    direct = _direct_abs2_wn(m, comp, n, l_only)
                    assert _extreme_abs2_wn(streams, n, True) == max(direct)
                    assert _extreme_abs2_wn(streams, n, False) == min(direct)


def test_components_carry_every_ray_at_its_omega_cycle():
    for m in corpus():
        comps = _components(m)
        assert sorted(c for comp in comps for c in comp["cycles"]) \
            == sorted(m.cycles)
        assert sorted(r.id for comp in comps for r in comp["rays"]) \
            == sorted(m.rays)
        for comp in comps:
            for r in comp["rays"]:
                assert r.omega.cycle in comp["cycles"]
                if r.is_two_sided:
                    assert r.alpha.cycle in comp["cycles"]


# ---------------------------------------------------------------------------
# one placement per point, one transport ratio per ray


def _placement_by_definition(m, lam):
    """Every cycle's side and the resonant cycles, straight from the
    definitions: the sign of g_c - |lam|, and lam**p == W != 0 tested on
    every cycle, whatever its radius."""
    mod = lam.modulus()
    sides = {cid: cyc.gm().cmp(mod) for cid, cyc in m.cycles.items()}
    actives = {cid for cid, cyc in m.cycles.items()
               if not cyc.weight_product().is_zero
               and lam.pow_equals(cyc.period, cyc.weight_product())}
    return sides, actives


def test_kept_placement_matches_a_fresh_evaluation():
    for m in [load_fixture(name) for name in NAMES] + corpus():
        self_check(m)  # fills the placement kept on m
        for lam in sample_grid(m):
            if lam.is_zero:
                continue
            side, actives = _placement(m, lam)
            assert _placement(m, lam)[1] is actives  # kept, not recomputed
            fresh_side, fresh_actives = _placement(ValidatedModel(m.raw), lam)
            sides, want = _placement_by_definition(m, lam)
            assert actives == fresh_actives == want, (m.name, str(lam))
            for cid in m.cycles:
                assert side(cid) == fresh_side(cid) == sides[cid], \
                    (m.name, str(lam), cid)


def test_self_check_tests_each_resonance_once(monkeypatch):
    calls = Counter()
    active = oracle._active

    def counted(m, lam, cid):
        calls[m.name, lam, cid] += 1
        return active(m, lam, cid)

    monkeypatch.setattr(oracle, "_active", counted)
    for m in [load_fixture(name) for name in NAMES] + corpus():
        assert self_check(m) == []
    assert calls and max(calls.values()) == 1


def _stepwise_window_product(m, ray):
    lock_neg, lock_pos = m.lock_bounds(ray)
    out = RC(1)
    for i in range(lock_neg, lock_pos):
        out = out * m.ray_weight(ray, i)
    return out


def _stepwise_ratio(m, ray):
    """The transport ratio carried down the window one weight at a time."""
    lock_neg, lock_pos = m.lock_bounds(ray)
    a, b = m.cycle(ray.omega.cycle), m.cycle(ray.alpha.cycle)
    z, e = _pattern(m, a.id)[(ray.omega.phase + lock_pos) % a.period]
    for i in range(lock_pos - 1, lock_neg - 1, -1):
        z, e = z * m.ray_weight(ray, i), e - 1
    zb, eb = _pattern(m, b.id)[(ray.alpha.phase + lock_neg) % b.period]
    return z / zb, e - eb


def _assert_window_products(m):
    for ray in m.two_sided_rays():
        assert _window_product(m, ray) == _stepwise_window_product(m, ray), \
            (m.name, ray.id)
        if not m.ray_has_zero(ray):
            assert _transport_ratio(m, ray) == _stepwise_ratio(m, ray)


def test_window_product_matches_stepwise_product():
    models = [load_fixture(name) for name in NAMES] + _window_models()
    models += [m for m in corpus() if m.two_sided_rays()]
    assert sum(len(m.two_sided_rays()) for m in models) > 50
    for m in models:
        _assert_window_products(m)


_nonzero_weights = st.builds(
    RationalComplex, st.fractions(-3, 3, max_denominator=3),
    st.sampled_from([Fraction(0), Fraction(1, 2), Fraction(-2)])).filter(
        lambda w: not w.is_zero)


@st.composite
def _deep_windows(draw):
    """Two cycles of periods 1..5 joined by a two-sided ray whose overrides
    lie on both sides of index 0, up to 40 away."""
    cycles = [Cycle(c, tuple(draw(st.lists(_nonzero_weights, min_size=1,
                                           max_size=5))))
              for c in ("A", "B")]
    below = draw(st.dictionaries(st.integers(-40, -1), _nonzero_weights,
                                 min_size=1, max_size=3))
    above = draw(st.dictionaries(st.integers(0, 40), _nonzero_weights,
                                 min_size=1, max_size=3))
    omega = Anchor("A", draw(st.integers(0, cycles[0].period - 1)))
    alpha = Anchor("B", draw(st.integers(0, cycles[1].period - 1)))
    ray = Ray("t", "two_sided", 1, omega, alpha,
              tuple(sorted({**below, **above}.items())))
    return mk(cycles + [F_AUX], [ray, FWD_AUX])


@settings(max_examples=100, deadline=None)
@given(_deep_windows())
def test_window_product_matches_stepwise_product_on_drawn_windows(m):
    _assert_window_products(m)


def _full_stream_abs2_wn(m, comp, nn, l_only):
    """|w_nn|**2 over a component, multiplying out every window of nn
    weights: at each cycle phase, and at every ray start from
    lock_neg - nn - pa (0 on a forward ray) to lock_pos + pw."""
    vals = []
    for cid in comp["cycles"]:
        a = [w.abs2() for w in m.cycle(cid).weights]
        vals += [math.prod(a[(ph + t) % len(a)] for t in range(nn))
                 for ph in range(len(a))]
    for ray in comp["rays"]:
        if l_only and ray.is_forward:
            continue
        lock_neg, lock_pos = m.lock_bounds(ray)
        pw = m.cycle(ray.omega.cycle).period
        first = (0 if ray.is_forward
                 else lock_neg - nn - m.cycle(ray.alpha.cycle).period)
        full = [m.ray_weight(ray, i).abs2()
                for i in range(first, lock_pos + pw + nn)]
        vals += [math.prod(full[s:s + nn]) for s in range(len(full) - nn + 1)]
    return vals


def _assert_extremes_match_full_stream(m, lengths):
    for comp in _components(m):
        for l_only in (False, True):
            streams = _abs2_streams(m, comp, l_only)
            for nn in lengths:
                vals = _full_stream_abs2_wn(m, comp, nn, l_only)
                where = (m.name, comp["cycles"], nn, l_only)
                assert _extreme_abs2_wn(streams, nn, True) == max(vals), where
                assert _extreme_abs2_wn(streams, nn, False) == min(vals), where


@st.composite
def _cut_rays(draw):
    """One ray into cycle A, forward or two-sided from A itself (alpha ==
    omega, at an equal phase or not) or from a cycle B.  Its overrides,
    up to 40 deep, may vanish, only rotate the locked weight (equal |w|**2)
    or sit at index 0."""
    cycles = [Cycle(c, tuple(draw(st.lists(_nonzero_weights, min_size=1,
                                           max_size=5))))
              for c in ("A", "B")]
    omega = Anchor("A", draw(st.integers(0, cycles[0].period - 1)))
    forward = draw(st.booleans())
    alpha = None
    if not forward:
        cyc = draw(st.sampled_from(cycles))
        phase = (omega.phase if cyc.id == "A" and draw(st.booleans())
                 else draw(st.integers(0, cyc.period - 1)))
        alpha = Anchor(cyc.id, phase)
    idxs = draw(st.sets(st.integers(0 if forward else -40, 40), max_size=4))
    if draw(st.booleans()):
        idxs.add(0)
    over = {}
    for i in sorted(idxs):
        anchor = omega if forward or i >= 0 else alpha
        cyc = cycles[0] if anchor.cycle == "A" else cycles[1]
        w = cyc.weights[(anchor.phase + i) % cyc.period]
        over[i] = draw(st.sampled_from(
            [RC(0), w.conj(), w * RC(0, 1), draw(_nonzero_weights)]))
    ray = Ray("t", "forward" if forward else "two_sided", 1, omega, alpha,
              tuple(over.items()))
    return mk(cycles + [F_AUX], [ray, FWD_AUX])


@settings(max_examples=100, deadline=None)
@given(st.one_of(_deep_windows(), _cut_rays()), st.integers(1, 64))
def test_extreme_abs2_wn_matches_full_stream_on_drawn_rays(m, nn):
    _assert_extremes_match_full_stream(m, [nn])


def test_extreme_abs2_wn_matches_full_stream_on_fixtures_and_corpus():
    for m in [load_fixture(name) for name in NAMES] + corpus():
        _assert_extremes_match_full_stream(m, (1, 2, 3, 5, 8, 64))


def test_deep_resonant_override_self_check_is_fast(tmp_path, capsys):
    # A and B both resonate at lam = 2, joined through an override 10**5
    # deep; the transport ratio is a power of 2 times 3
    a, b = Cycle("A", (RC(2),)), Cycle("B", (RC(2),))
    s = Ray("S", "two_sided", 1, Anchor("B", 0), Anchor("A", 0),
            exceptional=((10**5, RC(3)),))
    r = Ray("R", "forward", 1, Anchor("A", 0))
    path = tmp_path / "deep.json"
    path.write_text(model_to_json(mk([a, b], [s, r], "deep")), "utf-8")
    start = time.process_time()
    assert main(["analyze", str(path), "--self-check"]) == 0
    elapsed = time.process_time() - start
    assert "sigma" in capsys.readouterr().out
    assert elapsed < 5.0, f"analyze --self-check took {elapsed:.1f} s"
