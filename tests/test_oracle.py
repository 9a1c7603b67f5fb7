"""Chain-solver contract: values frozen from hand derivations.

The derivations solve w(k) f(phi k) = lam f(k) (resp. the dual atom chain)
directly on the named structure; each case is a one-paragraph argument in
the comments, independent of the classification engine.
"""

from fractions import Fraction

from ckspec.exact import INF, QPoint, RationalComplex, RootPoint
from ckspec.fixtures import load_fixture
from ckspec.model import Anchor, Cycle, OrbitModel, Ray, validate
from ckspec.oracle import (_abs2_streams, _components, _extreme_abs2_wn,
                           chain_defect_dim, chain_kernel_dim)

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


def test_l_only_restriction():
    m = load_fixture("twocyc")
    lam = Q(1)
    assert chain_kernel_dim(m, lam, l_only=True) == 1
    lam2 = Q(Fraction(1, 4))
    # the forward-ray head is transient: invisible to the eventual image
    assert chain_kernel_dim(m, lam2, l_only=True) == 0
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
