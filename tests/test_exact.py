import cmath
import math
import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from ckspec.exact import (RC_ZERO, CirclePoint, ExactRadius, QPoint,
                          RationalComplex, RootPoint, _int_nth_root,
                          fraction_nth_root, power_sign, rational_between)
from ckspec.radialset import canonicalize

RC = RationalComplex.of


def _bisect_nth_root(x: int, n: int) -> tuple[int, bool]:
    """Reference floor of the n-th root: bisection, one bit per step."""
    lo, hi = 0, 1 << ((x.bit_length() + n - 1) // n + 1)
    while lo + 1 < hi:
        mid = (lo + hi) // 2
        if mid**n <= x:
            lo = mid
        else:
            hi = mid
    return lo, lo**n == x


def test_int_nth_root_matches_bisection():
    rng = random.Random(5)
    cases = [(rng.getrandbits(rng.choice([8, 64, 400, 3000])),
              rng.randint(1, 120)) for _ in range(600)]
    # exact powers and their neighbours, where an off-by-one would show
    for _ in range(200):
        n = rng.randint(2, 40)
        r = rng.getrandbits(rng.choice([2, 20, 200]))
        cases += [(max(r**n + d, 0), n) for d in (-1, 0, 1)]
    cases += [(x, n) for x in range(70) for n in range(1, 8)]
    for x, n in cases:
        assert _int_nth_root(x, n) == _bisect_nth_root(x, n), (x, n)


def test_fraction_nth_root():
    assert fraction_nth_root(Fraction(64), 3) == 4
    assert fraction_nth_root(Fraction(64), 6) == 2
    assert fraction_nth_root(Fraction(8, 27), 3) == Fraction(2, 3)
    assert fraction_nth_root(Fraction(2), 2) is None


def test_rational_complex_arithmetic():
    z = RC(1, 2)
    assert z * z.conj() == RC(5)
    assert (z / z) == RC(1)
    assert z**0 == RC(1)
    assert z**-1 == RC(1) / z
    assert RC(0, 1) ** 2 == RC(-1)


def test_exact_radius_reduction_and_order():
    # 64^(1/6) == 2 == 4^(1/2)
    assert ExactRadius(Fraction(64), 3) == ExactRadius(Fraction(4), 1)
    assert ExactRadius(Fraction(64), 3).rational_value() == 2
    r = ExactRadius(Fraction(90625, 2916), 3)  # irrational
    assert r.rational_value() is None
    assert ExactRadius.from_fraction(Fraction(3, 2)) < ExactRadius.from_fraction(2)
    # 8^(1/3) == 2 > 2^(1/2)
    a = ExactRadius(Fraction(64), 3)
    b = ExactRadius(Fraction(2), 1)
    assert b < a
    assert str(ExactRadius(Fraction(64), 3)) == "2"
    r = ExactRadius(Fraction(64), 3)  # reduced: 64^(1/6) = 4^(1/2)
    assert (r.sq, r.p) == (4, 1)


def test_exact_radius_str_radical():
    r = ExactRadius(RC(1, 1).abs2() * 0 + Fraction(64), 1)  # sqrt(64) = 8
    assert str(r) == "8"
    r2 = ExactRadius(Fraction(5), 1)
    assert "5" in str(r2) and "1/2" in str(r2)


@given(st.integers(0, 400), st.integers(1, 400), st.integers(1, 4),
       st.integers(0, 400), st.integers(1, 400), st.integers(1, 4))
@settings(max_examples=150, deadline=None)
def test_exact_radius_order_matches_floats(n1, d1, p1, n2, d2, p2):
    a = ExactRadius(Fraction(n1, d1), p1)
    b = ExactRadius(Fraction(n2, d2), p2)
    fa, fb = float(a), float(b)
    if abs(fa - fb) > 1e-9:
        assert (a < b) == (fa < fb)
    assert (a.cmp(b) == 0) == (b.cmp(a) == 0)


def test_qpoint_basics():
    lam = QPoint.of(Fraction(3, 2))
    assert lam.modulus() == ExactRadius.from_fraction(Fraction(3, 2))
    assert lam.pow_equals(2, RC(Fraction(9, 4)))
    assert not lam.pow_equals(2, RC(2))
    assert QPoint.of(0).is_zero


def test_circle_point_power_tests():
    # lam = 8^(1/3) * (3+4i)/5 sits exactly on the radius-2 circle
    r = ExactRadius(Fraction(64), 3)
    u = RC(Fraction(3, 5), Fraction(4, 5))
    lam = CirclePoint(ExactRadius(Fraction(5), 1), u)  # sqrt(5)*(3+4i)/5
    # lam^2 = 5 * u^2 = 5*(9-16+24i)/25 = (-7+24i)/5
    assert lam.pow_equals(2, RC(Fraction(-7, 5), Fraction(24, 5)))
    assert not lam.pow_equals(2, RC(1))
    lam2 = CirclePoint(r, RC(1))
    assert lam2.pow_equals(3, RC(8))  # (8^(1/3))^3 == 8 after reduction to 2
    assert lam2.modulus() == ExactRadius.from_fraction(2)


def test_root_point_power_and_equality():
    # cube roots of 8: branch 0 is the rational 2
    r0 = RootPoint(RC(8), 3, 0)
    r1 = RootPoint(RC(8), 3, 1)
    assert r0.pow_equals(3, RC(8)) and r1.pow_equals(3, RC(8))
    assert r0.pow_equals(1, RC(2))
    assert not r1.pow_equals(1, RC(2))
    two = canonicalize(root_sets=[(RC(2), 1)])
    assert two.member(r0) and not two.member(r1)
    # every cube root of 8 is a sixth root of 64
    assert r1.pow_equals(6, RC(64))
    # branch 1 of z^3 == 8 is 2*exp(2*pi*i/3), which is branch 2 of z^6 == 64
    # (the branches of z^6 == 64 whose cube is 8 are 0, 2 and 4)
    assert [j for j in range(6)
            if RootPoint(RC(64), 6, j).pow_equals(3, RC(8))] == [0, 2, 4]
    assert RootPoint(RC(64), 6, 0).pow_equals(1, RC(2))


def test_root_point_complex_argument():
    # fourth roots of -4: branch set is {1+i, -1+i, -1-i, 1-i}
    vals = {(RootPoint(RC(-4), 4, j).to_complex().real.__round__(6),
             RootPoint(RC(-4), 4, j).to_complex().imag.__round__(6))
            for j in range(4)}
    assert vals == {(1.0, 1.0), (-1.0, 1.0), (-1.0, -1.0), (1.0, -1.0)}
    assert RootPoint(RC(-4), 4, 0).pow_equals(4, RC(-4))
    # arg(-4) == pi, so branch 0 is 2**(1/2) * exp(i*pi/4) == 1 + i
    assert [j for j in range(4)
            if RootPoint(RC(-4), 4, j).pow_equals(1, RC(1, 1))] == [0]


def test_root_point_complex_of_a_weight_beyond_the_float_range():
    # |w| is about 3**700, beyond the float range, but |w|**(1/400) is
    # 3**(7/4) and arg w is about 2**600 / 3**700
    z = RootPoint(RationalComplex(3**700, 2**600), 400, 1).to_complex()
    assert abs(abs(z) - 3**1.75) < 1e-12
    assert abs(cmath.phase(z) - 2 * math.pi / 400) < 1e-12


def test_spectral_point_arguments():
    assert QPoint.of(0, 1).arg() == math.pi / 2
    assert CirclePoint(ExactRadius(Fraction(2), 2), RC(-1)).arg() == math.pi
    # branch j of the p-th root of w has argument (arg w + 2*pi*j) / p
    assert RootPoint(RC(-4), 4, 3).arg() == 7 * math.pi / 4
    assert cmath.isclose(cmath.exp(1j * RootPoint(RC(-4), 4, 3).arg()),
                         RootPoint(RC(-4), 4, 3).to_complex() / math.sqrt(2))
    # parts beyond the float range
    assert QPoint(RationalComplex(Fraction(-10**400), Fraction(10**400))).arg() \
        == 3 * math.pi / 4


def test_rational_between():
    lo = ExactRadius(Fraction(2), 1)   # sqrt(2)
    hi = ExactRadius(Fraction(3), 1)   # sqrt(3)
    q = rational_between(lo, hi)
    assert lo < ExactRadius.from_fraction(q) < hi
    q2 = rational_between(ExactRadius.zero(), ExactRadius(Fraction(1, 10**6), 1))
    assert ExactRadius.zero() < ExactRadius.from_fraction(q2)
    q3 = rational_between(ExactRadius.from_fraction(7), None)
    assert ExactRadius.from_fraction(q3) > ExactRadius.from_fraction(7)


def _least_dyadic_between(lo, hi):
    """The dyadic c/2**k strictly between lo and hi with the least k, then
    the least c, found by plain enumeration."""
    k = 0
    while True:
        c = 1
        while ExactRadius.from_fraction(Fraction(c, 2**k)) <= lo:
            c += 1
        if hi is None or ExactRadius.from_fraction(Fraction(c, 2**k)) < hi:
            return Fraction(c, 2**k)
        k += 1


def test_rational_between_is_least_dyadic():
    radii = sorted([ExactRadius.zero(), ExactRadius(Fraction(1, 3), 2),
             ExactRadius(Fraction(1, 2), 1), ExactRadius(Fraction(7, 8), 3),
             ExactRadius.from_fraction(1), ExactRadius(Fraction(2), 1),
             ExactRadius(Fraction(17, 8), 1), ExactRadius(Fraction(10), 3),
             ExactRadius.from_fraction(3), ExactRadius(Fraction(50), 2)])
    for i, lo in enumerate(radii):
        for hi in radii[i + 1:] + [None]:
            assert rational_between(lo, hi) == _least_dyadic_between(lo, hi)


def _rational_between_by_linear_search(lo, hi):
    """rational_between's candidate at k = 0, 1, 2, ... in turn, until one
    lies below hi."""
    n = 2 * lo.p
    k = 0
    while True:
        scaled = lo.sq * 2 ** (n * k)
        c = _int_nth_root(scaled.numerator // scaled.denominator, n)[0] + 1
        if hi is None or ExactRadius.from_fraction(Fraction(c, 2**k)) < hi:
            return Fraction(c, 2**k)
        k += 1


_radii = st.builds(ExactRadius, st.fractions(0, 100, max_denominator=10**6),
                   st.integers(1, 4))


@st.composite
def _radius_pairs(draw):
    lo = draw(_radii)
    shape = draw(st.sampled_from(["above", "apart", "near"]))
    if shape == "above":
        return lo, None
    if shape == "near":
        eps = Fraction(1, 10 ** draw(st.integers(0, 40)))
        return lo, ExactRadius(lo.sq + eps, lo.p)
    hi = draw(_radii)
    assume(lo != hi)
    return min(lo, hi), max(lo, hi)


@given(_radius_pairs())
@settings(max_examples=300, deadline=None)
def test_rational_between_matches_linear_search(pair):
    lo, hi = pair
    assert rational_between(lo, hi) == _rational_between_by_linear_search(lo, hi)


def test_rational_between_radii_closer_than_a_double():
    lo = ExactRadius.from_fraction(1)
    hi = ExactRadius.from_fraction(1 + Fraction(1, 10**20))
    assert float(lo) == float(hi)
    assert rational_between(lo, hi) == Fraction(2**67 + 1, 2**67)
    # an irrational pair: 2**(1/4) and just above it
    lo = ExactRadius(Fraction(2), 2)
    hi = ExactRadius(Fraction(2) + Fraction(1, 10**30), 2)
    q = rational_between(lo, hi)
    assert lo < ExactRadius.from_fraction(q) < hi


@given(st.integers(-6, 6), st.integers(1, 4), st.integers(-6, 6),
       st.integers(1, 4), st.integers(1, 3))
@settings(max_examples=80, deadline=None)
def test_root_point_pow_equals_consistent_with_floats(a, b, c, d, p):
    w = RC(Fraction(a, b), Fraction(c, d))
    if w.is_zero:
        return
    lam = RootPoint(w, p, 0)
    assert lam.pow_equals(p, w)
    lc = lam.to_complex()
    assert abs(lc**p - w.to_complex()) < 1e-6 * (1 + abs(w.to_complex()))


_fracs = st.builds(Fraction, st.integers(-6, 6), st.integers(1, 4))
_gaussian = st.builds(RationalComplex, _fracs, _fracs)
# rational directions of modulus one; u != 1 rotates without changing |q|
_UNITS = [RC(1), RC(0, 1), RC(-1), RC(Fraction(3, 5), Fraction(4, 5)),
          RC(Fraction(-5, 13), Fraction(12, 13))]
_TARGETS = ["power", "rotated", "scaled", "zero", "free"]


def _target(power, kind, u, free):
    return {"power": power, "rotated": power * u, "scaled": power * RC(2),
            "zero": RC(0), "free": free}[kind]


@given(_gaussian, st.integers(-3, 9), st.sampled_from(_UNITS),
       st.sampled_from(_TARGETS), _gaussian)
@settings(max_examples=300, deadline=None)
def test_qpoint_pow_equals_matches_direct_power(z, e, u, kind, free):
    if z.is_zero and e <= 0:
        return  # 0**e is undefined for e < 0, and z = 0 is only tested at e > 0
    q = _target(z**e, kind, u, free)
    assert QPoint(z).pow_equals(e, q) == (z**e == q)


@given(_fracs, st.integers(-3, 9), st.sampled_from(_UNITS[1:]),
       st.sampled_from(_UNITS), st.sampled_from(_TARGETS), _gaussian)
@settings(max_examples=300, deadline=None)
def test_circle_point_rational_radius_pow_equals(r, e, u, v, kind, free):
    if r == 0:
        return
    lam = CirclePoint(ExactRadius.from_fraction(abs(r)), u)
    z = RC(abs(r)) * u  # the same point as a Gaussian rational
    q = _target(z**e, kind, v, free)
    assert lam.pow_equals(e, q) == (z**e == q)


@given(st.sampled_from([(2, RC(1, 1)), (5, RC(2, 1)), (13, RC(3, 2))]),
       st.integers(-3, 9), st.sampled_from(_UNITS), st.sampled_from(_UNITS),
       st.sampled_from(_TARGETS), _gaussian)
@settings(max_examples=300, deadline=None)
def test_circle_point_irrational_radius_pow_equals(s_base, e, u, v, kind, free):
    # r = sqrt(s) with |base|**2 == s: base**e has the modulus of r**e, so
    # only the argument decides.  r**e * u**e is a Gaussian rational exactly
    # when e is even (sqrt(s) is irrational), and then it is s**(e/2) * u**e.
    s, base = s_base
    lam = CirclePoint(ExactRadius(Fraction(s), 1), u)
    q = _target(base**e, kind, v, free)
    direct = e % 2 == 0 and RC(Fraction(s) ** (e // 2)) * u**e == q
    assert lam.pow_equals(e, q) == direct


@given(_gaussian.filter(lambda z: not z.is_zero), st.integers(1, 5),
       st.integers(0, 4), st.integers(-3, 3), st.sampled_from(_UNITS),
       st.sampled_from(_TARGETS), _gaussian)
@settings(max_examples=300, deadline=None)
def test_root_point_power_of_the_period_matches_the_winding_test(
        z, p, j, k, u, kind, free):
    # w = z**p * u makes w**k a power of some branch; for e = k*p every
    # branch answers the same, and the direct test w**k == q must agree
    # with the winding count that decides every other exponent
    w = z**p * u
    q = _target(w**k, kind, u, free)
    lam = RootPoint(w, p, j % p)
    want = False if q.is_zero else lam._pow_equals_by_winding(k * p, q)
    assert lam.pow_equals(k * p, q) == want


# ---------------------------------------------------------------------------
# power_sign against plain Fraction powers

_exponents = st.integers(-6, 40)
_bases = st.builds(Fraction, st.integers(1, 10**6), st.integers(1, 10**6))


@st.composite
def _power_pairs(draw):
    """(a, x, b, y): free pairs, a zero base (positive exponent only), equal
    pairs, pairs one part in 10**40 apart, and pairs with a**x == b**y."""
    shape = draw(st.sampled_from(["free", "zero", "equal", "near", "powers"]))
    a, x, b, y = draw(_bases), draw(_exponents), draw(_bases), draw(_exponents)
    if shape == "zero":
        a, x = Fraction(0), draw(st.integers(1, 40))
        if draw(st.booleans()):
            b, y = Fraction(0), draw(st.integers(1, 40))
    elif shape == "equal":
        b, y = a, x
    elif shape == "near":
        b, y = a * (1 + Fraction(draw(st.sampled_from([1, -1])), 10**40)), x
    elif shape == "powers":
        c = draw(st.builds(Fraction, st.integers(1, 40), st.integers(1, 40)))
        x, y = draw(st.integers(-6, 12)), draw(st.integers(-6, 12))
        a, b = c**y, c**x  # a**x == c**(x*y) == b**y
    return a, x, b, y


@given(_power_pairs())
@settings(max_examples=400, deadline=None)
def test_power_sign_matches_fraction_powers(pair):
    a, x, b, y = pair
    d = a**x - b**y
    want = (d > 0) - (d < 0)
    assert power_sign(a, x, b, y) == want
    assert power_sign(b, y, a, x) == -want


def test_power_sign_edges():
    assert power_sign(Fraction(0), 3, Fraction(0), 1) == 0
    assert power_sign(Fraction(0), 0, Fraction(1), 5) == 0  # 0**0 == 1
    with pytest.raises(ZeroDivisionError):
        power_sign(Fraction(0), -1, Fraction(1), 1)
    with pytest.raises(ZeroDivisionError):
        power_sign(Fraction(1), 1, Fraction(0), -2)


# ---------------------------------------------------------------------------
# the root (z, 1): Gaussian rational points and the origin


class _GaussianPoint:
    """The Gaussian rational point as a class of its own, before it became
    the root (z, 1): the reference the p == 1 root must agree with."""

    def __init__(self, z: RationalComplex):
        self.z = z

    def modulus(self) -> ExactRadius:
        return ExactRadius(self.z.abs2(), 1)

    def pow_equals(self, e: int, q: RationalComplex) -> bool:
        if self.z.is_zero:
            return q.is_zero and e > 0
        if q.is_zero or self.z.abs2() ** e != q.abs2():
            return False
        return self.z**e == q

    def to_complex(self) -> complex:
        return self.z.to_complex()

    def arg(self) -> float:
        return self.z.arg()

    def __str__(self):
        return str(self.z)


def test_root_point_at_the_origin():
    origin = RootPoint(RC_ZERO)
    assert origin.is_zero
    assert origin.modulus() == ExactRadius.zero()
    assert str(origin) == "0"
    assert [e for e in range(-3, 5) if origin.pow_equals(e, RC(0))] == [1, 2, 3, 4]
    assert not any(origin.pow_equals(e, RC(1)) for e in range(-3, 5))
    with pytest.raises(ValueError):
        RootPoint(RC_ZERO, 2)


def test_qpoint_is_the_root_of_degree_one():
    lam = QPoint.of(Fraction(3, 2), -1)
    assert isinstance(lam, RootPoint)
    assert (lam.w, lam.p, lam.branch) == (RC(Fraction(3, 2), -1), 1, 0)
    assert lam.z == lam.w


def _bits(x: complex) -> tuple[str, str]:
    return x.real.hex(), x.imag.hex()


@given(_gaussian, st.integers(-3, 9), st.sampled_from(_UNITS[1:]))
@settings(max_examples=300, deadline=None)
def test_root_of_degree_one_matches_the_gaussian_point(z, e, u):
    lam, ref = RootPoint(z), _GaussianPoint(z)
    targets = [RC(0), RC(1), u]
    if not (z.is_zero and e <= 0):
        targets += [z**e, z**e * u]
    for q in targets:
        assert lam.pow_equals(e, q) == ref.pow_equals(e, q), (z, e, q)
    assert str(lam) == str(ref)
    assert lam.modulus() == ref.modulus()
    assert _bits(lam.to_complex()) == _bits(ref.to_complex())
    assert lam.arg().hex() == ref.arg().hex()
