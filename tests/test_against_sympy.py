"""Property tests of the exact predicates against sympy.

sympy supplies the numbers: ``sympy.root(w, p, j)`` is branch j of the p-th
root of w, taken from the principal argument in (-pi, pi], which is the
convention of ``RootPoint``.  Each decision is exact.  For an algebraic lam
with lam**m == c (c a Gaussian rational), lam**e == q forces c**e == q**m,
which sympy checks over the Gaussian rationals.  Given that, lam**e / q is an
m-th root of unity.  Distinct m-th roots of unity lie at least 1 apart for
m <= 6, so it is 1 exactly when it lies within 1/2 of 1.
"""

import math
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from ckspec.exact import (CirclePoint, ExactRadius, QPoint, RationalComplex,
                          RootPoint)
from ckspec.radialset import _root_subset, root_intersection

sympy = pytest.importorskip("sympy")

RC = RationalComplex.of
_UNITS = [RC(1), RC(-1), RC(0, 1), RC(0, -1)]
_DIRECTIONS = _UNITS + [RC(Fraction(3, 5), Fraction(4, 5)),
                        RC(Fraction(-5, 13), Fraction(-12, 13))]


def _sym(z: RationalComplex):
    return (sympy.Rational(z.re.numerator, z.re.denominator)
            + sympy.I * sympy.Rational(z.im.numerator, z.im.denominator))


def _gaussian_value(x) -> RationalComplex | None:
    """x as a RationalComplex when sympy finds it Gaussian rational."""
    re, im = sympy.expand_complex(x).as_real_imag()
    if isinstance(re, sympy.Rational) and isinstance(im, sympy.Rational):
        return RC(Fraction(int(re.p), int(re.q)), Fraction(int(im.p), int(im.q)))
    return None


def _power_is(lam, m: int, c, e: int, q) -> bool:
    """lam**e == q for a nonzero lam with lam**m == c, m <= 6."""
    assert 1 <= m <= 6
    if q == 0:
        return False
    if sympy.expand_complex(c**e - q**m) != 0:
        return False
    return abs(complex(sympy.N(lam**e / q, 30)) - 1) < 0.5


_fracs = st.builds(Fraction, st.integers(-6, 6), st.integers(1, 4))
_gaussian = st.builds(RationalComplex, _fracs, _fracs)
_nonzero = _gaussian.filter(lambda z: not z.is_zero)
_TARGETS = ["power", "rotated", "scaled", "zero", "free"]


def _target(power, kind, v, free):
    return {"power": power * v, "rotated": power * v * _DIRECTIONS[4],
            "scaled": power * RC(2), "zero": RC(0), "free": free}[kind]


# parts up to 10**6 over 10**6, with zero parts and zero weights mixed in
_big_fracs = st.one_of(st.just(Fraction(0)),
                       st.builds(Fraction, st.integers(-10**6, 10**6),
                                 st.integers(1, 10**6)))
_big_gaussian = st.one_of(st.just(RC(0)),
                          st.builds(RationalComplex, _big_fracs, _big_fracs))


def _assert_reduced(*parts):
    for q in parts:
        assert type(q) is Fraction
        assert q.denominator > 0
        assert math.gcd(q.numerator, q.denominator) == 1


@given(st.lists(_big_gaussian, max_size=12))
@example([])
@settings(max_examples=200, deadline=None)
def test_product_matches_sympy(ws):
    w = RationalComplex.product(ws)
    _assert_reduced(w.re, w.im)
    assert sympy.expand(_sym(w) - sympy.Mul(*map(_sym, ws))) == 0


def test_product_of_no_factors_is_one():
    w = RationalComplex.product([])
    assert w == RC(1)
    _assert_reduced(w.re, w.im)


@given(_big_gaussian, _big_gaussian)
@settings(max_examples=300, deadline=None)
def test_mul_and_abs2_match_sympy(a, b):
    ab, n = a * b, a.abs2()
    _assert_reduced(ab.re, ab.im, n)
    assert sympy.expand(_sym(ab) - _sym(a) * _sym(b)) == 0
    assert sympy.Rational(n.numerator, n.denominator) == sympy.expand(
        _sym(a) * sympy.conjugate(_sym(a)))


# scaled directions put powers on the axes and on the negative reals often
_turning = st.one_of(_nonzero, st.builds(lambda n, u: RC(n) * u,
                                         st.integers(1, 3),
                                         st.sampled_from(_DIRECTIONS)))


@given(_turning, st.integers(-6, 12))
@example(RC(-2), -1)  # arg(1/z) == pi, not -pi, for a negative real z
@example(RC(0, 1), 3)  # i**3 == -i wraps once
@example(RC(-1, -1), -4)
@settings(max_examples=300, deadline=None)
def test_pow_wrap_counts_turns(z, e):
    power, k = z.pow_wrap(e)
    zs = _sym(z)
    assert power == _gaussian_value(zs**e)
    # (e*arg(z) - arg(z**e)) / (2*pi) is an integer, so 30 digits name it
    turns = (e * sympy.arg(zs) - sympy.arg(_sym(power))) / (2 * sympy.pi)
    assert k == round(float(sympy.N(turns, 30)))


@given(_nonzero, st.integers(1, 4), st.sampled_from(_UNITS),
       st.integers(-3, 9), st.sampled_from(_TARGETS), st.sampled_from(_UNITS),
       _gaussian)
@example(RC(2), 3, RC(-1), 1, "power", RC(-1), RC(0))  # branch 1 of z**3 == -8 is -2
@settings(max_examples=300, deadline=None)
def test_root_point_pow_equals_every_branch(z, p, u, e, kind, v, free):
    # w = z**p * u: some branch of its p-th root is z times a unit, so
    # q = z**e * v is a power of a branch often enough to see both answers
    w = z**p * u
    q = _target(z**e, kind, v, free)
    ws, qs = _sym(w), _sym(q)
    for j in range(p):
        want = _power_is(sympy.root(ws, p, j), p, ws, e, qs)
        assert RootPoint(w, p, j).pow_equals(e, q) == want, (w, p, j, e, q)


@given(_gaussian, st.integers(-3, 9), st.sampled_from(_TARGETS),
       st.sampled_from(_DIRECTIONS), _gaussian)
@settings(max_examples=200, deadline=None)
def test_qpoint_pow_equals(z, e, kind, v, free):
    if z.is_zero and e <= 0:
        return  # 0**e is undefined for e < 0, and z = 0 is only tested at e > 0
    q = _target(z**e, kind, v, free)
    want = sympy.expand_complex(_sym(z)**e - _sym(q)) == 0
    assert QPoint(z).pow_equals(e, q) == want


@given(st.integers(1, 9), st.integers(1, 9), st.sampled_from([1, 2, 3]),
       st.sampled_from([1, 2, 6]), st.sampled_from(_DIRECTIONS),
       st.integers(-3, 9), st.sampled_from(_TARGETS),
       st.sampled_from(_DIRECTIONS), _gaussian)
@settings(max_examples=200, deadline=None)
def test_circle_point_pow_equals(a, b, p, g, u, e, kind, v, free):
    # r = (a/b)**(g/(2p)): rational, a root of a rational, or neither
    sq = Fraction(a, b) ** g
    lam = CirclePoint(ExactRadius(sq, p), u)
    lam_s = sympy.root(sympy.Rational(sq.numerator, sq.denominator), 2 * p) * _sym(u)
    power = _gaussian_value(lam_s**e)
    if power is None:
        kind = "free" if kind == "power" else kind
        power = RC(1)
    q = _target(power, kind, v, free)
    c = sympy.Rational(sq.numerator, sq.denominator) * _sym(u) ** (2 * p)
    assert lam.pow_equals(e, q) == _power_is(lam_s, 2 * p, c, e, _sym(q))


_radius = st.tuples(st.integers(0, 400), st.integers(1, 400), st.integers(1, 4))


@given(_radius, _radius, st.integers(1, 3))
@settings(max_examples=200, deadline=None)
def test_exact_radius_cmp_and_reduction(x, y, k):
    (n1, d1, p1), (n2, d2, p2) = x, y
    pairs = [(Fraction(n1, d1), p1, Fraction(n2, d2), p2),
             # the same radius written as (sq**k)**(1/(2*p*k))
             (Fraction(n1, d1), p1, Fraction(n1, d1) ** k, p1 * k)]
    for sq1, q1, sq2, q2 in pairs:
        a, b = ExactRadius(sq1, q1), ExactRadius(sq2, q2)
        sa = sympy.root(sympy.Rational(sq1.numerator, sq1.denominator), 2 * q1)
        sb = sympy.root(sympy.Rational(sq2.numerator, sq2.denominator), 2 * q2)
        diff = sa - sb
        want = 0 if diff == 0 else (1 if diff.is_positive else -1)
        assert diff == 0 or diff.is_positive is not None
        assert a.cmp(b) == want and b.cmp(a) == -want
        # the reduced form is the same number, with the least root order
        red = sympy.root(sympy.Rational(a.sq.numerator, a.sq.denominator), 2 * a.p)
        assert red - sa == 0
        assert not any(isinstance(red ** (2 * d), sympy.Rational)
                       for d in range(1, a.p))


_BASES = [RC(1), RC(-1), RC(0, 1), RC(2), RC(-2), RC(0, 2), RC(1, 1),
          RC(Fraction(1, 2), -1)]
_root_set = st.builds(lambda b, k, u, p: (b**k * u, p),
                      st.sampled_from(_BASES), st.integers(1, 4),
                      st.sampled_from(_UNITS), st.integers(1, 4))


@given(_root_set, _root_set)
@settings(max_examples=200, deadline=None)
def test_root_subset_and_intersection(a, b):
    (wa, pa), (wb, pb) = a, b
    was, wbs = _sym(wa), _sym(wb)
    roots_a = [sympy.root(was, pa, j) for j in range(pa)]
    common = [lam for lam in roots_a if _power_is(lam, pa, was, pb, wbs)]
    assert _root_subset(a, b) == (len(common) == pa)
    inter = root_intersection(a, b)
    if inter is None:
        assert common == []
    else:
        # the g roots of z**g == u are exactly the common roots
        u, g = inter
        assert len(common) == g
        assert all(_power_is(lam, pa, was, g, _sym(u)) for lam in common)


# branch j of z**4 == -4 is (1 + i) * i**j; (1 + i)**4 == -4 on every branch
@given(_nonzero, st.integers(1, 4), st.integers(0, 3), st.sampled_from(_UNITS),
       st.integers(-3, 3), st.sampled_from(_TARGETS), st.sampled_from(_UNITS),
       _gaussian)
@example(RC(1, 1), 4, 0, RC(1), 1, "power", RC(1), RC(0))
@example(RC(1, 1), 4, 1, RC(1), -1, "power", RC(1), RC(0))
@example(RC(1, 1), 4, 2, RC(1), 0, "power", RC(1), RC(0))
@example(RC(1, 1), 4, 3, RC(1), 3, "rotated", RC(1), RC(0))
@settings(max_examples=200, deadline=None)
def test_root_point_pow_equals_at_multiples_of_the_period(z, p, j, u, k, kind,
                                                          v, free):
    # e = k*p: lam**e == w**k on every branch, which the direct test uses
    w = z**p * u
    q = _target(w**k, kind, v, free)
    j %= p
    ws = _sym(w)
    want = _power_is(sympy.root(ws, p, j), p, ws, k * p, _sym(q))
    assert RootPoint(w, p, j).pow_equals(k * p, q) == want, (w, p, j, k, q)
