"""Exact scalar arithmetic for the spectral analyzer.

Three kinds of numbers appear throughout:

* ``RationalComplex`` -- Gaussian rationals, the field every weight lives in.
* ``ExactRadius`` -- nonnegative reals of the form ``sq**(1/(2*p))`` with
  ``sq`` rational.
* spectral sample points (``SpectralPoint`` names ``RootPoint | CirclePoint``)
  -- exact complex numbers at which the operator is probed.  ``RootPoint`` is
  a chosen branch of a p-th root of a Gaussian rational; at p == 1 it is the
  Gaussian rational itself (``QPoint`` builds it), and (0, 1) is the origin.
  ``CirclePoint`` is a point of modulus exactly ``r`` in a rational unit
  direction.

Every predicate is decided exactly, with integer and rational arithmetic
only.  ``power_sign`` compares powers of rationals over the integers, and
radius order, the dyadic search of ``rational_between`` and the modulus
tests of the points all go through it.  Products of
Gaussian rationals (``RationalComplex.product``, which ``*`` and cycle
products share) are formed over Z[i] with one common integer denominator
and reduced once, at the end, rather than after every factor.  Where a
branch of a root is tested, the argument enters through an integer wrap
count (``RationalComplex.pow_wrap``), which sign tests on the real and
imaginary parts decide.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

INF = float("inf")


def is_infinite(d) -> bool:
    return d == INF


def _int_nth_root(x: int, n: int) -> tuple[int, bool]:
    """Floor of the n-th root of a nonnegative integer, and exactness."""
    if x < 0:
        raise ValueError("negative radicand")
    if n == 1 or x in (0, 1):
        return x, True
    if n == 2:
        r = math.isqrt(x)
    else:
        # Newton's step on r**n - x from above the root decreases strictly
        # until it reaches the floor of the root
        r = 1 << ((x.bit_length() + n - 1) // n)
        while True:
            s = ((n - 1) * r + x // r ** (n - 1)) // n
            if s >= r:
                break
            r = s
    return r, r**n == x


def fraction_nth_root(q: Fraction, n: int) -> Fraction | None:
    """Exact n-th root of a nonnegative rational, or None."""
    rn, okn = _int_nth_root(q.numerator, n)
    if not okn:
        return None
    rd, okd = _int_nth_root(q.denominator, n)
    if not okd:
        return None
    return Fraction(rn, rd)


def root_float(q: Fraction, n: int) -> float:
    """q**(1/n) as a float, for a nonnegative rational q whose root is in the
    float range, even where q itself is not."""
    num, den = q.numerator, q.denominator
    try:
        x = num / den
    except OverflowError:
        x = math.inf
    if num and not sys.float_info.min <= x < math.inf:
        return math.exp((math.log(num) - math.log(den)) / n)
    return x ** (1.0 / n)


def power_sign(a: Fraction, x: int, b: Fraction, y: int) -> int:
    """Sign of a**x - b**y for nonnegative rationals a and b, decided over
    the integers: with a = n1/d1 and b = n2/d2 it is the sign of
    n1**x * d2**y - n2**y * d1**x.  A negative exponent inverts its base,
    which must then be nonzero."""
    (n1, d1), (n2, d2) = a.as_integer_ratio(), b.as_integer_ratio()
    if x < 0:
        if not n1:
            raise ZeroDivisionError("zero to a negative power")
        n1, d1, x = d1, n1, -x
    if y < 0:
        if not n2:
            raise ZeroDivisionError("zero to a negative power")
        n2, d2, y = d2, n2, -y
    u, v = n1**x * d2**y, n2**y * d1**x
    return (u > v) - (u < v)


def _divisors(n: int):
    return [d for d in range(1, n + 1) if n % d == 0]


@dataclass(frozen=True)
class RationalComplex:
    """A complex number with rational real and imaginary parts."""

    re: Fraction = Fraction(0)
    im: Fraction = Fraction(0)

    @staticmethod
    def of(re, im=0) -> "RationalComplex":
        return RationalComplex(Fraction(re), Fraction(im))

    @staticmethod
    def from_list(parts) -> "RationalComplex":
        re_n, re_d, im_n, im_d = parts
        if re_d == 0 or im_d == 0:
            raise ZeroDivisionError("zero denominator in weight")
        return RationalComplex(Fraction(re_n, re_d), Fraction(im_n, im_d))

    def to_list(self) -> list[int]:
        return [self.re.numerator, self.re.denominator,
                self.im.numerator, self.im.denominator]

    @staticmethod
    def product(ws) -> "RationalComplex":
        """The product of the Gaussian rationals ws (1 for none).

        Each factor a/b + (c/d)i is written (ad + cb*i)/(bd).  The numerators
        multiply in Z[i] and the denominators in Z, and the result is reduced
        once, by one gcd per part."""
        x, y, den = 1, 0, 1
        for w in ws:
            b, d = w.re.denominator, w.im.denominator
            u, v = w.re.numerator * d, w.im.numerator * b
            x, y = x * u - y * v, x * v + y * u
            den *= b * d
        return RationalComplex(Fraction(x, den), Fraction(y, den))

    @property
    def is_zero(self) -> bool:
        return not self.re.numerator and not self.im.numerator

    def abs2(self) -> Fraction:
        b, d = self.re.denominator, self.im.denominator
        u, v = self.re.numerator * d, self.im.numerator * b
        return Fraction(u * u + v * v, (b * d) ** 2)

    def conj(self) -> "RationalComplex":
        return RationalComplex(self.re, -self.im)

    def __mul__(self, o: "RationalComplex") -> "RationalComplex":
        return RationalComplex.product((self, o))

    def __truediv__(self, o: "RationalComplex") -> "RationalComplex":
        d = o.abs2()
        if d == 0:
            raise ZeroDivisionError("division by zero RationalComplex")
        n = self * o.conj()
        return RationalComplex(n.re / d, n.im / d)

    def __pow__(self, e: int) -> "RationalComplex":
        return self.pow_wrap(e)[0]

    def pow_wrap(self, e: int) -> tuple["RationalComplex", int]:
        """(self**e, k) with e*arg(self) == arg(self**e) + 2*pi*k, every arg
        in (-pi, pi].  Square-and-multiply, and each product adds the wrap
        that sign tests on its factors and its result decide."""
        if e < 0:
            z, k = self.pow_wrap(-e)
            # arg(1/z) == -arg(z), except that a negative real keeps arg pi
            return RC_ONE / z, -k - (z.im == 0 and z.re < 0)
        out, k_out = RC_ONE, 0
        base, k_base = self, 0
        while e:
            if e & 1:
                out, k_out = _wrapped_product(out, k_out, base, k_base)
            e >>= 1
            if e:
                base, k_base = _wrapped_product(base, k_base, base, k_base)
        return out, k_out

    def to_complex(self) -> complex:
        return complex(float(self.re), float(self.im))

    def arg(self) -> float:
        """arg self, from its parts scaled into the float range (0 at 0)."""
        big = max(abs(self.re), abs(self.im))
        if not big:
            return 0.0
        return math.atan2(float(self.im / big), float(self.re / big))

    def __str__(self) -> str:
        if self.im == 0:
            return str(self.re)
        if self.re == 0:
            return f"{self.im}i"
        sign = "+" if self.im > 0 else "-"
        return f"{self.re}{sign}{abs(self.im)}i"


RC_ZERO = RationalComplex()
RC_ONE = RationalComplex.of(1)


def _half_plane(z: RationalComplex) -> int:
    """+1 for arg z in (0, pi], 0 for arg z == 0 (and for z == 0), else -1."""
    im = z.im.numerator
    if im:
        return 1 if im > 0 else -1
    return 1 if z.re.numerator < 0 else 0


def _wrapped_product(a: RationalComplex, ka: int, b: RationalComplex,
                     kb: int) -> tuple[RationalComplex, int]:
    """(a*b, ka + kb + c) with arg a + arg b == arg(a*b) + 2*pi*c.

    c is +1 when both args lie in (0, pi] and their sum leaves that range,
    -1 when both lie in (-pi, 0) and their sum leaves it, else 0."""
    ab = a * b
    h = _half_plane(a)
    if h and h == _half_plane(b) and _half_plane(ab) != h:
        return ab, ka + kb + h
    return ab, ka + kb


@dataclass(frozen=True)
class ExactRadius:
    """The nonnegative real ``sq**(1/(2*p))``, kept in reduced form.

    Reduction lowers ``p`` whenever ``sq`` has an exact root, so equal radii
    compare equal structurally and can be hashed.
    """

    sq: Fraction
    p: int = 1

    def __post_init__(self):
        sq = Fraction(self.sq)
        if sq < 0:
            raise ValueError("negative squared radius")
        p = int(self.p)
        if p < 1:
            raise ValueError("root order must be positive")
        if sq in (0, 1):
            p, red = 1, sq
        else:
            red = sq
            for d in _divisors(p):
                root = fraction_nth_root(sq, p // d)
                if root is not None:
                    p, red = d, root
                    break
        object.__setattr__(self, "sq", red)
        object.__setattr__(self, "p", p)

    @staticmethod
    def zero() -> "ExactRadius":
        return ExactRadius(Fraction(0))

    @staticmethod
    def from_fraction(r) -> "ExactRadius":
        r = Fraction(r)
        if r < 0:
            raise ValueError("radius must be nonnegative")
        return ExactRadius(r * r, 1)

    @property
    def is_zero(self) -> bool:
        return self.sq == 0

    def cmp(self, other: "ExactRadius") -> int:
        """Sign of self - other: the sign of self.sq**other.p -
        other.sq**self.p."""
        return power_sign(self.sq, other.p, other.sq, self.p)

    def __lt__(self, o):
        return self.cmp(o) < 0

    def __le__(self, o):
        return self.cmp(o) <= 0

    def __gt__(self, o):
        return self.cmp(o) > 0

    def __ge__(self, o):
        return self.cmp(o) >= 0

    def rational_value(self) -> Fraction | None:
        """The radius as a Fraction when it is rational, else None."""
        if self.p != 1:
            return None
        return fraction_nth_root(self.sq, 2)

    def __float__(self) -> float:
        return root_float(self.sq, 2 * self.p)

    def __str__(self) -> str:
        r = self.rational_value()
        if r is not None:
            return str(r)
        s = fraction_nth_root(self.sq, 2)
        if s is not None:
            return f"{s}^(1/{self.p})"
        return f"({self.sq})^(1/{2 * self.p})"

    def to_json(self) -> list:
        return [self.sq.numerator, self.sq.denominator, self.p]


# ---------------------------------------------------------------------------
# exact spectral sample points


def _positive_real(z: RationalComplex) -> bool:
    return z.im == 0 and z.re > 0


@dataclass(frozen=True)
class RootPoint:
    """Branch ``j`` of the p-th root of w:

    ``|w|**(1/p) * exp(i*(arg w + 2*pi*j)/p)``.

    At p == 1 it is the Gaussian rational w itself, and (0, 1, 0) is the
    origin, the one root of zero.
    """

    w: RationalComplex
    p: int = 1
    branch: int = 0

    def __post_init__(self):
        if self.w.is_zero and self.p != 1:
            raise ValueError("the origin is the root (0, 1)")
        if not (0 <= self.branch < self.p):
            raise ValueError("branch out of range")

    @property
    def is_zero(self) -> bool:
        return self.w.is_zero

    def modulus(self) -> ExactRadius:
        return self._modulus

    @cached_property
    def _modulus(self) -> ExactRadius:
        return ExactRadius(self.w.abs2(), self.p)

    def pow_equals(self, e: int, q: RationalComplex) -> bool:
        """Decide self**e == q exactly (0**e == q only for e > 0, q == 0)."""
        if self.w.is_zero or q.is_zero:
            return self.w.is_zero and q.is_zero and e > 0
        if e % self.p == 0:
            # every branch has self**p == w, so self**e == w**(e/p)
            return self.w ** (e // self.p) == q
        return self._pow_equals_by_winding(e, q)

    def _pow_equals_by_winding(self, e: int, q: RationalComplex) -> bool:
        """self**e == q for nonzero q, decided for any e from the wrap
        counts of w**e and q**p."""
        if power_sign(self.w.abs2(), e, q.abs2(), self.p):
            return False
        # self**e == q iff e*(arg w + 2*pi*j) - p*arg(q) lies in 2*pi*p*Z.
        # With e*arg(w) == arg(W) + 2*pi*k1 and p*arg(q) == arg(Q) + 2*pi*k2
        # that is arg(W) == arg(Q) and k1 - k2 + e*j == 0 (mod p)
        big_w, k1 = self.w.pow_wrap(e)
        big_q, k2 = q.pow_wrap(self.p)
        if not _positive_real(big_w * big_q.conj()):
            return False
        return (k1 - k2 + e * self.branch) % self.p == 0

    def arg(self) -> float:
        """An argument of self in radians, overflow-safe (0 at 0)."""
        return (self.w.arg() + 2 * math.pi * self.branch) / self.p

    def to_complex(self) -> complex:
        if self.p == 1:
            return self.w.to_complex()
        rad, theta = float(self.modulus()), self.arg()
        return rad * complex(math.cos(theta), math.sin(theta))

    def __str__(self):
        if self.p == 1:
            return str(self.w)
        return f"root{self.branch}({self.w})^(1/{self.p})"


class QPoint(RootPoint):
    """The Gaussian rational point z, built as the root (z, 1)."""

    def __init__(self, z: RationalComplex):
        super().__init__(z)

    @staticmethod
    def of(re, im=0) -> "QPoint":
        return QPoint(RationalComplex.of(re, im))

    @property
    def z(self) -> RationalComplex:
        return self.w


@dataclass(frozen=True)
class CirclePoint:
    """The point ``r * u`` with u a rational direction of modulus one.

    Lets a sample sit exactly on a circle of irrational radius.
    """

    r: ExactRadius
    u: RationalComplex
    is_zero = False

    def __post_init__(self):
        if self.u.abs2() != 1:
            raise ValueError("direction must have modulus one")
        if self.r.is_zero:
            raise ValueError("use QPoint for the origin")

    def modulus(self) -> ExactRadius:
        return self.r

    def pow_equals(self, e: int, q: RationalComplex) -> bool:
        if q.is_zero:
            return False
        # moduli first, over the integers: |q|**(2*p) == sq**e
        if power_sign(q.abs2(), self.r.p, self.r.sq, e):
            return False
        # then r**e == q * conj(u)**e needs the right side to be a positive
        # real; its modulus is |q| == r**e already
        return _positive_real(q * (self.u.conj() ** e))

    def to_complex(self) -> complex:
        return float(self.r) * self.u.to_complex()

    def arg(self) -> float:
        return self.u.arg()

    def __str__(self):
        return f"{self.r}*({self.u})"


# an exact complex number usable as a spectral parameter
SpectralPoint = RootPoint | CirclePoint


# ---------------------------------------------------------------------------
# rationals strictly inside radius intervals


def rational_between(lo: ExactRadius, hi: ExactRadius | None) -> Fraction:
    """A positive rational strictly between two radii (hi=None: above lo).

    The dyadic c/2**k with the least k, and for it the least c: that is
    floor(lo * 2**k) + 1, found over the integers as an integer root.
    Without hi it is the least integer above lo.  The candidate at k + 1 is
    at most the one at k, so whether it lies below hi is monotone in k: k
    doubles until it does, then a bisection finds the least such k.
    """
    n = 2 * lo.p

    def fitting(k: int) -> Fraction | None:
        """The candidate at k, or None when it does not lie below hi."""
        scaled = lo.sq * 2 ** (n * k)  # (lo * 2**k) ** n
        c = _int_nth_root(scaled.numerator // scaled.denominator, n)[0] + 1
        cand = Fraction(c, 2**k)
        # cand < hi == hi.sq**(1/(2*hi.p)) iff cand**(2*hi.p) < hi.sq
        return (cand if hi is None or power_sign(cand, 2 * hi.p, hi.sq, 1) < 0
                else None)

    bad, good = -1, 0
    while (best := fitting(good)) is None:
        bad, good = good, 2 * good or 1
    while good - bad > 1:
        mid = (bad + good) // 2
        if (cand := fitting(mid)) is None:
            bad = mid
        else:
            good, best = mid, cand
    return best
