"""Exact scalar arithmetic for the spectral analyzer.

Three kinds of numbers appear throughout:

* ``RationalComplex`` -- Gaussian rationals, the field every weight lives in.
* ``ExactRadius`` -- nonnegative reals of the form ``sq**(1/(2*p))`` with
  ``sq`` rational.  All radius comparisons cross-multiply exponents, so
  ordering and equality are decided over the integers.
* spectral sample points (``QPoint``, ``CirclePoint``, ``RootPoint``) --
  exact complex numbers at which the operator is probed.  ``CirclePoint``
  is a point of modulus exactly ``r`` in a rational unit direction;
  ``RootPoint`` is a chosen branch of a p-th root of a Gaussian rational.

Every predicate is decided exactly.  The one quantity not produced by
rational arithmetic is an integer winding count; it is an exact integer
mathematically (the caller first verifies the corresponding complex ratio
is a positive real) and is resolved with 60-digit evaluation plus a
consistency guard (``_winding_count``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import mpmath

INF = float("inf")


def is_infinite(d) -> bool:
    return d == INF


def _int_nth_root(x: int, n: int) -> tuple[int, bool]:
    """Floor of the n-th root of a nonnegative integer, and exactness."""
    if x < 0:
        raise ValueError("negative radicand")
    if n == 1 or x in (0, 1):
        return x, True
    lo, hi = 0, 1 << ((x.bit_length() + n - 1) // n + 1)
    while lo + 1 < hi:
        mid = (lo + hi) // 2
        if mid**n <= x:
            lo = mid
        else:
            hi = mid
    return lo, lo**n == x


def fraction_nth_root(q: Fraction, n: int) -> Fraction | None:
    """Exact n-th root of a nonnegative rational, or None."""
    rn, okn = _int_nth_root(q.numerator, n)
    if not okn:
        return None
    rd, okd = _int_nth_root(q.denominator, n)
    if not okd:
        return None
    return Fraction(rn, rd)


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
        re_n, re_d, im_n, im_d = (int(x) for x in parts)
        if re_d == 0 or im_d == 0:
            raise ZeroDivisionError("zero denominator in weight")
        return RationalComplex(Fraction(re_n, re_d), Fraction(im_n, im_d))

    def to_list(self) -> list[int]:
        return [self.re.numerator, self.re.denominator,
                self.im.numerator, self.im.denominator]

    @property
    def is_zero(self) -> bool:
        return self.re == 0 and self.im == 0

    def abs2(self) -> Fraction:
        return self.re * self.re + self.im * self.im

    def conj(self) -> "RationalComplex":
        return RationalComplex(self.re, -self.im)

    def __add__(self, o: "RationalComplex") -> "RationalComplex":
        return RationalComplex(self.re + o.re, self.im + o.im)

    def __sub__(self, o: "RationalComplex") -> "RationalComplex":
        return RationalComplex(self.re - o.re, self.im - o.im)

    def __neg__(self) -> "RationalComplex":
        return RationalComplex(-self.re, -self.im)

    def __mul__(self, o: "RationalComplex") -> "RationalComplex":
        return RationalComplex(self.re * o.re - self.im * o.im,
                               self.re * o.im + self.im * o.re)

    def __truediv__(self, o: "RationalComplex") -> "RationalComplex":
        d = o.abs2()
        if d == 0:
            raise ZeroDivisionError("division by zero RationalComplex")
        n = self * o.conj()
        return RationalComplex(n.re / d, n.im / d)

    def __pow__(self, e: int) -> "RationalComplex":
        if e < 0:
            return RC_ONE / (self ** (-e))
        out = RC_ONE
        base = self
        k = e
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def to_complex(self) -> complex:
        return complex(float(self.re), float(self.im))

    def __str__(self) -> str:
        if self.im == 0:
            return str(self.re)
        if self.re == 0:
            return f"{self.im}i"
        sign = "+" if self.im > 0 else "-"
        return f"{self.re}{sign}{abs(self.im)}i"


RC_ZERO = RationalComplex()
RC_ONE = RationalComplex.of(1)


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
        """Sign of self - other, decided over the integers."""
        a = self.sq**other.p
        b = other.sq**self.p
        return (a > b) - (a < b)

    def __lt__(self, o):
        return self.cmp(o) < 0

    def __le__(self, o):
        return self.cmp(o) <= 0

    def __gt__(self, o):
        return self.cmp(o) > 0

    def __ge__(self, o):
        return self.cmp(o) >= 0

    def pow2p_value(self, e: int) -> Fraction:
        """self**(2*p*e) as an exact rational (helper for power tests)."""
        return self.sq**e

    def rational_value(self) -> Fraction | None:
        """The radius as a Fraction when it is rational, else None."""
        if self.p != 1:
            return None
        return fraction_nth_root(self.sq, 2)

    def __float__(self) -> float:
        num, den = self.sq.numerator, self.sq.denominator
        try:
            return (num / den) ** (1.0 / (2 * self.p))
        except OverflowError:
            return math.exp((math.log(num) - math.log(den)) / (2 * self.p))

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


_WINDING_DPS = 60


def _winding_count(terms) -> int:
    """Round sum(c * arg(z) for c, z in terms) / (2*pi) to the integer it is.

    Callers establish by exact arithmetic that the sum is an integer multiple
    of 2*pi before calling; the guard only protects against precision loss.
    """
    with mpmath.workdps(_WINDING_DPS):
        total = mpmath.mpf(0)
        for c, z in terms:
            total += c * mpmath.atan2(
                mpmath.mpf(z.im.numerator) / z.im.denominator,
                mpmath.mpf(z.re.numerator) / z.re.denominator,
            )
        val = total / (2 * mpmath.pi())
        k = int(mpmath.nint(val))
        if abs(val - k) > mpmath.mpf("0.25"):
            raise RuntimeError("winding count did not resolve to an integer")
    return k


def _positive_real(z: RationalComplex) -> bool:
    return z.im == 0 and z.re > 0


class SpectralPoint:
    """An exact complex number usable as a spectral parameter."""

    def modulus(self) -> ExactRadius:
        raise NotImplementedError

    @property
    def is_zero(self) -> bool:
        return False

    def pow_equals(self, e: int, q: RationalComplex) -> bool:
        """Decide self**e == q exactly (self nonzero unless QPoint)."""
        raise NotImplementedError

    def to_complex(self) -> complex:
        raise NotImplementedError

    def equals(self, other: "SpectralPoint") -> bool:
        return points_equal(self, other)


@dataclass(frozen=True)
class QPoint(SpectralPoint):
    """A Gaussian rational sample point."""

    z: RationalComplex

    @staticmethod
    def of(re, im=0) -> "QPoint":
        return QPoint(RationalComplex.of(re, im))

    def modulus(self) -> ExactRadius:
        return ExactRadius(self.z.abs2(), 1)

    @property
    def is_zero(self) -> bool:
        return self.z.is_zero

    def pow_equals(self, e: int, q: RationalComplex) -> bool:
        if self.z.is_zero:
            return q.is_zero and e > 0
        # moduli first, over the integers: most candidates fail there
        if q.is_zero or self.z.abs2() ** e != q.abs2():
            return False
        return self.z**e == q

    def to_complex(self) -> complex:
        return self.z.to_complex()

    def __str__(self):
        return str(self.z)


@dataclass(frozen=True)
class CirclePoint(SpectralPoint):
    """The point ``r * u`` with u a rational direction of modulus one.

    Lets a sample sit exactly on a circle of irrational radius.
    """

    r: ExactRadius
    u: RationalComplex

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
        if q.abs2() ** self.r.p != self.r.pow2p_value(e):
            return False
        # then r**e == q * conj(u)**e needs the right side to be a positive
        # real; its modulus is |q| == r**e already
        return _positive_real(q * (self.u.conj() ** e))

    def to_complex(self) -> complex:
        return float(self.r) * self.u.to_complex()

    def __str__(self):
        return f"{self.r}*({self.u})"


@dataclass(frozen=True)
class RootPoint(SpectralPoint):
    """Branch ``j`` of the p-th root of nonzero w:

    ``|w|**(1/p) * exp(i*(arg w + 2*pi*j)/p)``.
    """

    w: RationalComplex
    p: int
    branch: int = 0

    def __post_init__(self):
        if self.w.is_zero:
            raise ValueError("use QPoint for the origin")
        if not (0 <= self.branch < self.p):
            raise ValueError("branch out of range")

    def modulus(self) -> ExactRadius:
        return ExactRadius(self.w.abs2(), self.p)

    def pow_equals(self, e: int, q: RationalComplex) -> bool:
        if q.is_zero:
            return False
        if self.w.abs2() ** e != q.abs2() ** self.p:
            return False
        # need e*arg(w) - p*arg(q) in 2*pi*Z, then the branch congruence
        zeta = (self.w**e) * (q.conj() ** self.p)
        if not _positive_real(zeta):
            return False
        s = _winding_count([(e, self.w), (-self.p, q)])
        return (s + e * self.branch) % self.p == 0

    def to_complex(self) -> complex:
        rad = float(self.modulus())
        theta = (math.atan2(float(self.w.im), float(self.w.re))
                 + 2 * math.pi * self.branch) / self.p
        return rad * complex(math.cos(theta), math.sin(theta))

    def __str__(self):
        return f"root{self.branch}({self.w})^(1/{self.p})"


def points_equal(a: SpectralPoint, b: SpectralPoint) -> bool:
    if isinstance(a, QPoint):
        if a.z.is_zero:
            return isinstance(b, QPoint) and b.z.is_zero
        return b.pow_equals(1, a.z)
    if isinstance(b, QPoint):
        return points_equal(b, a)
    if a.modulus() != b.modulus():
        return False
    if isinstance(a, CirclePoint) and isinstance(b, CirclePoint):
        return a.u == b.u  # equal moduli already checked
    if isinstance(a, RootPoint) and isinstance(b, RootPoint):
        zeta = (a.w**b.p) * (b.w.conj() ** a.p)
        if not _positive_real(zeta):
            return False
        s = _winding_count([(b.p, a.w), (-a.p, b.w)])
        return (s + a.branch * b.p - b.branch * a.p) % (a.p * b.p) == 0
    if isinstance(a, RootPoint) and isinstance(b, CirclePoint):
        a, b = b, a
    # a CirclePoint, b RootPoint: p*arg(u) - arg(w) = 2*pi*s and s == j mod p
    zeta = (a.u**b.p) * b.w.conj()
    if not _positive_real(zeta):
        return False
    s = _winding_count([(b.p, a.u), (-1, b.w)])
    return (s - b.branch) % b.p == 0


# ---------------------------------------------------------------------------
# rationals strictly inside radius intervals


def rational_between(lo: ExactRadius, hi: ExactRadius | None) -> Fraction:
    """A positive rational strictly between two radii (hi=None: above lo).

    The dyadic c/2**k with the least k, and for it the least c: that is
    floor(lo * 2**k) + 1, found over the integers as an integer root.
    Without hi it is the least integer above lo.
    """
    n = 2 * lo.p
    k = 0
    while True:
        scaled = lo.sq * 2 ** (n * k)  # (lo * 2**k) ** n
        c = _int_nth_root(scaled.numerator // scaled.denominator, n)[0] + 1
        cand = Fraction(c, 2**k)
        if hi is None or ExactRadius.from_fraction(cand) < hi:
            return cand
        k += 1
