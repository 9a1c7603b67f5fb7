"""Exact algebra of rotation-invariant-plus-finite regions of the plane.

Every spectral set this package emits is a ``RadialSet``: a finite union of
closed annuli (circles and disks are degenerate annuli) together with a
finite point part.  The point part is a list of *root sets*
{z : z**p == W}, stored by the pair (W, p) so membership is a rational power
test rather than a floating comparison.  A Gaussian rational point z is the
root set (z, 1), and the origin is (0, 1).

Canonical form: annuli sorted, disjoint, touching intervals merged; root
sets deduplicated and dropped when an annulus or another root set already
covers them.  Union and intersection are closed on canonical forms;
complements are reported as the radial gaps (finitely many points never
disconnect a planar open set, so the point part only punctures gaps).
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass

from .exact import (RC_ZERO, ExactRadius, RationalComplex, RootPoint,
                    SpectralPoint, root_float)

ORIGIN = (RC_ZERO, 1)  # the root set {z : z**1 == 0}


@dataclass(frozen=True)
class RadialSet:
    """Closed annuli plus root sets (W, p), where p == 1 is a single point."""

    annuli: tuple[tuple[ExactRadius, ExactRadius], ...] = ()
    root_sets: tuple[tuple[RationalComplex, int], ...] = ()

    # --- constructors ------------------------------------------------------

    @staticmethod
    def circle(r: ExactRadius) -> "RadialSet":
        return canonicalize(annuli=[(r, r)])

    @staticmethod
    def disk(r: ExactRadius) -> "RadialSet":
        return canonicalize(annuli=[(ExactRadius.zero(), r)])

    # --- queries -----------------------------------------------------------

    def radial_contains(self, lo: ExactRadius,
                        hi: ExactRadius | None = None) -> bool:
        """Whether one annulus holds every radius from lo to hi (default lo)."""
        return _covers(self.annuli, lo, lo if hi is None else hi)

    def member(self, lam: SpectralPoint) -> bool:
        """Exact membership of a spectral point."""
        return (self.radial_contains(lam.modulus())
                or any(lam.pow_equals(p, w) for w, p in self.root_sets))

    def point_members(self) -> list[SpectralPoint]:
        """The finite point part as exact sample points."""
        return [RootPoint(w, p, j) for w, p in self.root_sets for j in range(p)]

    def issubset(self, other: "RadialSet") -> bool:
        return (all(_covers(other.annuli, lo, hi) for lo, hi in self.annuli)
                and all(other.member(pt) for pt in self.point_members()))

    def __eq__(self, other) -> bool:
        if not isinstance(other, RadialSet):
            return NotImplemented
        return (self.annuli == other.annuli and self.issubset(other)
                and other.issubset(self))

    def __hash__(self):
        return hash(self.annuli)

    def max_radius(self) -> ExactRadius | None:
        """Largest modulus present, or None for the empty set."""
        return max([hi for _, hi in self.annuli]
                   + [_root_radius(rs) for rs in self.root_sets], default=None)

    def is_rotation_invariant(self) -> bool:
        """True when the point part is at most the origin."""
        return all(w.is_zero for w, _ in self.root_sets)

    # --- serialization -----------------------------------------------------

    def to_json(self) -> dict:
        return {
            "annuli": [[lo.to_json(), hi.to_json()] for lo, hi in self.annuli],
            "points": [w.to_list() for w, p in self.root_sets if p == 1],
            "root_sets": [w.to_list() + [p] for w, p in self.root_sets
                          if p > 1],
        }

    def describe(self) -> str:
        parts = []
        for lo, hi in self.annuli:
            if lo.is_zero:
                parts.append(f"disk r<={hi}")
            elif lo == hi:
                parts.append(f"circle r={lo}")
            else:
                parts.append(f"annulus {lo}<=r<={hi}")
        parts += [f"{{{w}}}" if p == 1 else f"{{z: z^{p}={w}}}"
                  for w, p in self.root_sets]
        return " u ".join(parts) if parts else "(empty)"


# ---------------------------------------------------------------------------
# canonicalization


def canonicalize(annuli=(), root_sets=()) -> RadialSet:
    ann: list[tuple[ExactRadius, ExactRadius]] = []
    root_sets = list(root_sets)
    for lo, hi in annuli:
        if lo > hi:
            raise ValueError(f"annulus with lo > hi: [{lo}, {hi}]")
        if hi.is_zero:
            root_sets.append(ORIGIN)  # the degenerate disk [0, 0] is the origin
        else:
            ann.append((lo, hi))
    ann = _merge_annuli(ann)

    # deduplicate first: two equal entries would each drop the other below
    roots: list[tuple[RationalComplex, int]] = []
    for rs in root_sets:
        if rs[0].is_zero:
            rs = ORIGIN  # z**p == 0 only at z == 0
        if rs in roots:
            continue
        r = _root_radius(rs)
        if not _covers(ann, r, r):
            roots.append(rs)
    # drop root sets already covered by another root set
    roots = [a for a in roots
             if not any(a != b and _root_subset(a, b) for b in roots)]
    roots.sort(key=lambda rp: (rp[1], rp[0].re, rp[0].im))
    return RadialSet(annuli=tuple(ann), root_sets=tuple(roots))


def _root_radius(rs: tuple[RationalComplex, int]) -> ExactRadius:
    """The common modulus |W|**(1/p) of the root set (W, p)."""
    w, p = rs
    return ExactRadius(w.abs2(), p)


def _covers(ann, lo: ExactRadius, hi: ExactRadius) -> bool:
    """Whether one annulus of a canonical list holds every radius from lo to
    hi.  The annuli are sorted and disjoint, so only the last one starting
    at or below lo can, and one bisection finds it."""
    i = bisect_right(ann, lo, key=lambda a: a[0])
    return i > 0 and hi <= ann[i - 1][1]


def _merge_annuli(ann):
    merged: list[tuple[ExactRadius, ExactRadius]] = []
    for lo, hi in sorted(ann, key=lambda a: a[0]):
        if merged and lo <= merged[-1][1]:
            plo, phi = merged[-1]
            merged[-1] = (plo, hi if hi > phi else phi)
        else:
            merged.append((lo, hi))
    return merged


def _root_subset(a: tuple[RationalComplex, int], b: tuple[RationalComplex, int]) -> bool:
    """Whether root set a is contained in root set b: the pa roots of wa
    solve z**pb == wb exactly when pa divides pb and wa**(pb/pa) == wb."""
    wa, pa = a
    wb, pb = b
    return pb % pa == 0 and wa**(pb // pa) == wb


def root_intersection(a, b):
    """Intersection of two root sets, as a root set (W, p) or None if empty.

    Common roots of z^p1 == w1 and z^p2 == w2 satisfy z^g == w1^x w2^y for
    g = gcd(p1, p2) = x p1 + y p2; the candidate is the full intersection
    exactly when it is consistent with both defining equations.  With p1 or
    p2 equal to 1 the Bezout exponents are 0 and 1, so the origin (0, 1) is
    never raised to a negative power.
    """
    (w1, p1), (w2, p2) = a, b
    g = math.gcd(p1, p2)
    x, y = _bezout(p1, p2)
    u = (w1**x) * (w2**y)
    if u**(p1 // g) == w1 and u**(p2 // g) == w2:
        return (u, g)
    return None


def _bezout(a: int, b: int) -> tuple[int, int]:
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    return old_s, old_t


# ---------------------------------------------------------------------------
# set operations


def union(a: RadialSet, b: RadialSet) -> RadialSet:
    return canonicalize(annuli=a.annuli + b.annuli,
                        root_sets=a.root_sets + b.root_sets)


def intersect(a: RadialSet, b: RadialSet) -> RadialSet:
    ann = []
    for lo1, hi1 in a.annuli:
        for lo2, hi2 in b.annuli:
            lo = lo1 if lo1 > lo2 else lo2
            hi = hi1 if hi1 < hi2 else hi2
            if lo <= hi:
                ann.append((lo, hi))
    # a root set lies on one circle, so an annulus holds all of it or none
    roots = [rs for rs in a.root_sets if b.radial_contains(_root_radius(rs))]
    roots += [rs for rs in b.root_sets if a.radial_contains(_root_radius(rs))]
    for ra in a.root_sets:
        for rb in b.root_sets:
            common = root_intersection(ra, rb)
            if common is not None:
                roots.append(common)
    return canonicalize(annuli=ann, root_sets=roots)


@dataclass(frozen=True)
class RadialGap:
    """An open connected component of the complement of the annuli.

    lo is None for the inner disk {|z| < hi}; hi is None for the unbounded
    component {|z| > lo}.  The point part of the set only punctures a gap;
    it never disconnects it.
    """

    lo: ExactRadius | None
    hi: ExactRadius | None


def complement_components(s: RadialSet) -> list[RadialGap]:
    if not s.annuli:
        return [RadialGap(None, None)]
    gaps = []
    first_lo = s.annuli[0][0]
    if not first_lo.is_zero:
        gaps.append(RadialGap(None, first_lo))
    for (_, hi1), (lo2, _) in zip(s.annuli, s.annuli[1:]):
        if hi1 < lo2:
            gaps.append(RadialGap(hi1, lo2))
    gaps.append(RadialGap(s.annuli[-1][1], None))
    return gaps


def remove_open_gap_traces(s: RadialSet, gaps: list[RadialGap]) -> RadialSet:
    """s minus its intersection with the given open radial gaps (closed result)."""
    ann = list(s.annuli)
    for gap in gaps:
        glo, ghi = gap.lo, gap.hi
        nxt = []
        for lo, hi in ann:
            # keep [lo, hi] minus the open interval (glo, ghi), where None
            # is unbounded: a whole-plane gap keeps nothing
            if glo is not None and lo <= glo:
                nxt.append((lo, hi if hi < glo else glo))
            if ghi is not None and hi >= ghi:
                nxt.append((ghi if lo < ghi else lo, hi))
        ann = nxt
    roots = [rs for rs in s.root_sets
             if not _in_gaps(_root_radius(rs), gaps)]
    return canonicalize(annuli=ann, root_sets=roots)


def _in_gaps(r: ExactRadius, gaps: list[RadialGap]) -> bool:
    return any((gap.lo is None or r > gap.lo) and (gap.hi is None or r < gap.hi)
               for gap in gaps)


# ---------------------------------------------------------------------------
# SVG rendering

PANEL = 240  # the side of one square panel, in pixels


def render_svg(named_sets: list[tuple[str, RadialSet]]) -> str:
    """Small-multiple plot: one panel per named set, annuli as rings.

    Every radius enters as its exact ratio to the largest one, so radii
    beyond the float range plot too."""
    rmax = ExactRadius.from_fraction(1)
    for _, s in named_sets:
        mr = s.max_radius()
        if mr is not None and mr > rmax:
            rmax = mr
    px = PANEL / 2 - 12  # the length of rmax in pixels

    def scaled(r: ExactRadius) -> float:
        return px * root_float(r.sq**rmax.p / rmax.sq**r.p, 2 * r.p * rmax.p)

    panels = []
    for idx, (name, s) in enumerate(named_sets):
        cx = idx * PANEL + PANEL / 2
        cy = PANEL / 2
        shapes = [f'<circle cx="{cx}" cy="{cy}" r="{PANEL/2 - 4}" fill="none" '
                  f'stroke="#ddd"/>']
        for lo, hi in s.annuli:
            ro, ri = scaled(hi), scaled(lo)
            if ro <= 0:
                ro = 1.5
            if lo == hi:
                shapes.append(f'<circle cx="{cx}" cy="{cy}" r="{max(ro, 1.5)}" '
                              f'fill="none" stroke="#1f77b4" stroke-width="2"/>')
            else:
                shapes.append(
                    f'<path d="M {cx - ro} {cy} a {ro} {ro} 0 1 0 {2*ro} 0 '
                    f'a {ro} {ro} 0 1 0 {-2*ro} 0 Z '
                    f'M {cx - ri} {cy} a {ri} {ri} 0 1 1 {2*ri} 0 '
                    f'a {ri} {ri} 0 1 1 {-2*ri} 0 Z" fill="#1f77b4" '
                    f'fill-opacity="0.35" fill-rule="evenodd" stroke="#1f77b4"/>')
            label = str(hi)
            shapes.append(f'<text x="{cx + 4}" y="{cy - ro - 2}" '
                          f'font-size="9">{label}</text>')
        for rs in s.root_sets:
            w, p = rs
            rad = scaled(_root_radius(rs))
            for j in range(p):
                theta = (w.arg() + 2 * math.pi * j) / p
                shapes.append(f'<circle cx="{cx + rad * math.cos(theta)}" '
                              f'cy="{cy - rad * math.sin(theta)}" r="2.5" '
                              f'fill="#d62728"/>')
        shapes.append(f'<text x="{cx}" y="{PANEL - 4}" text-anchor="middle" '
                      f'font-size="11">{name}</text>')
        panels.append("".join(shapes))
    width = PANEL * len(named_sets)
    return (f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
            f'height="{PANEL}" viewBox="0 0 {width} {PANEL}">'
            + "".join(panels) + "</svg>")
