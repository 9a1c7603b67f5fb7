"""Exact algebra of rotation-invariant-plus-finite regions of the plane.

Every spectral set this package emits is a ``RadialSet``: a finite union of
closed annuli (circles and disks are degenerate annuli) together with a
finite point part.  Points come in two exact flavours: Gaussian rational
singletons, and *root sets* {z : z**p == W} stored by the pair (W, p) so
membership is a rational power test rather than a floating comparison.

Canonical form: annuli sorted, disjoint, touching intervals merged; points
deduplicated and dropped when an annulus already covers them.  Union and
intersection are closed on canonical forms; complements are reported as the
radial gaps (finitely many points never disconnect a planar open set, so
point parts only puncture gaps).
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd

from .exact import (ExactRadius, QPoint, RationalComplex, RootPoint,
                    SpectralPoint)


@dataclass(frozen=True)
class RadialSet:
    annuli: tuple[tuple[ExactRadius, ExactRadius], ...] = ()
    points: tuple[RationalComplex, ...] = ()
    root_sets: tuple[tuple[RationalComplex, int], ...] = ()

    # --- constructors ------------------------------------------------------

    @staticmethod
    def empty() -> "RadialSet":
        return RadialSet()

    @staticmethod
    def point(z: RationalComplex) -> "RadialSet":
        return canonicalize(points=[z])

    @staticmethod
    def origin() -> "RadialSet":
        return RadialSet.point(RationalComplex.of(0))

    @staticmethod
    def circle(r: ExactRadius) -> "RadialSet":
        return canonicalize(annuli=[(r, r)])

    @staticmethod
    def disk(r: ExactRadius) -> "RadialSet":
        return canonicalize(annuli=[(ExactRadius.zero(), r)])

    @staticmethod
    def annulus(lo: ExactRadius, hi: ExactRadius) -> "RadialSet":
        return canonicalize(annuli=[(lo, hi)])

    # --- queries -----------------------------------------------------------

    def radial_contains(self, r: ExactRadius) -> bool:
        return any(lo <= r <= hi for lo, hi in self.annuli)

    def member(self, lam) -> bool:
        """Exact membership for a SpectralPoint or RationalComplex."""
        if isinstance(lam, RationalComplex):
            lam = QPoint(lam)
        if self.radial_contains(lam.modulus()):
            return True
        for z in self.points:
            if z.is_zero:
                if lam.is_zero:
                    return True
            elif not lam.is_zero and lam.pow_equals(1, z):
                return True
        for w, p in self.root_sets:
            if not lam.is_zero and lam.pow_equals(p, w):
                return True
        return False

    def point_members(self) -> list[SpectralPoint]:
        """The finite point part as exact sample points."""
        out: list[SpectralPoint] = [QPoint(z) for z in self.points]
        for w, p in self.root_sets:
            out.extend(RootPoint(w, p, j) for j in range(p))
        return out

    def issubset(self, other: "RadialSet") -> bool:
        for lo, hi in self.annuli:
            if not any(olo <= lo and hi <= ohi for olo, ohi in other.annuli):
                return False
        return all(other.member(pt) for pt in self.point_members())

    def __eq__(self, other) -> bool:
        if not isinstance(other, RadialSet):
            return NotImplemented
        return (self.annuli == other.annuli and self.issubset(other)
                and other.issubset(self))

    def __hash__(self):
        return hash(self.annuli)

    def max_radius(self) -> ExactRadius | None:
        """Largest modulus present, or None for the empty set."""
        cands = [hi for _, hi in self.annuli]
        cands += [ExactRadius(z.abs2(), 1) for z in self.points]
        cands += [ExactRadius(w.abs2(), p) for w, p in self.root_sets]
        return max(cands, default=None)

    def is_rotation_invariant(self) -> bool:
        """True when the point part is at most the origin."""
        return not self.root_sets and all(z.is_zero for z in self.points)

    # --- serialization -----------------------------------------------------

    def to_json(self) -> dict:
        return {
            "annuli": [[lo.to_json(), hi.to_json()] for lo, hi in self.annuli],
            "points": [z.to_list() for z in self.points],
            "root_sets": [w.to_list() + [p] for w, p in self.root_sets],
        }

    def describe(self) -> str:
        parts = []
        for lo, hi in self.annuli:
            if lo.is_zero and hi.is_zero:
                parts.append("{0}")
            elif lo.is_zero:
                parts.append(f"disk r<={hi}")
            elif lo == hi:
                parts.append(f"circle r={lo}")
            else:
                parts.append(f"annulus {lo}<=r<={hi}")
        parts += [f"{{{z}}}" for z in self.points]
        parts += [f"{{z: z^{p}={w}}}" for w, p in self.root_sets]
        return " u ".join(parts) if parts else "(empty)"


# ---------------------------------------------------------------------------
# canonicalization


def canonicalize(annuli=(), points=(), root_sets=()) -> RadialSet:
    ann: list[tuple[ExactRadius, ExactRadius]] = []
    extra_origin = False
    for lo, hi in annuli:
        if lo > hi:
            raise ValueError(f"annulus with lo > hi: [{lo}, {hi}]")
        if hi.is_zero:
            extra_origin = True  # the degenerate disk [0, 0] is the origin
        else:
            ann.append((lo, hi))
    ann = _merge_annuli(ann)
    points = list(points)
    if extra_origin:
        points.append(RationalComplex.of(0))

    pts: list[RationalComplex] = []
    for z in points:
        if any(lo <= ExactRadius(z.abs2(), 1) <= hi for lo, hi in ann):
            continue
        if not any(z == q for q in pts):
            pts.append(z)

    roots: list[tuple[RationalComplex, int]] = []
    for w, p in root_sets:
        if w.is_zero:
            if not any(lo.is_zero for lo, hi in ann) and not any(q.is_zero for q in pts):
                pts.append(RationalComplex.of(0))
            continue
        if p == 1:
            z = w
            if not any(lo <= ExactRadius(z.abs2(), 1) <= hi for lo, hi in ann) \
                    and not any(z == q for q in pts):
                pts.append(z)
            continue
        if any(lo <= ExactRadius(w.abs2(), p) <= hi for lo, hi in ann):
            continue
        if not any(p == p2 and w == w2 for w2, p2 in roots):
            roots.append((w, p))
    # drop root sets already covered by another root set
    roots = [rs for i, rs in enumerate(roots)
             if not any(j != i and _root_subset(rs, other)
                        for j, other in enumerate(roots))]
    # drop rational points covered by a root set
    pts = [z for z in pts
           if z.is_zero or not any(QPoint(z).pow_equals(p, w) for w, p in roots)]

    pts.sort(key=lambda z: (z.re, z.im))
    roots.sort(key=lambda rp: (rp[1], rp[0].re, rp[0].im))
    return RadialSet(annuli=tuple(ann), points=tuple(pts), root_sets=tuple(roots))


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
    exactly when it is consistent with both defining equations.
    """
    (w1, p1), (w2, p2) = a, b
    g = gcd(p1, p2)
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
    return canonicalize(annuli=list(a.annuli) + list(b.annuli),
                        points=list(a.points) + list(b.points),
                        root_sets=list(a.root_sets) + list(b.root_sets))


def intersect(a: RadialSet, b: RadialSet) -> RadialSet:
    ann = []
    for lo1, hi1 in a.annuli:
        for lo2, hi2 in b.annuli:
            lo = lo1 if lo1 > lo2 else lo2
            hi = hi1 if hi1 < hi2 else hi2
            if lo <= hi:
                ann.append((lo, hi))
    pts: list[RationalComplex] = []
    roots: list[tuple[RationalComplex, int]] = []
    for z in list(a.points):
        if b.member(z):
            pts.append(z)
    for z in list(b.points):
        if a.member(z):
            pts.append(z)
    for w, p in a.root_sets:
        if b.radial_contains(ExactRadius(w.abs2(), p)):
            roots.append((w, p))
        else:
            for w2, p2 in b.root_sets:
                inter = root_intersection((w, p), (w2, p2))
                if inter is not None:
                    roots.append(inter)
            for j in range(p):
                rp = RootPoint(w, p, j)
                for z in b.points:
                    if not z.is_zero and rp.pow_equals(1, z):
                        pts.append(z)
    for w, p in b.root_sets:
        if a.radial_contains(ExactRadius(w.abs2(), p)):
            roots.append((w, p))
        else:
            for j in range(p):
                rp = RootPoint(w, p, j)
                for z in a.points:
                    if not z.is_zero and rp.pow_equals(1, z):
                        pts.append(z)
    return canonicalize(annuli=ann, points=pts, root_sets=roots)


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
            # keep [lo, hi] minus the open interval (glo, ghi)
            if glo is not None and lo <= glo:
                nxt.append((lo, hi if hi < glo else glo))
            if ghi is not None and hi >= ghi:
                nxt.append((ghi if lo < ghi else lo, hi))
            if glo is None and ghi is None:
                pass  # whole-plane gap removes everything
        ann = nxt
    pts = [z for z in s.points
           if not any(_radius_in_gap(ExactRadius(z.abs2(), 1), g) for g in gaps)]
    roots = [(w, p) for w, p in s.root_sets
             if not any(_radius_in_gap(ExactRadius(w.abs2(), p), g) for g in gaps)]
    return canonicalize(annuli=ann, points=pts, root_sets=roots)


def _radius_in_gap(r: ExactRadius, gap: RadialGap) -> bool:
    return ((gap.lo is None or r > gap.lo) and (gap.hi is None or r < gap.hi))


# ---------------------------------------------------------------------------
# SVG rendering


def render_svg(named_sets: list[tuple[str, RadialSet]], size: int = 240) -> str:
    """Small-multiple plot: one panel per named set, annuli as rings."""
    rmax = 1.0
    for _, s in named_sets:
        mr = s.max_radius()
        if mr is not None:
            rmax = max(rmax, float(mr))
    scale = (size / 2 - 12) / rmax
    panels = []
    for idx, (name, s) in enumerate(named_sets):
        cx = idx * size + size / 2
        cy = size / 2
        shapes = [f'<circle cx="{cx}" cy="{cy}" r="{size/2 - 4}" fill="none" '
                  f'stroke="#ddd"/>']
        for lo, hi in s.annuli:
            ro, ri = float(hi) * scale, float(lo) * scale
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
        for pt in s.point_members():
            z = pt.to_complex()
            shapes.append(f'<circle cx="{cx + z.real*scale}" '
                          f'cy="{cy - z.imag*scale}" r="2.5" fill="#d62728"/>')
        shapes.append(f'<text x="{cx}" y="{size - 4}" text-anchor="middle" '
                      f'font-size="11">{name}</text>')
        panels.append("".join(shapes))
    width = size * len(named_sets)
    return (f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
            f'height="{size}" viewBox="0 0 {width} {size}">'
            + "".join(panels) + "</svg>")
