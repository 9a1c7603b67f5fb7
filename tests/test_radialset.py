from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from ckspec.exact import (ExactRadius, QPoint, RationalComplex, RootPoint,
                          rational_between)
from ckspec.radialset import (RadialSet, _root_subset, canonicalize,
                              complement_components, intersect,
                              remove_open_gap_traces, render_svg,
                              root_intersection, union)

RC = RationalComplex.of
ER = ExactRadius.from_fraction
ORIGIN = canonicalize(root_sets=[(RC(0), 1)])


def test_merge_touching():
    s = canonicalize(annuli=[(ER(0), ER(1)), (ER(1), ER(1))])
    assert s == RadialSet.disk(ER(1))
    s2 = canonicalize(annuli=[(ER(1), ER(2)), (ER(2), ER(3))])
    assert s2 == canonicalize(annuli=[(ER(1), ER(3))])


def test_point_outside_disk_kept():
    s = canonicalize(annuli=[(ER(0), ER(1))], root_sets=[(RC(2), 1)])
    assert s.root_sets == ((RC(2), 1),) and len(s.annuli) == 1
    s2 = canonicalize(annuli=[(ER(0), ER(1))],
                      root_sets=[(RC(Fraction(1, 2)), 1)])
    assert s2.root_sets == ()


def test_invalid_interval():
    with pytest.raises(ValueError):
        canonicalize(annuli=[(ER(2), ER(1))])


def test_degenerate_zero_annulus_is_origin():
    s = canonicalize(annuli=[(ER(0), ER(0))])
    assert s == ORIGIN and s.annuli == () and s.root_sets == ((RC(0), 1),)


def test_union_intersect_disk_circle():
    disk = RadialSet.disk(ER(1))
    circle = RadialSet.circle(ER(1))
    assert intersect(disk, circle) == circle
    assert union(disk, RadialSet()) == disk


def test_member_annulus():
    s = canonicalize(annuli=[(ER(1), ER(2))])
    assert s.member(QPoint.of(Fraction(3, 2)))
    assert not s.member(QPoint.of(Fraction(1, 2)))
    assert s.member(QPoint.of(0, 1))


def test_root_set_membership_and_absorption():
    rs = canonicalize(root_sets=[(RC(8), 3)])
    assert rs.member(QPoint.of(2))
    assert rs.member(RootPoint(RC(8), 3, 1))
    assert not rs.member(QPoint.of(-2))
    absorbed = canonicalize(annuli=[(ER(0), ER(2))], root_sets=[(RC(8), 3)])
    assert absorbed.root_sets == ()
    kept = canonicalize(annuli=[(ER(0), ER(1))], root_sets=[(RC(8), 3)])
    assert kept.root_sets == ((RC(8), 3),)


def test_root_set_p1_becomes_point():
    s = canonicalize(root_sets=[(RC(5), 1)])
    assert s.root_sets == ((RC(5), 1),)
    assert s.to_json()["points"] == [[5, 1, 0, 1]]
    assert s.to_json()["root_sets"] == []
    assert s.describe() == "{5}"
    z = canonicalize(root_sets=[(RC(0), 4)])
    assert z == ORIGIN and z.root_sets == ((RC(0), 1),)


def test_root_subset_matches_membership():
    # root sets z**p == w**k for small Gaussian w, so that many pairs nest
    bases = [RC(1), RC(-1), RC(0, 1), RC(2), RC(-2), RC(0, 2), RC(1, 1)]
    sets = {(w**k, p) for w in bases for k in (1, 2) for p in (1, 2, 3, 4)}
    nested = 0
    for a in sets:
        for b in sets:
            inside = all(RootPoint(a[0], a[1], j).pow_equals(b[1], b[0])
                         for j in range(a[1]))
            assert _root_subset(a, b) == inside, (a, b)
            nested += inside and a != b
    assert nested >= 10  # the check saw proper nestings, not only a == b


def test_root_intersection():
    assert root_intersection((RC(4), 2), (RC(8), 3)) == (RC(2), 1)
    assert root_intersection((RC(4), 2), (RC(16), 4)) == (RC(4), 2)
    # z^2 == 4 and z^3 == -8 share exactly z == -2
    assert root_intersection((RC(4), 2), (RC(-8), 3)) == (RC(-2), 1)
    # incompatible moduli: no common root
    assert root_intersection((RC(4), 2), (RC(27), 3)) is None
    s1 = canonicalize(root_sets=[(RC(4), 2)])
    s2 = canonicalize(root_sets=[(RC(16), 4)])
    assert intersect(s1, s2) == s1


def test_root_intersection_with_the_origin():
    # with a period of 1 the Bezout exponents are 0 and 1, so the origin is
    # never raised to a negative power
    origin = (RC(0), 1)
    assert root_intersection(origin, origin) == origin
    for rs in [(RC(8), 3), (RC(-4), 2), (RC(0, 1), 4), (RC(5), 1)]:
        assert root_intersection(origin, rs) is None
        assert root_intersection(rs, origin) is None
    assert intersect(ORIGIN, ORIGIN) == ORIGIN
    assert intersect(ORIGIN, canonicalize(root_sets=[(RC(8), 3)])) == RadialSet()


def test_root_sets_sort_points_first():
    s = canonicalize(root_sets=[(RC(27), 3), (RC(4), 2), (RC(-1), 1),
                                (RC(0), 2), (RC(5), 1), (RC(16), 4), (RC(2), 1),
                                (RC(5), 1)])
    # (2, 1) lies in z**2 == 4 and in z**4 == 16, and z**2 == 4 in z**4 == 16
    assert s.root_sets == ((RC(-1), 1), (RC(0), 1), (RC(5), 1), (RC(27), 3),
                           (RC(16), 4))
    assert s.to_json()["points"] == [[-1, 1, 0, 1], [0, 1, 0, 1], [5, 1, 0, 1]]
    assert s.describe() == "{-1} u {0} u {5} u {z: z^3=27} u {z: z^4=16}"


def test_complement_components():
    circle = RadialSet.circle(ER(1))
    gaps = complement_components(circle)
    assert len(gaps) == 2
    assert gaps[0].lo is None and gaps[0].hi == ER(1)
    assert gaps[1].lo == ER(1) and gaps[1].hi is None
    disk = RadialSet.disk(ER(1))
    gaps = complement_components(disk)
    assert len(gaps) == 1 and gaps[0].hi is None
    ann = canonicalize(annuli=[(ER(1), ER(2))])
    gaps = complement_components(ann)
    assert [(g.lo is None, g.hi is None) for g in gaps] == [(True, False),
                                                            (False, True)]


def test_remove_open_gap_traces():
    sigma = canonicalize(annuli=[(ER(0), ER(1))], root_sets=[(RC(8), 3)])
    gaps = [g for g in complement_components(RadialSet.circle(ER(1)))
            if g.hi is None]
    out = remove_open_gap_traces(sigma, gaps)
    assert out == RadialSet.disk(ER(1))


def test_max_radius_and_rotation_invariance():
    s = canonicalize(annuli=[(ER(0), ER(1))], root_sets=[(RC(8), 3)])
    assert s.max_radius() == ER(2)
    assert not s.is_rotation_invariant()
    assert RadialSet.disk(ER(1)).is_rotation_invariant()
    assert ORIGIN.is_rotation_invariant()
    assert not canonicalize(root_sets=[(RC(3), 1)]).is_rotation_invariant()


def test_json_shape():
    s = canonicalize(annuli=[(ER(1), ER(2))],
                     root_sets=[(RC(5), 1), (RC(27), 3)])
    j = s.to_json()
    assert j["annuli"] == [[[1, 1, 1], [4, 1, 1]]]
    assert j["points"] == [[5, 1, 0, 1]]
    assert j["root_sets"] == [[27, 1, 0, 1, 3]]


def test_svg_smoke():
    s = canonicalize(annuli=[(ER(1), ER(2))], root_sets=[(RC(8), 3)])
    svg = render_svg([("sigma", s)])
    assert svg.startswith("<svg") and "circle" in svg


# --- property tests --------------------------------------------------------

radius_st = st.builds(
    lambda n, d, p: ExactRadius(Fraction(n, d), p),
    st.integers(0, 40), st.integers(1, 12), st.integers(1, 3))

point_st = st.builds(
    lambda a, b, c, d: RC(Fraction(a, b), Fraction(c, d)),
    st.integers(-6, 6), st.integers(1, 4),
    st.integers(-6, 6), st.integers(1, 4))

# the origin on its own, so that it is drawn often
point_or_origin_st = st.one_of(st.just(RC(0)), point_st)


@st.composite
def radial_sets(draw):
    ann = []
    for _ in range(draw(st.integers(0, 3))):
        a = draw(radius_st)
        b = draw(radius_st)
        ann.append((a, b) if a <= b else (b, a))
    roots = [(z, 1) for z in draw(st.lists(point_or_origin_st, max_size=3))]
    for _ in range(draw(st.integers(0, 2))):
        roots.append((draw(point_or_origin_st), draw(st.integers(1, 4))))
    return canonicalize(annuli=ann, root_sets=roots)


@given(radial_sets(), radial_sets())
@settings(max_examples=60, deadline=None)
def test_union_commutative_idempotent(a, b):
    assert union(a, b) == union(b, a)
    assert union(a, a) == a
    assert intersect(a, a) == a
    assert intersect(a, b) == intersect(b, a)


@given(radial_sets(), radial_sets(), radial_sets())
@settings(max_examples=40, deadline=None)
def test_union_associative(a, b, c):
    assert union(union(a, b), c) == union(a, union(b, c))


@given(radial_sets(), radial_sets(), point_st)
@settings(max_examples=80, deadline=None)
def test_member_respects_union_and_intersection(a, b, z):
    u, i = union(a, b), intersect(a, b)
    # a drawn point seldom lands on a root, so also probe every point of
    # either operand, and the origin
    for lam in [QPoint(z), QPoint(RC(0))] + a.point_members() + b.point_members():
        assert u.member(lam) == (a.member(lam) or b.member(lam)), lam
        assert i.member(lam) == (a.member(lam) and b.member(lam)), lam


@given(radial_sets())
@settings(max_examples=60, deadline=None)
def test_canonicalize_idempotent(s):
    again = canonicalize(annuli=s.annuli, root_sets=s.root_sets)
    assert again == s and again.annuli == s.annuli


@given(radial_sets(), radial_sets())
@settings(max_examples=60, deadline=None)
def test_intersection_subset(a, b):
    i = intersect(a, b)
    assert i.issubset(a) and i.issubset(b)
    assert a.issubset(union(a, b))


@given(radial_sets(), st.lists(radius_st, max_size=3))
@settings(max_examples=100, deadline=None)
def test_radial_contains_matches_a_scan_of_every_annulus(s, extra):
    # probe every endpoint, a radius inside each annulus and each gap, one
    # below the first annulus and one above the last
    probes = [r for ann in s.annuli for r in ann] + extra
    edges = [ExactRadius.zero()] + probes[:2 * len(s.annuli)]
    for lo, hi in zip(edges, edges[1:]):
        if lo < hi:
            probes.append(ExactRadius.from_fraction(rational_between(lo, hi)))
    if s.annuli:
        top = ExactRadius.from_fraction(rational_between(s.annuli[-1][1], None))
        probes.append(top)
    for r in probes:
        assert s.radial_contains(r) == any(lo <= r <= hi for lo, hi in s.annuli)
    # and every interval between two probes, as issubset and Browder removal
    # ask it
    for a in probes:
        for b in probes:
            if a <= b:
                assert s.radial_contains(a, b) == any(
                    lo <= a and b <= hi for lo, hi in s.annuli), (a, b)
