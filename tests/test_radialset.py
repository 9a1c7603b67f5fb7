from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from ckspec.exact import ExactRadius, QPoint, RationalComplex, RootPoint
from ckspec.radialset import (RadialSet, _root_subset, canonicalize,
                              complement_components, intersect,
                              remove_open_gap_traces, render_svg,
                              root_intersection, union)

RC = RationalComplex.of
ER = ExactRadius.from_fraction


def test_merge_touching():
    s = canonicalize(annuli=[(ER(0), ER(1)), (ER(1), ER(1))])
    assert s == RadialSet.disk(ER(1))
    s2 = canonicalize(annuli=[(ER(1), ER(2)), (ER(2), ER(3))])
    assert s2 == RadialSet.annulus(ER(1), ER(3))


def test_point_outside_disk_kept():
    s = canonicalize(annuli=[(ER(0), ER(1))], points=[RC(2)])
    assert len(s.points) == 1 and len(s.annuli) == 1
    s2 = canonicalize(annuli=[(ER(0), ER(1))], points=[RC(Fraction(1, 2))])
    assert s2.points == ()


def test_invalid_interval():
    with pytest.raises(ValueError):
        canonicalize(annuli=[(ER(2), ER(1))])


def test_degenerate_zero_annulus_is_origin():
    assert canonicalize(annuli=[(ER(0), ER(0))]) == RadialSet.origin()


def test_union_intersect_disk_circle():
    disk = RadialSet.disk(ER(1))
    circle = RadialSet.circle(ER(1))
    assert intersect(disk, circle) == circle
    assert union(disk, RadialSet.empty()) == disk


def test_member_annulus():
    s = RadialSet.annulus(ER(1), ER(2))
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
    assert s.points == (RC(5),) and s.root_sets == ()
    z = canonicalize(root_sets=[(RC(0), 4)])
    assert z == RadialSet.origin()


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


def test_complement_components():
    circle = RadialSet.circle(ER(1))
    gaps = complement_components(circle)
    assert len(gaps) == 2
    assert gaps[0].lo is None and gaps[0].hi == ER(1)
    assert gaps[1].lo == ER(1) and gaps[1].hi is None
    disk = RadialSet.disk(ER(1))
    gaps = complement_components(disk)
    assert len(gaps) == 1 and gaps[0].hi is None
    ann = RadialSet.annulus(ER(1), ER(2))
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
    assert canonicalize(points=[RC(0)]).is_rotation_invariant()


def test_json_shape():
    s = canonicalize(annuli=[(ER(1), ER(2))], points=[RC(5)],
                     root_sets=[(RC(27), 3)])
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


@st.composite
def radial_sets(draw):
    ann = []
    for _ in range(draw(st.integers(0, 3))):
        a = draw(radius_st)
        b = draw(radius_st)
        ann.append((a, b) if a <= b else (b, a))
    pts = draw(st.lists(point_st, max_size=3))
    roots = []
    for _ in range(draw(st.integers(0, 2))):
        w = draw(point_st)
        if not w.is_zero:
            roots.append((w, draw(st.integers(1, 3))))
    return canonicalize(annuli=ann, points=pts, root_sets=roots)


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
    lam = QPoint(z)
    assert union(a, b).member(lam) == (a.member(lam) or b.member(lam))
    assert intersect(a, b).member(lam) == (a.member(lam) and b.member(lam))


@given(radial_sets())
@settings(max_examples=60, deadline=None)
def test_canonicalize_idempotent(s):
    again = canonicalize(annuli=s.annuli, points=s.points, root_sets=s.root_sets)
    assert again == s and again.annuli == s.annuli


@given(radial_sets(), radial_sets())
@settings(max_examples=60, deadline=None)
def test_intersection_subset(a, b):
    i = intersect(a, b)
    assert i.issubset(a) and i.issubset(b)
    assert a.issubset(union(a, b))
