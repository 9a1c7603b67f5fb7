from fractions import Fraction

from ckspec.exact import INF, ExactRadius, QPoint, RationalComplex
from ckspec.fixtures import NAMES, load_fixture
from ckspec.radialset import RadialSet, canonicalize, intersect, union
from ckspec.spectra import (essential_spectra, fredholm_data, self_check,
                            sigma_L, sigma_M, zero_analysis)

RC = RationalComplex.of
ER = ExactRadius.from_fraction
Q = QPoint.of

DISK1 = RadialSet.disk(ER(1))
CIRCLE1 = RadialSet.circle(ER(1))
ORIGIN = canonicalize(root_sets=[(RC(0), 1)])


def test_sigma_m_examples():
    assert sigma_M(load_fixture("half")) == DISK1
    assert sigma_M(load_fixture("bundlezero")) == ORIGIN
    assert sigma_M(load_fixture("twocyc")) == RadialSet.disk(ER(Fraction(1, 2)))


def test_sigma_l_examples():
    assert sigma_L(load_fixture("half")) == canonicalize(root_sets=[(RC(1), 1)])
    per3 = sigma_L(load_fixture("per3_isolated"))
    assert per3.root_sets == ((RC(1), 1), (RC(8), 3))
    assert sigma_L(load_fixture("twocyc")) == canonicalize(
        annuli=[(ER(Fraction(1, 2)), ER(2))])


def test_sigma_total_examples():
    for name, total in [("half", DISK1), ("ray1", DISK1),
                        ("twocyc", RadialSet.disk(ER(2)))]:
        m = load_fixture(name)
        assert union(sigma_M(m), sigma_L(m)) == total
        assert essential_spectra(m).sigma == total


def test_half_matches_known_closed_forms():
    rep = essential_spectra(load_fixture("half"))
    assert rep.sigma == DISK1
    assert rep.sigma_2 == DISK1
    assert rep.sigma_3 == DISK1
    assert rep.sigma_4 == DISK1
    assert rep.sigma_5 == DISK1
    assert rep.sigma_1 == CIRCLE1
    assert rep.sigma_2_prime == CIRCLE1
    z = rep.zero
    assert not z.upper and z.lower
    assert z.dim_ker == INF and z.defect == 0
    assert z.in_sigma5


def test_ray1_report():
    rep = essential_spectra(load_fixture("ray1"))
    assert rep.sigma_1 == CIRCLE1
    assert rep.sigma_2 == CIRCLE1
    assert rep.sigma_2_prime == CIRCLE1
    assert rep.sigma_3 == CIRCLE1
    assert rep.sigma_4 == DISK1  # index one inside the unit disk
    assert rep.sigma_5 == DISK1
    assert rep.sigma == DISK1
    z = rep.zero
    assert z.upper and z.lower and z.dim_ker == 1 and z.defect == 0
    assert z.index == 1 and not z.weyl and not z.weyl_criterion


def test_twocyc_report():
    rep = essential_spectra(load_fixture("twocyc"))
    circles = canonicalize(annuli=[(ER(Fraction(1, 2)), ER(Fraction(1, 2))),
                                   (ER(2), ER(2))])
    assert rep.sigma_1 == circles
    assert rep.sigma_2 == circles
    assert rep.sigma_2_prime == circles
    assert rep.sigma == RadialSet.disk(ER(2))
    assert rep.sigma_4 == RadialSet.disk(ER(2))
    assert rep.sigma_5 == RadialSet.disk(ER(2))


def test_per3_isolated_report():
    rep = essential_spectra(load_fixture("per3_isolated"))
    assert rep.sigma == canonicalize(annuli=[(ER(0), ER(1))],
                                     root_sets=[(RC(8), 3)])
    for s in (rep.sigma_1, rep.sigma_2, rep.sigma_2_prime, rep.sigma_3,
              rep.sigma_4, rep.sigma_5):
        assert not s.member(Q(2))
    assert rep.sigma_5 == DISK1  # Riesz points removed
    assert not rep.rotation_invariant
    assert not rep.sigma5_equals_sigma


def test_zero_fixture_report():
    rep = essential_spectra(load_fixture("zero"))
    assert rep.sigma_2 == CIRCLE1
    z = rep.zero
    assert z.upper and z.lower
    assert z.dim_ker == 2 and z.defect == 1 and z.index == 1
    assert not z.weyl and not z.weyl_criterion


def test_bundlezero_report():
    rep = essential_spectra(load_fixture("bundlezero"))
    assert rep.sigma == ORIGIN
    for s in (rep.sigma_1, rep.sigma_2, rep.sigma_2_prime, rep.sigma_3,
              rep.sigma_4, rep.sigma_5):
        assert s == ORIGIN
    z = rep.zero
    assert not z.upper and not z.lower
    assert z.dim_ker == INF and z.defect == INF


def test_fredholm_data_examples():
    half = load_fixture("half")
    fd = fredholm_data(half, Q(Fraction(1, 2)))
    assert not fd.upper and fd.lower and fd.defect == 0
    ray1 = load_fixture("ray1")
    fd = fredholm_data(ray1, Q(Fraction(1, 2)))
    assert fd.upper and fd.lower
    assert fd.dim_ker == 1 and fd.defect == 0 and fd.index == 1
    # on the critical circle both sides fail
    fd = fredholm_data(ray1, Q(0, 1))
    assert not fd.upper and not fd.lower


def test_zero_analysis_examples():
    z = zero_analysis(load_fixture("ray1"))
    assert z.upper and z.lower and z.dim_ker == 1 and z.defect == 0
    assert z.index == 1
    z = zero_analysis(load_fixture("half"))
    assert not z.upper and z.lower and z.defect == 0
    z = zero_analysis(load_fixture("zero"))
    assert z.upper and z.lower and z.dim_ker == 2 and z.defect == 1


def test_self_check_fixtures_clean():
    for name in NAMES:
        m = load_fixture(name)
        assert self_check(m) == []


def test_report_json_shape():
    rep = essential_spectra(load_fixture("half"))
    j = rep.to_json()
    assert j["schema_version"] == 1
    assert j["zero_report"]["dim_ker"] == "infinite"
    assert j["flags"]["all_cycles_ray_incident"] is True
    assert len(j["strata"]) == 2


def test_corpus_identities_sample():
    from _corpus import corpus
    for m in corpus(25):
        rep = essential_spectra(m)
        assert rep.sigma_1 == intersect(rep.sigma_2, rep.sigma_2_prime)
        assert rep.sigma_3 == union(rep.sigma_2, rep.sigma_2_prime)
        assert rep.sigma_4.issubset(rep.sigma_5)
        assert rep.sigma == union(rep.sigma_m, rep.sigma_l)


def test_sigma_2_prime_within_sigma_2_on_corpus():
    # both take the same circles from the critical table, and 0 in sigma_2'
    # (T not lower semi-Fredholm) forces 0 in sigma_2
    from _corpus import corpus
    for m in corpus():
        rep = essential_spectra(m)
        assert rep.sigma_2_prime.issubset(rep.sigma_2), m.name


def test_critical_table_roles():
    m = load_fixture("twocyc")
    assert list(m.critical) == [ER(0), ER(Fraction(1, 2)), ER(2)]
    assert m.critical[ER(Fraction(1, 2))] == {"cluster", "image"}
    assert m.critical[ER(2)] == {"image"}
    half = load_fixture("half")
    assert half.critical[ER(1)] == {"cluster", "bundle"}
    per3 = load_fixture("per3_isolated")
    assert per3.critical[ER(2)] == set()
    assert per3.critical[ER(0)] == set()
