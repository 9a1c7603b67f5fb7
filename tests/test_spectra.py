import time
from fractions import Fraction

from hypothesis import given, settings, strategies as st

from ckspec import oracle, spectra
from ckspec.exact import INF, ExactRadius, QPoint, RationalComplex, RootPoint
from ckspec.fixtures import NAMES, load_fixture
from ckspec.model import OMEGA, Anchor, Cycle, OrbitModel, Ray, validate
from ckspec.oracle import chain_defect_dim, chain_kernel_dim
from ckspec.radialset import RadialSet, canonicalize, intersect, union
from ckspec.spectra import (FredholmData, _strata, essential_spectra,
                            fredholm_data, sample_grid, self_check, sigma_L,
                            sigma_M, zero_analysis)

from _corpus import corpus, ladder

RC = RationalComplex.of
ER = ExactRadius.from_fraction
Q = QPoint.of


def _roles(m):
    """critical radius -> the roles of the cycles at it, from the table rows"""
    return {st.lo: st.roles for st in m.derived(_strata)}

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


def test_fredholm_data_counts_resonant_bare_cycles():
    # P (weights 1, 2, 4) is a bare cycle of radius 2: on its circle the
    # stratum above gives the dims, and each cube root of 8 adds the
    # eigenvector on P and its dual atom chain
    m = load_fixture("per3_isolated")
    above = next(st for st in m.derived(_strata) if st.lo == ER(2))
    for j in range(3):
        lam = RootPoint(RC(8), 3, j)
        fd = fredholm_data(m, lam)
        assert fd.upper and fd.lower
        assert fd.dim_ker == above.dim_ker + 1 == chain_kernel_dim(m, lam)
        assert fd.defect == above.defect + 1 == chain_defect_dim(m, lam)
        assert fd.index == 0
    fd = fredholm_data(m, Q(-2))  # on the circle, but (-2)**3 != 8
    assert (fd.dim_ker, fd.defect) == (above.dim_ker, above.defect)


def test_fredholm_data_claims_only_flags_on_cluster_and_image_circles():
    m = load_fixture("twocyc")
    for lam in (Q(Fraction(1, 2)), Q(2), Q(0, 2)):
        fd = fredholm_data(m, lam)
        assert not fd.upper and not fd.lower
        assert fd.dim_ker is None and fd.defect is None and fd.index is None
        assert fd.to_json()["dim_ker"] is None


def test_one_fredholm_record():
    # the zero report and the strata are Fredholm records with one index
    # rule; the record itself carries no lambda
    m = load_fixture("ray1")
    rep = essential_spectra(m)
    for fd in [rep.zero, *rep.strata, fredholm_data(m, Q(Fraction(1, 2)))]:
        assert isinstance(fd, FredholmData)
        fred = fd.upper and fd.lower
        assert fd.index == (fd.dim_ker - fd.defect if fred else None)
    assert list(fredholm_data(m, Q(3)).to_json()) == [
        "upper", "lower", "dim_ker", "defect", "index"]
    assert FredholmData(True, False, 1, 0).index is None
    assert FredholmData(False, True, INF, 0).describe() == (
        "upper=False lower=True dim_ker=infinite defect=0 index=None")
    assert rep.zero.weyl == (rep.zero.index == 0)


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
    for m in corpus(25):
        rep = essential_spectra(m)
        assert rep.sigma_1 == intersect(rep.sigma_2, rep.sigma_2_prime)
        assert rep.sigma_3 == union(rep.sigma_2, rep.sigma_2_prime)
        assert rep.sigma_4.issubset(rep.sigma_5)
        assert rep.sigma == union(rep.sigma_m, rep.sigma_l)


def test_sigma_2_prime_within_sigma_2_on_corpus():
    # both take the same circles from the critical table, and 0 in sigma_2'
    # (T not lower semi-Fredholm) forces 0 in sigma_2
    for m in corpus():
        rep = essential_spectra(m)
        assert rep.sigma_2_prime.issubset(rep.sigma_2), m.name


def test_critical_table_roles():
    m = load_fixture("twocyc")
    assert list(_roles(m)) == [ER(0), ER(Fraction(1, 2)), ER(2)]
    assert _roles(m)[ER(Fraction(1, 2))] == {"cluster", "image"}
    assert _roles(m)[ER(2)] == {"image"}
    half = load_fixture("half")
    assert _roles(half)[ER(1)] == {"cluster", "bundle"}
    per3 = load_fixture("per3_isolated")
    assert _roles(per3)[ER(2)] == set()
    assert _roles(per3)[ER(0)] == set()


def test_critical_table_by_a_second_route():
    # each row against the cycles at its radius and their incident rays,
    # read one cycle at a time instead of in the sweep over the rays
    for m in ([load_fixture(name) for name in NAMES] + corpus()
              + [ladder(64, "ladder/64")]):
        rows = m.derived(_strata)
        radii = [st.lo for st in rows]
        distinct = {ER(0)} | {cyc.gm() for cyc in m.cycles.values()}
        assert set(radii) == distinct and len(radii) == len(distinct), m.name
        assert all(a < b for a, b in zip(radii, radii[1:])), m.name
        for st in rows:
            at = tuple(c for c in m.cycles.values() if c.gm() == st.lo)
            roles = set()
            for cyc in at:
                for ray in m.incident_rays(cyc.id):
                    if ray.is_two_sided:
                        roles.add("image")
                    else:
                        roles.add("cluster")
                        if ray.multiplicity == OMEGA:
                            roles.add("bundle")
            assert st.roles == roles, (m.name, str(st.lo))
            assert st.cycles == at, (m.name, str(st.lo))


# ---------------------------------------------------------------------------
# the stratum sweep


def _assert_strata_match_chains(m):
    for st in essential_spectra(m).strata:
        lam = Q(st.sample)
        assert st.dim_ker == chain_kernel_dim(m, lam), (m.name, str(st.sample))
        assert st.defect == chain_defect_dim(m, lam), (m.name, str(st.sample))


def test_strata_sweep_matches_chain_solvers_on_fixtures_and_corpus():
    for m in [load_fixture(name) for name in NAMES] + corpus():
        _assert_strata_match_chains(m)


_weights = st.one_of(
    st.just(RC(0)),
    st.builds(RationalComplex, st.fractions(-4, 4, max_denominator=4),
              st.sampled_from([Fraction(0), Fraction(0), Fraction(1, 2),
                               Fraction(-3, 2)])))


@st.composite
def valid_models(draw):
    periods = draw(st.lists(st.integers(1, 3), min_size=1, max_size=4))
    pool = draw(st.lists(_weights, min_size=2, max_size=4))
    # drawing weights from a small pool repeats radii across cycles, which
    # puts several cycles and both ends of two-sided rays on one circle
    cycles = tuple(Cycle(f"c{k}", tuple(draw(st.sampled_from(pool))
                                        for _ in range(p)))
                   for k, p in enumerate(periods))

    def anchor():
        k = draw(st.integers(0, len(cycles) - 1))
        return Anchor(f"c{k}", draw(st.integers(0, periods[k] - 1)))

    rays = []
    for j in range(draw(st.integers(1, 5))):
        exceptional = tuple(sorted(draw(st.dictionaries(
            st.integers(0 if j == 0 else -2, 2), _weights, max_size=2)).items()))
        if j == 0 or draw(st.booleans()):
            mult = draw(st.sampled_from([1, 1, 2, OMEGA]))
            rays.append(Ray(f"r{j}", "forward", mult, anchor(),
                            exceptional=tuple((i, v) for i, v in exceptional
                                              if i >= 0)))
        else:
            rays.append(Ray(f"r{j}", "two_sided", 1, anchor(), anchor(),
                            exceptional=exceptional))
    return validate(OrbitModel("drawn", cycles, tuple(rays)))


@settings(max_examples=150, deadline=None)
@given(valid_models())
def test_strata_sweep_matches_chain_solvers_on_drawn_models(m):
    _assert_strata_match_chains(m)


def test_essential_spectra_runs_no_chain_solve(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("essential_spectra called the chain oracle")

    for name in ("chain_kernel_dim", "chain_defect_dim"):
        monkeypatch.setattr(spectra, name, forbidden)
        monkeypatch.setattr(oracle, name, forbidden)
    monkeypatch.setattr(oracle, "_active", forbidden)
    for m in [load_fixture(name) for name in NAMES] + corpus():
        essential_spectra(m)
        # the engine counts its own dims on every circle, critical ones too
        for lam in sample_grid(m):
            fredholm_data(m, lam)


def test_validate_is_linear_in_the_cycle_count():
    raw = ladder(4096, "ladder/4096").raw
    start = time.process_time()
    validate(raw)
    elapsed = time.process_time() - start
    assert elapsed < 0.3, f"validate on 4,096 cycles took {elapsed:.2f} s"


def test_essential_spectra_on_1024_cycles_is_fast():
    m = ladder(1024, "ladder/1024")
    start = time.process_time()
    rep = essential_spectra(m)
    elapsed = time.process_time() - start
    distinct = {ER(0)} | {cyc.gm() for cyc in m.cycles.values()}
    assert len(rep.strata) == len(distinct) > 1000
    assert elapsed < 10.0, f"essential_spectra took {elapsed:.1f} s"


def test_self_check_on_64_cycles_is_fast():
    m = ladder(64, "ladder/64")
    start = time.process_time()
    msgs = self_check(m)
    elapsed = time.process_time() - start
    assert msgs == []
    assert elapsed < 5.0, f"self_check took {elapsed:.1f} s"


def test_sigma_l_interior_without_eigen_chain_is_reported(monkeypatch):
    # plant an oracle that finds no chain on the eventual image, the model
    # self_check builds without forward rays: every grid point strictly
    # inside a sigma_L annulus must then draw the report
    for name in ("chain_kernel_dim", "chain_defect_dim"):
        real = getattr(spectra, name)
        monkeypatch.setattr(spectra, name, lambda m, lam, real=real:
                            real(m, lam) if m.forward_rays() else 0)
    reported = 0
    for m in [load_fixture(name) for name in NAMES] + corpus():
        l_annuli = sigma_L(m).annuli
        critical = _roles(m)
        inside = any(any(lo < lam.modulus() < hi for lo, hi in l_annuli)
                     for lam in sample_grid(m)
                     if lam.modulus() not in critical)
        msgs = self_check(m)
        flagged = any("interior of sigma_L annulus without eigen-chain" in msg
                      for msg in msgs)
        assert flagged == inside, m.name
        reported += flagged
    assert reported > 10
