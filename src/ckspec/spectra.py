"""The classification engine: spectrum and essential spectra of the weighted
composition operator presented by a validated model.

The transient part of the spectrum is a closed disk whose radius is the
largest cluster radius; the invertible part contributes, per weakly
connected component of the eventual image, either the root set of a bare
cycle or the annulus spanned by the component's cycle radii.  The five
essential spectra are assembled from the finitely many critical radii, zero
and the cycle geometric means, each one row of the critical table
``_strata`` with the roles and the cycles at that radius.  Upper
semi-Fredholmness fails exactly on cluster circles, below bundle clusters,
and on ray-incident circles of the eventual image; lower semi-Fredholmness
fails on the same circles.  Between consecutive critical radii every
classification is constant, so one exact rational sample per stratum pins
the Fredholm index there; Browder removal keeps only those complement
components of the semi-Fredholm spectrum that stay inside the spectrum.

Off the critical circles no cycle resonates (lam**p == W forces
|lam| == |W|**(1/p), a critical radius), so the kernel and the defect of
lam I - T depend only on where each ray's end radii g_alpha and g_omega lie
relative to |lam|.  With j(c) the rank of cycle c's radius in the critical
table and stratum i the open annulus between the radii of ranks i and i+1,
each ray adds to a run of strata:

* a forward ray adds its multiplicity to the kernel on strata
  0 .. j(omega)-1, where |lam| < g_omega; an omega-bundle makes the kernel
  infinite there;
* a two-sided ray with a vanishing weight is cut into two half chains: it
  adds 1 to the kernel on strata 0 .. j(omega)-1 and 1 to the defect on
  strata 0 .. j(alpha)-1;
* any other two-sided ray adds 1 to the kernel on strata j(alpha) ..
  j(omega)-1, where g_alpha < |lam| < g_omega, and 1 to the defect on strata
  j(omega) .. j(alpha)-1, where g_omega < |lam| < g_alpha.

One difference sweep over the ranks sums these runs for every stratum at
once.  On a critical circle the engine claims, by the circle's roles:

* a ``cluster`` or ``image`` circle breaks both semi-Fredholm flags, and
  the engine claims only the flags there, no dimensions;
* any other critical circle carries bare cycles only, so no ray's run ends
  on it: the dimensions are those of the stratum above, plus one in the
  kernel and one in the defect for each cycle there that resonates with lam
  (an eigenvector on the cycle and its dual atom chain).

Every region decision made here is re-verifiable pointwise against the chain
solvers; ``self_check`` runs that grid.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field, replace
from fractions import Fraction

from .exact import (INF, CirclePoint, ExactRadius, QPoint, RationalComplex,
                    RootPoint, SpectralPoint, is_infinite, rational_between)
from .model import OMEGA, Cycle, OrbitModel, ValidatedModel, core_sets
from .oracle import chain_defect_dim, chain_kernel_dim
from .radialset import (ORIGIN, RadialSet, canonicalize,
                        complement_components, intersect,
                        remove_open_gap_traces, render_svg, union)


class InternalInconsistency(Exception):
    """Engine and pointwise oracle recheck disagree; must never fire."""


def fmt_dim(d) -> str | None:
    if d is None:  # no dimension claimed: a cluster or image circle
        return None
    return "infinite" if is_infinite(d) else str(d)


@dataclass(frozen=True)
class FredholmData:
    """The Fredholm data of lam I - T at a point or on a stratum; dim_ker and
    defect are None where the engine claims no dimension (fmt_dim)."""

    upper: bool
    lower: bool
    dim_ker: object
    defect: object

    @property
    def index(self) -> int | None:
        return self.dim_ker - self.defect if self.upper and self.lower else None

    def to_json(self) -> dict:
        return {"upper": self.upper, "lower": self.lower,
                "dim_ker": fmt_dim(self.dim_ker), "defect": fmt_dim(self.defect),
                "index": self.index}

    def describe(self) -> str:
        return (f"upper={self.upper} lower={self.lower} "
                f"dim_ker={fmt_dim(self.dim_ker)} defect={fmt_dim(self.defect)} "
                f"index={self.index}")


@dataclass(frozen=True, kw_only=True)
class ZeroReport(FredholmData):
    """Classification of the operator itself (lam == 0)."""

    weight_vanishes_on_sources: bool
    in_sigma5: bool = True

    @property
    def weyl(self) -> bool:
        return self.index == 0

    @property
    def weyl_criterion(self) -> bool:
        """Fredholm and w == 0 on every source."""
        return self.upper and self.lower and self.weight_vanishes_on_sources

    def to_json(self) -> dict:
        return {**super().to_json(),
                "weight_vanishes_on_sources": self.weight_vanishes_on_sources,
                "weyl": self.weyl, "weyl_criterion": self.weyl_criterion,
                "in_sigma5": self.in_sigma5}


@dataclass(frozen=True, kw_only=True)
class Stratum(FredholmData):
    """One row of the critical table: a critical radius lo with the roles and
    the cycles at it, and the open stratum (lo, hi) up to the next one (hi
    is None above the largest) with its exact rational sample and the
    Fredholm data that hold on all of it.  Lower semi-Fredholmness fails
    only on critical circles, so it holds on every stratum."""

    lo: ExactRadius
    hi: ExactRadius | None
    sample: Fraction
    roles: frozenset[str]
    cycles: tuple[Cycle, ...]

    def to_json(self) -> dict:
        return {"lo": self.lo.to_json(),
                "hi": None if self.hi is None else self.hi.to_json(),
                "sample": [self.sample.numerator, self.sample.denominator],
                "lambda": str(QPoint.of(self.sample)), **super().to_json()}


@dataclass
class SpectralReport:
    model: str
    sigma: RadialSet
    sigma_m: RadialSet
    sigma_l: RadialSet
    sigma_1: RadialSet
    sigma_2: RadialSet
    sigma_2_prime: RadialSet
    sigma_3: RadialSet
    sigma_4: RadialSet
    sigma_5: RadialSet
    rotation_invariant: bool
    all_cycles_ray_incident: bool
    sigma5_equals_sigma: bool
    sigma3_equals_sigma: bool
    zero: ZeroReport
    critical_radii: list[ExactRadius] = field(default_factory=list)
    strata: list[Stratum] = field(default_factory=list)

    def named_sets(self) -> list[tuple[str, RadialSet]]:
        return [("sigma", self.sigma), ("sigma_1", self.sigma_1),
                ("sigma_2", self.sigma_2), ("sigma_2'", self.sigma_2_prime),
                ("sigma_3", self.sigma_3), ("sigma_4", self.sigma_4),
                ("sigma_5", self.sigma_5)]

    def to_json(self) -> dict:
        return {
            "schema_version": 1,
            "model": self.model,
            "sigma": self.sigma.to_json(),
            "sigma_m": self.sigma_m.to_json(),
            "sigma_l": self.sigma_l.to_json(),
            "sigma_1": self.sigma_1.to_json(),
            "sigma_2": self.sigma_2.to_json(),
            "sigma_2_prime": self.sigma_2_prime.to_json(),
            "sigma_3": self.sigma_3.to_json(),
            "sigma_4": self.sigma_4.to_json(),
            "sigma_5": self.sigma_5.to_json(),
            "rotation_invariant": self.rotation_invariant,
            "flags": {
                "all_cycles_ray_incident": self.all_cycles_ray_incident,
                "sigma5_equals_sigma": self.sigma5_equals_sigma,
                "sigma3_equals_sigma": self.sigma3_equals_sigma,
            },
            "zero_report": self.zero.to_json(),
            "critical_radii": [r.to_json() for r in self.critical_radii],
            "strata": [row.to_json() for row in self.strata],
        }

    def to_text(self) -> str:
        lines = [f"model: {self.model}"]
        for name, s in [("sigma     ", self.sigma), ("sigma_M   ", self.sigma_m),
                        ("sigma_L   ", self.sigma_l), ("sigma_1   ", self.sigma_1),
                        ("sigma_2   ", self.sigma_2),
                        ("sigma_2'  ", self.sigma_2_prime),
                        ("sigma_3   ", self.sigma_3), ("sigma_4   ", self.sigma_4),
                        ("sigma_5   ", self.sigma_5)]:
            lines.append(f"  {name} = {s.describe()}")
        z = self.zero
        lines.append("at lambda = 0:")
        lines.append(f"  {z.describe()} in_sigma5={z.in_sigma5}")
        lines.append(f"  weight vanishes on sources: "
                     f"{z.weight_vanishes_on_sources}; weyl={z.weyl} "
                     f"(criterion: {z.weyl_criterion})")
        lines.append(f"rotation invariant: {self.rotation_invariant}")
        lines.append(f"all cycles ray-incident: {self.all_cycles_ray_incident} "
                     f"-> sigma_5 == sigma: {self.sigma5_equals_sigma}")
        lines.append("index by radial stratum:")
        for st in self.strata:
            hi = "inf" if st.hi is None else str(st.hi)
            lines.append(f"  ({st.lo}, {hi}): sample {st.sample}: {st.describe()}")
        return "\n".join(lines)

    def to_svg(self) -> str:
        return render_svg(self.named_sets())


# ---------------------------------------------------------------------------
# spectrum pieces


# roles of a critical radius whose circle breaks both semi-Fredholm flags
_BREAKS_BOTH = frozenset({"cluster", "image"})


def _top(m: ValidatedModel, role: str) -> ExactRadius | None:
    """The largest critical radius with the given role, if any."""
    return next((st.lo for st in reversed(m.derived(_strata))
                 if role in st.roles), None)


def sigma_M(m: ValidatedModel) -> RadialSet:
    return RadialSet.disk(_top(m, "cluster") or ExactRadius.zero())


def sigma_L(m: ValidatedModel) -> RadialSet:
    ann = []
    roots = []
    for comp in m.l_components():
        gms = [m.cycle(cid).gm() for cid in comp["cycles"]]
        if comp["rays"]:
            ann.append((min(gms), max(gms)))
            for rid in comp["rays"]:
                ray = m.rays[rid]
                if m.ray_has_zero(ray):
                    # a vanishing weight cuts the two-sided chain: the upper
                    # half carries eigenvectors below gm(omega end), the
                    # lower half dual vectors below gm(alpha end)
                    d = m.cycle(ray.omega.cycle).gm()
                    d_a = m.cycle(ray.alpha.cycle).gm()
                    if d_a > d:
                        d = d_a
                    ann.append((ExactRadius.zero(), d))
        else:
            cyc = m.cycle(comp["cycles"][0])
            roots.append((cyc.weight_product(), cyc.period))
    return canonicalize(annuli=ann, root_sets=roots)


# ---------------------------------------------------------------------------
# pointwise classification


def zero_analysis(m: ValidatedModel) -> ZeroReport:
    cs = core_sets(m)
    z_isolated = not is_infinite(cs.z_w_count)
    # every copy of a ray past copy 0 follows the cycle weights, as copy 1
    vanish = all(m.ray_weight(ray, 0, copy).is_zero for ray in m.forward_rays()
                 for copy in range(min(ray.multiplicity, 2)))
    return ZeroReport(upper=z_isolated and not is_infinite(cs.sources_count),
                      lower=z_isolated,
                      dim_ker=cs.sources_count + cs.z_w_count,  # INF + n == INF
                      defect=cs.z_w_count, weight_vanishes_on_sources=vanish)


def _rows_by_radius(m: ValidatedModel) -> dict:
    """critical radius -> its row of ``_strata`` (kept through ``m.derived``)."""
    return {st.lo: st for st in m.derived(_strata)}


def fredholm_data(m: ValidatedModel, lam: SpectralPoint) -> FredholmData:
    """Classify lam by the structural characterizations, with no chain solve.

    dim_ker/defect are the dimensions of ker(lam I - T) and ker(lam I - T'),
    read from the critical table (see the module docstring).  Off the
    critical circles one bisection finds the stratum of |lam|.  On one, its
    row gives the stratum above, and the row's cycles that resonate with lam
    add one each to both, unless the circle has a cluster or image role:
    there neither semi-Fredholm flag holds, and dim_ker, defect and index
    are None, as the engine claims only the flags.
    """
    if lam.is_zero:
        z = zero_analysis(m)
        return FredholmData(z.upper, z.lower, z.dim_ker, z.defect)
    mod = lam.modulus()
    st = m.derived(_rows_by_radius).get(mod)
    if st is None:
        strata = m.derived(_strata)
        st = strata[bisect_right(strata, mod, key=lambda row: row.lo) - 1]
        return FredholmData(st.upper, True, st.dim_ker, st.defect)
    if not st.roles.isdisjoint(_BREAKS_BOTH):
        return FredholmData(False, False, None, None)
    # a resonant cycle adds as much to the defect as to the kernel
    resonant = sum(1 for cyc in st.cycles
                   if lam.pow_equals(cyc.period, cyc.weight_product()))
    return FredholmData(st.upper, True, st.dim_ker + resonant,
                        st.defect + resonant)


# ---------------------------------------------------------------------------
# assembly


def _strata(m: ValidatedModel) -> list[Stratum]:
    """The critical table: one row per critical radius, with the roles and
    the cycles of that radius and the per-ray runs of the module docstring,
    summed in one difference sweep over the ranks.  Read it through
    ``m.derived(_strata)``, which computes it once per model."""
    at: dict = {ExactRadius.zero(): []}  # radius -> the cycles there
    for cyc in m.cycles.values():
        at.setdefault(cyc.gm(), []).append(cyc)
    radii = sorted(at)
    rank = {r: j for j, r in enumerate(radii)}
    # "cluster": a boundary cycle; "bundle": a cycle under an omega-bundle;
    # "image": a cycle joined to a two-sided ray
    roles = [set() for _ in radii]
    ker = [0] * (len(radii) + 1)
    dfc = [0] * (len(radii) + 1)
    below_bundle = 0  # strata below this rank lie inside a bundle cluster

    def run(diff, lo, hi, v=1):
        if lo < hi:
            diff[lo] += v
            diff[hi] -= v

    for ray in m.raw.rays:
        j_w = rank[m.cycle(ray.omega.cycle).gm()]
        if ray.is_forward:
            roles[j_w].add("cluster")
            if ray.multiplicity == OMEGA:
                roles[j_w].add("bundle")
                below_bundle = max(below_bundle, j_w)
            else:
                run(ker, 0, j_w, ray.multiplicity)
            continue
        j_a = rank[m.cycle(ray.alpha.cycle).gm()]
        roles[j_w].add("image")
        roles[j_a].add("image")
        if m.ray_has_zero(ray):
            run(ker, 0, j_w)
            run(dfc, 0, j_a)
        else:
            run(ker, j_a, j_w)
            run(dfc, j_w, j_a)
    out = []
    k = d = 0
    for i, (lo, hi) in enumerate(zip(radii, radii[1:] + [None])):
        k += ker[i]
        d += dfc[i]
        # below a bundle cluster infinitely many sources break upper
        # semi-Fredholmness; lower semi-Fredholmness fails only on circles
        inside = i < below_bundle
        out.append(Stratum(lo=lo, hi=hi, sample=rational_between(lo, hi),
                           upper=not inside, lower=True,
                           dim_ker=INF if inside else k, defect=d,
                           roles=frozenset(roles[i]), cycles=tuple(at[lo])))
    return out


def essential_spectra(m: ValidatedModel) -> SpectralReport:
    z = zero_analysis(m)
    s_m = sigma_M(m)
    s_l = sigma_L(m)
    sigma = union(s_m, s_l)

    # sigma_2' has the circles of sigma_2, and 0 in sigma_2' forces 0 in
    # sigma_2 (not lower at 0 implies not upper), so sigma_2' <= sigma_2
    strata = m.derived(_strata)
    circles = [(st.lo, st.lo) for st in strata
               if not st.roles.isdisjoint(_BREAKS_BOTH)]
    top = _top(m, "bundle")
    disk = [] if top is None else [(ExactRadius.zero(), top)]
    s2 = canonicalize(annuli=circles + disk,
                      root_sets=[] if z.upper else [ORIGIN])
    s2p = canonicalize(annuli=circles, root_sets=[] if z.lower else [ORIGIN])
    # hence sigma_1 = sigma_2 ^ sigma_2' is sigma_2' and sigma_3 =
    # sigma_2 u sigma_2' is sigma_2; self_check recomputes both
    s1, s3 = s2p, s2

    # sigma_4 adds to sigma_3 the bounded strata of nonzero index and the
    # origin; the point part of sigma_3 is at most the origin
    s4 = canonicalize(annuli=list(s3.annuli)
                      + [(st.lo, st.hi) for st in strata
                         if st.hi is not None and st.index not in (None, 0)],
                      root_sets=[ORIGIN])

    removed = []
    for gap in complement_components(s1):
        lo = gap.lo if gap.lo is not None else ExactRadius.zero()
        if gap.hi is None or not sigma.radial_contains(lo, gap.hi):
            removed.append(gap)
    # points of sigma_1 puncture the complement components rather than
    # belonging to them, so Browder removal can never strip them
    s5 = union(remove_open_gap_traces(sigma, removed), s1)
    z = replace(z, in_sigma5=s5.member(QPoint.of(0)))

    incident = all(m.incident_rays(cid) for cid in m.cycles)
    return SpectralReport(
        model=m.name,
        sigma=sigma, sigma_m=s_m, sigma_l=s_l,
        sigma_1=s1, sigma_2=s2, sigma_2_prime=s2p, sigma_3=s3,
        sigma_4=s4, sigma_5=s5,
        rotation_invariant=incident,
        all_cycles_ray_incident=incident,
        sigma5_equals_sigma=(s5 == sigma),
        sigma3_equals_sigma=(s3 == sigma),
        zero=z,
        critical_radii=[st.lo for st in strata],
        strata=strata,
    )


# ---------------------------------------------------------------------------
# verification grid


def sample_grid(m: ValidatedModel) -> list[SpectralPoint]:
    """One rational sample per radial stratum, two angles per critical
    circle, every root-set point, plus the origin."""
    second = RationalComplex.of(Fraction(3, 5), Fraction(4, 5))
    pts: list[SpectralPoint] = [QPoint.of(0)]
    strata = m.derived(_strata)
    pts += [QPoint.of(st.sample) for st in strata]
    for r in (st.lo for st in strata):
        if r.is_zero:
            continue
        q = r.rational_value()
        if q is not None:
            pts.append(QPoint.of(q))
            pts.append(QPoint(RationalComplex.of(q) * second))
        else:
            pts.append(CirclePoint(r, RationalComplex.of(1)))
            pts.append(CirclePoint(r, second))
    for cyc in m.cycles.values():
        w = cyc.weight_product()
        if not w.is_zero:
            for j in range(cyc.period):
                pts.append(RootPoint(w, cyc.period, j))
    return pts


def self_check(m: ValidatedModel, report: SpectralReport | None = None) -> list[str]:
    """Engine-versus-oracle grid plus the structural identities.

    Returns a list of human-readable discrepancies (empty means verified).
    """
    if report is None:
        report = essential_spectra(m)
    msgs: list[str] = []

    def expect(cond: bool, msg: str):
        if not cond:
            msgs.append(msg)

    s1, s2, s2p = report.sigma_1, report.sigma_2, report.sigma_2_prime
    s3, s4, s5 = report.sigma_3, report.sigma_4, report.sigma_5
    sigma = report.sigma
    expect(s1 == intersect(s2, s2p), "sigma_1 != sigma_2 ^ sigma_2'")
    expect(s3 == union(s2, s2p), "sigma_3 != sigma_2 u sigma_2'")
    expect(s1.issubset(s2), "sigma_1 not within sigma_2")
    expect(s2.issubset(s4), "sigma_2 not within sigma_4")
    expect(s1.issubset(s3), "sigma_1 not within sigma_3")
    expect(s3.issubset(s4), "sigma_3 not within sigma_4")
    expect(s4.issubset(s5), "sigma_4 not within sigma_5")
    expect(s5.issubset(sigma), "sigma_5 not within sigma")
    expect(sigma == union(report.sigma_m, report.sigma_l),
           "sigma != sigma_M u sigma_L")
    radii = [s.max_radius() for s in (s1, s2, s2p, s3, s4, s5)]
    expect(all(r == radii[0] for r in radii[1:]),
           "essential radii of sigma_1..sigma_5 differ")
    expect(report.zero.in_sigma5, "0 not in sigma_5")
    if report.all_cycles_ray_incident:
        for name, s in report.named_sets():
            expect(s.is_rotation_invariant(),
                   f"{name} not rotation invariant despite ray-incident cycles")
        expect(report.sigma5_equals_sigma,
               "no isolated cycles but sigma_5 != sigma")

    # the eventual image as a model of its own: its kernel and defect at
    # lam != 0 are those of the chains in L alone
    image = ValidatedModel(OrbitModel(m.name, m.raw.cycles, m.two_sided_rays()))
    critical = m.derived(_rows_by_radius)

    for lam in sample_grid(m):
        fd = fredholm_data(m, lam)
        ker = chain_kernel_dim(m, lam)
        dfc = chain_defect_dim(m, lam)
        tag = f"lam={lam}"
        if fd.dim_ker is not None:
            expect(fd.dim_ker == ker,
                   f"{tag}: engine dim_ker {fmt_dim(fd.dim_ker)} != chain {fmt_dim(ker)}")
            expect(fd.defect == dfc,
                   f"{tag}: engine defect {fmt_dim(fd.defect)} != chain {fmt_dim(dfc)}")
        expect(s2.member(lam) == (not fd.upper),
               f"{tag}: sigma_2 membership vs upper flag")
        expect(s2p.member(lam) == (not fd.lower),
               f"{tag}: sigma_2' membership vs lower flag")
        in_sigma = sigma.member(lam)
        if not in_sigma:
            expect(fd.upper and fd.lower and ker == 0 and dfc == 0
                   and fd.index == 0,
                   f"{tag}: outside sigma but not a clean resolvent point")
        if fd.upper and fd.lower:
            expect(s4.member(lam) == (s3.member(lam) or fd.index != 0),
                   f"{tag}: sigma_4 membership vs index")
        # every end of a sigma_L annulus, and 0, is a critical radius, so
        # off them the closed containment holds only in the interior
        mod = lam.modulus()
        if mod not in critical and report.sigma_l.radial_contains(mod):
            expect(chain_kernel_dim(image, lam) + chain_defect_dim(image, lam)
                   != 0, f"{tag}: interior of sigma_L annulus without eigen-chain")
    return msgs
