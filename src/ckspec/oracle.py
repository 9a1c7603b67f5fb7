"""Engine-independent verification.

The exact *chain solvers* compute kernel and defect dimensions straight from
the defining equations, with no reference to the classification engine:

* kernel: w(k) f(phi k) = lam f(k), f continuous.  Along a ray the equation
  is a first-order recurrence; continuity at the anchor cycle decides which
  tail solutions survive.  Eigenvector scales on simultaneously resonant
  cycles joined by two-sided rays satisfy two-variable binomial relations,
  so consistency reduces to loop products over the incidence graph, decided
  exactly.
* defect: the dual acts on summable atom chains by a_{phi k} = a_k w(k)/lam
  with atoms annihilated at ray heads; only summability constrains chains,
  so structures count independently.

Both solvers start from the placement of lam: which side of |lam| each cycle
radius lies on, and the cycles that resonate with lam.  It is decided once
per lam per model and kept on the model, so every solve at one point shares
one resonance pass.  The transport ratio across a two-sided ray is a
monomial in lam fixed by the cycle patterns and the ray weights alone, so it
is computed once per ray, from powers of the cycle products rather than one
weight at a time.

The numerical *certificates* instantiate explicit almost-eigenvectors on a
finite truncation (windowed geometric bumps along a locked ray tail) and
Neumann-series resolvent bounds.  Truncations are used only to evaluate
certificates, never to discover spectral regions: finite sections of shifts
pollute (a truncated one-sided shift is nilpotent), while the chain solvers
above are exact.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from collections import defaultdict
from dataclasses import dataclass, field
from fractions import Fraction
from functools import reduce
from itertools import chain, islice
from operator import add

from .exact import INF, RationalComplex, SpectralPoint
from .model import OMEGA, Ray, ValidatedModel

RC1 = RationalComplex.of(1)


class NoEligibleOrbit(Exception):
    """The engine's membership claim has no certifiable witness orbit."""


class MarginNotReached(Exception):
    """No resolvent margin established within the horizon."""


# ---------------------------------------------------------------------------
# monomials z * lam**e over the coefficient field Q(i)(lam)


Mono = tuple  # (RationalComplex, int)


def _mono_mul(a: Mono, b: Mono) -> Mono:
    return (a[0] * b[0], a[1] + b[1])


def _mono_div(a: Mono, b: Mono) -> Mono:
    return (a[0] / b[0], a[1] - b[1])


def _mono_eq(lam: SpectralPoint, a: Mono, b: Mono) -> bool:
    return lam.pow_equals(a[1] - b[1], b[0] / a[0])


def _active(m: ValidatedModel, lam: SpectralPoint, cid: str) -> bool:
    """Whether lam**p equals the cycle weight product (cycle resonance)."""
    cyc = m.cycle(cid)
    return lam.pow_equals(cyc.period, cyc.weight_product())


def _radius_index(m: ValidatedModel):
    """(radii, rank, at): the distinct cycle radii in increasing order, the
    rank of each cycle's radius among them, and the cycle ids at each
    radius.  Radii are kept reduced, so equal radii hash equal."""
    at = defaultdict(list)
    for cid, cyc in m.cycles.items():
        at[cyc.gm()].append(cid)
    radii = sorted(at)
    rank = {cid: j for j, r in enumerate(radii) for cid in at[r]}
    return radii, rank, dict(at)


def _placements(m: ValidatedModel) -> dict:
    """lam -> (side, actives), filled by ``_placement``."""
    return {}


def _placement(m: ValidatedModel, lam: SpectralPoint):
    """(side, actives) for nonzero lam: side(cid) is the sign of the cycle's
    radius minus |lam|, from one ranking of |lam| among the cycle radii, and
    actives are the cycles resonant with lam.  lam**p == W forces
    |lam| == |W|**(1/p), so only the cycles at radius |lam| are tested.
    Kept per lam on the model, so every chain solve at one point shares one
    resonance pass."""
    memo = m.derived(_placements)
    hit = memo.get(lam)
    if hit is None:
        radii, rank, at = m.derived(_radius_index)
        mod = lam.modulus()
        below, above = bisect_left(radii, mod), bisect_right(radii, mod)

        def side(cid: str) -> int:
            j = rank[cid]
            return -1 if j < below else 1 if j >= above else 0

        hit = memo[lam] = (side, frozenset(
            cid for cid in at.get(mod, ()) if _active(m, lam, cid)))
    return hit


def _pattern(m: ValidatedModel, cid: str) -> list[Mono]:
    """Eigenvector shape on a resonant cycle, normalized to 1 at phase 0:
    pat[j+1] = lam * pat[j] / w_j."""
    cyc = m.cycle(cid)
    pat = [(RC1, 0)]
    for j in range(cyc.period - 1):
        z, e = pat[-1]
        pat.append((z / cyc.weights[j], e + 1))
    return pat


def _ratios(m: ValidatedModel) -> dict:
    """ray id -> transport ratio, filled by ``_transport_ratio``."""
    return {}


def _transport_ratio(m: ValidatedModel, ray: Ray) -> Mono:
    """For a two-sided ray joining two resonant cycles: the monomial rho with
    t_alpha == rho * t_omega, obtained by carrying the forced omega-tail
    values down through the exceptional window.  rho is a monomial in lam,
    so it is computed once per ray and kept on the model."""
    ratios = m.derived(_ratios)
    if ray.id not in ratios:
        lock_neg, lock_pos = m.lock_bounds(ray)
        om, al = ray.omega, ray.alpha
        z, e = _pattern(m, om.cycle)[(om.phase + lock_pos)
                                     % m.cycle(om.cycle).period]
        # f(k_i) = w_i f(k_{i+1}) / lam, for i from lock_pos - 1 down to lock_neg
        val = (z * _window_product(m, ray), e - (lock_pos - lock_neg))
        pi = _pattern(m, al.cycle)[(al.phase + lock_neg) % m.cycle(al.cycle).period]
        ratios[ray.id] = _mono_div(val, pi)
    return ratios[ray.id]


def _anchor_at(ray: Ray, i: int):
    """The anchor whose cycle ray index i follows once past the locks: the
    omega cycle on a forward ray or from index 0 on, else the alpha cycle."""
    return ray.omega if ray.is_forward or i >= 0 else ray.alpha


def _window_product(m: ValidatedModel, ray: Ray) -> RationalComplex:
    """The product of the copy-0 weights at ray indices lock_neg <= i <
    lock_pos, cut at index 0 and around each override.  Between the cuts
    the ray follows one cycle (the alpha cycle below index 0, the omega
    cycle from 0 on), and any p consecutive weights of a cycle of period p
    multiply to its W, so a run of length L is W**(L // p) times one partial
    period."""
    lock_neg, lock_pos = m.lock_bounds(ray)
    over = dict(ray.exceptional)
    cuts = sorted({lock_neg, 0, lock_pos} | set(over) | {k + 1 for k in over})
    factors = []
    for lo, hi in zip(cuts, cuts[1:]):
        if lo in over:  # then hi == lo + 1
            factors.append(over[lo])
            continue
        anchor = _anchor_at(ray, lo)
        cyc = m.cycle(anchor.cycle)
        full, part = divmod(hi - lo, cyc.period)
        factors.append(cyc.weight_product() ** full)
        factors += (cyc.weights[(anchor.phase + i) % cyc.period]
                    for i in range(lo, lo + part))
    return RationalComplex.product(factors)


def _solve_resonant_graph(lam, actives, killed, edges) -> int:
    """Free dimensions among resonant cycle scales under binomial links.

    edges: (a, b, rho) meaning t_b == rho * t_a.  Each consistent component
    without a killed node contributes one dimension; an inconsistent loop or
    a killed node collapses its whole component.
    """
    adj = defaultdict(list)
    for a, b, rho in edges:
        adj[a].append((b, rho))
        adj[b].append((a, (RC1 / rho[0], -rho[1])))
    seen: set = set()
    dims = 0
    for node in actives:
        if node in seen:
            continue
        rel = {node: (RC1, 0)}
        queue = [node]
        ok = True
        while queue:
            x = queue.pop()
            for y, rho in adj[x]:
                cand = _mono_mul(rel[x], rho)
                if y in rel:
                    if not _mono_eq(lam, rel[y], cand):
                        ok = False
                else:
                    rel[y] = cand
                    queue.append(y)
        seen.update(rel)
        if ok and not any(c in killed for c in rel):
            dims += 1
    return dims


# ---------------------------------------------------------------------------
# chain solvers


def chain_kernel_dim(m: ValidatedModel, lam: SpectralPoint):
    """dim ker(lam I - T)."""
    if lam.is_zero:
        return _kernel_dim_at_zero(m)
    side, actives = _placement(m, lam)
    # a bundle's multiplicity OMEGA is INF, and INF + n == INF
    total = sum(ray.multiplicity for ray in m.forward_rays()
                if side(ray.omega.cycle) > 0)  # |lam| < g_omega
    killed: set = set()
    edges = []
    for ray in m.two_sided_rays():
        s_w = side(ray.omega.cycle)  # sign of g_omega - |lam|
        s_a = side(ray.alpha.cycle)  # sign of g_alpha - |lam|
        w_act = ray.omega.cycle in actives
        a_act = ray.alpha.cycle in actives
        if m.ray_has_zero(ray):
            # the chain is cut at the last zero: everything below it vanishes
            if s_w > 0:
                total += 1
            if a_act:
                killed.add(ray.alpha.cycle)
        elif not w_act and not a_act:
            if s_a < 0 < s_w:
                total += 1
        elif w_act and not a_act:
            if s_a >= 0:
                killed.add(ray.omega.cycle)
        elif a_act and not w_act:
            if s_w <= 0:
                killed.add(ray.alpha.cycle)
        else:
            edges.append((ray.omega.cycle, ray.alpha.cycle,
                          _transport_ratio(m, ray)))
    return total + _solve_resonant_graph(lam, actives, killed, edges)


def _kernel_dim_at_zero(m: ValidatedModel):
    # ker T = continuous functions vanishing on phi({w != 0}); phi is
    # injective, so the free spots are the heads plus one image per zero of w
    return m.heads_count() + _defect_dim_at_zero(m)


def chain_defect_dim(m: ValidatedModel, lam: SpectralPoint):
    """dim ker(lam I - T') over summable atom chains (= codim of the closed
    range).  Forward rays never contribute: their head atom is annihilated
    and the chain propagates forward only."""
    if lam.is_zero:
        return _defect_dim_at_zero(m)
    side, actives = _placement(m, lam)
    total = len(actives)
    for ray in m.two_sided_rays():
        s_a = side(ray.alpha.cycle)
        if m.ray_has_zero(ray):
            if s_a > 0:  # |lam| < g_alpha
                total += 1
        elif side(ray.omega.cycle) < 0 < s_a:  # g_omega < |lam| < g_alpha
            total += 1
    return total


def _defect_dim_at_zero(m: ValidatedModel):
    # ker T' = atoms supported on the zero set of w; the locked weights of
    # an incident ray repeat a cycle's zeros infinitely often
    total = 0
    for cid, cyc in m.cycles.items():
        zeros = sum(1 for w in cyc.weights if w.is_zero)
        total += INF if zeros and m.incident_rays(cid) else zeros
    for ray in m.raw.rays:
        total += sum(1 for _, v in ray.exceptional if v.is_zero)
    return total


# ---------------------------------------------------------------------------
# certificates


@dataclass
class Certificate:
    kind: str  # IN_upper | IN_lower | OUT_neumann | CHAIN_DIMS
    lam: str
    horizon: int
    passed: bool
    residual_ratio: float | None = None
    margin: float | None = None
    details: dict = field(default_factory=dict)

    def to_json(self) -> dict:
        return {
            "kind": self.kind,
            "lambda": self.lam,
            "horizon": self.horizon,
            "residual_ratio": self.residual_ratio,
            "margin": self.margin,
            "pass": self.passed,
            "details": self.details,
        }


DEFAULT_HORIZON = 10_000  # the truncation horizon of a certificate, unless given


def _pass_threshold(n: int, lamc: complex) -> float:
    """The largest residual ratio an IN certificate passes with.  The bump's
    residual grows like |lam|/sqrt(n), so the bound scales with |lam| above
    the unit circle."""
    return 5.0 * max(1.0, abs(lamc)) / math.sqrt(n)


def _locked_complex(m: ValidatedModel, ray: Ray, base: int, steps) -> list:
    """The weights at ray indices base + t, t in steps, as complex numbers.
    The indices lie on the side of base past its lock bound, or on a copy
    without overrides, where the ray follows one cycle: one period of it is
    converted once and indexed modulo the period."""
    anchor = _anchor_at(ray, base)
    per = [w.to_complex() for w in m.cycle(anchor.cycle).weights]
    return [per[(anchor.phase + base + t) % len(per)] for t in steps]


def _window_certificate(m, lam, ray, base, n, kind) -> Certificate:
    """Windowed geometric bump of 2n + 1 steps along a locked ray tail.

    IN_upper runs down the phi-preimages of ray index base, so w[i] is the
    weight at base - i, and it measures the sup norm.  IN_lower, the dual
    bump, is pushed forward from base, so w[i] is the weight at base + i - 1,
    and it measures the l1 norm, summed in increasing ray index."""
    lamc = lam.to_complex()
    s = 1.0 / math.sqrt(n)
    upper = kind == "IN_upper"
    w = _locked_complex(m, ray, base, range(0, -2 * n - 2, -1) if upper
                        else range(-1, 2 * n + 1))
    coeff = []
    u = 1.0 + 0.0j  # lam**(-i) times the product of w[1..i]
    for i in range(0, 2 * n + 1):
        if i > 0:
            u = u * w[i] / lamc
        coeff.append((1.0 - s) ** abs(i - n) * u)
    pad = [0.0, *coeff, 0.0]  # pad[i + 1] == coeff[i]
    terms = (abs(wi * a - lamc * b)
             for wi, a, b in zip(w, pad, islice(pad, 1, None)))
    if upper:
        resid, norm = max(chain((0.0,), terms)), max(map(abs, coeff))
    else:
        # a plain running sum, the same on every Python: sum() compensates
        # its rounding from 3.12 on
        resid, norm = reduce(add, terms, 0.0), sum(map(abs, coeff))
    ratio = resid / norm
    return Certificate(kind, str(lam), n, ratio <= _pass_threshold(n, lamc),
                       residual_ratio=ratio,
                       details={"ray": ray.id, "base_index": base})


def _eigenvector_certificate(m, lam, ray, n, kind) -> Certificate:
    """Exact decaying eigenvector on a bundle copy without overrides in the
    |lam| < gm regime, truncated at the horizon; the only residual is the
    cut."""
    lamc = lam.to_complex()
    w = _locked_complex(m, ray, 0, range(n + 1))
    coeff = [1.0 + 0.0j]
    for i in range(n):
        coeff.append(lamc * coeff[i] / w[i])
    pad = [*coeff, 0.0]  # cut past the horizon
    resid = max(chain((0.0,), (abs(wj * b - lamc * a) for wj, a, b
                               in zip(w, pad, islice(pad, 1, None)))))
    ratio = resid / max(map(abs, coeff))
    return Certificate(kind, str(lam), n, ratio <= _pass_threshold(n, lamc),
                       residual_ratio=ratio,
                       details={"ray": ray.id, "exact_eigenvector": True})


def _zero_certificate(m, kind, n) -> Certificate:
    """lam == 0 witnesses: head masses (upper) are killed by T'' exactly;
    Dirac masses at zeros of w (lower) are killed by T' exactly."""
    if kind == "IN_upper":
        for ray in m.forward_rays():
            if ray.multiplicity == OMEGA:
                return Certificate(kind, "0", n, True, residual_ratio=0.0,
                                   details={"witness": f"heads of {ray.id}"})
    for cid, cyc in m.cycles.items():
        if cyc.has_zero_weight and m.incident_rays(cid):
            return Certificate(kind, "0", n, True, residual_ratio=0.0,
                               details={"witness": f"recurrent zeros near {cid}"})
    raise NoEligibleOrbit("no singular witness for lam == 0")


def in_certificate(m: ValidatedModel, lam: SpectralPoint, side: str,
                   horizon: int = DEFAULT_HORIZON) -> Certificate:
    """Certify the engine's claim lam in sigma_2 (upper) / sigma_2' (lower)."""
    if horizon < 4:
        raise ValueError("horizon must be at least 4")
    n = horizon
    kind = "IN_upper" if side == "upper" else "IN_lower"
    if lam.is_zero:
        return _zero_certificate(m, kind, n)
    r = lam.modulus()
    # circle witnesses: the locked tail of the first ray incident to a cycle
    # of radius |lam|.  The upper bump reads ray indices lo .. lo + 2n + 1
    # and the lower one lo .. lo + 2n (its weight at lo - 1 meets a zero
    # pad).  They lie past the lock, where every copy is locked: from
    # lock_pos up on the omega end, up to lock_neg on the alpha end.
    for cid in m.derived(_radius_index)[2].get(r, ()):
        for ray in m.incident_rays(cid):
            lock_neg, lock_pos = m.lock_bounds(ray)
            lo = lock_pos if ray.omega.cycle == cid else lock_neg - 2 * n - 1
            base = lo + 2 * n + 1 if side == "upper" else lo
            return _window_certificate(m, lam, ray, base, n, kind)
    if side == "upper":
        # disk interior: exact eigenvectors on the copies of a countable
        # bundle that carry no overrides (all but copy 0, when it has some)
        for ray in m.forward_rays():
            if ray.multiplicity == OMEGA and r < m.cycle(ray.omega.cycle).gm():
                return _eigenvector_certificate(m, lam, ray, n, kind)
    raise NoEligibleOrbit(f"no witness orbit for lam = {lam} ({side})")


# ---------------------------------------------------------------------------
# resolvent certificates


def _components(m: ValidatedModel):
    """The components of the eventual image, each with every ray anchored
    in it: its two-sided rays and the forward rays into its cycles."""
    comps = [{"cycles": c["cycles"], "rays": []} for c in m.l_components()]
    home = {cid: comp for comp in comps for cid in comp["cycles"]}
    for r in m.raw.rays:
        home[r.omega.cycle]["rays"].append(r)
    return comps


def _abs2_streams(m: ValidatedModel, comp, l_only: bool):
    """The |w|**2 streams of a component.  Each stream maps a window length
    nn to runs of |w|**2 values; the windows of nn consecutive entries of
    the runs reach every point of the component.

    A cycle's run starts a window at each of its phases.  A ray's runs start
    one only where the window meets a cut, so only the cycle weights and the
    overrides are squared, whatever the depth of the overrides.
    """
    abs2 = {cid: [w.abs2() for w in m.cycle(cid).weights]
            for cid in comp["cycles"]}
    streams = [lambda nn, a=a: [[a[k % len(a)]
                                 for k in range(len(a) + nn - 1)]]
               for a in abs2.values()]
    for ray in comp["rays"]:
        if not (l_only and ray.is_forward):
            streams.append(_ray_abs2_stream(ray, abs2))
    return streams


def _ray_abs2_stream(ray: Ray, abs2: dict):
    """|w|**2 along copy 0 of a ray, in runs around its cuts: the overrides
    whose |w|**2 differs from the locked one and, on a two-sided ray, the
    step from index -1 to index 0.  A window that meets no cut lies where
    the ray follows one cycle (alpha below index 0, omega from 0 on), so it
    equals a window of that cycle, whose stream covers it.  The other copies
    of a bundle carry the cycle weights too."""

    def locked(i):
        anchor = _anchor_at(ray, i)
        a = abs2[anchor.cycle]
        return a[(anchor.phase + i) % len(a)]

    over = {i: v.abs2() for i, v in ray.exceptional}
    over = {i: v for i, v in over.items() if v != locked(i)}

    def stream(nn):
        # the window starts that hold a cut, as closed intervals
        spans = sorted([(i - nn + 1, i) for i in over]
                       + ([(1 - nn, -1)] if ray.is_two_sided else []))
        runs = []
        for lo, hi in spans:
            lo = max(lo, 0) if ray.is_forward else lo
            if lo > hi:
                continue
            if runs and lo <= runs[-1][1] + 1:
                runs[-1][1] = max(runs[-1][1], hi)
            else:
                runs.append([lo, hi])
        return [[over[i] if i in over else locked(i)
                 for i in range(lo, hi + nn)] for lo, hi in runs]

    return stream


def _window_products(stream, nn: int) -> list:
    """The product of every nn consecutive entries, in one sliding pass:
    each step multiplies in the entering entry and divides out the leaving
    one.  Zeros are counted, so nothing is divided by zero."""
    prods = []
    prod, zeros = Fraction(1), 0
    for k, v in enumerate(stream):
        if v:
            prod *= v
        else:
            zeros += 1
        if k >= nn:
            gone = stream[k - nn]
            if gone:
                prod /= gone
            else:
                zeros -= 1
        if k >= nn - 1:
            prods.append(Fraction(0) if zeros else prod)
    return prods


def _extreme_abs2_wn(streams, nn: int, want_max: bool):
    """Exact max (or min) of |w_nn|**2 over the points of a component, from
    its |w|**2 streams: |w(k) ... w(phi^(nn-1) k)|**2 is the product of the
    |w|**2 along the orbit."""
    pick = max if want_max else min
    return pick(v for s in streams for run in s(nn)
                for v in _window_products(run, nn))


def _first_margin(streams, mod, horizon: int, above: bool):
    """(nn, margin) at the first doubling nn <= horizon where the component
    clears |lam|: sup |w_nn|**2 < |lam|**(2 nn) above it, |lam|**(2 nn) <
    inf |w_nn|**2 below it; None where no nn does.  With |lam|**2 ==
    sq**(1/p), both sides are raised to the p-th power and compared over the
    integers, and the margin is the nn-th root of their ratio."""
    sq, p = mod.sq, mod.p
    nn = 1
    while nn <= horizon:
        ext = _extreme_abs2_wn(streams, nn, want_max=above) ** p
        small, big = (ext, sq**nn) if above else (sq**nn, ext)
        if small < big:
            return nn, float(small / big) ** (0.5 / (nn * p))
        nn *= 2
    return None


def out_certificate(m: ValidatedModel, lam: SpectralPoint,
                    horizon: int = DEFAULT_HORIZON) -> Certificate:
    """Certify lam outside the spectrum, component by component.

    Per component, one of three rigorous routes must apply within the
    horizon: a Neumann bound sup|w_n|^(1/n) < |lam| above the component, the
    inverse-regime bound |lam|^n < inf |w_n| on the eventual image below it
    (plus exact kernel vanishing), or exact root separation on a bare cycle.
    """
    if lam.is_zero:
        raise MarginNotReached("0 always belongs to the spectrum")
    mod = lam.modulus()
    details = {}
    worst = 0.0
    for comp in _components(m):
        gms = [m.cycle(cid).gm() for cid in comp["cycles"]]
        label = "+".join(sorted(comp["cycles"]))
        entry = None
        if mod > max(gms):
            hit = _first_margin(_abs2_streams(m, comp, l_only=False), mod,
                                horizon, above=True)
            if hit:
                entry = {"route": "neumann", "n": hit[0], "margin": hit[1]}
        elif mod < min(gms):
            invertible = (not any(m.cycle(cid).has_zero_weight
                                  for cid in comp["cycles"])
                          and not any(m.ray_has_zero(r) for r in comp["rays"]
                                      if r.is_two_sided))
            if invertible and chain_kernel_dim(_submodel(m, comp), lam) == 0:
                hit = _first_margin(_abs2_streams(m, comp, l_only=True), mod,
                                    horizon, above=False)
                if hit:
                    entry = {"route": "inverse", "n": hit[0], "margin": hit[1],
                             "kernel_checked": True}
        elif not comp["rays"]:  # a bare cycle: rays alone join cycles
            cyc = m.cycle(comp["cycles"][0])
            w = cyc.weight_product()
            if not lam.pow_equals(cyc.period, w):
                # exact separation from the finite root set; the margin is
                # informational (pass is decided by the exact test above).
                # |lam**p| == |W| here, so the relative separation
                # |lam**p - W| / sqrt(|lam**p|**2 + |W|**2 + |lam**p - W|**2)
                # depends only on the angle t between them: with s =
                # sin(t/2) it is |s| * sqrt(2 / (1 + 2 s**2))
                s = math.sin((cyc.period * lam.arg() - w.arg()) / 2)
                rel = abs(s) * math.sqrt(2 / (1 + 2 * s * s))
                entry = {"route": "root_separation", "n": cyc.period,
                         "margin": 1.0 - max(rel, 1e-12)}
        if entry is None:
            raise MarginNotReached(
                f"component {label}: no certificate route reached a margin "
                f"within horizon {horizon}")
        details[label] = entry
        worst = max(worst, entry["margin"])
    return Certificate("OUT_neumann", str(lam), horizon, True, margin=worst,
                       details=details)


def _submodel(m: ValidatedModel, comp) -> ValidatedModel:
    from .model import OrbitModel
    cycles = tuple(m.cycle(cid) for cid in sorted(comp["cycles"]))
    rays = tuple(sorted(comp["rays"], key=lambda r: r.id))
    return ValidatedModel(OrbitModel(m.name + "/component", cycles, rays))
