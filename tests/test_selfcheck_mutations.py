"""Faults planted in the chain oracle and the set algebra must draw
self-check reports.

Each case replaces one function with a faulty variant through monkeypatch
and runs ``self_check`` on the fixtures and the shared corpus.  The engine
counts its dimensions without the oracle on every circle without a cluster
or image role, so a wrong oracle count at such a grid point shows as a
disagreement there.
"""

from ckspec import oracle, spectra
from ckspec.fixtures import NAMES, load_fixture
from ckspec.radialset import RadialSet, intersect, union
from ckspec.spectra import self_check

from _corpus import corpus

MODELS = [load_fixture(name) for name in NAMES] + corpus()

_defect = oracle.chain_defect_dim
_solve = oracle._solve_resonant_graph


def defect_drops_resonant_cycles(m, lam):
    d = _defect(m, lam)
    return d if lam.is_zero else d - len(oracle._placement(m, lam)[1])


def defect_counts_plain_rays_twice(m, lam):
    # fault A: a two-sided ray without a zero adds 2, not 1, to the defect
    # where g_omega < |lam| < g_alpha
    d = _defect(m, lam)
    if lam.is_zero:
        return d
    side, _ = oracle._placement(m, lam)
    return d + sum(1 for ray in m.two_sided_rays() if not m.ray_has_zero(ray)
                   and side(ray.omega.cycle) < 0 < side(ray.alpha.cycle))


def graph_skips_edgeless_cycles(lam, actives, killed, edges):
    linked = {c for a, b, _ in edges for c in (a, b)}
    return _solve(lam, [c for c in actives if c in linked], killed, edges)


def intersect_drops_common_roots(a, b):
    # only the roots of each side that lie on the other side's annuli survive
    return union(intersect(RadialSet(a.annuli), b),
                 intersect(a, RadialSet(b.annuli)))


def _reported(monkeypatch, module, name, fault) -> set[str]:
    monkeypatch.setattr(module, name, fault)
    return {m.name for m in MODELS if self_check(m)}


def test_defect_without_resonant_cycles_is_reported(monkeypatch):
    hit = _reported(monkeypatch, spectra, "chain_defect_dim",
                    defect_drops_resonant_cycles)
    # its only resonances lie on a bare-cycle circle, where the engine once
    # asked the oracle for the dims and so shared the fault
    assert "random-20240901" in hit
    assert "per3_isolated" in hit


def test_plain_two_sided_ray_counted_twice_is_reported(monkeypatch):
    assert _reported(monkeypatch, spectra, "chain_defect_dim",
                     defect_counts_plain_rays_twice)


def test_kernel_without_edgeless_resonant_cycles_is_reported(monkeypatch):
    hit = _reported(monkeypatch, oracle, "_solve_resonant_graph",
                    graph_skips_edgeless_cycles)
    assert "per3_isolated" in hit


def test_intersect_without_common_roots_is_reported(monkeypatch):
    # the engine reads sigma_1 off sigma_2', so the identity
    # sigma_1 == sigma_2 ^ sigma_2' sees a fault in the intersection
    changed = set()
    for m in MODELS:
        rep = spectra.essential_spectra(m)
        s2, s2p = rep.sigma_2, rep.sigma_2_prime
        if intersect_drops_common_roots(s2, s2p) != intersect(s2, s2p):
            changed.add(m.name)
    assert len(changed) == 18
    hit = _reported(monkeypatch, spectra, "intersect",
                    intersect_drops_common_roots)
    assert changed <= hit, sorted(changed - hit)
