"""Seeded model generator for the benchmark, with reference facts.

Everything here uses ``fractions`` and the standard library only: the facts
the checks compare against (cycle products, radii, bare cycles, the route
each certify lambda was drawn to reach) are computed apart from
``ckspec``.  The program under test only ever sees the model files.

A radius is a pair ``(sq, p)`` standing for ``sq ** (1 / (2 * p))``, the
same convention as the report JSON.
"""

from __future__ import annotations

import json
import os
import random
from dataclasses import dataclass, field
from functools import cached_property
from fractions import Fraction

WORKLOADS = ("analyze", "selfcheck", "certify", "longperiod")

# rational unit directions (Pythagorean triples), so radii can stay rational
UNITS = [(Fraction(a, c), Fraction(b, c)) for a, b, c in (
    (1, 0, 1), (0, 1, 1), (-1, 0, 1), (0, -1, 1), (3, 4, 5), (4, 3, 5),
    (-3, 4, 5), (4, -3, 5), (5, 12, 13), (12, 5, 13), (-12, 5, 13),
    (8, 15, 17), (15, -8, 17), (7, 24, 25), (-24, 7, 25))]

ONE = (Fraction(1), Fraction(0))
N_EXCEPTIONAL = 16
DEPTH = 250
LONG_PERIODS = (100, 112)
LONG_ODD = 8
LONG_ROTATED = 3


# --- Gaussian-rational and radius helpers ------------------------------------

def cmul(a, b):
    return (a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0])


def cpow(z, e: int):
    out, base = ONE, z
    while e:
        if e & 1:
            out = cmul(out, base)
        base = cmul(base, base)
        e >>= 1
    return out


def cprod(ws):
    out = ONE
    for w in ws:
        out = cmul(out, w)
    return out


def conj(z):
    return (z[0], -z[1])


def abs2(z) -> Fraction:
    return z[0] * z[0] + z[1] * z[1]


def scale(r: Fraction, u):
    return (r * u[0], r * u[1])


def rcmp(a, b) -> int:
    """Sign of radius a - radius b, by exact integer cross-powers."""
    (sa, pa), (sb, pb) = a, b
    x = sa.numerator ** pb * sb.denominator ** pa
    y = sb.numerator ** pa * sa.denominator ** pb
    return (x > y) - (x < y)


def rmax(radii):
    best = None
    for r in radii:
        if best is None or rcmp(r, best) > 0:
            best = r
    return best


def wlist(z) -> list[int]:
    return [z[0].numerator, z[0].denominator, z[1].numerator, z[1].denominator]


# --- models and their facts ---------------------------------------------------

@dataclass
class CycleFacts:
    id: str
    period: int
    product: tuple  # W, the product of the weights
    bare: bool      # no two-sided ray touches it: its sigma_L piece is W^(1/p)

    @property
    def radius(self):
        return (abs2(self.product), self.period)


@dataclass
class Op:
    """One benchmark operation: a CLI call on one model file plus the facts
    its output is checked against."""

    workload: str
    model: str       # model name; the file is <model>.json
    argv_tail: list  # CLI arguments after the model path
    builder: "ModelBuilder"
    expect: dict = field(default_factory=dict)  # certify: kind and routes

    def argv(self, path: str) -> list[str]:
        head = ["certify"] if self.workload == "certify" else ["analyze"]
        return head + [path] + self.argv_tail

    @cached_property
    def cycles(self) -> list[CycleFacts]:
        return self.builder.facts()

    @property
    def spectral_radius(self):
        return rmax(c.radius for c in self.cycles)


class ModelBuilder:
    def __init__(self, name: str):
        self.name = name
        self.cycles: list[dict] = []
        self.rays: list[dict] = []

    def cycle(self, cid: str, weights) -> None:
        self.cycles.append({"id": cid, "weights": list(weights)})

    def forward(self, rid, cid, phase, mult=1, exceptional=()) -> None:
        self.rays.append({"id": rid, "kind": "forward", "multiplicity": mult,
                          "omega": {"cycle": cid, "phase": phase},
                          "exceptional": list(exceptional)})

    def two_sided(self, rid, alpha, omega, exceptional=()) -> None:
        self.rays.append({"id": rid, "kind": "two_sided", "multiplicity": 1,
                          "omega": {"cycle": omega[0], "phase": omega[1]},
                          "alpha": {"cycle": alpha[0], "phase": alpha[1]},
                          "exceptional": list(exceptional)})

    def doc(self) -> dict:
        return {"name": self.name,
                "cycles": [{"id": c["id"], "weights": [wlist(w) for w in c["weights"]]}
                           for c in self.cycles],
                "rays": [dict(r, exceptional=[[i] + wlist(w) for i, w in r["exceptional"]])
                         for r in self.rays]}

    def facts(self) -> list[CycleFacts]:
        touched = set()
        for r in self.rays:
            if r["kind"] == "two_sided":
                touched.update((r["alpha"]["cycle"], r["omega"]["cycle"]))
        return [CycleFacts(c["id"], len(c["weights"]), cprod(c["weights"]),
                           c["id"] not in touched) for c in self.cycles]


def _weight(rng: random.Random, height: int = 16, im_share: float = 0.3):
    re = Fraction(rng.choice((-1, 1)) * rng.randint(1, height), rng.randint(1, height))
    im = Fraction(0)
    if rng.random() < im_share:
        im = Fraction(rng.randint(-height, height), rng.randint(1, height))
    return (re, im)


def _ladder_model(rng, name, n_cycles, max_period, n_forward, n_bundles, n_two_sided):
    """The ladder shape of the roadmap: periods 1..max_period, weights a/b
    with a, b <= 16 and an imaginary part 30% of the time, no exceptional
    weights."""
    b = ModelBuilder(name)
    # one size class: every model has the same multiset of periods
    periods = [1 + k % max_period for k in range(n_cycles)]
    rng.shuffle(periods)
    for k, p in enumerate(periods):
        b.cycle(f"c{k}", (_weight(rng) for _ in range(p)))

    def anchor():
        k = rng.randrange(n_cycles)
        return f"c{k}", rng.randrange(periods[k])

    for j in range(n_forward):
        mult = "omega" if j < n_bundles else rng.choice((1, 1, 2, 3))
        b.forward(f"f{j}", *anchor(), mult=mult)
    for j in range(n_two_sided):
        b.two_sided(f"t{j}", anchor(), anchor())
    return b


def _certify_model(rng, name, route, second=False):
    """Four cycles A < B < C < D by radius, all radii rational.

    A carries a forward ray, so it is the only boundary cycle and sigma_M is
    the disk of radius r_A.  B is isolated and bare, and its product has a
    Gaussian-rational p-th root u0.  C and D are joined by a two-sided ray,
    so sigma_L holds the annulus [r_C, r_D].  Both rays carry exceptional
    weights some hundreds of indices deep.  The radius ratios are fixed, so
    every route reaches its margin at the same step on every seed.

    Returns the builder, lambda, and the expected kind and routes.
    """
    b = ModelBuilder(name)
    r_a = Fraction(rng.randint(5, 8), 8)
    r_b = r_a * Fraction(9, 8)
    r_c = r_b * Fraction(81, 64)
    r_d = r_c * Fraction(3, 2)

    def u():
        return rng.choice(UNITS)

    b.cycle("A", [scale(r_a, u())])
    p_b = rng.choice((2, 3))
    u0 = rng.choice(UNITS[4:])
    head = [u() for _ in range(p_b - 1)]
    last = cmul(cpow(u0, p_b), conj(cprod(head)))  # unit: conj is the inverse
    b.cycle("B", [scale(r_b, v) for v in head + [last]])
    b.cycle("C", [scale(r_c, u()) for _ in range(rng.choice((1, 2)))])
    b.cycle("D", [scale(r_d, u()) for _ in range(rng.choice((1, 2)))])

    def exc(lo, r, odd):
        # one override of modulus `odd` sets the step at which a route
        # reaches its margin; the others only rotate the locked weight
        idxs = sorted(rng.sample(range(lo, lo + 40), N_EXCEPTIONAL))
        k_odd = rng.randrange(N_EXCEPTIONAL)
        return [(i, scale(r * odd if k == k_odd else r, u()))
                for k, i in enumerate(idxs)]

    depth = rng.randint(DEPTH - 50, DEPTH + 50)
    b.forward("F", "A", 0, exceptional=exc(depth - 40, r_a, 2))
    b.two_sided("T", ("C", 0), ("D", 0),
                exceptional=exc(-depth, r_c, Fraction(1, 2)) + exc(depth - 40, r_d, 2))

    unit = u()
    if route == "in_upper":
        lam = scale(rng.choice((r_c, r_d)) if second else r_a, unit)
        expect = {"kind": "IN_upper"}
    elif route == "neumann":
        # C+D: r_D * 2**(1/n) < 9/8 r_D first at n = 8
        lam = scale(r_d * Fraction(9, 8), unit)
        expect = {"kind": "OUT_neumann",
                  "routes": {"A": "neumann", "B": "neumann", "C+D": "neumann"}}
    elif route == "inverse":
        # C+D: r_C / 2**(1/n) > 8/9 r_C first at n = 8
        lam = scale(r_c * Fraction(8, 9), unit)
        expect = {"kind": "OUT_neumann",
                  "routes": {"A": "neumann", "B": "neumann", "C+D": "inverse"}}
    elif route == "root":
        # A: r_A * 2**(1/n) < r_B = 9/8 r_A first at n = 8
        while cpow(unit, p_b) == cpow(u0, p_b):
            unit = u()
        lam = scale(r_b, unit)
        expect = {"kind": "OUT_neumann",
                  "routes": {"A": "neumann", "B": "root_separation", "C+D": "inverse"}}
    else:
        lam = scale(r_c * Fraction(5, 4), unit)
        expect = {"kind": "CHAIN_DIMS"}
    return b, lam, expect


def _long_cycle(rng, period, moduli, n_odd):
    """Unit weights in the directions 1, i, -1, -i, except that n_odd of
    them take a small-height modulus and LONG_ROTATED of them the direction
    (3 + 4i)/5.  Products over a long period thus stay short and all of one
    height class (one rotated direction only: (3 + 4i)(4 + 3i) = 25i would
    cancel), and the moduli put the radius on a chosen side of 1."""
    odd = set(rng.sample(range(period), n_odd))
    rotated = set(rng.sample(range(period), LONG_ROTATED))
    return [scale(Fraction(rng.choice(moduli)) if k in odd else Fraction(1),
                  UNITS[4] if k in rotated else rng.choice(UNITS[:4]))
            for k in range(period)]


def _longperiod_model(rng, name):
    """Periods in the low hundreds.

    P1 and P2 are bare cycles of radius below 1 with coprime periods p and
    p + 2 (p odd), so their Bezout exponents are about p/2 on every seed.
    Q carries a forward ray, with radius in (1, 3**(8/100)].  R1 (radius 1)
    and R2 (radius at least 3**(16/112)) are joined by a two-sided ray, so
    sigma_L is the annulus [1, r(R2)], which covers r(Q), plus the root
    sets of P1 and P2.
    """
    b = ModelBuilder(name)
    lo, hi = LONG_PERIODS
    p = rng.randrange(lo | 1, hi, 2)
    below = (Fraction(1, 2), Fraction(2, 3), Fraction(1, 3))
    b.cycle("P1", _long_cycle(rng, p, below, LONG_ODD))
    b.cycle("P2", _long_cycle(rng, p + 2, below, LONG_ODD))
    b.cycle("Q", _long_cycle(rng, rng.randint(lo, hi), (2, Fraction(3, 2), 3), LONG_ODD))
    b.cycle("R1", _long_cycle(rng, rng.randint(lo, hi), (1,), 0))
    b.cycle("R2", _long_cycle(rng, rng.randint(lo, hi), (3,), 2 * LONG_ODD))
    b.forward("F", "Q", 0)
    b.two_sided("T", ("R1", 0), ("R2", 0))
    return b


# analyze and selfcheck: cycles, max period, forward rays, of which
# omega-bundles, two-sided rays
LADDER_SHAPES = {"analyze": (16, 6, 14, 3, 10), "selfcheck": (8, 4, 6, 2, 4)}

# one round of certify draws; the second IN_upper sits on the C or D circle,
# so both the forward-ray and the two-sided-ray windows are certified
CERTIFY_ROUND = ("in_upper", "neumann", "root", "inverse",
                 "in_upper", "neumann", "root", "chain")


def build(workload: str, seed: int, n_ops: int) -> list[Op]:
    """The workload's operations for a seed, one model file each.

    Model k draws from its own generator seeded by (workload, seed, k), so a
    seed always gives the same files whatever n_ops is.
    """
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    ops = []
    for k in range(n_ops):
        rng = random.Random(f"{workload}/{seed}/{k}")
        name = f"{workload}-{seed}-{k:04d}"
        expect: dict = {}
        if workload in LADDER_SHAPES:
            b = _ladder_model(rng, name, *LADDER_SHAPES[workload])
            tail = ["--json"] + (["--self-check"] if workload == "selfcheck" else [])
        elif workload == "certify":
            route = CERTIFY_ROUND[k % len(CERTIFY_ROUND)]
            second = k % len(CERTIFY_ROUND) >= len(CERTIFY_ROUND) // 2
            b, lam, expect = _certify_model(rng, name, route, second)
            tail = [f"--lambda={lam[0]},{lam[1]}"]
        else:
            b = _longperiod_model(rng, name)
            tail = ["--json"]
        ops.append(Op(workload, name, tail, b, expect))
    return ops


def write_models(ops: list[Op], directory) -> list[str]:
    """Write each op's model file; return the paths in op order."""
    os.makedirs(directory, exist_ok=True)
    paths = []
    for op in ops:
        path = f"{directory}/{op.model}.json"
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(op.builder.doc(), fh)
        paths.append(path)
    return paths
