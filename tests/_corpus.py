"""Deterministic random model corpus shared by the test modules.

Models stay small (<= 6 cycles, <= 10 rays, weight numerators/denominators
bounded by 16) but are built to hit every engine branch: zero weights on and
off cycles, countable bundles, exceptional overrides including zeros,
two-sided rays between cycles of equal and distinct radii, bare cycles.
``ladder`` gives one large ladder-shaped model of a chosen size.
``malformed_weights`` gives model files whose one bad weight must be rejected.
"""

import json
import random
from fractions import Fraction

from ckspec.exact import RationalComplex
from ckspec.fixtures import fixture_text
from ckspec.model import OMEGA, Anchor, Cycle, OrbitModel, Ray, validate


def _weight(rng, allow_zero=True):
    if allow_zero and rng.random() < 0.06:
        return RationalComplex.of(0)
    re = Fraction(rng.randint(-16, 16), rng.randint(1, 16))
    if rng.random() < 0.3:
        im = Fraction(rng.randint(-16, 16), rng.randint(1, 16))
    else:
        im = Fraction(0)
    if re == 0 and im == 0 and not allow_zero:
        re = Fraction(1)
    return RationalComplex(re, im)


def random_model(seed: int):
    rng = random.Random(seed)
    n_cycles = rng.randint(1, 4)
    cycles = []
    for ci in range(n_cycles):
        period = rng.randint(1, 3)
        if rng.random() < 0.25 and ci > 0:
            # duplicate an earlier cycle's weights to provoke simultaneous
            # resonances across two-sided links
            src = cycles[rng.randrange(len(cycles))]
            weights = src.weights[:period] if len(src.weights) >= period \
                else src.weights * period
            weights = tuple(weights)[:period]
        else:
            weights = tuple(_weight(rng) for _ in range(period))
        cycles.append(Cycle(id=f"c{ci}", weights=weights))

    def anchor(rng):
        c = cycles[rng.randrange(len(cycles))]
        return Anchor(c.id, rng.randrange(c.period))

    rays = []
    n_rays = rng.randint(1, 6)
    for ri in range(n_rays):
        forward = ri == 0 or rng.random() < 0.65
        exceptional = []
        if rng.random() < 0.4:
            k = rng.randint(1, 2)
            lo = 0 if forward else -3
            idxs = rng.sample(range(lo, 4), k)
            exceptional = [(i, _weight(rng)) for i in idxs]
        if forward:
            roll = rng.random()
            mult = OMEGA if roll < 0.2 else (rng.randint(2, 3) if roll < 0.35 else 1)
            rays.append(Ray(id=f"r{ri}", kind="forward", multiplicity=mult,
                            omega=anchor(rng),
                            exceptional=tuple(sorted(exceptional))))
        else:
            rays.append(Ray(id=f"r{ri}", kind="two_sided", multiplicity=1,
                            omega=anchor(rng), alpha=anchor(rng),
                            exceptional=tuple(sorted(exceptional))))
    return validate(OrbitModel(name=f"random-{seed}", cycles=tuple(cycles),
                               rays=tuple(rays)))


def corpus(n: int = 100, base_seed: int = 20_240_901):
    return [random_model(base_seed + k) for k in range(n)]


def ladder(n_cycles: int, seed: str):
    """A ladder-shaped model: periods 1..24, weights a/b with a, b <= 16
    (imaginary part 30% of the time), one forward ray per cycle (a fifth
    of them bundles) and one two-sided ray per cycle."""
    rng = random.Random(seed)

    def weight():
        re = Fraction(rng.choice((-1, 1)) * rng.randint(1, 16), rng.randint(1, 16))
        im = Fraction(0)
        if rng.random() < 0.3:
            im = Fraction(rng.randint(-16, 16), rng.randint(1, 16))
        return RationalComplex(re, im)

    periods = [1 + k % 24 for k in range(n_cycles)]
    rng.shuffle(periods)
    cycles = tuple(Cycle(f"c{k}", tuple(weight() for _ in range(p)))
                   for k, p in enumerate(periods))

    def anchor():
        k = rng.randrange(n_cycles)
        return Anchor(f"c{k}", rng.randrange(periods[k]))

    rays = [Ray(f"f{j}", "forward",
                OMEGA if j < n_cycles // 5 else rng.choice((1, 1, 2, 3)),
                anchor()) for j in range(n_cycles)]
    rays += [Ray(f"t{j}", "two_sided", 1, anchor(), anchor())
             for j in range(n_cycles)]
    return validate(OrbitModel(f"ladder-{n_cycles}", cycles, tuple(rays)))


# a weight is [reNum, reDen, imNum, imDen] of JSON integers, never booleans
_BAD_WEIGHTS = {
    "true": [1, True, 0, 1], "float": [1, 1, 1.0, 1], "string": ["1", 1, 0, 1],
    "null": [1, 1, 0, None], "three": [1, 1, 0], "five": [1, 1, 0, 1, 1],
    "number": 7, "text": "1,1,0,1", "object": {"re": 1},
}


def malformed_weights():
    """(case id, model JSON text, location prefix) for each bad weight, once
    as a cycle weight and once as an exceptional entry of a ray."""
    cases = []
    for name, bad in _BAD_WEIGHTS.items():
        doc = json.loads(fixture_text("zero"))
        doc["cycles"][0]["weights"].append(bad)
        cases.append((f"cycle-{name}", json.dumps(doc), "cycles[0]"))
        doc = json.loads(fixture_text("zero"))
        doc["rays"][0]["exceptional"].append(
            [2, *bad] if isinstance(bad, list) else bad)
        cases.append((f"exceptional-{name}", json.dumps(doc),
                      "rays[0].exceptional[1]"))
    return cases
