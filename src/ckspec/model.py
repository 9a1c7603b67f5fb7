"""Finitely presented compact systems (K, phi, w).

A model is a finite list of weighted cycles plus rays:

* a *forward ray* is an orbit k0, k1, ... entering a cycle: the points
  spiral onto the anchor cycle and the weights eventually phase-lock to the
  cycle weights.  Its head k0 is a point of K without a preimage, so any
  valid model presents a strictly non-surjective phi.  A ray may carry a
  finite multiplicity (parallel copies) or multiplicity omega, in which case
  countably many copies accumulate onto the anchor point and K stays compact.
* a *two-sided ray* is a bi-infinite orbit phase-locking to an (alpha) cycle
  in the past and an (omega) cycle in the future.  Its points have preimages
  of every order, so they belong to the eventual image.

Weights are Gaussian rationals; finitely many per ray may be overridden
("exceptional" values).  Overrides apply to copy 0 of a bundle only, which
keeps the weight function continuous at the accumulation point.

The derived topology is simple enough to be computed exactly:

* eventual image  L = cycles + two-sided rays,
* its interior in K consists of the two-sided ray points (always isolated)
  and the cycles without incident forward rays or bundles,
* boundary cycles N = cycles carrying at least one forward ray or bundle,
* transient part M = K minus interior(L) = forward-ray points + N,
  which splits into clopen clusters, one per boundary cycle.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property

from .exact import INF, ExactRadius, RationalComplex

OMEGA = INF  # multiplicity marker for countable bundles


class ModelError(Exception):
    """Base class for model construction/validation failures."""

    code = "ModelError"


class MalformedWeight(ModelError):
    code = "MalformedWeight"


class DuplicateId(ModelError):
    code = "DuplicateId"


class DanglingAnchor(ModelError):
    code = "DanglingAnchor"


class MissingForwardRay(ModelError):
    code = "MissingForwardRay"


class SchemaError(ModelError):
    code = "SchemaError"


@dataclass(frozen=True)
class Cycle:
    id: str
    weights: tuple[RationalComplex, ...]

    @property
    def period(self) -> int:
        return len(self.weights)

    def weight_product(self) -> RationalComplex:
        """W, the product of the weights (computed once per cycle)."""
        return self._product

    def gm(self) -> ExactRadius:
        """Geometric mean of the weight moduli: |W|**(1/p) (computed once)."""
        return self._gm

    # Memos live on the cycle, not the model: they fill on first use, so
    # loading a model does no product work, and submodels built from the
    # same cycles share them.
    @cached_property
    def _product(self) -> RationalComplex:
        return RationalComplex.product(self.weights)

    @cached_property
    def _gm(self) -> ExactRadius:
        return ExactRadius(self.weight_product().abs2(), self.period)

    @cached_property
    def has_zero_weight(self) -> bool:
        return any(w.is_zero for w in self.weights)


@dataclass(frozen=True)
class Anchor:
    cycle: str
    phase: int


@dataclass(frozen=True)
class Ray:
    id: str
    kind: str  # "forward" | "two_sided"
    multiplicity: object  # positive int, or OMEGA
    omega: Anchor
    alpha: Anchor | None = None
    exceptional: tuple[tuple[int, RationalComplex], ...] = ()

    @property
    def is_forward(self) -> bool:
        return self.kind == "forward"

    @property
    def is_two_sided(self) -> bool:
        return self.kind == "two_sided"

    @cached_property
    def _exceptional_at(self) -> dict[int, RationalComplex]:
        """The exceptional weights by index (built on first use)."""
        return dict(self.exceptional)


@dataclass(frozen=True)
class OrbitModel:
    name: str
    cycles: tuple[Cycle, ...]
    rays: tuple[Ray, ...]


class ValidatedModel:
    """An OrbitModel with all invariants checked and lookups prepared."""

    def __init__(self, raw: OrbitModel):
        self.raw = raw
        self.name = raw.name
        self.cycles = {c.id: c for c in raw.cycles}
        self.rays = {r.id: r for r in raw.rays}
        self._omega_incident: dict[str, list[Ray]] = {c: [] for c in self.cycles}
        self._alpha_incident: dict[str, list[Ray]] = {c: [] for c in self.cycles}
        for r in raw.rays:
            self._omega_incident[r.omega.cycle].append(r)
            if r.alpha is not None:
                self._alpha_incident[r.alpha.cycle].append(r)
        self._derived: dict = {}

    def derived(self, build):
        """build(self), computed on the first call and kept on this model.

        Other layers keep here what they derive from a model, keyed by the
        function that builds it, so it lives exactly as long as the model.
        """
        if build not in self._derived:
            self._derived[build] = build(self)
        return self._derived[build]

    # --- structure queries -------------------------------------------------

    def cycle(self, cid: str) -> Cycle:
        return self.cycles[cid]

    def forward_rays(self) -> tuple[Ray, ...]:
        return self._forward

    def two_sided_rays(self) -> tuple[Ray, ...]:
        return self._two_sided

    # The ray lists and the zero flags are fixed per model, and the chain
    # solvers ask for them once per ray per grid point, so they are built
    # once, on first use.
    @cached_property
    def _forward(self) -> tuple[Ray, ...]:
        return tuple(r for r in self.raw.rays if r.is_forward)

    @cached_property
    def _two_sided(self) -> tuple[Ray, ...]:
        return tuple(r for r in self.raw.rays if r.is_two_sided)

    @cached_property
    def _zero_rays(self) -> frozenset[str]:
        """The ids of the rays with a vanishing weight on some copy."""
        return frozenset(
            r.id for r in self.raw.rays
            if any(v.is_zero for _, v in r.exceptional)
            or self.cycle(r.omega.cycle).has_zero_weight
            or (r.is_two_sided and self.cycle(r.alpha.cycle).has_zero_weight))

    def rays_into(self, cid: str) -> list[Ray]:
        """Forward rays and bundles whose omega anchor is the given cycle."""
        return [r for r in self._omega_incident[cid] if r.is_forward]

    def incident_rays(self, cid: str) -> list[Ray]:
        two = [r for r in self._omega_incident[cid] if r.is_two_sided]
        two += [r for r in self._alpha_incident[cid] if r.is_two_sided]
        return self.rays_into(cid) + two

    def l_components(self) -> list[dict]:
        """Weakly connected components of the graph cycles + two-sided rays,
        in the order of their first cycles."""
        parent = {cid: cid for cid in self.cycles}

        def find(x):
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        for r in self.two_sided_rays():
            a, b = find(r.alpha.cycle), find(r.omega.cycle)
            if a != b:
                parent[a] = b
        comps: dict[str, dict] = {}
        for cid in self.cycles:
            comps.setdefault(find(cid), {"cycles": [], "rays": []})["cycles"].append(cid)
        for r in self.two_sided_rays():
            comps[find(r.omega.cycle)]["rays"].append(r.id)
        return list(comps.values())

    def heads_count(self):
        """The number of ray heads: INF under a bundle (OMEGA is INF)."""
        return sum(r.multiplicity for r in self.forward_rays())

    # --- weights along orbits ----------------------------------------------

    def lock_bounds(self, ray: Ray) -> tuple[int, int]:
        """(lock_neg, lock_pos): weights at index >= lock_pos follow the
        omega cycle, at index <= lock_neg the alpha cycle (two-sided)."""
        idxs = [i for i, _ in ray.exceptional]
        lock_pos = max([i + 1 for i in idxs], default=0)
        if ray.is_forward:
            return (0, max(lock_pos, 0))
        lock_neg = min([i - 1 for i in idxs], default=-1)
        return (min(lock_neg, -1), max(lock_pos, 0))

    def ray_weight(self, ray: Ray, index: int, copy: int = 0) -> RationalComplex:
        """Weight at a ray point.  Exceptional overrides bind copy 0 only."""
        if copy == 0:
            v = ray._exceptional_at.get(index)
            if v is not None:
                return v
        if ray.is_forward or index >= 0:
            c = self.cycle(ray.omega.cycle)
            return c.weights[(ray.omega.phase + index) % c.period]
        c = self.cycle(ray.alpha.cycle)
        return c.weights[(ray.alpha.phase + index) % c.period]

    def ray_has_zero(self, ray: Ray) -> bool:
        """True when some weight on the ray (any copy) vanishes."""
        return ray.id in self._zero_rays


def validate(raw: OrbitModel) -> ValidatedModel:
    """Check all model invariants; raise a ModelError subclass on failure."""
    seen = set()
    for obj in list(raw.cycles) + list(raw.rays):
        if obj.id in seen:
            raise DuplicateId(f"duplicate id {obj.id!r}")
        seen.add(obj.id)
    periods = {c.id: c.period for c in raw.cycles}
    for c in raw.cycles:
        if c.period < 1:
            raise MalformedWeight(f"cycle {c.id!r} must have period >= 1")
    for r in raw.rays:
        if r.kind not in ("forward", "two_sided"):
            raise SchemaError(f"ray {r.id!r}: unknown kind {r.kind!r}")
        anchors = [("omega", r.omega)]
        if r.is_two_sided:
            if r.alpha is None:
                raise DanglingAnchor(f"two-sided ray {r.id!r} lacks an alpha anchor")
            if r.multiplicity != 1:
                raise SchemaError(f"two-sided ray {r.id!r} must have multiplicity 1")
            anchors.append(("alpha", r.alpha))
        else:
            if r.alpha is not None:
                raise SchemaError(f"forward ray {r.id!r} cannot carry an alpha anchor")
            if r.multiplicity != OMEGA and (not isinstance(r.multiplicity, int)
                                            or r.multiplicity < 1):
                raise SchemaError(f"ray {r.id!r}: bad multiplicity")
        for side, a in anchors:
            if a.cycle not in periods:
                raise DanglingAnchor(f"ray {r.id!r} {side}-anchored to unknown "
                                     f"cycle {a.cycle!r}")
            if not (0 <= a.phase < periods[a.cycle]):
                raise DanglingAnchor(f"ray {r.id!r}: {side} phase {a.phase} out of "
                                     f"range for cycle {a.cycle!r}")
        idxs = [i for i, _ in r.exceptional]
        if len(idxs) != len(set(idxs)):
            raise MalformedWeight(f"ray {r.id!r}: duplicate exceptional index")
        if r.is_forward and any(i < 0 for i in idxs):
            raise MalformedWeight(f"ray {r.id!r}: negative exceptional index")
    if not any(r.is_forward for r in raw.rays):
        raise MissingForwardRay(
            "model has no forward ray, so phi would be surjective")
    return ValidatedModel(raw)


# ---------------------------------------------------------------------------
# derived topological data


@dataclass
class CoreSets:
    """Sizes of the sources (points outside phi(K)) and of the zero set of w."""

    sources_count: object  # int or INF
    z_w_count: object  # int or INF


def core_sets(m: ValidatedModel) -> CoreSets:
    zeros = sum(v.is_zero for r in m.raw.rays for _, v in r.exceptional)
    for cid, cyc in m.cycles.items():
        n = sum(w.is_zero for w in cyc.weights)
        if n and m.incident_rays(cid):
            return CoreSets(m.heads_count(), INF)  # locked ray weights repeat it
        zeros += n
    return CoreSets(m.heads_count(), zeros)


# ---------------------------------------------------------------------------
# strict JSON model files


def _require_keys(obj: dict, allowed: set, required: set, where: str):
    if not isinstance(obj, dict):
        raise SchemaError(f"{where}: must be an object")
    for k in obj:
        if k not in allowed:
            raise SchemaError(f"{where}: unknown key {k!r}")
    for k in required:
        if k not in obj:
            raise SchemaError(f"{where}: missing key {k!r}")


def _require_list(x, where: str) -> list:
    if not isinstance(x, list):
        raise SchemaError(f"{where}: must be a list")
    return x


def _strict_int(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


def _parse_weight(parts, where: str, built: dict) -> RationalComplex:
    """The weight [reNum,reDen,imNum,imDen]; equal entries of one file share
    the object kept in ``built``."""
    # json.loads makes plain ints, so comparing the types rejects bool just
    # as _strict_int does.  It runs before the lookup, because True == 1 and
    # both hash alike: [true, 1, 0, 1] would find the entry of [1, 1, 0, 1]
    if not isinstance(parts, list) or list(map(type, parts)) != [int] * 4:
        raise MalformedWeight(f"{where}: weight must be [reNum,reDen,imNum,imDen]")
    key = tuple(parts)
    w = built.get(key)
    if w is None:
        try:
            w = built[key] = RationalComplex.from_list(parts)
        except ZeroDivisionError as e:
            raise MalformedWeight(f"{where}: {e}") from e
    return w


def parse_model_json(text: str) -> ValidatedModel:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as e:
        raise SchemaError(f"line {e.lineno}, column {e.colno}: {e.msg}") from e
    except (RecursionError, ValueError) as e:  # deep nesting, huge integers
        raise SchemaError(f"unreadable JSON: {e}") from e
    _require_keys(doc, {"name", "cycles", "rays"}, {"name", "cycles", "rays"},
                  "top level")
    built: dict[tuple, RationalComplex] = {}
    cycles = []
    for i, c in enumerate(_require_list(doc["cycles"], "cycles")):
        where = f"cycles[{i}]"
        _require_keys(c, {"id", "weights"}, {"id", "weights"}, where)
        if not isinstance(c["weights"], list) or not c["weights"]:
            raise MalformedWeight(f"{where}: weights must be a nonempty list")
        cycles.append(Cycle(
            id=str(c["id"]),
            weights=tuple(_parse_weight(w, where, built) for w in c["weights"]),
        ))
    rays = []
    for i, r in enumerate(_require_list(doc["rays"], "rays")):
        where = f"rays[{i}]"
        _require_keys(r, {"id", "kind", "multiplicity", "omega", "alpha",
                          "exceptional"},
                      {"id", "kind", "multiplicity", "omega"}, where)
        mult = r["multiplicity"]
        if mult == "omega":
            mult = OMEGA
        elif not _strict_int(mult):
            raise SchemaError(f"{where}: multiplicity must be an int or \"omega\"")

        def anchor(obj, side):
            _require_keys(obj, {"cycle", "phase"}, {"cycle", "phase"},
                          f"{where}.{side}")
            if not _strict_int(obj["phase"]):
                raise SchemaError(f"{where}.{side}: phase must be an int")
            return Anchor(str(obj["cycle"]), obj["phase"])

        exc = []
        for j, e in enumerate(_require_list(r.get("exceptional", []),
                                            f"{where}.exceptional")):
            if not isinstance(e, list) or len(e) != 5 or not _strict_int(e[0]):
                raise MalformedWeight(
                    f"{where}.exceptional[{j}]: expect [index,reNum,reDen,imNum,imDen]")
            exc.append((e[0], _parse_weight(e[1:], f"{where}.exceptional[{j}]",
                                            built)))
        rays.append(Ray(
            id=str(r["id"]),
            kind=str(r["kind"]),
            multiplicity=mult,
            omega=anchor(r["omega"], "omega"),
            alpha=anchor(r["alpha"], "alpha") if "alpha" in r else None,
            # by index alone, so that validate reports a repeated index
            exceptional=tuple(sorted(exc, key=lambda e: e[0])),
        ))
    return validate(OrbitModel(name=str(doc["name"]), cycles=tuple(cycles),
                               rays=tuple(rays)))


def model_to_json(m: ValidatedModel) -> str:
    doc = {
        "name": m.name,
        "cycles": [{"id": c.id, "weights": [w.to_list() for w in c.weights]}
                   for c in m.raw.cycles],
        "rays": [],
    }
    for r in m.raw.rays:
        entry = {
            "id": r.id,
            "kind": r.kind,
            "multiplicity": "omega" if r.multiplicity == OMEGA else r.multiplicity,
            "omega": {"cycle": r.omega.cycle, "phase": r.omega.phase},
        }
        if r.alpha is not None:
            entry["alpha"] = {"cycle": r.alpha.cycle, "phase": r.alpha.phase}
        entry["exceptional"] = [[i] + v.to_list() for i, v in r.exceptional]
        doc["rays"].append(entry)
    return json.dumps(doc, indent=2)


def load_model(path: str) -> ValidatedModel:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except UnicodeDecodeError as e:
        raise SchemaError(f"{path}: not UTF-8 text ({e.reason} at byte "
                          f"{e.start})") from e
    return parse_model_json(text)
