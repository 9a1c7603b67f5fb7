import json
from fractions import Fraction

import pytest

from ckspec.exact import INF, ExactRadius, RationalComplex
from ckspec.fixtures import NAMES, fixture_text, load_fixture
from ckspec.model import (Anchor, Cycle, DanglingAnchor, DuplicateId,
                          MalformedWeight, MissingForwardRay, OrbitModel,
                          Ray, SchemaError, core_sets, load_model,
                          model_to_json, parse_model_json, validate)
from ckspec.spectra import _strata

from _corpus import malformed_weights

RC = RationalComplex.of
ER = ExactRadius.from_fraction


def _roles(m):
    """critical radius -> the roles of the cycles at it, from the table rows"""
    return {st.lo: st.roles for st in m.derived(_strata)}


def test_missing_forward_ray_rejected():
    raw = OrbitModel("m", (Cycle("a", (RC(1),)),), ())
    with pytest.raises(MissingForwardRay):
        validate(raw)


def test_dangling_anchor_rejected():
    raw = OrbitModel("m", (Cycle("a", (RC(1),)),),
                     (Ray("r", "forward", 1, Anchor("nope", 0)),))
    with pytest.raises(DanglingAnchor):
        validate(raw)


def test_duplicate_id_rejected():
    raw = OrbitModel("m", (Cycle("a", (RC(1),)), Cycle("a", (RC(2),))),
                     (Ray("r", "forward", 1, Anchor("a", 0)),))
    with pytest.raises(DuplicateId):
        validate(raw)


def test_phase_out_of_range_rejected():
    raw = OrbitModel("m", (Cycle("a", (RC(1),)),),
                     (Ray("r", "forward", 1, Anchor("a", 3)),))
    with pytest.raises(DanglingAnchor):
        validate(raw)


def test_two_sided_needs_alpha_and_multiplicity_one():
    raw = OrbitModel("m", (Cycle("a", (RC(1),)),),
                     (Ray("s", "two_sided", 1, Anchor("a", 0)),
                      Ray("r", "forward", 1, Anchor("a", 0))))
    with pytest.raises(DanglingAnchor):
        validate(raw)


def test_period_below_one_rejected():
    # a model file cannot state it (weights must be a nonempty list)
    raw = OrbitModel("m", (Cycle("a", ()), Cycle("b", (RC(1),))),
                     (Ray("r", "forward", 1, Anchor("b", 0)),))
    with pytest.raises(MalformedWeight, match="cycle 'a' must have period >= 1"):
        validate(raw)


def test_half_fixture_valid():
    m = load_fixture("half")
    assert m.heads_count() == INF
    assert m.cycle("F").gm() == ExactRadius.from_fraction(1)


def test_parse_errors():
    with pytest.raises(SchemaError):
        parse_model_json('{"name": "x", "cycles": [], "rays": [], "extra": 1}')
    with pytest.raises(SchemaError):
        parse_model_json("{not json")
    with pytest.raises(MalformedWeight):
        parse_model_json(json.dumps({
            "name": "x",
            "cycles": [{"id": "a", "weights": [[1, 0, 0, 1]]}],
            "rays": []}))


def test_unknown_key_named_in_error():
    doc = {"name": "x",
           "cycles": [{"id": "a", "wieghts": [[1, 1, 0, 1]]}],
           "rays": []}
    with pytest.raises(SchemaError, match="wieghts"):
        parse_model_json(json.dumps(doc))


def test_roundtrip_all_fixtures():
    for name in NAMES:
        m = load_fixture(name)
        text = model_to_json(m)
        m2 = parse_model_json(text)
        assert model_to_json(m2) == text


def test_core_sets_half():
    m = load_fixture("half")
    cs = core_sets(m)
    assert cs.sources_count == INF and cs.z_w_count == 0
    # F is the one boundary cycle, under the bundle B
    assert _roles(m) == {ER(0): frozenset(),
                         ER(1): frozenset({"cluster", "bundle"})}


def test_core_sets_ray1():
    m = load_fixture("ray1")
    cs = core_sets(m)
    assert cs.sources_count == 1 and cs.z_w_count == 0
    assert _roles(m)[ER(1)] == {"cluster"}


def test_core_sets_twocyc():
    m = load_fixture("twocyc")
    cs = core_sets(m)
    assert cs.sources_count == 1 and cs.z_w_count == 0
    # A carries the forward ray R and the alpha end of S; B only S
    assert _roles(m)[ER(Fraction(1, 2))] == {"cluster", "image"}
    assert _roles(m)[ER(2)] == {"image"}
    assert m.l_components() == [{"cycles": ["A", "B"], "rays": ["S"]}]


def test_core_sets_zero_flags():
    # an exceptional zero on a ray is one point of Z(w)
    assert core_sets(load_fixture("zero")).z_w_count == 1
    # a zero on a cycle with a ray repeats along the locked ray weights
    assert core_sets(load_fixture("bundlezero")).z_w_count == INF
    # a zero on a cycle without rays is one point per phase
    raw = OrbitModel("m", (Cycle("a", (RC(0), RC(2))), Cycle("f", (RC(1),))),
                     (Ray("r", "forward", 2, Anchor("f", 0)),))
    cs = core_sets(validate(raw))
    assert cs.z_w_count == 1 and cs.sources_count == 2


def test_core_sets_isolated_cycle():
    m = load_fixture("per3_isolated")
    assert core_sets(m).sources_count == 1
    # P has no ray: its radius 2 has no role, and it is a component alone
    assert _roles(m)[ER(2)] == frozenset()
    assert m.l_components() == [{"cycles": ["P"], "rays": []},
                                {"cycles": ["F"], "rays": []}]


def test_zero_weight_cycle_gm():
    m = load_fixture("bundlezero")
    assert m.cycle("C").gm().is_zero


def test_ray_weight_lock_and_overrides():
    m = load_fixture("zero")
    r = m.rays["R"]
    assert m.ray_weight(r, 0) == RC(1)
    assert m.ray_weight(r, 1) == RC(0)   # exceptional override
    assert m.ray_weight(r, 2) == RC(1)   # locked to the cycle
    assert m.lock_bounds(r) == (0, 2)


def test_load_model_does_no_product_work(tmp_path, monkeypatch):
    paths = []
    for name in NAMES:
        paths.append(tmp_path / f"{name}.json")
        paths[-1].write_text(fixture_text(name), "utf-8")
    long = tmp_path / "long.json"
    long.write_text(json.dumps({
        "name": "long",
        "cycles": [{"id": "P", "weights": [[k % 7 + 1, 3, 1, 2]
                                           for k in range(120)]}],
        "rays": [{"id": "R", "kind": "forward", "multiplicity": 1,
                  "omega": {"cycle": "P", "phase": 0},
                  "exceptional": [[i, 2, 1, 0, 1] for i in range(0, 300, 7)]}],
    }), "utf-8")
    paths.append(long)

    calls = []
    product = RationalComplex.product

    def counting_product(ws):
        calls.append(1)
        return product(ws)

    monkeypatch.setattr(RationalComplex, "product", staticmethod(counting_product))
    models = [load_model(str(p)) for p in paths]
    assert calls == []
    # the products are made on first use, one kernel call per cycle
    cyc = models[-1].cycle("P")
    g = cyc.gm()
    assert len(calls) == 1
    assert cyc.gm() is g
    assert cyc.weight_product() is cyc.weight_product()
    assert len(calls) == 1
    cycles = [c for m in models for c in m.cycles.values()]
    for c in cycles:
        c.gm()
    assert len(calls) == len(cycles)


_MALFORMED = malformed_weights()


@pytest.mark.parametrize("text,prefix", [c[1:] for c in _MALFORMED],
                         ids=[c[0] for c in _MALFORMED])
def test_malformed_weight_is_rejected_with_its_location(text, prefix):
    with pytest.raises(MalformedWeight) as info:
        parse_model_json(text)
    assert str(info.value).startswith(prefix + ":")


def _two_cycles(second, exceptional=()):
    """A model file: cycle A of weight [1, 1, 0, 1], cycle B of the given
    weights, and a forward ray into A with the given exceptional entries."""
    return json.dumps({
        "name": "m",
        "cycles": [{"id": "A", "weights": [[1, 1, 0, 1]]},
                   {"id": "B", "weights": second}],
        "rays": [{"id": "R", "kind": "forward", "multiplicity": 1,
                  "omega": {"cycle": "A", "phase": 0},
                  "exceptional": list(exceptional)}],
    })


def test_equal_weights_of_a_file_share_one_object():
    text = _two_cycles([[1, 1, 0, 1], [2, 4, 0, 1], [2, 4, 0, 1]],
                       [[0, 1, 1, 0, 1], [3, 2, 4, 0, 1]])
    m = parse_model_json(text)
    one, half = m.cycle("A").weights[0], m.cycle("B").weights[1]
    assert m.cycle("B").weights == (one, half, half)
    assert m.cycle("B").weights[0] is one and m.cycle("B").weights[2] is half
    (_, first), (_, second) = m.rays["R"].exceptional
    assert first is one and second is half
    # nothing is kept from one file to the next
    assert parse_model_json(text).cycle("A").weights[0] is not one


SHAPE = "weight must be [reNum,reDen,imNum,imDen]"


@pytest.mark.parametrize("text,where", [
    # True == 1 and both hash alike, so a lookup before the type check would
    # find the weight of cycle A
    (_two_cycles([[True, 1, 0, 1]]), "cycles[1]"),
    (_two_cycles([[1, 1, 0, 1]], [[0, 1, True, 0, 1]]), "rays[0].exceptional[0]"),
    (_two_cycles([[1, 1, 0, 1]], [[0, 1, 1, 0, False]]), "rays[0].exceptional[0]"),
    (_two_cycles([[1, 1, 0, 1], [1.0, 1, 0, 1]]), "cycles[1]"),
], ids=["cycle-true", "exceptional-true", "exceptional-false", "cycle-float"])
def test_a_weight_equal_to_an_earlier_one_is_still_type_checked(text, where):
    with pytest.raises(MalformedWeight) as info:
        parse_model_json(text)
    assert str(info.value) == f"{where}: {SHAPE}"


def test_a_repeated_zero_denominator_is_reported_at_its_first_location():
    text = _two_cycles([[1, 1, 0, 1], [1, 0, 0, 1]], [[2, 1, 0, 0, 1]])
    with pytest.raises(MalformedWeight) as info:
        parse_model_json(text)
    assert str(info.value) == "cycles[1]: zero denominator in weight"
    text = _two_cycles([[1, 1, 0, 1]], [[2, 1, 0, 0, 1], [3, 1, 0, 0, 1]])
    with pytest.raises(MalformedWeight) as info:
        parse_model_json(text)
    assert str(info.value) == "rays[0].exceptional[0]: zero denominator in weight"
