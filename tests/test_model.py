import json

import pytest

from ckspec.exact import INF, ExactRadius, RationalComplex
from ckspec.fixtures import NAMES, fixture_text, load_fixture
from ckspec.model import (Anchor, Cycle, DanglingAnchor, DuplicateId,
                          MalformedWeight, MissingForwardRay, OrbitModel,
                          Ray, SchemaError, core_sets, load_model,
                          model_to_json, parse_model_json, validate)

RC = RationalComplex.of


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
    assert cs.n_cycles == ["F"]
    assert cs.m_clusters == [("F", ["B"])]
    assert cs.sources_count == INF and cs.sources is None
    assert cs.int_l_isolated == []
    assert cs.z_w == [] and cs.z_w_count == 0


def test_core_sets_ray1():
    cs = core_sets(load_fixture("ray1"))
    assert cs.sources_count == 1
    assert cs.sources == [("ray", "R", 0, 0)]
    assert cs.n_cycles == ["F"]


def test_core_sets_twocyc():
    m = load_fixture("twocyc")
    cs = core_sets(m)
    assert cs.n_cycles == ["A"]
    assert cs.m_clusters == [("A", ["R"])]
    comp = cs.l_components
    assert len(comp) == 1
    assert sorted(comp[0]["cycles"]) == ["A", "B"]
    assert comp[0]["rays"] == ["S"]
    assert cs.int_l_isolated == []


def test_core_sets_zero_flags():
    cs = core_sets(load_fixture("zero"))
    assert cs.z_w_count == 1
    assert cs.z_w[0].isolated
    cs2 = core_sets(load_fixture("bundlezero"))
    assert cs2.z_w_count == INF
    assert any(not z.isolated for z in cs2.z_w)


def test_core_sets_isolated_cycle():
    cs = core_sets(load_fixture("per3_isolated"))
    assert cs.int_l_isolated == ["P"]
    assert len(cs.l_components) == 2


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
    mul = RationalComplex.__mul__

    def counting_mul(a, b):
        calls.append(1)
        return mul(a, b)

    monkeypatch.setattr(RationalComplex, "__mul__", counting_mul)
    models = [load_model(str(p)) for p in paths]
    assert calls == []
    # the products are made on first use, once per cycle
    cyc = models[-1].cycle("P")
    g = cyc.gm()
    assert len(calls) == 120
    assert cyc.gm() is g
    assert cyc.weight_product() is cyc.weight_product()
    assert len(calls) == 120
