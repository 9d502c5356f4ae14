import dataclasses
import json
import math
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wbackhaul import scenario
from wbackhaul.power_energy import efficiency
from wbackhaul.scenario import (
    SECONDS_PER_YEAR,
    CellParams,
    Central,
    ConfigError,
    Distribution,
    EmbodiedAbsolute,
    EmbodiedFraction,
    EnergyBreakdown,
    FixedSE,
    Overheads,
    ParseError,
    PowerCurve,
    ScenarioConfig,
    ShannonEdgeSE,
    ThroughputBreakdown,
    TxAnchor,
    ValidationError,
    default_table1,
    load_scenario,
    scenario_from_dict,
    scenario_to_dict,
    serialize_scenario,
)

BANDS = [5.8e9, 28e9, 60e9]


@pytest.mark.parametrize("band_hz", BANDS)
def test_default_table1_macro(band_hz):
    cell = ScenarioConfig(architecture=Central(1), band_hz=band_hz).macro
    assert cell == default_table1("macro")
    assert cell.power_curve == PowerCurve(21.45, 354.44)
    assert cell.lifetime_s == 10 * SECONDS_PER_YEAR
    assert cell.embodied == EmbodiedAbsolute(75e9, 10e9)
    assert cell.bandwidth_hz == 1e8
    assert cell.spectrum_eff == FixedSE(5.0)
    assert cell.radius_m == 500.0


@pytest.mark.parametrize("band_hz", BANDS)
def test_default_table1_small(band_hz):
    cell = ScenarioConfig(architecture=Distribution(1), band_hz=band_hz).small
    assert cell == default_table1("small")
    assert cell.power_curve == PowerCurve(7.84, 71.50)
    assert cell.lifetime_s == 5 * SECONDS_PER_YEAR
    assert cell.embodied == EmbodiedFraction(0.20)
    assert cell.radius_m == 50.0


def test_defaults_band_independent():
    # constants identical across bands; only tx scaling sees the carrier
    docs = [{"architecture": {"type": "central", "n_small": 1}, "band_hz": b}
            for b in BANDS]
    cells = [scenario_from_dict(doc).macro for doc in docs]
    assert cells[0] == cells[1] == cells[2]


def test_load_minimal_central_fills_defaults():
    cfg = load_scenario('{"architecture": {"type": "central", "n_small": 100}}')
    assert cfg.architecture == Central(100)
    assert cfg.alpha == 3.2
    assert cfg.band_hz == 5.8e9
    assert cfg.small.bandwidth_hz == 1e8
    assert cfg.macro.spectrum_eff == FixedSE(5.0)
    assert cfg.overheads == Overheads(s1=0.10, x2=0.04)
    assert cfg.tx_anchor == TxAnchor(10.0, 500.0, 5.8e9, 2.0)


def test_load_minimal_distribution():
    cfg = load_scenario('{"architecture": {"type": "distribution", "k_cluster": 10}}')
    assert cfg.architecture == Distribution(10)
    assert cfg.macro is None


def test_empty_document_names_architecture():
    with pytest.raises(ValidationError, match="architecture"):
        load_scenario("{}")


def test_overhead_out_of_range_named():
    doc = {"architecture": {"type": "central", "n_small": 1},
           "overheads": {"s1": 1.5, "x2": 0.04}}
    with pytest.raises(ValidationError, match="overhead"):
        scenario_from_dict(doc)


def test_malformed_json_is_parse_error():
    with pytest.raises(ParseError):
        load_scenario("{not json")


@pytest.mark.parametrize("text", ["[" * 100000 + "]" * 100000, '{"a": ' * 100000],
                         ids=["arrays", "objects"])
def test_deeply_nested_json_is_parse_error(text):
    with pytest.raises(ParseError, match="invalid JSON"):
        load_scenario(text)


@pytest.mark.parametrize("doc,field", [
    ({"architecture": {"type": "central", "n_small": -1}}, "n_small"),
    ({"architecture": {"type": "distribution", "k_cluster": 0}}, "k_cluster"),
    ({"architecture": {"type": "mesh"}}, "architecture.type"),
    ({"architecture": {"type": "central", "n_small": 1}, "band_hz": -5e9}, "band_hz"),
    ({"architecture": {"type": "central", "n_small": 1}, "alpha": 0}, "alpha"),
    ({"architecture": {"type": "central", "n_small": 1},
      "small": {"bandwidth_hz": -1}}, "bandwidth_hz"),
    ({"architecture": {"type": "central", "n_small": 1},
      "small": {"power_curve": {"slope_a": 0, "offset_b_w": 71.5}}}, "slope_a"),
    ({"architecture": {"type": "central", "n_small": 1},
      "small": {"embodied": {"type": "fraction_of_total", "fraction": 1.0}}},
     "fraction"),
    ({"architecture": {"type": "central", "n_small": 1}, "bogus": 1}, "bogus"),
    ({"architecture": {"type": "central", "n_small": 1},
      "small": {"spectral": 5}}, "spectral"),
    ({"architecture": {"type": "distribution", "k_cluster": 2},
      "macro": {"bandwidth_hz": 1e8}}, "macro"),
    ({"architecture": {"type": "central", "n_small": True}}, "n_small"),
], ids=lambda v: v if isinstance(v, str) else "doc")
def test_invalid_documents_name_the_field(doc, field):
    with pytest.raises(ValidationError, match=field):
        scenario_from_dict(doc)


def test_validation_is_total_over_random_documents():
    # any syntactically valid JSON either loads or raises a named error,
    # never builds a config that violates an invariant
    import random
    rnd = random.Random(20240811)
    scalars = [0, 1, -3, 0.5, 1e8, True, None, "x", [], {}]
    for _ in range(300):
        doc = {"architecture": {"type": rnd.choice(["central", "distribution", "x"]),
                                rnd.choice(["n_small", "k_cluster"]):
                                    rnd.choice([0, 1, 7, -2, 1.5, True])}}
        if rnd.random() < 0.7:
            doc[rnd.choice(["band_hz", "alpha", "bogus"])] = rnd.choice(scalars)
        if rnd.random() < 0.5:
            doc["overheads"] = {"s1": rnd.choice(scalars), "x2": 0.04}
        try:
            cfg = scenario_from_dict(doc)
        except ValidationError:
            continue
        assert cfg.alpha > 0
        assert 0 <= cfg.overheads.s1 < 1
        assert cfg.band_hz > 0


def test_roundtrip_central():
    doc = {
        "architecture": {"type": "central", "n_small": 42},
        "band_hz": 28e9,
        "alpha": 2.9,
        "small": {"bandwidth_hz": 2e8,
                  "spectrum_eff": {"type": "shannon_edge", "calibration_se": 4.0,
                                   "ref_radius_m": 60.0},
                  "radius_m": 75.0},
        "overheads": {"s1": 0.12, "x2": 0.02},
    }
    cfg = scenario_from_dict(doc)
    again = load_scenario(serialize_scenario(cfg))
    assert again == cfg


def test_roundtrip_distribution():
    cfg = load_scenario('{"architecture": {"type": "distribution", "k_cluster": 7}}')
    text = serialize_scenario(cfg)
    assert "macro" not in json.loads(text)
    assert load_scenario(text) == cfg


def test_programmatic_central_fills_macro():
    cfg = ScenarioConfig(architecture=Central(3))
    assert cfg.macro == default_table1("macro")


def test_programmatic_distribution_rejects_macro():
    with pytest.raises(ValidationError, match="macro"):
        ScenarioConfig(architecture=Distribution(3),
                       macro=default_table1("macro"))


def test_alternative_anchor_preset():
    # 40 W at 1 km with no carrier dependence, given in a document that
    # leaves the anchor carrier at its default
    cfg = load_scenario(json.dumps({
        "architecture": {"type": "central", "n_small": 1},
        "tx_anchor": {"power_w": 40.0, "radius_m": 1000.0, "freq_exponent": 0.0}}))
    assert cfg.tx_anchor == TxAnchor(power_w=40.0, radius_m=1000.0, carrier_hz=5.8e9,
                                     freq_exponent=0.0)
    assert cfg.tx_anchor.power_w == 40.0
    assert cfg.tx_anchor.radius_m == 1000.0
    assert cfg.tx_anchor.freq_exponent == 0.0


@pytest.mark.parametrize("bad", [
    lambda: PowerCurve(0.0, 354.44),
    lambda: PowerCurve(21.45, 0.0),
    lambda: TxAnchor(power_w=-1.0),
    lambda: ScenarioConfig(architecture=Central(1), band_hz=0.0),
    lambda: EmbodiedFraction(0.0),
    lambda: EmbodiedAbsolute(-1.0, 0.0),
    lambda: FixedSE(-0.1),
    lambda: ShannonEdgeSE(0.0),
    lambda: Central(-1),
    lambda: Distribution(0),
    lambda: default_table1("tiny"),
])
def test_type_invariants_enforced(bad):
    with pytest.raises(ValidationError):
        bad()


_C = {"type": "central", "n_small": 1}


@pytest.mark.parametrize("doc,message", [
    ({"architecture": {"type": "central"}}, "architecture.n_small: missing"),
    ({"architecture": {"type": "central", "k_cluster": 1}},
     "architecture: unknown key(s) ['k_cluster']"),
    ({"architecture": {"type": ["central"], "n_small": 1}},
     "architecture.type: must be 'central' or 'distribution'"),
    ({"architecture": _C, "macro": {"radius_m": True}}, "macro.radius_m: must be a number > 0"),
    ({"architecture": _C, "small": {"spectrum_eff": {"type": "fixed"}}},
     "small.spectrum_eff.bit_per_s_per_hz: missing"),
    ({"architecture": _C, "small": {"spectrum_eff": {"bit_per_s_per_hz": 5}}},
     "small.spectrum_eff.type: must be 'fixed' or 'shannon_edge'"),
    ({"architecture": _C, "small": {"spectrum_eff": {"type": "fixed", "bit_per_s_per_hz": 5,
                                                     "ref_radius_m": 50}}},
     "small.spectrum_eff: unknown key(s) ['ref_radius_m']"),
    ({"architecture": _C, "small": {"power_curve": {"slope_a": 7}}},
     "small.power_curve.offset_b_w: missing"),
    ({"architecture": _C, "small": {"power_curve": []}},
     "small.power_curve: must be an object"),
    ({"architecture": _C, "small": {"embodied": {"type": "fraction"}}},
     "small.embodied.type: must be 'absolute' or 'fraction_of_total'"),
    ({"architecture": _C, "tx_anchor": {"power_w": "10"}}, "tx_anchor.power_w: must be a number > 0"),
    ({"architecture": _C, "tx_anchor": {"watts": 10}}, "tx_anchor: unknown key(s) ['watts']"),
    ({"architecture": _C, "overheads": {"s3": 0.1}}, "overheads: unknown key(s) ['s3']"),
    ({"architecture": _C, "small": {"radius_m": -1}}, "small.radius_m: must be a number > 0"),
    ({"architecture": _C, "macro": {"power_curve": {"slope_a": 0, "offset_b_w": 1}}},
     "macro.power_curve.slope_a: must be a number > 0"),
    ({"architecture": _C, "small": {"embodied": {"type": "absolute", "init_j": -1,
                                                 "maint_j": 0}}},
     "small.embodied.init_j: must be a number >= 0"),
    ({"architecture": _C, "band_hz": -5e9}, "band_hz: must be a number > 0"),
    ({"architecture": _C, "overheads": {"s1": 1}}, "overheads.s1: must be a number in [0, 1)"),
], ids=lambda v: v if isinstance(v, str) else "doc")
def test_error_messages_are_exact(doc, message):
    with pytest.raises(ValidationError) as info:
        scenario_from_dict(doc)
    assert str(info.value) == message


def test_roundtrip_every_record_kind():
    doc = {
        "architecture": {"type": "central", "n_small": 3},
        "macro": {"spectrum_eff": {"type": "shannon_edge", "calibration_se": 6.0},
                  "embodied": {"type": "fraction_of_total", "fraction": 0.1}},
        "small": {"embodied": {"type": "absolute", "init_j": 1e9, "maint_j": 2e8},
                  "power_curve": {"slope_a": 5.0, "offset_b_w": 40.0}},
        "tx_anchor": {"power_w": 40.0, "radius_m": 1000.0},
    }
    cfg = scenario_from_dict(doc)
    assert cfg.macro.spectrum_eff == ShannonEdgeSE(6.0, 50.0)
    assert cfg.tx_anchor == TxAnchor(40.0, 1000.0, 5.8e9, 2.0)
    assert load_scenario(serialize_scenario(cfg)) == cfg


# Where each input record sits in a document, and a valid JSON object for
# it there.
_RECORD_AT = {
    ScenarioConfig: ((), {}),
    Central: (("architecture",), {"type": "central", "n_small": 1}),
    Distribution: (("architecture",), {"type": "distribution", "k_cluster": 1}),
    CellParams: (("small",), {}),
    PowerCurve: (("small", "power_curve"), {"slope_a": 7.84, "offset_b_w": 71.5}),
    FixedSE: (("small", "spectrum_eff"), {"type": "fixed", "bit_per_s_per_hz": 5}),
    ShannonEdgeSE: (("small", "spectrum_eff"), {"type": "shannon_edge", "calibration_se": 5}),
    EmbodiedAbsolute: (("small", "embodied"), {"type": "absolute", "init_j": 1, "maint_j": 1}),
    EmbodiedFraction: (("small", "embodied"), {"type": "fraction_of_total", "fraction": 0.2}),
    TxAnchor: (("tx_anchor",), {}),
    Overheads: (("overheads",), {}),
}


def _set_path(doc: dict, path: tuple, value) -> None:
    for key in path[:-1]:
        doc = doc.setdefault(key, {})
    doc[path[-1]] = value


def _fields_ruled(number: bool) -> list:
    """(record class, field) of every number field, or of every record-typed one."""
    return [(cls, name) for cls in _RECORD_AT for name, rule in cls._rules.items()
            if isinstance(rule, tuple) == number]


def _record_id(v):
    return v if isinstance(v, str) else v.__name__


def test_every_field_has_exactly_one_rule():
    records = {v for v in vars(scenario).values()
               if isinstance(v, type) and dataclasses.is_dataclass(v)}
    # the breakdowns are model outputs, never read from a document
    assert records == set(_RECORD_AT) | {ThroughputBreakdown, EnergyBreakdown}
    for cls in _RECORD_AT:
        for f in dataclasses.fields(cls):
            number = f.type in ("int", "float")
            assert isinstance(cls._rules[f.name], tuple) == number, (cls.__name__, f.name)


@pytest.mark.parametrize("cls,name", _fields_ruled(number=True), ids=_record_id)
def test_huge_int_in_every_numeric_field_names_its_json_path(cls, name):
    record_path, obj = _RECORD_AT[cls]
    doc = {"architecture": {"type": "central", "n_small": 1}}
    if record_path:
        _set_path(doc, record_path, dict(obj))
    path = record_path + (name,)
    _set_path(doc, path, 10 ** 400)
    with pytest.raises(ValidationError) as info:
        load_scenario(json.dumps(doc))
    assert str(info.value).startswith(".".join(path) + ": must be ")


# A valid instance of each input record that has record-typed fields.
_VALID = {ScenarioConfig: ScenarioConfig(architecture=Central(1)),
          CellParams: default_table1("small")}


@pytest.mark.parametrize("bad", [5, None, "x"], ids=["int", "None", "str"])
@pytest.mark.parametrize("cls,name", _fields_ruled(number=False), ids=_record_id)
def test_wrong_type_in_every_record_field_names_it(cls, name, bad):
    valid = _VALID[cls]
    if bad is None and getattr(cls, name, dataclasses.MISSING) is None:
        # an optional record (macro): None is its default, filled or kept
        assert replace(valid, **{name: None}) == valid
        return
    with pytest.raises(ValidationError) as info:
        replace(valid, **{name: bad})
    assert str(info.value).startswith(f"{name}: must be "), str(info.value)


def _doc_paths(doc: dict, prefix: tuple = ()) -> list:
    """Key path of every value in a document, parents before children."""
    paths = []
    for key, value in doc.items():
        paths.append(prefix + (key,))
        if isinstance(value, dict):
            paths += _doc_paths(value, prefix + (key,))
    return paths


_SHANNON_ABSOLUTE = replace(default_table1("small"), spectrum_eff=ShannonEdgeSE(5.0),
                            embodied=EmbodiedAbsolute(1e9, 1e8))
# Complete valid documents; between them they hold every tag and key.
_FULL_DOCS = [scenario_to_dict(cfg) for cfg in (
    ScenarioConfig(architecture=Central(3)),
    ScenarioConfig(architecture=Distribution(4), small=_SHANNON_ABSOLUTE, band_hz=28e9),
    ScenarioConfig(architecture=Central(2), small=_SHANNON_ABSOLUTE,
                   macro=replace(default_table1("macro"), spectrum_eff=ShannonEdgeSE(6.0),
                                 embodied=EmbodiedFraction(0.1))),
)]
_KEY_PATHS = {"config"} | {".".join(p) for doc in _FULL_DOCS for p in _doc_paths(doc)}

_HOSTILE = st.one_of(
    st.sampled_from([10 ** 400, -10 ** 400, 10 ** 300, True, False, None, "x", "3.2",
                     "central", "distribution", "fixed", "shannon_edge", "absolute",
                     "fraction_of_total", math.nan, math.inf, [], [1.0], {}, 0, -1, 1e-300]),
    st.floats(allow_nan=False), st.integers())


@settings(max_examples=150, deadline=None)
@given(data=st.data(), base=st.sampled_from(_FULL_DOCS))
def test_any_document_loads_or_names_a_key_path(data, base):
    doc = json.loads(json.dumps(base))
    for _ in range(data.draw(st.integers(1, 3))):
        path = data.draw(st.sampled_from(_doc_paths(doc)))
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        action = data.draw(st.sampled_from(("replace", "delete", "unknown key")))
        if action == "replace":
            parent[path[-1]] = data.draw(_HOSTILE)
        elif action == "delete":
            del parent[path[-1]]
        else:
            parent["x_unknown"] = 1
    try:
        cfg = load_scenario(json.dumps(doc))
    except ValidationError as e:
        assert str(e).split(": ", 1)[0] in _KEY_PATHS, str(e)
        return
    try:
        res = efficiency(cfg)
    except ConfigError:
        return
    numbers = [res.efficiency, *dataclasses.astuple(res.throughput),
               *dataclasses.astuple(res.energy)]
    assert all(math.isfinite(v) for v in numbers), numbers
