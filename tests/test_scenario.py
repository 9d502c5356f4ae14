import copy
import dataclasses
import functools
import inspect
import json
import math
import pickle
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wbackhaul import scenario
from wbackhaul.power_energy import efficiency, scenario_energy
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
from wbackhaul.traffic import scenario_throughput

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
    # a dict from the library may hold keys that do not compare
    ({"architecture": {"type": "central", "n_small": 1}, 1: 2, "a": 3},
     "config: unknown key(s) [1, 'a']"),
    ({"architecture": _C, "tx_anchor": {"b": 1, None: 2, 3: 4}},
     "tx_anchor: unknown key(s) [3, None, 'b']"),
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


# every number field but the counts, which take ints alone
@pytest.mark.parametrize("cls,name", [(cls, name) for cls, name in _fields_ruled(number=True)
                                      if cls._rules[name][0] is not int], ids=_record_id)
def test_numpy_float_in_every_number_field_is_stored_as_a_python_float(cls, name):
    record_path, obj = _RECORD_AT[cls]
    doc = {"architecture": {"type": "central", "n_small": 1}}
    if record_path:
        _set_path(doc, record_path, dict(obj))
    record = scenario_from_dict(doc)
    for key in record_path:
        record = getattr(record, key)
    value = float(getattr(record, name))
    stored = getattr(replace(record, **{name: np.float64(value)}), name)
    assert type(stored) is float and stored == value


def test_numpy_float_overflow_is_a_validation_error_not_a_warning():
    # computed in numpy scalars, the overflow would warn, and the suite's
    # warning filter would raise the warning instead
    cfg = ScenarioConfig(architecture=Central(3), tx_anchor=TxAnchor(power_w=np.float64(1e300)),
                         alpha=np.float64(50.0))
    with pytest.raises(ValidationError, match="^macro.power_curve: operating energy overflows"):
        efficiency(cfg)


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


# ---------------------------------------------------------------------------
# the reader and the writer against the plain paths they replace
# ---------------------------------------------------------------------------

def _oracle_read(kind, obj, prefix: str, defaults=None):
    """The reader as a plain pass: collect an object's values, check each
    number by its rule through _check_number, then build the record with
    its constructor, cls(*values)."""
    if not isinstance(obj, dict):
        raise ValidationError(f"{prefix[:-1] or 'config'}: must be an object")
    cls, tagged = kind, isinstance(kind, dict)
    if tagged:
        tag = obj.get("type")
        cls = kind.get(tag) if isinstance(tag, str) else None
        if cls is None:
            raise ValidationError(
                f"{prefix}type: must be {' or '.join(repr(t) for t in kind)}")
    allowed = cls._rules.keys() | ({"type"} if tagged else set())
    if not obj.keys() <= allowed:
        raise ValidationError(f"{prefix[:-1] or 'config'}: unknown key(s) "
                              f"{sorted(obj.keys() - allowed)}")
    values = []
    for f in dataclasses.fields(cls):
        key, rule = f.name, cls._rules[f.name]
        v = obj.get(key, dataclasses.MISSING)
        if v is dataclasses.MISSING:
            v = f.default if defaults is None else getattr(defaults, key)
            if v is dataclasses.MISSING:
                raise ValidationError(f"{prefix}{key}: missing")
        elif not isinstance(rule, tuple):
            cell = default_table1(key) if key in ("small", "macro") else None
            v = _oracle_read(rule, v, f"{prefix}{key}.", cell)
        values.append(v)
    try:
        for key, v in zip(cls._rules, values):
            if isinstance(cls._rules[key], tuple):
                scenario._check_number(key, v, cls._rules[key])
        return cls(*values)
    except ValidationError as e:
        raise ValidationError(f"{prefix}{e}") from e


def _oracle_write(record, tag=None) -> dict:
    """The writer's document as a plain walk: a record's "type" tag if it is
    a tagged union member, then its fields in declaration order, leaving out
    a None record.  serialize_scenario must write json.dumps(indent=2) of it."""
    doc = {} if tag is None else {"type": tag}
    for f in dataclasses.fields(record):
        value, rule = getattr(record, f.name), record._rules[f.name]
        if isinstance(rule, tuple):
            doc[f.name] = value
        elif value is not None:
            tags = {cls: tag for tag, cls in rule.items()} if isinstance(rule, dict) else {}
            doc[f.name] = _oracle_write(value, tags.get(type(value)))
    return doc


def _outcome(read, doc):
    """(config, None) or (None, (exception type, message)) of read(doc)."""
    try:
        return read(doc), None
    except ConfigError as e:
        return None, (type(e), str(e))


_COUNTS = st.sampled_from([2.5, 1.0, -0.0, True, False, 0, 3, 10 ** 400, "3"])


@settings(max_examples=300, deadline=None)
@given(data=st.data(), base=st.sampled_from(_FULL_DOCS))
def test_reader_matches_the_plain_reader_on_hostile_documents(data, base):
    doc = json.loads(json.dumps(base))
    if data.draw(st.booleans()):
        arch = doc["architecture"]
        arch["n_small" if arch["type"] == "central" else "k_cluster"] = data.draw(_COUNTS)
    for _ in range(data.draw(st.integers(0, 3))):
        path = data.draw(st.sampled_from(_doc_paths(doc)))
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        action = data.draw(st.sampled_from(("replace", "delete", "unknown key")))
        if action == "replace":
            parent[path[-1]] = data.draw(_HOSTILE | _COUNTS)
        elif action == "delete":
            del parent[path[-1]]
        else:
            parent["x_unknown"] = 1
    got, got_error = _outcome(scenario_from_dict, doc)
    want, want_error = _outcome(lambda d: _oracle_read(ScenarioConfig, d, ""), doc)
    assert got_error == want_error
    if want is not None:
        assert got == want
        assert serialize_scenario(got) == serialize_scenario(want)


@pytest.mark.parametrize("arch", [{"type": "central", "n_small": 2.5},
                                  {"type": "central", "n_small": True},
                                  {"type": "distribution", "k_cluster": 2.5},
                                  {"type": "distribution", "k_cluster": True}],
                         ids=["n_small-2.5", "n_small-True", "k_cluster-2.5", "k_cluster-True"])
def test_non_integer_count_gets_the_plain_readers_error(arch):
    doc = {"architecture": arch}
    error = _outcome(scenario_from_dict, doc)[1]
    assert error is not None and error == _outcome(
        lambda d: _oracle_read(ScenarioConfig, d, ""), doc)[1]


def _number(rule) -> st.SearchStrategy:
    """Values a number rule accepts: ints, floats, numpy float64s and the
    edge values -0.0, 5e-324 and 10**308 where the rule takes them."""
    types, low, high, _ = rule
    edges = [v for v in (-0.0, 5e-324, 0.5, 1, 10 ** 308)
             if isinstance(v, types) and low <= v <= high]
    low_int, high_int = math.ceil(low), min(math.floor(high), 10 ** 308)
    ints = st.integers(low_int, high_int) if low_int <= high_int else st.nothing()
    if types is int:
        return ints | st.sampled_from(edges)
    floats = st.floats(low, high)
    return st.one_of(floats, ints, floats.map(np.float64), st.sampled_from(edges))


def _records(cls) -> st.SearchStrategy:
    """Valid records of cls, every union member and number rule drawn from."""
    fields = {}
    for name, rule in cls._rules.items():
        if isinstance(rule, tuple):
            fields[name] = _number(rule)
        elif isinstance(rule, dict):
            fields[name] = st.one_of(*map(_records, rule.values()))
        else:
            fields[name] = _records(rule)
    return st.builds(cls, **fields)


_SHARED = {"band_hz": _number(scenario._POSITIVE), "alpha": _number(scenario._POSITIVE),
           "small": _records(CellParams), "tx_anchor": _records(TxAnchor),
           "overheads": _records(Overheads)}
# a central config with its macro cell given or filled in, and a distribution one without
_CONFIGS = st.one_of(
    st.builds(ScenarioConfig, architecture=_records(Central),
              macro=st.none() | _records(CellParams), **_SHARED),
    st.builds(ScenarioConfig, architecture=_records(Distribution), **_SHARED),
)


@settings(max_examples=200, deadline=None)
@given(cfg=_CONFIGS)
def test_serialize_writes_the_bytes_of_json_dumps_and_round_trips(cfg):
    text = serialize_scenario(cfg)
    assert text == json.dumps(_oracle_write(cfg), indent=2)
    assert json.dumps(scenario_to_dict(cfg)) == json.dumps(_oracle_write(cfg))
    again = load_scenario(text)
    assert again == cfg
    assert serialize_scenario(again) == text


def test_serialize_writes_every_edge_number_as_json_dumps_does():
    cfg = ScenarioConfig(architecture=Central(10 ** 308), band_hz=np.float64(5e-324),
                         alpha=10 ** 308, overheads=Overheads(s1=-0.0, x2=0),
                         small=_SHANNON_ABSOLUTE)
    text = serialize_scenario(cfg)
    assert text == json.dumps(_oracle_write(cfg), indent=2)
    assert json.dumps(scenario_to_dict(cfg)) == json.dumps(_oracle_write(cfg))
    assert '"n_small": 1' + "0" * 308 in text and '"band_hz": 5e-324' in text
    assert '"s1": -0.0' in text and '"x2": 0\n' in text
    assert load_scenario(text) == cfg


# ---------------------------------------------------------------------------
# arguments of the wrong kind
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("call,bad", [
    (efficiency, None), (scenario_energy, None), (scenario_throughput, "x"),
    (serialize_scenario, None), (scenario_to_dict, {}), (scenario_to_dict, Central(1)),
], ids=["efficiency", "scenario_energy", "scenario_throughput", "serialize_scenario",
        "scenario_to_dict-dict", "scenario_to_dict-record"])
def test_an_argument_that_is_not_a_config_names_cfg(call, bad):
    with pytest.raises(ValidationError) as info:
        call(bad)
    assert str(info.value) == f"cfg: must be a ScenarioConfig, got {bad!r}"


@pytest.mark.parametrize("bad", [None, 123, ["{}"]], ids=["None", "int", "list"])
def test_load_scenario_of_a_non_text_names_source(bad):
    with pytest.raises(ValidationError) as info:
        load_scenario(bad)
    assert str(info.value) == f"source: must be str, bytes or bytearray, got {bad!r}"


def test_load_scenario_reads_utf8_bytes():
    text = '{"architecture": {"type": "central", "n_small": 3}}'
    assert load_scenario(text.encode()) == load_scenario(bytearray(text.encode())) \
        == load_scenario(text)


def test_bytes_that_are_not_utf8_are_a_parse_error():
    with pytest.raises(ParseError, match="^invalid JSON: 'utf-8' codec can't decode"):
        load_scenario(b'{"architecture": "\xff"}')


def test_an_integer_literal_past_the_digit_limit_is_a_parse_error(int_digit_limit):
    text = '{"architecture": {"type": "central", "n_small": %s}}' % ("9" * 5000)
    with pytest.raises(ParseError, match="^invalid JSON: Exceeds the limit"):
        load_scenario(text)


# ---------------------------------------------------------------------------
# records: one shared set of methods, as a frozen dataclass would generate
# ---------------------------------------------------------------------------

def _record_classes() -> list:
    """Every dataclass the package defines, numpy's topology module included."""
    from wbackhaul import power_energy, sweep_report, topology
    return [cls for module in (scenario, power_energy, sweep_report, topology)
            for cls in vars(module).values()
            if isinstance(cls, type) and dataclasses.is_dataclass(cls)
            and cls.__module__ == module.__name__]


def _identity_classes() -> set:
    from wbackhaul import sweep_report, topology
    return {sweep_report.SweepGrid, topology.Placement, topology.RelayTree}


def test_no_record_class_generates_its_own_methods():
    # generating these methods per class was most of the package's import time
    classes = _record_classes()
    assert len(classes) == 18 and _identity_classes() <= set(classes)
    for cls in classes:
        assert issubclass(cls, scenario._Frozen), cls
        own = {"__init__", "__repr__", "__eq__", "__hash__", "__setattr__",
               "__delattr__"} & vars(cls).keys()
        assert not own, (cls, own)
        by_value = cls not in _identity_classes()
        assert issubclass(cls, scenario._Value) == by_value, cls
        assert (cls.__eq__ is object.__eq__) != by_value
        assert (cls.__hash__ is object.__hash__) != by_value


@functools.cache
def _twin(cls):
    """A frozen dataclass generated as dataclasses does, with cls's name and fields."""
    return dataclasses.make_dataclass(
        cls.__qualname__, [(f.name, f.type, dataclasses.field(default=f.default))
                           for f in dataclasses.fields(cls)], frozen=True)


def _records_in(value) -> list:
    """value and every record it holds, depth first."""
    if not dataclasses.is_dataclass(value):
        return []
    return [value, *(r for f in dataclasses.fields(value)
                     for r in _records_in(getattr(value, f.name)))]


def _values(record) -> tuple:
    return tuple(getattr(record, f.name) for f in dataclasses.fields(record))


def _check_record(record, other):
    """record behaves as the frozen dataclass of its fields: repr, ==, hash,
    copies, the constructor's argument errors and frozen fields."""
    cls = type(record)
    twin = _twin(cls)
    values = _values(record)
    assert inspect.signature(cls) == inspect.signature(twin)
    assert repr(record) == repr(twin(*values))
    assert hash(record) == hash(twin(*values)) == hash(values)
    assert (record == other) == (twin(*values) == twin(*_values(other)) if type(other) is cls
                                 else False)
    assert record.__eq__(values) is NotImplemented and record != values
    for again in (dataclasses.replace(record), copy.deepcopy(record), copy.copy(record),
                  pickle.loads(pickle.dumps(record)), cls(*values),
                  cls(**{f.name: v for f, v in zip(dataclasses.fields(cls), values)})):
        assert type(again) is cls and again == record and not again != record
        assert hash(again) == hash(record) and repr(again) == repr(record)
        assert list(vars(again)) == [f.name for f in dataclasses.fields(cls)]
    assert dataclasses.asdict(record) == dataclasses.asdict(twin(*values))
    assert dataclasses.astuple(record) == dataclasses.astuple(twin(*values))
    name = dataclasses.fields(cls)[0].name
    for bad_args, bad_kwargs in (((*values, values[0]), {}), ((values[0],), {name: values[0]}),
                                 (values, {"unknown_field": 1})):
        with pytest.raises(TypeError):
            cls(*bad_args, **bad_kwargs)
        with pytest.raises(TypeError):
            twin(*bad_args, **bad_kwargs)
    for f in dataclasses.fields(cls):
        if f.default is dataclasses.MISSING:
            with pytest.raises(TypeError, match=f"^{cls.__qualname__}[(][)] missing required "
                                                f"argument '{f.name}'$"):
                cls(**{g.name: v for g, v in zip(dataclasses.fields(cls), values) if g is not f})
    for change in (lambda: setattr(record, name, values[0]), lambda: delattr(record, name),
                   lambda: setattr(record, "other", 1)):
        with pytest.raises(dataclasses.FrozenInstanceError):
            change()
    assert _values(record) == values


@settings(max_examples=100, deadline=None)
@given(cfg=_CONFIGS, other=_CONFIGS)
def test_records_behave_as_frozen_dataclasses(cfg, other):
    # built by their constructors, and by the reader, which runs none
    records = _records_in(cfg) + _records_in(load_scenario(serialize_scenario(cfg)))
    try:
        records += _records_in(efficiency(cfg))
    except ConfigError:   # a drawn config whose totals overflow
        pass
    others = {type(r): r for r in _records_in(other) + records[::-1]}
    for record in records:
        _check_record(record, others[type(record)])


def test_the_table1_report_records_behave_as_frozen_dataclasses():
    from wbackhaul.sweep_report import table1_report
    checks = table1_report()
    for check, other in zip(checks, checks[1:] + checks[:1]):
        _check_record(check, other)


def test_the_constructor_names_a_wrong_argument():
    for call, message in [
        (lambda: PowerCurve(1.0, 2.0, 3.0),
         "PowerCurve() takes 2 positional arguments but 3 were given"),
        (lambda: PowerCurve(1.0), "PowerCurve() missing required argument 'offset_b_w'"),
        (lambda: PowerCurve(1.0, slope_a=2.0),
         "PowerCurve() got multiple values for argument 'slope_a'"),
        (lambda: PowerCurve(offset_b_w=2.0), "PowerCurve() missing required argument 'slope_a'"),
        (lambda: PowerCurve(1.0, 2.0, slope_a=2.0),
         "PowerCurve() got multiple values for argument 'slope_a'"),
        (lambda: TxAnchor(watts=1.0), "TxAnchor() got an unexpected keyword argument 'watts'"),
    ]:
        with pytest.raises(TypeError) as info:
            call()
        assert str(info.value) == message


def test_records_with_arrays_compare_by_identity_and_copy_read_only():
    from wbackhaul.sweep_report import SweepGrid
    from wbackhaul.topology import RelayTree, build_relay_tree, place_uniform
    pl = place_uniform(20, 500.0, seed=3)
    tree = build_relay_tree(pl)
    grid = SweepGrid(ScenarioConfig(architecture=Central(3)),
                     (("alpha", (3.0, 3.5)), ("small_se", np.array([1.0, 2.0]))))
    twins = [(pl, type(pl)(pl.positions, pl.macro_radius_m, pl.seed)),
             (tree, RelayTree(tree.gateway_index, tree.parent, tree.link_load_bps)),
             (grid, SweepGrid(grid.base, grid.axes))]
    for record, twin in twins:
        for again in (twin, copy.deepcopy(record), pickle.loads(pickle.dumps(record)),
                      dataclasses.replace(record)):
            assert again != record and not again == record and again == again
            assert repr(again) == repr(record)
        assert hash(record) == object.__hash__(record) and record == record
        for again in (copy.copy(record), copy.deepcopy(record), pickle.loads(pickle.dumps(record))):
            # a copy holds read-only arrays of its own, checked as the original was
            for field in dataclasses.fields(record):
                value = getattr(again, field.name)
                arrays = [v for _, v in value] if field.name == "axes" else [value]
                for array in arrays:
                    if isinstance(array, np.ndarray):
                        assert not array.flags.writeable and array.base is None
        assert repr(record).startswith(f"{type(record).__qualname__}(")
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(record, dataclasses.fields(record)[0].name, None)
