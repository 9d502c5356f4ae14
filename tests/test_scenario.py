import json

import pytest

from wbackhaul.scenario import (
    ANCHOR_40W_1KM,
    SECONDS_PER_YEAR,
    Central,
    Distribution,
    EmbodiedAbsolute,
    EmbodiedFraction,
    FixedSE,
    FrequencyBand,
    ParseError,
    PowerCurve,
    ScenarioConfig,
    ShannonEdgeSE,
    TxAnchor,
    ValidationError,
    default_table1,
    load_scenario,
    scenario_from_dict,
    serialize_scenario,
)

BANDS = [5.8e9, 28e9, 60e9]


@pytest.mark.parametrize("band_hz", BANDS)
def test_default_table1_macro(band_hz):
    cell = ScenarioConfig(architecture=Central(1), band=FrequencyBand(band_hz)).macro
    assert cell == default_table1("macro")
    assert cell.power_curve == PowerCurve(21.45, 354.44)
    assert cell.lifetime_s == 10 * SECONDS_PER_YEAR
    assert cell.embodied == EmbodiedAbsolute(75e9, 10e9)
    assert cell.bandwidth_hz == 1e8
    assert cell.spectrum_eff == FixedSE(5.0)
    assert cell.radius_m == 500.0


@pytest.mark.parametrize("band_hz", BANDS)
def test_default_table1_small(band_hz):
    cell = ScenarioConfig(architecture=Distribution(1), band=FrequencyBand(band_hz)).small
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
    assert cfg.path_loss_alpha == 3.2
    assert cfg.band.carrier_hz == 5.8e9
    assert cfg.small.bandwidth_hz == 1e8
    assert cfg.macro.spectrum_eff == FixedSE(5.0)
    assert cfg.overhead_s1 == 0.10
    assert cfg.overhead_x2 == 0.04
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


@pytest.mark.parametrize("doc,field", [
    ({"architecture": {"type": "central", "n_small": -1}}, "n_small"),
    ({"architecture": {"type": "distribution", "k_cluster": 0}}, "k_cluster"),
    ({"architecture": {"type": "mesh"}}, "architecture.type"),
    ({"architecture": {"type": "central", "n_small": 1}, "band_hz": -5e9}, "carrier_hz"),
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
        assert cfg.path_loss_alpha > 0
        assert 0 <= cfg.overhead_s1 < 1
        assert cfg.band.carrier_hz > 0


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
    assert ANCHOR_40W_1KM.power_w == 40.0
    assert ANCHOR_40W_1KM.radius_m == 1000.0
    assert ANCHOR_40W_1KM.freq_exponent == 0.0


@pytest.mark.parametrize("bad", [
    lambda: PowerCurve(0.0, 354.44),
    lambda: PowerCurve(21.45, 0.0),
    lambda: TxAnchor(power_w=-1.0),
    lambda: FrequencyBand(0.0),
    lambda: EmbodiedFraction(0.0),
    lambda: EmbodiedAbsolute(-1.0, 0.0),
    lambda: FixedSE(-0.1),
    lambda: ShannonEdgeSE(0.0),
    lambda: Central(-1),
    lambda: Distribution(0),
])
def test_type_invariants_enforced(bad):
    with pytest.raises(ValidationError):
        bad()


_C = {"type": "central", "n_small": 1}


@pytest.mark.parametrize("doc,message", [
    ({"architecture": {"type": "central"}}, "architecture.n_small: must be an integer"),
    ({"architecture": {"type": "central", "k_cluster": 1}},
     "architecture: unknown key(s) ['k_cluster']"),
    ({"architecture": {"type": ["central"], "n_small": 1}},
     "architecture.type: must be 'central' or 'distribution'"),
    ({"architecture": _C, "macro": {"radius_m": True}}, "macro.radius_m: must be a number"),
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
    ({"architecture": _C, "tx_anchor": {"power_w": "10"}}, "tx_anchor.power_w: must be a number"),
    ({"architecture": _C, "tx_anchor": {"watts": 10}}, "tx_anchor: unknown key(s) ['watts']"),
    ({"architecture": _C, "overheads": {"s3": 0.1}}, "overheads: unknown key(s) ['s3']"),
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
