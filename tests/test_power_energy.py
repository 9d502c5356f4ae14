import json
import math
from dataclasses import replace

import numpy as np
import pytest

from wbackhaul.link_model import resolve_se
from wbackhaul.power_energy import (
    _embodied_energy,
    _operating_power,
    efficiency,
    scenario_energy,
    tx_power,
)
from wbackhaul.scenario import (
    Central,
    Distribution,
    EmbodiedAbsolute,
    EmbodiedFraction,
    FixedSE,
    PowerCurve,
    ScenarioConfig,
    ShannonEdgeSE,
    TxAnchor,
    ValidationError,
    default_table1,
    load_scenario,
)
from wbackhaul.traffic import scenario_throughput

B58, B28, B60 = 5.8e9, 28e9, 60e9
MACRO = default_table1("macro")
SMALL = default_table1("small")


def _energy(arch, band=B58):
    return scenario_energy(ScenarioConfig(architecture=arch, band_hz=band))


_TX_CELLS = [
    (500.0, B58, 10.0),
    (500.0, B28, 233.0),
    (500.0, B60, 1070.0),
    (50.0, B58, 6.3e-3),
    (50.0, B28, 0.147),
    (50.0, B60, 0.675),
]


@pytest.mark.parametrize("radius,band,expected_w", _TX_CELLS,
                         ids=[f"{r}-band{i}-{w}" for i, (r, _, w) in enumerate(_TX_CELLS)])
def test_tx_power_reproduces_published_cells(radius, band, expected_w):
    got = tx_power(radius, band, 3.2, TxAnchor())
    assert got == pytest.approx(expected_w, rel=5e-3)


def test_tx_power_anchor_identity():
    for alpha in (2.0, 3.2, 4.0):
        assert tx_power(500.0, B58, alpha, TxAnchor()) == 10.0


def test_tx_power_alternative_anchor_is_band_flat():
    # 40 W at 1 km, no carrier dependence
    anchor = TxAnchor(power_w=40.0, radius_m=1000.0, carrier_hz=5.8e9, freq_exponent=0.0)
    for band in (B58, B28, B60):
        assert tx_power(1000.0, band, 3.2, anchor) == 40.0
    # and it does not hit the published 10 W at 500 m cell (that is why
    # the anchored default exists)
    assert tx_power(500.0, B58, 3.2, anchor) == pytest.approx(4.353, rel=1e-3)


@pytest.mark.parametrize("band_hz", [-1.0, 0.0, math.nan])
def test_tx_power_rejects_a_band_that_is_not_positive(band_hz):
    # (-1 / 5.8e9) ** 2.5 is a complex number, not a power
    with pytest.raises(ValidationError, match="band_hz"):
        tx_power(50.0, band_hz, 3.2, TxAnchor(freq_exponent=2.5))


@pytest.mark.parametrize("call,name", [
    (lambda: tx_power("50", B58, 3.2, TxAnchor()), "radius_m"),
    (lambda: tx_power(0.0, B58, 3.2, TxAnchor()), "radius_m"),
    (lambda: tx_power(50.0, B58, 0.0, TxAnchor()), "alpha"),
    (lambda: tx_power(50.0, B58, math.nan, TxAnchor()), "alpha"),
    (lambda: tx_power(50, B58, 3.2, "a"), "anchor"),
    (lambda: resolve_se(ShannonEdgeSE(5.0), "50", 3.2), "radius_m"),
    (lambda: resolve_se(ShannonEdgeSE(5.0), 50.0, [3.2]), "alpha"),
    (lambda: tx_power(True, B58, 3.2, TxAnchor()), "radius_m"),
    (lambda: tx_power(np.array([50.0, 60.0]), B58, 3.2, TxAnchor()), "radius_m"),
    (lambda: resolve_se(ShannonEdgeSE(5.0), True, 3.2), "radius_m"),
    (lambda: resolve_se(ShannonEdgeSE(5.0), np.array([50.0, 60.0]), 3.2), "radius_m"),
    (lambda: resolve_se(FixedSE(5.0), "x", 3.2), "radius_m"),
    (lambda: resolve_se(FixedSE(5.0), 50.0, None), "alpha"),
], ids=["tx-radius-str", "tx-radius-0", "tx-alpha-0", "tx-alpha-nan", "tx-anchor-str",
        "se-radius-str", "se-alpha-list", "tx-radius-bool", "tx-radius-array",
        "se-radius-bool", "se-radius-array", "fixed-se-radius-str", "fixed-se-alpha-none"])
def test_loose_arguments_that_are_not_numbers_name_the_argument(call, name):
    with pytest.raises(ValidationError, match=f"^{name}: must be "):
        call()


@pytest.mark.parametrize("huge", [math.inf, np.float64(math.inf), 10 ** 400],
                         ids=["inf", "np-inf", "int-10e400"])
@pytest.mark.parametrize("call,name", [
    (lambda x: tx_power(x, B58, 3.2, TxAnchor()), "radius_m"),
    (lambda x: tx_power(50.0, x, 3.2, TxAnchor()), "band_hz"),
    (lambda x: tx_power(50.0, B58, x, TxAnchor()), "alpha"),
    (lambda x: resolve_se(ShannonEdgeSE(5.0), x, 3.2), "radius_m"),
    (lambda x: resolve_se(ShannonEdgeSE(5.0), 50.0, x), "alpha"),
    (lambda x: resolve_se(FixedSE(5.0), x, 3.2), "radius_m"),
    (lambda x: resolve_se(FixedSE(5.0), 50.0, x), "alpha"),
], ids=["tx-radius", "tx-band", "tx-alpha", "se-radius", "se-alpha", "fixed-se-radius",
        "fixed-se-alpha"])
def test_arguments_no_float_holds_name_the_argument(call, name, huge):
    with pytest.raises(ValidationError, match=f"^{name}: must be a number > 0$"):
        call(huge)


@pytest.mark.parametrize("args,name", [
    ((1e300, B58, 3.2), "radius_m"),
    ((50.0, 1e300, 3.2), "band_hz"),
    ((5e64, 5.8e84, 3.2), "radius_m"),   # both factors finite, the radius one larger
    ((5e50, 5.8e109, 3.2), "band_hz"),   # both factors finite, the band one larger
])
def test_tx_power_overflow_names_the_overflowing_factor(args, name):
    with pytest.raises(ValidationError, match=f"^{name}: transmit power overflows a float"):
        tx_power(*args, TxAnchor())


def test_numpy_floats_act_as_python_floats():
    args = (50.0, B58, 3.2)
    as_numpy = tuple(np.float64(v) for v in args)
    assert tx_power(*as_numpy, TxAnchor()) == tx_power(*args, TxAnchor())
    assert (resolve_se(ShannonEdgeSE(5.0), as_numpy[0], as_numpy[2])
            == resolve_se(ShannonEdgeSE(5.0), args[0], args[2]))


def test_operating_power():
    assert _operating_power(MACRO.power_curve, 10.0) == pytest.approx(568.94, rel=1e-12)
    assert _operating_power(SMALL.power_curve, 0.675) == pytest.approx(76.792, rel=1e-12)
    assert _operating_power(SMALL.power_curve, 0.0) == 71.50
    assert math.floor(_operating_power(MACRO.power_curve, 10.0)) == 568
    assert math.floor(_operating_power(SMALL.power_curve, 0.675)) == 76


def test_operating_energy():
    # 568.94 W for 10 years of 3.1536e7 s, and 71.549 W for 5 years
    br = _energy(Central(1))
    assert br.per_macro_operating_j == pytest.approx(1.7942e11, rel=1e-4)
    assert br.per_small_operating_j == pytest.approx(1.1282e10, rel=1e-4)
    # 1 W (the offset; the slope term is negligible) for 1 s
    one = replace(SMALL, power_curve=PowerCurve(1e-300, 1.0), lifetime_s=1.0)
    cfg = ScenarioConfig(architecture=Distribution(1), small=one)
    assert scenario_energy(cfg).per_small_operating_j == 1.0


def test_embodied_energy():
    assert _embodied_energy(EmbodiedAbsolute(75e9, 10e9), 0.0) == 8.5e10
    # 20% of total means a quarter of the operating energy
    assert _embodied_energy(EmbodiedFraction(0.20), 1.1282e10) == pytest.approx(
        2.8205e9, rel=1e-4)
    assert _embodied_energy(EmbodiedFraction(0.20), 0.0) == 0.0


def test_system_energy_central_defaults():
    br = _energy(Central(100))
    # macro 2.6442e11 + 100 * small 1.4102e10
    assert br.system_total_j == pytest.approx(1.6746e12, rel=1e-3)
    assert br.per_macro_operating_j + br.per_macro_embodied_j == pytest.approx(
        2.6442e11, rel=1e-3)
    assert br.per_small_operating_j + br.per_small_embodied_j == pytest.approx(
        1.4102e10, rel=1e-3)


def test_system_energy_central_n0_and_linearity():
    br0 = _energy(Central(0))
    assert br0.system_total_j == pytest.approx(2.6442e11, rel=1e-3)
    br1 = _energy(Central(1))
    br2 = _energy(Central(2))
    one_small = br1.per_small_operating_j + br1.per_small_embodied_j
    assert br2.system_total_j - br1.system_total_j == pytest.approx(
        one_small, rel=1e-12)


def test_system_energy_distribution():
    br = _energy(Distribution(10))
    assert br.system_total_j == pytest.approx(1.4102e11, rel=1e-3)
    br1 = _energy(Distribution(1))
    assert br1.system_total_j == pytest.approx(1.4102e10, rel=1e-3)
    assert br.per_macro_operating_j == 0.0
    # transmit power grows with the carrier, so energy does too
    br60 = _energy(Distribution(10), B60)
    assert br60.system_total_j > br.system_total_j


def test_efficiency_spot_values():
    cfg = ScenarioConfig(architecture=Central(100))
    res = efficiency(cfg)
    assert res.efficiency == pytest.approx(0.03559, rel=5e-3)
    resd = efficiency(ScenarioConfig(architecture=Distribution(10)))
    assert resd.efficiency == pytest.approx(0.4446, rel=5e-3)
    assert res.efficiency == res.throughput_bps / res.system_energy_j
    # the breakdowns it returns are the ones it divided
    assert res.throughput == scenario_throughput(cfg)
    assert res.energy == scenario_energy(cfg)
    assert res.throughput_bps == res.throughput.total_bps
    assert res.system_energy_j == res.energy.system_total_j


def test_efficiency_zero_spectrum_efficiency():
    cfg = ScenarioConfig(
        architecture=Central(50),
        macro=replace(MACRO, spectrum_eff=FixedSE(0.0)),
        small=replace(SMALL, spectrum_eff=FixedSE(0.0)))
    assert efficiency(cfg).efficiency == 0.0


@pytest.mark.parametrize("make", [
    lambda n: ScenarioConfig(architecture=Central(n)),
    lambda k: ScenarioConfig(architecture=Distribution(max(k, 1))),
])
def test_frequency_ordering(make):
    for count in (1, 10, 100):
        cfg = make(count)
        e58, e28, e60 = (efficiency(replace(cfg, band_hz=f)).efficiency
                         for f in (5.8e9, 28e9, 60e9))
        assert e58 > e28 > e60


def test_doubling_lifetime_halves_distribution_efficiency():
    # with fractional embodied energy, every energy term scales with lifetime
    cfg = ScenarioConfig(architecture=Distribution(10))
    base = efficiency(cfg).efficiency
    doubled = efficiency(replace(
        cfg, small=replace(SMALL, lifetime_s=2 * SMALL.lifetime_s))).efficiency
    assert doubled == pytest.approx(base / 2, rel=1e-12)


def test_central_efficiency_saturates_at_small_cell_ratio():
    cfg1 = ScenarioConfig(architecture=Central(1))
    en = scenario_energy(cfg1)
    th = scenario_throughput(cfg1)
    eta_inf = ((th.small_up_bps + th.small_down_bps)
               / (en.per_small_operating_j + en.per_small_embodied_j))
    assert eta_inf == pytest.approx(0.04184, rel=1e-3)
    big = efficiency(ScenarioConfig(architecture=Central(100000))).efficiency
    assert abs(big - eta_inf) / eta_inf < 5e-3


def test_power_curve_offset_keeps_energy_positive():
    cfg = ScenarioConfig(
        architecture=Central(0),
        macro=replace(MACRO, spectrum_eff=FixedSE(0.0)),
        small=replace(SMALL, spectrum_eff=FixedSE(0.0)))
    assert scenario_energy(cfg).system_total_j > 0


def _doc(arch, **fields):
    return json.dumps({"architecture": arch, **fields})


CENTRAL = {"type": "central", "n_small": 10}
HUGE_EMBODIED = {"type": "absolute", "init_j": 1e308, "maint_j": 1e308}


@pytest.mark.parametrize("text,field", [
    # (1e6 / 500) ** 100 overflows the transmit power
    (_doc(CENTRAL, alpha=100, small={"radius_m": 1e6}), "^small.radius_m: transmit power "),
    (_doc(CENTRAL, macro={"radius_m": 1e300}), "^macro.radius_m: transmit power "),
    # (1e300 / 5.8e9) ** 2 overflows the band factor, in every cell
    (_doc(CENTRAL, band_hz=1e300), "^band_hz: transmit power "),
    # both factors are finite and their product overflows: the larger is named
    (_doc({"type": "distribution", "k_cluster": 1}, band_hz=5.8e84, small={"radius_m": 5e64}),
     "^small.radius_m: transmit power "),
    (_doc({"type": "distribution", "k_cluster": 1}, band_hz=5.8e109, small={"radius_m": 5e50}),
     "^band_hz: transmit power "),
    # (50 / 1e-6) ** 60 overflows the Shannon edge SNR
    (_doc({"type": "distribution", "k_cluster": 3}, alpha=60,
          small={"radius_m": 1e-6,
                 "spectrum_eff": {"type": "shannon_edge", "calibration_se": 5}}),
     "^small.spectrum_eff: edge SNR "),
    (_doc(CENTRAL, alpha=60,
          macro={"radius_m": 1e-6,
                 "spectrum_eff": {"type": "shannon_edge", "calibration_se": 5}}),
     "^macro.spectrum_eff: edge SNR "),
    # a count no float can hold
    (_doc({"type": "central", "n_small": 10 ** 400}), "^architecture.n_small: must be "),
    # a count whose totals overflow to inf
    (_doc({"type": "central", "n_small": 10 ** 300}), "^architecture.n_small: "),
    (_doc({"type": "distribution", "k_cluster": 10 ** 300}), "^architecture.k_cluster: "),
    # one station's operating power times its lifetime overflows
    (_doc(CENTRAL, small={"lifetime_s": 1e308}), "^small.lifetime_s: "),
    # the operating power overflows on its own, or is the larger factor
    (_doc(CENTRAL, macro={"power_curve": {"slope_a": 1e308, "offset_b_w": 354.44}}),
     r"^macro.power_curve: operating energy overflows a float at P_op=inf W$"),
    (_doc(CENTRAL, macro={"power_curve": {"slope_a": 21.45, "offset_b_w": 1e308},
                          "lifetime_s": 10}),
     r"^macro.power_curve: operating energy overflows a float at P_op=1e\+308 W$"),
    # a cell's own backhaul or energy overflows, whatever the station count
    (_doc({"type": "central", "n_small": 0}, small={"bandwidth_hz": 1e308}),
     "^small.bandwidth_hz: "),
    (_doc({"type": "central", "n_small": 1}, macro={"bandwidth_hz": 1e308}),
     "^macro.bandwidth_hz: "),
    (_doc({"type": "distribution", "k_cluster": 1}, small={"bandwidth_hz": 1e308}),
     "^small.bandwidth_hz: "),
    (_doc({"type": "central", "n_small": 1}, small={"embodied": HUGE_EMBODIED}),
     "^small.embodied: "),
    (_doc({"type": "central", "n_small": 0}, macro={"embodied": HUGE_EMBODIED}),
     "^macro.embodied: "),
    (_doc({"type": "distribution", "k_cluster": 1},
          small={"lifetime_s": 1e300, "embodied": {"type": "fraction_of_total",
                                                   "fraction": 0.9999999999999999}}),
     "^small.embodied: "),
])
def test_overflow_is_a_validation_error_naming_the_field(text, field):
    with pytest.raises(ValidationError, match=field):
        efficiency(load_scenario(text))


@pytest.mark.parametrize("arch,field", [(Central(10 ** 300), "n_small"),
                                        (Distribution(10 ** 300), "k_cluster")])
def test_overflowing_totals_never_come_back_as_inf(arch, field):
    cfg = ScenarioConfig(architecture=arch)
    with pytest.raises(ValidationError, match=f"architecture.{field}"):
        scenario_throughput(cfg)
    with pytest.raises(ValidationError, match=f"architecture.{field}"):
        scenario_energy(cfg)


def _tiny_energy_doc(scale):
    return _doc({"type": "distribution", "k_cluster": 10},
                small={"radius_m": 1e-100,
                       "power_curve": {"slope_a": 1, "offset_b_w": scale},
                       "lifetime_s": scale})


@pytest.mark.parametrize("scale", [1e-200, 1e-160])
def test_energy_underflow_is_a_validation_error_naming_lifetime(scale):
    # 1e-200: the system energy underflows to 0; 1e-160: the ratio overflows
    with pytest.raises(ValidationError, match="lifetime_s"):
        efficiency(load_scenario(_tiny_energy_doc(scale)))
