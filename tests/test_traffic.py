from dataclasses import replace

import numpy as np
import pytest

from wbackhaul.scenario import (
    Central,
    Distribution,
    FixedSE,
    ScenarioConfig,
    ShannonEdgeSE,
    default_table1,
)
from wbackhaul.traffic import _cell_backhaul, scenario_throughput

SMALL = default_table1("small")
MACRO = default_table1("macro")


def _central(n, small=SMALL, macro=MACRO):
    return scenario_throughput(ScenarioConfig(architecture=Central(n), small=small,
                                              macro=macro))


def _distribution(k, se=5.0, bandwidth_hz=1e8):
    small = replace(SMALL, bandwidth_hz=bandwidth_hz, spectrum_eff=FixedSE(se))
    return scenario_throughput(ScenarioConfig(architecture=Distribution(k), small=small))


def test_small_up_central():
    assert _cell_backhaul(1e8, 5, 0.10, 0.04)[0] == pytest.approx(2.0e7, rel=1e-12)  # 0.04*1e8*5
    assert _cell_backhaul(1e8, 0, 0.10, 0.04)[0] == 0
    assert _cell_backhaul(0, 5, 0.10, 0.04)[0] == 0


def test_small_down_central():
    # 1.14*1e8*5
    assert _cell_backhaul(1e8, 5, 0.10, 0.04)[1] == pytest.approx(5.7e8, rel=1e-12)
    assert _cell_backhaul(1e8, 10, 0.10, 0.04)[1] == pytest.approx(1.14e9, rel=1e-12)
    assert _cell_backhaul(1e8, 0, 0.10, 0.04)[1] == 0


def test_macro_factors_match_small_factors():
    th = _central(1)
    assert th.macro_down_bps == pytest.approx(5.7e8, rel=1e-12)
    assert th.macro_up_bps == pytest.approx(2.0e7, rel=1e-12)
    assert (th.macro_up_bps, th.macro_down_bps) == (th.small_up_bps, th.small_down_bps)
    assert _central(1, macro=replace(MACRO, spectrum_eff=FixedSE(0.0))).macro_up_bps == 0


def test_total_central_macro_only():
    th = _central(0)
    assert th.total_bps == pytest.approx(5.9e8, rel=1e-12)  # (0.04+1.14)*1e8*5
    assert th.total_up_bps == th.macro_up_bps
    assert th.total_down_bps == th.macro_down_bps


def test_total_central_100():
    th = _central(100)
    # 101 cells * 1.18 * 1e8 * 5
    assert th.total_bps == pytest.approx(5.959e10, rel=1e-12)
    assert th.total_bps == th.total_up_bps + th.total_down_bps


def test_total_central_one_small_equals_twice_macro():
    # small params identical to macro params -> N=1 doubles the macro-only total
    th1 = _central(1, small=MACRO)
    th0 = _central(0, small=MACRO)
    assert th1.total_bps == pytest.approx(2 * th0.total_bps, rel=1e-12)


def test_scenario_throughput_resolves_shannon_se():
    # at its reference radius the Shannon edge source is exactly its calibration SE
    cell = replace(SMALL, spectrum_eff=ShannonEdgeSE(5.0))
    assert _central(1, small=cell) == _central(1)
    assert _central(1, small=replace(cell, radius_m=100.0)).total_bps < _central(1).total_bps


def test_comp_se():
    # each member's downlink adds the (K-1) * se cooperative traffic of its neighbors
    assert _distribution(10).small_down_bps == pytest.approx(1.14e8 * (5 + 45), rel=1e-12)
    th1 = _distribution(1)
    assert th1.small_down_bps == th1.small_up_bps
    assert _distribution(2, se=0.0).small_down_bps == 0


def test_total_distribution_examples():
    th = _distribution(10)
    assert th.total_bps == pytest.approx(6.27e10, rel=1e-12)  # 1.14*1e8*5*10*11
    th1 = _distribution(1)
    assert th1.total_up_bps == pytest.approx(5.7e8, rel=1e-12)
    assert th1.total_down_bps == pytest.approx(5.7e8, rel=1e-12)
    assert th1.total_bps == pytest.approx(1.14e9, rel=1e-12)
    assert _distribution(5, se=0.0).total_bps == 0


def test_distribution_macro_terms_zero():
    th = _distribution(4, se=3.0)
    assert th.macro_up_bps == 0 and th.macro_down_bps == 0


def test_central_linearity_in_n():
    # exactly zero second differences over an arithmetic N grid
    rng = np.random.default_rng(1)
    for _ in range(20):
        b, s = 10 ** rng.uniform(6, 9), rng.uniform(0, 12)
        small = replace(SMALL, bandwidth_hz=b, spectrum_eff=FixedSE(s))
        th = np.array([_central(n, small=small).total_bps for n in range(0, 300, 7)])
        d2 = th[2:] - 2 * th[1:-1] + th[:-2]
        assert np.abs(d2).max() <= 1e-12 * th.max()


def test_distribution_closed_form():
    # K*(up + down) == 1.14*B*S*K*(K+1) to 1e-12 relative, K up to 1e4
    ks = np.unique(np.concatenate([np.arange(1, 200),
                                   np.logspace(2.5, 4, 40).astype(int)]))
    for k in ks:
        got = _distribution(int(k)).total_bps
        want = 1.14 * 1e8 * 5.0 * k * (k + 1)
        assert abs(got - want) <= 1e-12 * want


def test_homogeneity_in_bandwidth_and_se():
    rng = np.random.default_rng(2)
    for _ in range(30):
        b, s, c = 10 ** rng.uniform(6, 9), rng.uniform(0.1, 12), rng.uniform(0.5, 8)
        base = _distribution(7, s, b).total_bps
        assert _distribution(7, s, c * b).total_bps == pytest.approx(c * base, rel=1e-12)
        assert _distribution(7, c * s, b).total_bps == pytest.approx(c * base, rel=1e-12)


def test_breakdowns_nonnegative_and_consistent():
    rng = np.random.default_rng(3)
    for _ in range(50):
        b, s = 10 ** rng.uniform(5, 9), rng.uniform(0, 10)
        n = int(rng.integers(0, 500))
        k = int(rng.integers(1, 500))
        small = replace(SMALL, bandwidth_hz=b, spectrum_eff=FixedSE(s))
        for th in (_central(n, small=small), _distribution(k, s, b)):
            fields = (th.small_up_bps, th.small_down_bps, th.macro_up_bps,
                      th.macro_down_bps, th.total_up_bps, th.total_down_bps,
                      th.total_bps)
            assert all(v >= 0 for v in fields)
            assert th.total_bps == th.total_up_bps + th.total_down_bps
