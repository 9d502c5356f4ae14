"""Acceptance suite: one test per release criterion, at stated tolerances.

Each test prints a single [PASS]/[FAIL] line (visible with pytest -s or
in captured output on failure).
"""
import math
import time
from dataclasses import replace

import numpy as np
import pytest

import wbackhaul as wb
from wbackhaul import _kernels

CENTRAL = wb.ScenarioConfig(architecture=wb.Central(100))
DIST = wb.ScenarioConfig(architecture=wb.Distribution(10))


def _report(num: int, desc: str, ok: bool) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {num}: {desc}")
    assert ok, f"criterion {num}: {desc}"


def _eta_central(n: int, **over) -> float:
    return wb.efficiency(replace(CENTRAL, architecture=wb.Central(n), **over)).efficiency


def _eta_dist(k: int, **over) -> float:
    return wb.efficiency(replace(DIST, architecture=wb.Distribution(k), **over)).efficiency


def test_criterion_1_calibration_table():
    t0 = time.perf_counter()
    checks = wb.table1_report()
    elapsed = time.perf_counter() - t0
    tx_ok = all(c.passed for c in checks if "P_TX" in c.label)
    floors = [math.floor(c.computed) for c in checks if "P_OP" in c.label]
    op_ok = floors == [568, 5352, 23305, 71, 72, 76]
    _report(1, "12 calibration cells reproduced (P_TX +/-0.5%, P_OP floors), <1s",
            tx_ok and op_ok and len(checks) == 12 and elapsed < 1.0)


def test_criterion_2_central_throughput_linear_in_n():
    th = np.array([wb.scenario_throughput(
        replace(CENTRAL, architecture=wb.Central(n))).total_bps
        for n in range(0, 1001)])
    d2 = np.abs(th[2:] - 2 * th[1:-1] + th[:-2])
    _report(2, "central throughput has zero second differences over N in [0,1000]",
            float(d2.max()) <= 1e-12 * float(th.max()))


def test_criterion_3_distribution_closed_form_and_superlinearity():
    ks = np.arange(1, 10_001)
    # the default small cell: B = 1e8 Hz, S = 5 bit/s/Hz
    th = np.array([wb.scenario_throughput(
        replace(DIST, architecture=wb.Distribution(int(k)))).total_bps for k in ks])
    closed = 1.14 * 1e8 * 5.0 * ks * (ks + 1.0)
    rel = np.abs(th - closed) / closed
    superlinear = all(th[2 * k - 1] / th[k - 1] > 2.0 for k in range(1, 5001))
    _report(3, "distribution throughput = 1.14*B*S*K(K+1) to 1e-12 up to K=1e4, "
               "and TH(2K) > 2 TH(K)",
            float(rel.max()) <= 1e-12 and superlinear)


def test_criterion_4_central_efficiency_saturation():
    grid = list(range(0, 1001)) + [2000, 5000, 10_000, 50_000, 100_000]
    etas = [_eta_central(n) for n in grid]
    increasing = all(b > a for a, b in zip(etas, etas[1:]))
    # saturation limit: per-small-cell throughput over per-small-cell energy
    one = replace(CENTRAL, architecture=wb.Central(1))
    th = wb.scenario_throughput(one)
    en = wb.scenario_energy(one)
    eta_inf = ((th.small_up_bps + th.small_down_bps)
               / (en.per_small_operating_j + en.per_small_embodied_j))
    gap = abs(etas[-1] - eta_inf) / eta_inf
    _report(4, f"central efficiency strictly increasing, within 0.5% of its "
               f"limit {eta_inf:.5f} at N=1e5 (gap {gap:.2e})",
            increasing and gap < 5e-3)


def test_criterion_5_distribution_efficiency_affine_in_k():
    etas = np.array([_eta_dist(k) for k in range(1, 301)])
    d2 = np.abs(etas[2:] - 2 * etas[1:-1] + etas[:-2])
    _report(5, "distribution efficiency is affine in K (zero second differences)",
            float(d2.max()) <= 1e-12 * float(etas.max()))


def test_criterion_6_frequency_ordering():
    bands = (5.8e9, 28e9, 60e9)
    ok = True
    for n in (1, 10, 100, 1000):
        e = [_eta_central(n, band_hz=f) for f in bands]
        ok = ok and e[0] > e[1] > e[2]
    for k in (1, 10, 100):
        e = [_eta_dist(k, band_hz=f) for f in bands]
        ok = ok and e[0] > e[1] > e[2]
    _report(6, "efficiency ordered 5.8 > 28 > 60 GHz for both architectures", ok)


def test_criterion_7_distribution_beats_central():
    ok = all(_eta_dist(k) > _eta_central(k) for k in range(1, 101))
    _report(7, "distribution efficiency exceeds central at matched K=N in 1..100", ok)


def test_criterion_8_radius_crossover_under_shannon_se():
    shannon = wb.ShannonEdgeSE(calibration_se=5.0, ref_radius_m=50.0)
    alphas = [2.5 + 0.05 * i for i in range(31)]  # [2.5, 4.0]
    ok = True
    for base in (CENTRAL, DIST):
        b = replace(base, small=replace(base.small, spectrum_eff=shannon))
        for r in (20.0, 30.0, 40.0):
            e = [wb.efficiency(replace(b, alpha=a,
                                       small=replace(b.small, radius_m=r))).efficiency
                 for a in alphas]
            ok = ok and all(y > x for x, y in zip(e, e[1:]))
        for r in (75.0, 100.0):
            e = [wb.efficiency(replace(b, alpha=a,
                                       small=replace(b.small, radius_m=r))).efficiency
                 for a in alphas]
            ok = ok and all(y < x for x, y in zip(e, e[1:]))
        th50 = {wb.scenario_throughput(replace(b, alpha=a,
                                               small=replace(b.small, radius_m=50.0))).total_bps
                for a in alphas}
        ok = ok and len(th50) == 1
    # the 50 m calibration point is exactly the configured 5 bit/s/Hz
    ok = ok and all(wb.resolve_se(shannon, 50.0, a) == 5.0 for a in alphas)
    _report(8, "efficiency rises with alpha for r in {20,30,40} m, falls for "
               "{75,100} m; throughput at 50 m is alpha-invariant (SE=5 exactly)", ok)


def test_criterion_9_spot_values():
    # Hand derivation, done before implementation and independent of it:
    #
    #   Central, N=100, 5.8 GHz, B=1e8 Hz, S=5 bit/s/Hz (both classes):
    #     per-cell backhaul (up+down) = (0.04 + 1.14) * 1e8 * 5 = 5.9e8 bit/s
    #     total throughput = (100 small + 1 macro) * 5.9e8 = 5.959e10 bit/s
    #     macro: P_tx = 10 W (anchor value at 500 m / 5.8 GHz)
    #            P_op = 21.45 * 10 + 354.44          = 568.94 W
    #            E_op = 568.94 * 10 * 3.1536e7       = 1.794209e11 J
    #            E_em = 75e9 + 10e9                  = 8.5e10 J
    #            macro total                          = 2.644209e11 J
    #     small: P_tx = 10 * (50/500)^3.2            = 6.30957e-3 W
    #            P_op = 7.84 * 6.30957e-3 + 71.50    = 71.54947 W
    #            E_op = 71.54947 * 5 * 3.1536e7      = 1.128192e10 J
    #            E_em = E_op * 0.2/0.8               = 2.820480e9 J
    #            small total                          = 1.410240e10 J
    #     system = 2.644209e11 + 100 * 1.410240e10   = 1.674661e12 J
    #     eta    = 5.959e10 / 1.674661e12            = 0.0355833 bit/s/J
    #
    #   Distribution, K=10, same band and small cell:
    #     throughput = 1.14 * 1e8 * 5 * 10 * (10+1)  = 6.27e10 bit/s
    #     system     = 10 * 1.410240e10              = 1.410240e11 J
    #     eta        = 6.27e10 / 1.410240e11         = 0.4446052 bit/s/J
    eta_c = _eta_central(100)
    eta_d = _eta_dist(10)
    ok_c = abs(eta_c - 0.03559) / 0.03559 <= 5e-3
    ok_d = abs(eta_d - 0.4446) / 0.4446 <= 5e-3
    _report(9, f"spot values: central {eta_c:.5f} ~ 0.03559, "
               f"distribution {eta_d:.4f} ~ 0.4446 (+/-0.5%)", ok_c and ok_d)


@pytest.fixture(scope="module")
def warm_kernels():
    # trigger any JIT compilation outside the timed section
    pl = wb.place_uniform(32, 500.0, seed=0)
    wb.link_loads(wb.build_relay_tree(pl), 1.0)


def test_criterion_10_topology_suite(warm_kernels):
    t0 = time.perf_counter()
    # mean radial distance of 1e4 uniform placements: (2/3) R within 2%
    pl_big = wb.place_uniform(10_000, 500.0, seed=7)
    mean_r = float(np.hypot(pl_big.positions[:, 0], pl_big.positions[:, 1]).mean())
    stats_ok = abs(mean_r - 500.0 * 2 / 3) <= 0.02 * (500.0 * 2 / 3)
    # seed determinism, bit for bit
    pl_a = wb.place_uniform(2000, 500.0, seed=21)
    pl_b = wb.place_uniform(2000, 500.0, seed=21)
    tree_a = wb.link_loads(wb.build_relay_tree(pl_a), 1e9)
    tree_b = wb.link_loads(wb.build_relay_tree(pl_b), 1e9)
    det_ok = (np.array_equal(pl_a.positions, pl_b.positions)
              and np.array_equal(tree_a.parent, tree_b.parent)
              and np.array_equal(tree_a.link_load_bps, tree_b.link_load_bps))
    # exact flow conservation at the gateway
    flow_ok = wb.gateway_ingress_bps(tree_a) == (pl_a.n - 1) * 1e9
    elapsed = time.perf_counter() - t0
    _report(10, f"topology: mean radial {mean_r:.1f} m (~333.3), determinism "
                f"bit-exact, flow conservation exact, {elapsed:.2f}s < 1s "
                f"({_kernels.backend()} kernels)",
            stats_ok and det_ok and flow_ok and elapsed < 1.0)
