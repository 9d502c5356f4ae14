import json
import math
from dataclasses import replace

import numpy as np
import pytest

from wbackhaul import power_energy, sweep_report
from wbackhaul.scenario import (
    Central,
    Distribution,
    FixedSE,
    ScenarioConfig,
    ValidationError,
)
from wbackhaul.sweep_report import (
    FIGURES,
    MAX_POINTS,
    SweepGrid,
    apply_axis,
    figure_dataset,
    figure_grid,
    rows_to_csv,
    rows_to_json,
    run_sweep,
    table1_report,
)

CENTRAL = ScenarioConfig(architecture=Central(100))
DIST = ScenarioConfig(architecture=Distribution(10))


def test_single_point_reduces_to_single_evaluation():
    rows = run_sweep(SweepGrid(CENTRAL, (("n_small", (0,)),)))
    assert len(rows) == 1
    assert rows[0].throughput_bps == pytest.approx(5.9e8, rel=1e-12)


def test_k_cluster_sweep_matches_closed_form():
    rows = run_sweep(SweepGrid(DIST, (("k_cluster", tuple(range(1, 101))),)))
    for row, k in zip(rows, range(1, 101)):
        want = 1.14 * 1e8 * 5.0 * k * (k + 1)
        assert row.throughput_bps == pytest.approx(want, rel=1e-12)


def test_empty_values_rejected():
    with pytest.raises(ValidationError, match="non-empty"):
        SweepGrid(CENTRAL, (("n_small", ()),))


def test_values_must_be_strictly_increasing():
    with pytest.raises(ValidationError, match="strictly increasing"):
        SweepGrid(CENTRAL, (("n_small", (5, 5, 6)),))


def test_axis_must_match_architecture():
    with pytest.raises(ValidationError, match="central"):
        SweepGrid(DIST, (("n_small", (1, 2)),))
    with pytest.raises(ValidationError, match="distribution"):
        SweepGrid(CENTRAL, (("k_cluster", (1, 2)),))


def test_unknown_axis_rejected():
    with pytest.raises(ValidationError, match="unknown axis"):
        SweepGrid(CENTRAL, (("macro_radius", (1, 2)),))


@pytest.mark.parametrize("axes,named", [
    ((("n_small", 5),), "n_small"),            # values not iterable
    ((("n_small",),), "n_small"),              # no values
    ("ab", "'a'"),                             # not (name, values) pairs
    ((("alpha", (3.0, "x")),), "alpha"),       # values that do not compare
    ((([1], (1,)),), r"\[1\]"),                # a name that is not a string
], ids=["values-not-iterable", "no-values", "string", "non-numeric", "name-not-str"])
def test_malformed_axes_are_validation_errors_naming_the_axis(axes, named):
    with pytest.raises(ValidationError, match=f"axis.*{named}"):
        SweepGrid(CENTRAL, axes)


def test_grid_point_errors_are_tagged():
    grid = SweepGrid(CENTRAL, (("small_se", (-2.0, 5.0)),))
    with pytest.raises(ValidationError, match=r"small_se=-2"):
        run_sweep(grid)


@pytest.mark.parametrize("axis,values,base", [
    ("n_small", (0.5, 1.5), CENTRAL),
    ("k_cluster", (1, 2.5), DIST),
])
def test_non_integer_counts_are_rejected_not_truncated(axis, values, base):
    with pytest.raises(ValidationError, match=rf"grid point {axis}=.*must be an integer"):
        run_sweep(SweepGrid(base, ((axis, values),)))


def test_cross_product_ordering():
    grid = SweepGrid(CENTRAL, (("n_small", (1, 2)), ("band", (5.8e9, 28e9))))
    rows = run_sweep(grid)
    assert [r.axis_values for r in rows] == [
        (1, 5.8e9), (1, 28e9), (2, 5.8e9), (2, 28e9)]


def test_sweep_rows_equal_independent_evaluation():
    # oracle: re-evaluate each sampled grid point as a standalone scenario
    rng = np.random.default_rng(31)
    ns = tuple(sorted(rng.choice(np.arange(0, 400), size=6, replace=False)))
    bands = (5.8e9, 28e9, 60e9)
    grid = SweepGrid(CENTRAL, (("n_small", tuple(int(n) for n in ns)),
                                ("band", bands)))
    rows = run_sweep(grid)
    i = 0
    for n in ns:
        for b in bands:
            cfg = replace(CENTRAL, architecture=Central(int(n)),
                          band_hz=b)
            res = power_energy.efficiency(cfg)
            row = rows[i]
            assert row.axis_values == (n, b)
            assert row.throughput_bps == res.throughput_bps
            assert row.system_energy_j == res.system_energy_j
            assert row.efficiency == res.efficiency
            i += 1


def test_three_axis_sweep_matches_standalone_evaluation():
    ns, alphas, bands = (0, 7, 40), (2.5, 3.2), (5.8e9, 60e9)
    grid = SweepGrid(CENTRAL, (("n_small", ns), ("alpha", alphas), ("band", bands)))
    rows = run_sweep(grid)
    points = [(n, a, b) for n in ns for a in alphas for b in bands]
    assert [r.axis_values for r in rows] == points
    for row, (n, a, b) in zip(rows, points):
        cfg = replace(CENTRAL, architecture=Central(n), path_loss_alpha=a,
                      band_hz=b)
        res = power_energy.efficiency(cfg)
        assert (row.throughput_bps, row.system_energy_j, row.efficiency) == (
            res.throughput_bps, res.system_energy_j, res.efficiency)


def test_repeated_axis_rejected():
    with pytest.raises(ValidationError, match="alpha: given more than once"):
        SweepGrid(CENTRAL, (("alpha", (2.5,)), ("band", (5.8e9,)), ("alpha", (3.0,))))


def test_no_axes_rejected():
    with pytest.raises(ValidationError, match="at least one axis"):
        SweepGrid(CENTRAL, ())


def test_grid_larger_than_max_points_rejected():
    side = math.isqrt(MAX_POINTS) + 1
    axes = (("n_small", tuple(range(side))), ("alpha", tuple(range(1, side + 1))))
    with pytest.raises(ValidationError, match=f"at most {MAX_POINTS}"):
        SweepGrid(CENTRAL, axes)


def test_each_axis_value_applied_once_per_outer_point(monkeypatch):
    calls = []
    apply = sweep_report.apply_axis

    def counting(cfg, name, value):
        calls.append(name)
        return apply(cfg, name, value)

    monkeypatch.setattr(sweep_report, "apply_axis", counting)
    bands = (5.8e9, 28e9, 38e9, 60e9)
    run_sweep(SweepGrid(CENTRAL, (("n_small", (1, 2, 3)), ("band", bands))))
    assert calls.count("n_small") == 3 and calls.count("band") == 3 * 4


def test_energy_underflow_grid_point_names_lifetime():
    small = replace(DIST.small, radius_m=1e-100, lifetime_s=1e-200,
                    power_curve=replace(DIST.small.power_curve, slope_a=1.0,
                                        offset_b_w=1e-200))
    grid = SweepGrid(replace(DIST, small=small), (("k_cluster", (1, 2)),))
    with pytest.raises(ValidationError, match=r"grid point k_cluster=1: lifetime_s"):
        run_sweep(grid)


def test_apply_axis_variants():
    cfg = apply_axis(CENTRAL, "alpha", 2.7)
    assert cfg.path_loss_alpha == 2.7
    cfg = apply_axis(CENTRAL, "small_se", 7.5)
    assert cfg.small.spectrum_eff == FixedSE(7.5)
    cfg = apply_axis(CENTRAL, "small_radius", 75.0)
    assert cfg.small.radius_m == 75.0
    cfg = apply_axis(DIST, "k_cluster", 3)
    assert cfg.architecture == Distribution(3)


def test_figure_presets_exist_and_are_deterministic():
    for name in FIGURES:
        rows1 = figure_dataset(name)
        rows2 = figure_dataset(name)
        assert rows1 == rows2
        assert len(rows1) > 0


def test_fig3a_families_are_linear_in_n():
    grid = figure_grid("fig3a")
    rows = run_sweep(grid)
    for se in dict(grid.axes)["small_se"]:
        th = np.array([r.throughput_bps for r in rows if r.axis_values[1] == se])
        d2 = th[2:] - 2 * th[1:-1] + th[:-2]
        assert np.abs(d2).max() <= 1e-12 * max(th.max(), 1.0)


def test_fig4a_band_families_are_ordered():
    rows = figure_dataset("fig4a")
    by_band = {}
    for r in rows:
        by_band.setdefault(r.axis_values[1], []).append(r.efficiency)
    e58, e28, e60 = by_band[5.8e9], by_band[28e9], by_band[60e9]
    assert all(a > b > c for a, b, c in zip(e58, e28, e60))


def test_fig5_reference_radius_throughput_alpha_invariant():
    for name in ("fig5a", "fig5b"):
        rows = figure_dataset(name)
        th50 = {r.throughput_bps for r in rows if r.axis_values[1] == 50.0}
        assert len(th50) == 1


def test_csv_output_format():
    grid = SweepGrid(DIST, (("k_cluster", (1, 2, 3)),))
    rows = run_sweep(grid)
    text = rows_to_csv(grid, rows)
    lines = text.split("\n")
    assert lines[0] == "k_cluster,throughput_bps,system_energy_j,efficiency_bps_per_j"
    assert text.endswith("\n") and "\r" not in text
    cells = lines[1].split(",")
    assert cells[0] == "1"
    # full-precision scientific notation round-trips exactly
    assert float(cells[1]) == rows[0].throughput_bps
    assert float(cells[3]) == rows[0].efficiency


def test_json_output_mirrors_rows():
    grid = SweepGrid(DIST, (("alpha", (2.5, 3.2)),))
    rows = run_sweep(grid)
    data = json.loads(rows_to_json(grid, rows))
    assert len(data) == 2
    assert data[0]["alpha"] == 2.5
    assert data[0]["efficiency_bps_per_j"] == rows[0].efficiency


def test_table1_report_shape_and_values():
    report = table1_report()
    assert len(report.checks) == 12
    assert report.passed and report.n_passed == 12
    by_label = {c.label: c for c in report.checks}
    op28 = by_label["macro P_OP @ 28 GHz"]
    assert op28.computed == pytest.approx(5352.3, abs=0.05)
    assert math.floor(op28.computed) == 5352
    tx60 = by_label["small P_TX @ 60 GHz"]
    assert tx60.computed == pytest.approx(0.6752, abs=5e-4)
    assert tx60.expected == 0.675


def test_table1_report_flags_failures_without_raising():
    # a wrong path loss exponent breaks the transmit-power cells only
    report = table1_report(alpha=2.0)
    assert not report.passed
    labels_failed = {c.label for c in report.checks if not c.passed}
    assert any("P_TX" in lab for lab in labels_failed)
