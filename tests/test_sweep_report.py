import itertools
import json
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wbackhaul import power_energy, sweep_report
from wbackhaul.scenario import (
    Central,
    Distribution,
    FixedSE,
    PowerCurve,
    ScenarioConfig,
    ShannonEdgeSE,
    ValidationError,
)
from wbackhaul.sweep_report import (
    AXES,
    FIGURES,
    MAX_POINTS,
    SweepGrid,
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
    _, throughput_bps, _, _ = rows[0]
    assert throughput_bps == pytest.approx(5.9e8, rel=1e-12)


def test_k_cluster_sweep_matches_closed_form():
    rows = run_sweep(SweepGrid(DIST, (("k_cluster", tuple(range(1, 101))),)))
    assert [k for k, *_ in rows] == list(range(1, 101))
    for k, throughput_bps, _, _ in rows:
        want = 1.14 * 1e8 * 5.0 * k * (k + 1)
        assert throughput_bps == pytest.approx(want, rel=1e-12)


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


@pytest.mark.parametrize("axes,message", [
    ((("n_small", 5),), "axis.*n_small"),        # values not iterable
    ((("n_small",),), "axis.*n_small"),          # no values
    ("ab", "axis.*'a'"),                         # not (name, values) pairs
    ((("alpha", (3.0, "x")),), "axis.*alpha"),   # values that do not compare
    ((([1], (1,)),), r"axis.*\[1\]"),            # a name that is not a string
    (5, "^axes: .*got 5$"),                      # axes not iterable
    (None, "^axes: .*got None$"),
], ids=["values-not-iterable", "no-values", "string", "non-numeric", "name-not-str",
        "axes-int", "axes-none"])
def test_malformed_axes_are_validation_errors_naming_the_axis(axes, message):
    with pytest.raises(ValidationError, match=message):
        SweepGrid(CENTRAL, axes)


@pytest.mark.parametrize("base", [None, {"architecture": {"type": "central", "n_small": 1}}, 5],
                         ids=["none", "dict", "int"])
@pytest.mark.parametrize("axis", [("alpha", (3.0,)), ("n_small", (1,))],
                         ids=["alpha", "n_small"])
def test_a_base_that_is_not_a_scenario_is_a_validation_error(base, axis):
    with pytest.raises(ValidationError, match="^base: must be a ScenarioConfig, got "):
        SweepGrid(base, (axis,))


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
    assert [r[:2] for r in rows] == [
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
            assert rows[i] == (n, b, res.throughput_bps, res.system_energy_j,
                               res.efficiency)
            i += 1


def test_three_axis_sweep_matches_standalone_evaluation():
    ns, alphas, bands = (0, 7, 40), (2.5, 3.2), (5.8e9, 60e9)
    grid = SweepGrid(CENTRAL, (("n_small", ns), ("alpha", alphas), ("band", bands)))
    rows = run_sweep(grid)
    points = [(n, a, b) for n in ns for a in alphas for b in bands]
    assert [r[:3] for r in rows] == points
    for row, (n, a, b) in zip(rows, points):
        cfg = replace(CENTRAL, architecture=Central(n), alpha=a, band_hz=b)
        res = power_energy.efficiency(cfg)
        assert row[3:] == (res.throughput_bps, res.system_energy_j, res.efficiency)


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


def test_each_axis_value_checked_once(monkeypatch):
    checked = []

    def counting(name):
        part = AXES[name].part

        def counted(value):
            checked.append(name)
            return part(value)
        return AXES[name]._replace(part=counted)

    for name in ("n_small", "band"):
        monkeypatch.setitem(sweep_report.AXES, name, counting(name))
    bands = (5.8e9, 28e9, 38e9, 60e9)
    rows = run_sweep(SweepGrid(CENTRAL, (("n_small", (1, 2, 3)), ("band", bands))))
    assert len(rows) == 3 * 4
    # each distinct value once, not once per point of the axes before it
    assert checked.count("n_small") == 3 and checked.count("band") == 4


def test_energy_underflow_grid_point_names_lifetime():
    small = replace(DIST.small, radius_m=1e-100, lifetime_s=1e-200,
                    power_curve=replace(DIST.small.power_curve, slope_a=1.0,
                                        offset_b_w=1e-200))
    grid = SweepGrid(replace(DIST, small=small), (("k_cluster", (1, 2)),))
    with pytest.raises(ValidationError, match=r"grid point k_cluster=1: lifetime_s"):
        run_sweep(grid)


def test_axis_parts_and_fields():
    assert AXES["alpha"].part(2.7) == 2.7
    assert AXES["small_se"].part(7.5) == FixedSE(7.5)
    assert AXES["k_cluster"].part(3) == Distribution(3)
    assert AXES["small_radius"].field == ("small", "radius_m")
    with pytest.raises(ValidationError, match="^radius_m: must be a number > 0$"):
        AXES["small_radius"].part(0.0)
    # a part set into a scenario is the scenario replace() checks and builds
    cfg = sweep_report._set(CENTRAL, AXES["small_radius"].field, 75.0)
    assert cfg == replace(CENTRAL, small=replace(CENTRAL.small, radius_m=75.0))
    assert CENTRAL.small.radius_m == 50.0


def test_figure_presets_exist_and_are_deterministic():
    for name in FIGURES:
        rows1 = run_sweep(figure_grid(name))
        rows2 = run_sweep(figure_grid(name))
        assert rows1 == rows2
        assert len(rows1) > 0
    with pytest.raises(ValidationError, match="^figure: unknown dataset 'fig9'"):
        figure_grid("fig9")


def test_fig3a_families_are_linear_in_n():
    grid = figure_grid("fig3a")
    rows = run_sweep(grid)
    for se in dict(grid.axes)["small_se"]:
        th = np.array([t for _, s, t, _, _ in rows if s == se])
        d2 = th[2:] - 2 * th[1:-1] + th[:-2]
        assert np.abs(d2).max() <= 1e-12 * max(th.max(), 1.0)


def test_fig4a_band_families_are_ordered():
    rows = run_sweep(figure_grid("fig4a"))
    by_band = {}
    for _, band, _, _, eff in rows:
        by_band.setdefault(band, []).append(eff)
    e58, e28, e60 = by_band[5.8e9], by_band[28e9], by_band[60e9]
    assert all(a > b > c for a, b, c in zip(e58, e28, e60))


def test_fig5_reference_radius_throughput_alpha_invariant():
    for name in ("fig5a", "fig5b"):
        rows = run_sweep(figure_grid(name))
        th50 = {t for _, radius, t, _, _ in rows if radius == 50.0}
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
    assert float(cells[1]) == rows[0][1]
    assert float(cells[3]) == rows[0][3]


def test_json_output_mirrors_rows():
    grid = SweepGrid(DIST, (("alpha", (2.5, 3.2)),))
    rows = run_sweep(grid)
    data = json.loads(rows_to_json(grid, rows))
    assert len(data) == 2
    assert data[0]["alpha"] == 2.5
    assert data[0]["efficiency_bps_per_j"] == rows[0][3]


def test_table1_report_shape_and_values():
    checks = table1_report()
    assert len(checks) == 12
    assert all(c.passed for c in checks)
    by_label = {c.label: c for c in checks}
    op28 = by_label["macro P_OP @ 28 GHz"]
    assert op28.computed == pytest.approx(5352.3, abs=0.05)
    assert math.floor(op28.computed) == 5352
    tx60 = by_label["small P_TX @ 60 GHz"]
    assert tx60.computed == pytest.approx(0.6752, abs=5e-4)
    assert tx60.expected == 0.675


def test_table1_report_flags_failures_without_raising(monkeypatch):
    # a wrong published transmit power fails its own cell and the operating
    # power computed from it, and no other
    monkeypatch.setitem(sweep_report._TABLE_TX_W["macro"], 28e9, 300.0)
    checks = table1_report()
    assert len(checks) == 12
    assert {c.label for c in checks if not c.passed} == {
        "macro P_TX @ 28 GHz", "macro P_OP @ 28 GHz"}


# ---------------------------------------------------------------------------
# The sweep path against standalone evaluation, bit for bit
# ---------------------------------------------------------------------------

_SETTERS = {
    "n_small": lambda cfg, v: replace(cfg, architecture=Central(v)),
    "k_cluster": lambda cfg, v: replace(cfg, architecture=Distribution(v)),
    "alpha": lambda cfg, v: replace(cfg, alpha=v),
    "small_se": lambda cfg, v: replace(cfg, small=replace(cfg.small, spectrum_eff=FixedSE(v))),
    "band": lambda cfg, v: replace(cfg, band_hz=v),
    "small_radius": lambda cfg, v: replace(cfg, small=replace(cfg.small, radius_m=v)),
}


def _hex(rows):
    return [tuple(v.hex() if isinstance(v, float) else v for v in row) for row in rows]


def _standalone(grid):
    """Hex rows, or the first error message, from building each point's
    scenario with replace() and evaluating it with efficiency(), in row order."""
    rows = []
    for point in itertools.product(*(values for _, values in grid.axes)):
        cfg = grid.base
        try:
            for (name, _), v in zip(grid.axes, point):
                where = f"grid point {name}={v!r}"
                cfg = _SETTERS[name](cfg, v)
            res = power_energy.efficiency(cfg)
        except ValidationError as e:
            return f"{where}: {e}"
        rows.append((*point, res.throughput_bps, res.system_energy_j, res.efficiency))
    return _hex(rows)


def _swept(grid):
    try:
        return _hex(run_sweep(grid))
    except ValidationError as e:
        return str(e)


SHANNON = replace(CENTRAL.small, spectrum_eff=ShannonEdgeSE(5.0, 50.0))
HUGE_COUNTS = (1, 2**53 + 1, 10**30)
TINY = replace(DIST.small, radius_m=1e-100, lifetime_s=1e-160,
               power_curve=PowerCurve(1.0, 1e-160))

SWEEP_CASES = {
    "central-count-first": (CENTRAL, (("n_small", (0, 1, 7, 400)), ("alpha", (2.5, 3.2, 4.0)))),
    "central-count-middle": (CENTRAL, (("band", (5.8e9, 60e9)), ("n_small", (0, 7, 40)),
                                       ("small_radius", (20.0, 75.0)))),
    "central-count-last": (CENTRAL, (("small_se", (-0.0, 1.0, 7.5)), ("n_small", (0, 3)))),
    "central-no-count": (CENTRAL, (("alpha", (2, 3)), ("band", (6000000000, 28e9)))),
    "distribution-count-first": (DIST, (("k_cluster", (1, 2, 99)), ("small_se", (0.0, 2.5)))),
    "distribution-count-middle": (DIST, (("alpha", (2.5, 3.5)), ("k_cluster", (1, 10)),
                                         ("band", (5.8e9, 28e9)))),
    "distribution-count-last": (DIST, (("small_radius", (20.0, 100.0)), ("k_cluster", (1, 3)))),
    "shannon-central": (replace(CENTRAL, small=SHANNON),
                        (("alpha", (2.5, 3.2, 4.0)), ("small_radius", (20.0, 50.0, 100.0)),
                         ("n_small", (0, 25)))),
    "shannon-distribution": (replace(DIST, small=SHANNON),
                             (("k_cluster", (1, 5)), ("small_radius", (20.0, 50.0)))),
    # hostile grids: each ends in the same first error as standalone evaluation
    "huge-counts-central": (CENTRAL, (("n_small", HUGE_COUNTS + (10**300,)),
                                      ("alpha", (2.5, 3.2)))),
    "huge-counts-distribution": (DIST, (("alpha", (2.5, 3.2)),
                                        ("k_cluster", HUGE_COUNTS + (10**300,)))),
    "huge-counts-fit": (DIST, (("k_cluster", HUGE_COUNTS),)),
    "shannon-edge-overflow": (replace(DIST, small=SHANNON),
                              (("alpha", (2.5, 50.0, 60.0)), ("small_radius", (1e-6, 50.0)))),
    "tiny-lifetimes": (replace(DIST, small=TINY), (("alpha", (2.0, 3.0)), ("k_cluster", (1, 2)))),
    "bad-inner-value": (CENTRAL, (("n_small", (1, 2)), ("small_se", (1.0, math.inf)))),
    "bad-outer-value": (CENTRAL, (("alpha", (3.0, math.inf)), ("n_small", (1, 2)))),
    "bad-outer-count": (CENTRAL, (("n_small", (1, 2, 2.5)), ("alpha", (3.0, 4.0)))),
    "band-1e308": (DIST, (("k_cluster", (1, 2)), ("band", (5.8e9, 1e308)))),
    "power-curve-overflow": (replace(CENTRAL, macro=replace(
        CENTRAL.small, power_curve=PowerCurve(1e308, 1.0))), (("n_small", (1, 2)),)),
    # every station's own energy is checked before the throughput total
    "count-and-energy-overflow": (replace(CENTRAL, macro=replace(
        CENTRAL.small, power_curve=PowerCurve(1e308, 1.0))),
        (("alpha", (3.0,)), ("n_small", (10**300,)))),
}


@pytest.mark.parametrize("case", SWEEP_CASES)
def test_sweep_matches_standalone_evaluation_bit_for_bit(case):
    grid = SweepGrid(*SWEEP_CASES[case])
    assert _swept(grid) == _standalone(grid)


@pytest.mark.parametrize("case,message", [
    ("huge-counts-central",
     "grid point alpha=2.5: architecture.n_small: backhaul throughput overflows a float"),
    ("count-and-energy-overflow",
     "grid point n_small=" + str(10**300) + ": macro.power_curve: operating energy "
     "overflows a float at P_op=1.0000000000000002e+306 W"),
    ("bad-inner-value", "grid point small_se=inf: bit_per_s_per_hz: must be a number >= 0"),
    ("bad-outer-value", "grid point alpha=inf: alpha: must be a number > 0"),
    ("bad-outer-count", "grid point n_small=2.5: n_small: must be an integer >= 0"),
    ("band-1e308", "grid point band=1e+308: band_hz: transmit power overflows a float "
                   "at radius_m=50.0, alpha=3.2, band_hz=1e+308"),
    ("tiny-lifetimes", "grid point k_cluster=1: lifetime_s: system energy 1.25e-320 J "
                       "is too small"),
])
def test_hostile_grids_end_in_their_first_error(case, message):
    assert _swept(SweepGrid(*SWEEP_CASES[case])) == message


# values the random grids draw from, hostile ones among them
_POOLS = {
    "n_small": (0, 1, 7, 400, 2**53 + 1, 10**300),
    "k_cluster": (1, 2, 99, 2**53 + 1, 10**300),
    "alpha": (2.0, 2.5, 3.2, 4.0, 50.0),
    "small_se": (-0.0, 1.0, 7.5),
    "band": (5.8e9, 28e9, 60e9, 1e308, math.inf),
    "small_radius": (1e-6, 20.0, 50.0, 100.0),
}
_OVERFLOWING_MACRO = replace(CENTRAL.macro, power_curve=PowerCurve(1e308, 1.0))


@st.composite
def _grids(draw):
    base = draw(st.sampled_from((CENTRAL, DIST, replace(CENTRAL, macro=_OVERFLOWING_MACRO))))
    small = draw(st.sampled_from((base.small, SHANNON, TINY,
                                  replace(TINY, spectrum_eff=SHANNON.spectrum_eff))))
    count = "n_small" if isinstance(base.architecture, Central) else "k_cluster"
    others = ("alpha", "small_se", "band", "small_radius")
    names = draw(st.lists(st.sampled_from(others), unique=True, max_size=2))
    # then the count axis, or at times a third non-count axis
    if draw(st.booleans()) or not names:
        names.append(count)
    elif draw(st.booleans()):
        names.append(draw(st.sampled_from([n for n in others if n not in names])))
    names = draw(st.permutations(names))
    # at most 6 * 6 or 3**3 points
    size = 6 if len(names) < 3 else 3
    axes = tuple((name, tuple(sorted(draw(st.lists(st.sampled_from(_POOLS[name]), min_size=1,
                                                   max_size=size, unique=True)))))
                 for name in names)
    return SweepGrid(replace(base, small=small), axes)


@settings(max_examples=150, deadline=None)
@given(_grids())
def test_random_grids_match_standalone_evaluation_bit_for_bit(grid):
    assert _swept(grid) == _standalone(grid)


def test_count_free_terms_are_recomputed_only_for_a_new_scenario(monkeypatch):
    calls = []
    cell_terms = sweep_report.traffic._cell_terms
    monkeypatch.setattr(sweep_report.traffic, "_cell_terms",
                        lambda cfg: calls.append(cfg.alpha) or cell_terms(cfg))
    counts, alphas = ("n_small", (0, 1, 2, 3)), ("alpha", (2.5, 3.0))
    # a count builds no scenario: along a last count axis, once per alpha
    run_sweep(SweepGrid(CENTRAL, (alphas, counts)))
    assert calls == [2.5, 3.0]
    # each alpha value builds a new scenario: with the count axis first, once per point
    calls.clear()
    run_sweep(SweepGrid(CENTRAL, (counts, alphas)))
    assert calls == [2.5, 3.0] * 4


# ---------------------------------------------------------------------------
# JSON writer: the bytes json_text writes
# ---------------------------------------------------------------------------

def _json_oracle(grid, rows):
    names = grid.axis_names + sweep_report.VALUE_COLUMNS
    types = [int if AXES[n].arch else float for n in grid.axis_names] + [float] * 3
    return sweep_report.json_text([{n: t(v) for n, t, v in zip(names, types, row)}
                                   for row in rows])


@pytest.mark.parametrize("grid,rows", [
    (SweepGrid(CENTRAL, (("small_se", (-0.0, 1.0)), ("n_small", (0, 2**53 + 1)))), None),
    (SweepGrid(DIST, (("alpha", (2, 3)), ("k_cluster", (1, 10**30)))), None),
    (SweepGrid(CENTRAL, (("band", (5.8e9,)),)), [(6000000000, 1, 2, 3)]),
    (SweepGrid(CENTRAL, (("n_small", (1,)),)), [(2**60 + 1, 1e-320, 5e-324, 1.7976931348623157e308)]),
    (SweepGrid(CENTRAL, (("n_small", (1,)),)), []),
], ids=["neg-zero-and-2**53+1", "int-floats-and-1e30", "ints-on-float-columns",
        "extremes", "empty"])
def test_rows_to_json_bytes_equal_json_text(grid, rows):
    rows = run_sweep(grid) if rows is None else rows
    assert rows_to_json(grid, rows) == _json_oracle(grid, rows)


def test_rows_to_json_of_no_rows():
    assert rows_to_json(SweepGrid(CENTRAL, (("n_small", (1,)),)), []) == "[]\n"


@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
def test_rows_to_json_rejects_non_finite_numbers_like_json_text(bad):
    grid = SweepGrid(CENTRAL, (("alpha", (3.0,)),))
    rows = [(3.0, 1.0, 2.0, 0.5), (3.5, 1.0, bad, 0.5)]
    with pytest.raises(ValidationError, match="^output: ") as got:
        rows_to_json(grid, rows)
    with pytest.raises(ValidationError) as want:
        _json_oracle(grid, rows)
    assert str(got.value) == str(want.value)
