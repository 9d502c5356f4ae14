import enum
import itertools
import json
import math
import random
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wbackhaul import _kernels, cli, link_model, power_energy, sweep_report
from wbackhaul.scenario import (
    Central,
    Distribution,
    EmbodiedAbsolute,
    FixedSE,
    PowerCurve,
    ScenarioConfig,
    ShannonEdgeSE,
    TxAnchor,
    ValidationError,
    serialize_scenario,
)
from wbackhaul.sweep_report import (
    AXES,
    FIGURES,
    MAX_POINTS,
    SweepGrid,
    figure_grid,
    parse_axis,
    run_sweep,
    sweep_text,
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
    ((("alpha", np.ones((2, 2))),), "^axis alpha: values must be numbers$"),   # rows of arrays
], ids=["values-not-iterable", "no-values", "string", "non-numeric", "name-not-str",
        "axes-int", "axes-none", "2-d-array"])
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


@pytest.mark.parametrize("call,name", [
    (lambda: run_sweep("x"), "grid"),
    (lambda: sweep_text("x", "csv"), "grid"),
    (lambda: parse_axis(5), "spec"),
], ids=["run-grid-str", "text-grid-str", "axis-spec-int"])
def test_arguments_of_the_wrong_type_name_the_argument(call, name):
    with pytest.raises(ValidationError, match=f"^{name}: must be a "):
        call()


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
    # every check the sweep runs: one column test per axis, and one
    # _check_number per value of an axis the column test does not pass
    # (every part of an axis value checks through _check_number too)
    tested, checked = [], []
    numbers, check = sweep_report._numbers, sweep_report._check_number

    def counted_test(name, axis, values):
        tested.append(name)
        return numbers(name, axis, values)

    def counted_check(name, value, rule):
        checked.append((name, value))
        return check(name, value, rule)

    monkeypatch.setattr(sweep_report, "_numbers", counted_test)
    monkeypatch.setattr(sweep_report, "_check_number", counted_check)
    # a numpy float sends the band axis value by value
    bands = (5.8e9, 28e9, 38e9, np.float64(60e9))
    rows = run_sweep(SweepGrid(CENTRAL, (("n_small", (1, 2, 3)), ("band", bands))))
    assert len(rows) == 3 * 4
    # each distinct value once, not once per point of the axes before it:
    # the counts by their column test alone, the bands one by one
    assert tested == ["n_small", "band"]
    assert checked == [("band", b) for b in bands]
    tested.clear()
    with pytest.raises(ValidationError, match=r"^grid point band=-1\.0: band_hz: must be a number > 0$"):
        run_sweep(SweepGrid(CENTRAL, (("n_small", (1, 2, 3)), ("band", (-1.0, 5.8e9)))))
    assert tested == ["n_small", "band"]


def test_a_good_axis_builds_no_record_per_value(monkeypatch):
    built, axes = [], dict(AXES)

    def spying(name, finite):
        def spy(value):
            if finite:
                raise AssertionError(f"a part of {name} was built on a finite grid")
            built.append((name, value))
            return axes[name].part(value)
        return axes[name]._replace(part=spy)

    for name in AXES:
        monkeypatch.setitem(sweep_report.AXES, name, spying(name, True))
    for grid in [SweepGrid(*SWEEP_CASES[case]) for case in FINITE_CASES] + [
            figure_grid(name) for name in FIGURES]:
        run_sweep(grid)
    for name in AXES:
        monkeypatch.setitem(sweep_report.AXES, name, spying(name, False))
    # a grid whose one bad value is the third of the outer axis, a NaN that
    # min and max pass over: only the point that raises is built, and of it
    # only that value's part
    grid = SweepGrid(CENTRAL, (("small_se", (0.5, 1.0, math.nan, 2.0)), ("n_small", (0, 1))))
    with pytest.raises(ValidationError, match="^grid point small_se=nan: bit_per_s_per_hz: "):
        run_sweep(grid)
    assert len(built) == 1 and built[0][0] == "small_se" and math.isnan(built[0][1])


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
    text = sweep_text(grid, "csv")
    assert text == _csv_oracle(grid, rows)
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
    text = sweep_text(grid, "json")
    assert text == _json_oracle(grid, rows)
    data = json.loads(text)
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
    # an array's elements as the Python numbers they stand for
    for point in itertools.product(*(values if isinstance(values, tuple) else values.tolist()
                                     for _, values in grid.axes)):
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
    # 2**calibration_se overflows at every point
    "edge-calibration-overflow": (replace(DIST, small=replace(
        SHANNON, spectrum_eff=ShannonEdgeSE(1100.0))),
        (("alpha", (2.5, 3.2)), ("small_radius", (20.0, 50.0)))),
    # the radius factor overflows where the band factor underflows to 0
    "tx-inf-times-zero": (replace(CENTRAL, tx_anchor=TxAnchor(freq_exponent=1e4)),
                          (("band", (1e9, 5.8e9)), ("alpha", (3.0, 400.0)),
                           ("small_radius", (50.0, 1e6)))),
    "tiny-lifetimes": (replace(DIST, small=TINY), (("alpha", (2.0, 3.0)), ("k_cluster", (1, 2)))),
    "bad-inner-value": (CENTRAL, (("n_small", (1, 2)), ("small_se", (1.0, math.inf)))),
    "bad-outer-value": (CENTRAL, (("alpha", (3.0, math.inf)), ("n_small", (1, 2)))),
    "bad-outer-count": (CENTRAL, (("n_small", (1, 2, 2.5)), ("alpha", (3.0, 4.0)))),
    "band-1e308": (DIST, (("k_cluster", (1, 2)), ("band", (5.8e9, 1e308)))),
    "power-curve-overflow": (replace(CENTRAL, macro=replace(
        CENTRAL.small, power_curve=PowerCurve(1e308, 1.0))), (("n_small", (1, 2)),)),
    # integer embodied Joules whose sum no float holds
    "integer-embodied-overflow": (replace(CENTRAL, small=replace(
        CENTRAL.small, embodied=EmbodiedAbsolute(10**308, 10**308))),
        (("alpha", (3.0, 4.0)), ("n_small", (1, 2)))),
    # every station's own energy is checked before the throughput total
    "count-and-energy-overflow": (replace(CENTRAL, macro=replace(
        CENTRAL.small, power_curve=PowerCurve(1e308, 1.0))),
        (("alpha", (3.0,)), ("n_small", (10**300,)))),
    # ints and floats on one float axis, checked as one column
    "mixed-int-float-alpha": (replace(CENTRAL, small=SHANNON),
                              (("alpha", (2, 2.5, 3, 3.7, 4)), ("n_small", (0, 9)))),
    # a numpy float and a bool, checked value by value: the bool is the bad value
    "numpy-float-and-bool": (CENTRAL, (("n_small", (1, 2)),
                                       ("small_se", (np.float64(0.5), True, 7.5)))),
    # ints past 2**53 divided by ints: Python rounds such a quotient once,
    # where float64 would round the dividend first, as in (2**60 + 32) / 3
    "int-by-int-quotients": (replace(CENTRAL, tx_anchor=TxAnchor(radius_m=3, carrier_hz=3),
                                     small=replace(SHANNON, spectrum_eff=ShannonEdgeSE(
                                         5.0, 2**60 + 32))),
                             (("small_radius", (3, 2**60 + 32, 2**61 + 259)),
                              ("band", (5.8e9, 2**60 + 32)))),
    # a NaN alpha on stations at the anchor's radius: every power of the NaN
    # is 1.0, so its check alone finds it
    "nan-alpha-at-the-anchor-radius": (replace(DIST, small=replace(DIST.small, radius_m=500.0)),
                                       (("alpha", (2.0, math.nan, 3.0)), ("k_cluster", (1, 2)))),
    # range axes as parse_axis gives them, int64 and float64 arrays, each with
    # a bad point: see test_a_range_axis_ends_in_the_error_of_its_tuple
    "int-range-tiny-lifetimes": (replace(DIST, small=TINY),
                                 (("alpha", (2.0, 3.0)), parse_axis("k_cluster=1:40:1"))),
    "int-range-bad-count": (CENTRAL, (parse_axis("n_small=-3:30:3"), ("alpha", (3.0, 4.0)))),
    "float-range-bad-value": (CENTRAL, (("n_small", (1, 2)), parse_axis("small_se=-1:2:0.25"))),
    "float-range-edge-overflow": (replace(CENTRAL, small=replace(SHANNON, radius_m=1e-6)),
                                  (("n_small", (0, 3)), parse_axis("alpha=2:80:0.5"))),
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
    ("integer-embodied-overflow",
     "grid point n_small=1: small.embodied: a station's energy overflows a float"),
])
def test_hostile_grids_end_in_their_first_error(case, message):
    assert _swept(SweepGrid(*SWEEP_CASES[case])) == message


@pytest.mark.parametrize("case,message", [
    ("int-range-tiny-lifetimes", "grid point k_cluster=1: lifetime_s: "),
    ("int-range-bad-count", "grid point n_small=-3: n_small: must be an integer >= 0"),
    ("float-range-bad-value", "grid point small_se=-1.0: bit_per_s_per_hz: "),
    ("float-range-edge-overflow", "grid point alpha=40.0: small.spectrum_eff: edge SNR "),
])
def test_a_range_axis_ends_in_the_error_of_its_tuple(case, message):
    # an array's element is named as the Python number it stands for, never
    # as a numpy scalar such as np.int64(1), in the run and in both writers
    base, axes = SWEEP_CASES[case]
    plain = SweepGrid(base, tuple((name, tuple(values.tolist()) if isinstance(values, np.ndarray)
                                   else values) for name, values in axes))
    grid = SweepGrid(base, axes)
    assert any(isinstance(values, np.ndarray) for _, values in grid.axes)
    want = _swept(plain)
    assert want.startswith(message) and "np." not in want
    assert _swept(grid) == want
    for fmt in ("csv", "json"):
        assert _text_or_error(lambda: sweep_text(grid, fmt)) == f"error: {want}"


def test_numpy_float_axis_values_overflow_into_a_validation_error():
    # each value is set as the Python float it equals, so the point that
    # overflows raises its error, not numpy's overflow warning
    base = replace(CENTRAL, tx_anchor=TxAnchor(power_w=1e300))
    grid = SweepGrid(base, (("alpha", (np.float64(1.0), np.float64(50.0))),))
    with pytest.raises(ValidationError, match="^grid point alpha=np.float64[(]1.0[)]: macro"):
        run_sweep(grid)


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


def _column_path_only(monkeypatch):
    """Make the path that raises a grid point's error, which only a grid
    with a bad point enters, fail the test."""
    def unexpected(grid, index):
        raise AssertionError("a finite grid was sent to raise a grid point's error")
    monkeypatch.setattr(sweep_report, "_raise_point_error", unexpected)


def _finite(case) -> bool:
    """Whether standalone evaluation of the case gives rows.  Any other
    exception counts as no rows, so that it fails the case's own
    test_sweep_matches_standalone_evaluation_bit_for_bit, not the
    collection of this file."""
    try:
        return isinstance(_standalone(SweepGrid(*SWEEP_CASES[case])), list)
    except Exception:
        return False


FINITE_CASES = [case for case in SWEEP_CASES if _finite(case)]


@pytest.mark.parametrize("case", FINITE_CASES)
def test_a_finite_grid_is_evaluated_as_columns_only(case, monkeypatch):
    grid = SweepGrid(*SWEEP_CASES[case])
    want = _standalone(grid)
    _column_path_only(monkeypatch)
    assert _swept(grid) == want


def test_the_figure_grids_are_evaluated_as_columns_only(monkeypatch):
    want = {name: _standalone(figure_grid(name)) for name in FIGURES}
    _column_path_only(monkeypatch)
    assert {name: _swept(figure_grid(name)) for name in FIGURES} == want


def test_a_count_column_takes_k_minus_1_on_the_integer(monkeypatch):
    # 2**53 + 1 rounds to 2**53 as a float, so float(k) - 1 would be 2**53 - 1
    k = 2**53 + 1
    grid = SweepGrid(DIST, (("small_se", (1.0, 7.5)), ("k_cluster", (1, 2, k, k + 2))))
    want = _standalone(grid)
    _column_path_only(monkeypatch)
    rows = run_sweep(grid)
    assert _hex(rows) == want

    def throughput(neighbours, se=7.5):
        factor = (1.0 + 0.10 + 0.04) * 1e8
        up = float(k) * (factor * se) + 0.0
        return up + (float(k) * (factor * (se + neighbours * se)) + 0.0)
    assert rows[6][:3] == (7.5, k, throughput(float(k - 1)))
    assert throughput(float(k - 1)) != throughput(float(k) - 1)


@pytest.mark.parametrize("axes,evaluations", [
    # only the last point's edge SNR overflows
    ((("alpha", tuple(2.0 + i * 0.002 for i in range(10**4)) + (60.0,)),), 1),
    # only the last small_se value is bad, in the grid's last rows; its own
    # check raises the error, so no point is evaluated
    ((("small_se", tuple(i * 0.001 for i in range(2000)) + (math.inf,)),
      ("n_small", (0, 1, 2, 3, 4))), 0),
], ids=["overflow", "bad-value"])
def test_a_large_grid_with_one_bad_point_near_its_end_raises_its_error(
        axes, evaluations, monkeypatch):
    small = replace(SHANNON, radius_m=1e-6)
    grid = SweepGrid(replace(CENTRAL, small=small), axes)
    assert math.prod(len(values) for _, values in axes) >= 10**4
    want = _standalone(grid)
    assert want.startswith("grid point ")
    evaluated, efficiency = [], power_energy.efficiency
    monkeypatch.setattr(power_energy, "efficiency",
                        lambda cfg: evaluated.append(cfg) or efficiency(cfg))
    assert _swept(grid) == want
    # the bad point alone is built and evaluated, not the points before it
    assert len(evaluated) == evaluations


# part failures and overflows that the random grids below put in their axes
_BAD = {
    "n_small": (2.5, 10.5, 99.5, 10**300),
    "k_cluster": (0, 7.5, 10**300),
    "alpha": (-1.0, 0.0, 60.0, math.inf),
    "small_se": (-1.0, math.inf),
    "band": (-5.0, 1e308, math.inf),
    "small_radius": (-1.0, 1e200, math.inf),
}


def _hostile_grid(rng):
    """A grid of 1 to 3 axes and up to about 500 points, on a 1e-6 m Shannon
    small cell or the default one, where each axis holds one or two bad
    values with probability one half, among good values drawn at random."""
    base = rng.choice((CENTRAL, DIST))
    if rng.random() < 0.5:
        base = replace(base, small=replace(SHANNON, radius_m=1e-6))
    count = "n_small" if isinstance(base.architecture, Central) else "k_cluster"
    names = rng.sample([count, "alpha", "small_se", "band", "small_radius"], rng.randint(1, 3))
    size = {1: 500, 2: 22, 3: 8}[len(names)]
    good = {count: lambda: rng.randrange(1, 2000), "alpha": lambda: rng.uniform(2.0, 4.0),
            "small_se": lambda: rng.uniform(0.0, 10.0), "band": lambda: rng.uniform(1e9, 1e11),
            "small_radius": lambda: rng.uniform(10.0, 200.0)}
    axes = []
    for name in names:
        values = {good[name]() for _ in range(rng.randint(1, size - 2))}
        if rng.random() < 0.5:
            values.update(rng.sample(_BAD[name], rng.randint(1, 2)))
        axes.append((name, tuple(sorted(values))))
    return SweepGrid(base, tuple(axes))


def test_hostile_grids_of_hundreds_of_points_match_standalone_evaluation():
    rng = random.Random(18)
    for _ in range(150):
        grid = _hostile_grid(rng)
        assert _swept(grid) == _standalone(grid), grid


# ---------------------------------------------------------------------------
# The kernels on the grid's columns against the kernels on points, bit for bit
# ---------------------------------------------------------------------------

# ints past 2**53, which a float64 rounds, and floats, on the float axes
_NUMBERS = st.one_of(st.integers(1, 2**70), st.floats(1e-3, 1e12))


def _kernel_axis(values, place, swept):
    """The object array of values along dimension place of 3, as a sweep
    holds an axis's numbers, or the first value alone where not swept."""
    return sweep_report._along(values, place, 3) if swept else values[0]


def _expect(kernel, args, dims):
    """kernel at each point of dims, from the Python numbers of args."""
    def at(index, a):
        if not isinstance(a, np.ndarray):
            return a
        return a[tuple(i if n > 1 else 0 for i, n in zip(index, a.shape))]
    return [kernel(*(at(index, a) for a in args)) for index in np.ndindex(*dims)]


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_the_column_kernels_equal_the_scalar_kernels_bit_for_bit(data):
    draw = data.draw
    anchor = TxAnchor(draw(_NUMBERS), draw(_NUMBERS), draw(_NUMBERS),
                      draw(st.sampled_from((0, 2, 2.0, 3.7, 1e4))))
    # a calibration of 5e-324 makes 2**c - 1 == 0, and 0 * inf a NaN; one
    # of 1100 makes 2**c overflow
    source = ShannonEdgeSE(draw(st.sampled_from((5e-324, 1.0, 5, 30.0, 1100.0))),
                           draw(_NUMBERS))
    radius, band = draw(st.lists(_NUMBERS, min_size=1, max_size=4)), draw(
        st.lists(_NUMBERS, min_size=1, max_size=4))
    alpha = draw(st.lists(st.one_of(st.integers(1, 6), st.floats(0.5, 6.0)), min_size=1,
                          max_size=4))
    swept = [draw(st.booleans()) for _ in range(3)]
    overflow = draw(st.booleans())
    if overflow:
        # an exponent whose powers overflow, at a random place, with a radius
        # twice the anchor's and half the reference radius; a band half the
        # anchor's, whose power may underflow to 0
        alpha.insert(draw(st.integers(0, len(alpha))), 1e4)
        radius += [anchor.radius_m * 2, source.ref_radius_m / 2]
        band.insert(draw(st.integers(0, len(band))), anchor.carrier_hz / 2)
        swept[0] = swept[2] = True
    r, f, a = (_kernel_axis(v, place, on)
               for place, (v, on) in enumerate(zip((radius, band, alpha), swept)))
    dims = tuple(len(v) if on else 1 for v, on in zip((radius, band, alpha), swept))
    # each kernel with the grid's power and logarithm, against itself with
    # the scalar defaults at each point
    for kernel, args, column in (
            (power_energy._tx, (r, f, a, anchor), (sweep_report._power,)),
            (link_model._se, (source, r, a), (sweep_report._power, sweep_report._log2))):
        with np.errstate(all="ignore"):
            got = kernel(*args, *column)
        got = np.broadcast_to(got, dims).ravel().tolist()
        want = _expect(kernel, args, dims)
        assert [float(x).hex() for x in got] == [float(x).hex() for x in want]
        if overflow:
            assert not all(map(math.isfinite, want))


def test_the_column_kernels_equal_the_scalar_kernels_on_many_points():
    # pow and log2 by numpy's float64 loops differ from libm's in the last
    # bit of a few elements in 10**5 on some hosts
    rng = np.random.default_rng(25)
    n = 2 * 10**5
    radius, alpha = rng.uniform(1.0, 400.0, n), rng.uniform(2.0, 4.5, n)
    along = [sweep_report._along(v.tolist(), 0, 1) for v in (radius, alpha)]
    anchor, source = TxAnchor(), ShannonEdgeSE(5.0, 50.0)
    columns = (power_energy._tx(along[0], 5.8e9, along[1], anchor, sweep_report._power),
               link_model._se(source, *along, sweep_report._power, sweep_report._log2))
    scalars = (lambda r, a: power_energy._tx(r, 5.8e9, a, anchor),
               lambda r, a: link_model._se(source, r, a))
    for got, scalar in zip(columns, scalars):
        assert got.tolist() == list(map(scalar, radius.tolist(), alpha.tolist()))


def _pow_or_inf(base, exponent):
    try:
        return pow(base, exponent)
    except OverflowError:
        return math.inf


def test_float_power_is_python_pow_bit_for_bit():
    # the sweep's kernels take their powers from np.float_power, whose float64
    # loop calls libm's pow, as Python's pow does; a numpy that vectorizes it
    # fails here by name, not only as a sweep row that differs in its last bit
    rng = np.random.default_rng(29)
    n, m = 2 * 10**5, 2 * 10**4
    base, exponent = 10.0 ** rng.uniform(-3, 3, n), rng.uniform(0, 30, n)
    # and pairs around the edges where a power overflows or underflows
    edge = 10.0 ** rng.choice((-1, 1), m) * 10.0 ** rng.uniform(0, 2, m)
    target = np.where(edge > 1, 1024, -1074) * math.log(2) / np.log(edge)
    base = np.concatenate((base, edge))
    exponent = np.concatenate((exponent, target * rng.uniform(0.98, 1.02, m)))
    with np.errstate(over="ignore"):
        got = np.float_power(base, exponent).tolist()
    want = list(map(_pow_or_inf, base.tolist(), exponent.tolist()))
    assert [g.hex() for g in got] == [w.hex() for w in want]
    assert 1000 < want.count(math.inf) < m and got.count(0.0) > 1000


@settings(max_examples=100, deadline=None)
@given(st.lists(st.sampled_from((-0.0, 0.25, 1, 2, 7.5, 2**60 + 1)), min_size=1, max_size=4),
       st.lists(_NUMBERS, min_size=1, max_size=4))
def test_number_axes_of_ints_and_floats_match_standalone_evaluation(se, bands):
    # an int carrier, so that an int band is divided by it as an int by an int
    base = replace(CENTRAL, tx_anchor=TxAnchor(carrier_hz=3))
    grid = SweepGrid(base, (("small_se", tuple(sorted(set(se)))),
                            ("band", tuple(sorted(set(bands))))))
    assert _swept(grid) == _standalone(grid)


# ---------------------------------------------------------------------------
# Sweep writer: sweep_text against plain row writers over run_sweep's rows,
# which share no code with it
# ---------------------------------------------------------------------------

def _csv_oracle(grid, rows):
    """The CSV of rows: a %d template per count cell, %.17e per other cell."""
    cells = ["%d" if AXES[n].arch else "%.17e" for n in grid.axis_names] + ["%.17e"] * 3
    lines = [",".join(grid.axis_names + sweep_report.VALUE_COLUMNS)]
    return "\n".join(lines + [",".join(c % v for c, v in zip(cells, row)) for row in rows]) + "\n"


def _json_oracle(grid, rows):
    """The JSON of rows: json_text of one object per row, a count as an int."""
    names = grid.axis_names + sweep_report.VALUE_COLUMNS
    types = [int if AXES[n].arch else float for n in grid.axis_names] + [float] * 3
    return sweep_report.json_text([{n: t(v) for n, t, v in zip(names, types, row)}
                                   for row in rows])


def _text_or_error(write):
    try:
        return write()
    except ValidationError as e:
        return f"error: {e}"


def _piece_edge_grids():
    """(id, grid): grids of 1, 2047, 2048, 2049 and 4097 points around the
    writer's pieces of 2048 rows, with one float axis, and with two whose
    product they are, so that the throughput reads small_se alone, the
    energy alpha alone and the efficiency both."""
    for points, outer in ((1, 1), (2047, 23), (2048, 32), (2049, 3), (4097, 17)):
        yield f"{points}-points", SweepGrid(CENTRAL, (("alpha", _spaced(2.0, points)),))
        yield f"{points}-points-two-axes", SweepGrid(CENTRAL, (
            ("small_se", _spaced(0.5, outer)), ("alpha", _spaced(2.0, points // outer))))
    # a count column with a value per row
    yield "2049-counts", SweepGrid(CENTRAL, (("n_small", tuple(range(2049))),))
    # 682142176573.0546875 and (2**52 + 1) / 16 are exact ties at digit 18 of %.17e
    yield "ties-and-neg-zero", SweepGrid(DIST, (
        ("small_se", (-0.0, 0.5, 682142176573.0546875, (2**52 + 1) / 16)),
        ("band", (5.8e9, (2**52 + 1) / 16))))


def _spaced(start, n):
    return tuple(start + i / 1024 for i in range(n))


@pytest.mark.parametrize("grid", [
    SweepGrid(CENTRAL, (("small_se", (-0.0, 1.0)), ("n_small", (0, 2**53 + 1)))),
    SweepGrid(DIST, (("alpha", (2, 3)), ("k_cluster", (1, 10**30)))),
    *map(figure_grid, FIGURES),
    *(grid for _, grid in _piece_edge_grids()),
], ids=["neg-zero-and-2**53+1", "int-floats-and-1e30", *FIGURES,
        *(name for name, _ in _piece_edge_grids())])
def test_sweep_text_bytes_equal_the_plain_row_writers(grid):
    rows = run_sweep(grid)
    assert sweep_text(grid, "csv") == _csv_oracle(grid, rows)
    assert sweep_text(grid, "json") == _json_oracle(grid, rows)


@pytest.mark.parametrize("fmt,kernel", [("csv", "e17_fields"), ("json", "repr_fields")])
def test_sweep_text_makes_one_kernel_call_per_piece(fmt, kernel, monkeypatch):
    # 27 000 rows, whose throughput reads n_small and small_se, and whose
    # energy n_small and band: 9 000 values each, which spread over the
    # first calls, beside the efficiency's value per row
    grid = SweepGrid(CENTRAL, (parse_axis("n_small=0:2999:1"), ("small_se", (1.0, 2.5, 7.5)),
                               ("band", (5.8e9, 28e9, 60e9))))
    sizes, real = [], getattr(_kernels, kernel)
    monkeypatch.setattr(_kernels, kernel, lambda x: sizes.append(x.size) or real(x))
    text = sweep_text(grid, fmt)
    floats = [c.size for c in sweep_report._sweep_columns(grid)[1][1:]]   # n_small is %d text
    assert floats == [3, 3, 9000, 9000, 27000]
    assert len(sizes) == -(-27000 // _kernels._PIECE)
    # at most a piece of values a column, and each value formatted once
    assert max(sizes) <= len(floats) * _kernels._PIECE
    assert sum(sizes) == sum(floats)
    assert text == {"csv": _csv_oracle, "json": _json_oracle}[fmt](grid, run_sweep(grid))


class _Count(enum.IntEnum):
    A = 3
    B = 5


class _Alpha(float):
    def __repr__(self):
        return f"_Alpha({float(self)!r})"


# axis values of int and float subclasses, and the plain numbers they equal
_SUBCLASS_AXES = (("n_small", (_Count.A, _Count.B)), ("alpha", (_Alpha(3.0), 3.1)))
_PLAIN_AXES = (("n_small", (3, 5)), ("alpha", (3.0, 3.1)))


def test_sweep_json_of_an_int_enum_count_holds_plain_ints():
    grid = SweepGrid(CENTRAL, _SUBCLASS_AXES[:1] + _PLAIN_AXES[1:])
    text = sweep_text(grid, "json")
    assert text == sweep_text(SweepGrid(CENTRAL, _PLAIN_AXES), "json")
    assert [row["n_small"] for row in json.loads(text)] == [3, 3, 5, 5]


def test_sweep_rows_of_an_int_enum_count_hold_plain_ints():
    rows = run_sweep(SweepGrid(CENTRAL, _SUBCLASS_AXES[:1]))
    assert rows == run_sweep(SweepGrid(CENTRAL, _PLAIN_AXES[:1]))
    assert [type(row[0]) for row in rows] == [int, int]


def test_sweep_rows_and_text_of_a_float_subclass_hold_plain_floats():
    grid = SweepGrid(CENTRAL, _PLAIN_AXES[:1] + _SUBCLASS_AXES[1:])
    plain = SweepGrid(CENTRAL, _PLAIN_AXES)
    rows = run_sweep(grid)
    assert [tuple(map(type, row[:2])) for row in rows] == [(int, float)] * 4
    assert rows == run_sweep(plain)
    assert [sweep_text(grid, fmt) for fmt in ("csv", "json")] \
        == [sweep_text(plain, fmt) for fmt in ("csv", "json")]


@settings(max_examples=100, deadline=None)
@given(_grids())
def test_sweep_text_equals_the_plain_row_writers_of_run_sweep(grid):
    # a grid with a bad point raises the same error through both paths
    for fmt, oracle in (("csv", _csv_oracle), ("json", _json_oracle)):
        want = _text_or_error(lambda: oracle(grid, run_sweep(grid)))
        assert _text_or_error(lambda: sweep_text(grid, fmt)) == want


@pytest.mark.parametrize("case", SWEEP_CASES)
@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_sweep_text_of_each_sweep_case_equals_the_plain_row_writer(fmt, case):
    # a hostile case raises the first error of standalone evaluation
    grid = SweepGrid(*SWEEP_CASES[case])
    oracle = {"csv": _csv_oracle, "json": _json_oracle}[fmt]
    want = _text_or_error(lambda: oracle(grid, run_sweep(grid)))
    assert _text_or_error(lambda: sweep_text(grid, fmt)) == want
    standalone = _standalone(grid)
    if isinstance(standalone, str):
        assert want == f"error: {standalone}"


@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
def test_json_text_rejects_non_finite_numbers(bad):
    with pytest.raises(ValidationError, match="^output: Out of range float values are not "
                                              "JSON compliant"):
        sweep_report.json_text([{"alpha": 3.0, "system_energy_j": bad}])


# ---------------------------------------------------------------------------
# Range axes: parse_axis's arrays against the values of one Python step each
# ---------------------------------------------------------------------------

_MAX_FLOAT = 1.7976931348623157e308


def _stepped(spec):
    """The values of a range spec as a Python step each gives them: start,
    then start + i * step, over the count that parse_axis takes."""
    name, _, rhs = spec.partition("=")
    integer = AXES[name].arch is not None
    start, stop, step = (int(t) if integer else float(t) for t in rhs.split(":"))
    steps = (stop - start) // step if integer else (stop - start) / step + 1e-9
    count = math.floor(min(steps, MAX_POINTS)) + 1 if steps >= 0 else 0
    return tuple(start + i * step if i else start for i in range(count))


def _range_specs(rng):
    """Random range specs, then fixed ones at the edges: values that round to
    inf or repeat near 1e308, MAX_POINTS and one more, ints past int64."""
    for _ in range(500):
        if rng.random() < 0.2:
            start, step = rng.randint(-50, 50), rng.randint(1, 30)
            yield f"n_small={start}:{start + rng.randint(-1, 3000) * step}:{step}"
            continue
        name = rng.choice(("alpha", "small_se", "band", "small_radius"))
        start = rng.choice((-0.0, 0.0, rng.uniform(-1e3, 1e3),
                            rng.choice((-1, 1)) * rng.uniform(0.9, 1.79) * 1e308))
        step = 10 ** rng.uniform(-8, 3) if abs(start) < 1e300 or rng.random() < 0.5 \
            else 10 ** rng.uniform(285, 307)
        stop = start + rng.randint(0, 3000) * step + rng.choice((0.0, 0.5 * step))
        yield f"{name}={start!r}:{min(stop, _MAX_FLOAT)!r}:{step!r}"
    yield f"small_se={_MAX_FLOAT - 3e307 + 1e297!r}:{_MAX_FLOAT!r}:1e307"
    yield f"alpha=1e308:{math.nextafter(1e308, math.inf)!r}:1e290"
    yield "alpha=-0.0:1:0.25"
    for name in ("alpha", "n_small"):
        yield f"{name}=0:{MAX_POINTS - 1}:1"
        yield f"{name}=0:{MAX_POINTS}:1"
    yield f"n_small={2**63 - 1000}:{2**63 + 3000}:100"
    yield f"n_small={-2**63 - 900}:{-2**63 + 99}:100"
    yield f"n_small=0:{2**64}:{2**64}"
    yield "n_small=5:4:1"


def _grid_or_error(axes):
    try:
        return SweepGrid(CENTRAL, axes)
    except ValidationError as e:
        return str(e)


def test_range_axes_equal_the_values_of_a_python_step_each():
    seen = set()
    for spec in _range_specs(random.Random(31)):
        want = _stepped(spec)
        if len(want) > MAX_POINTS:
            with pytest.raises(ValidationError, match=f"more than {MAX_POINTS} values"):
                parse_axis(spec)
            continue
        name, values = parse_axis(spec)
        if isinstance(values, tuple):   # a count axis past int64: exact ints
            assert not -2**63 <= min(want) <= max(want) < 2**63, spec
            assert values == want and {type(v) for v in values} == {int}, spec
            seen.add("past-int64")
            continue
        integer = AXES[name].arch is not None
        assert values.dtype == (np.int64 if integer else np.float64) and not values.flags.writeable
        got = values.tolist()
        assert [v if integer else v.hex() for v in got] == \
            [v if integer else v.hex() for v in want], spec
        if len(want) > 3000:
            continue
        # the grid and its sweep take the array as they take the tuple
        grid, plain = _grid_or_error(((name, values),)), _grid_or_error(((name, want),))
        if isinstance(plain, str):
            assert grid == plain, spec
            seen.add(plain.partition(": ")[2])
        else:
            assert _swept(grid) == _swept(plain), spec
            seen.update(("-0.0" if math.copysign(1.0, want[0]) < 0 else "values",
                         "inf" if math.inf in want else "finite"))
    assert {"past-int64", "-0.0", "inf", "values must be strictly increasing",
            "values must be non-empty"} <= seen


# (grid, the sizes of its value columns: throughput, energy, efficiency)
COLUMN_CASES = {
    # a fixed SE: the throughput reads no band
    "constant-throughput": (SweepGrid(CENTRAL, (("band", (5.8e9, 28e9, 60e9)),)), (1, 3, 3)),
    # the energy reads no small-cell SE
    "constant-energy": (SweepGrid(CENTRAL, (("small_se", (1.0, 2.5, 7.5)),)), (3, 1, 3)),
    # the energy reads axes 0 and 2, the throughput axes 1 and 2
    "axes-0-and-2": (SweepGrid(CENTRAL, (("alpha", (2.5, 3.0)), ("small_se", (1.0, 2.0, 5.0)),
                                         ("n_small", (0, 7, 40, 400)))), (12, 8, 24)),
    "ints-on-a-float-axis": (SweepGrid(CENTRAL, (("alpha", (2, 3)), ("band", (6000000000, 28e9)))),
                             (1, 4, 4)),
    "negative-zero-start": (SweepGrid(CENTRAL, (("small_se", (-0.0, 1.0)), ("n_small", (0, 2)))),
                            (4, 2, 4)),
    "counts-above-2**53": (SweepGrid(DIST, (("k_cluster", (1, 2**53 + 1, 10**30)),
                                            ("band", (5.8e9, 60e9)))), (3, 6, 6)),
}


@pytest.mark.parametrize("case", COLUMN_CASES)
def test_sweep_text_of_compact_columns_equals_the_row_bytes(case):
    grid, sizes = COLUMN_CASES[case]
    shape, columns = sweep_report._sweep_columns(grid)
    assert tuple(c.size for c in columns[len(shape):]) == sizes
    rows = run_sweep(grid)
    assert sweep_text(grid, "csv") == _csv_oracle(grid, rows)
    assert sweep_text(grid, "json") == _json_oracle(grid, rows)


def test_sweep_text_writes_each_case_of_an_axis_value():
    grid = COLUMN_CASES["ints-on-a-float-axis"][0]
    assert json.loads(sweep_text(grid, "json"))[0]["alpha"] == 2.0
    assert '"alpha": 2.0,' in sweep_text(grid, "json")
    grid = COLUMN_CASES["negative-zero-start"][0]
    assert sweep_text(grid, "csv").split("\n")[1].startswith("-0.00000000000000000e+00,0,")
    assert '"small_se": -0.0,' in sweep_text(grid, "json")
    grid = COLUMN_CASES["counts-above-2**53"][0]
    assert "\n9007199254740993," in sweep_text(grid, "csv")
    assert '"k_cluster": 9007199254740993,' in sweep_text(grid, "json")


def test_sweep_text_rejects_an_unknown_format():
    with pytest.raises(ValidationError, match="^format: expected 'csv' or 'json', got 'xml'"):
        sweep_text(SweepGrid(CENTRAL, (("alpha", (3.0,)),)), "xml")


def test_the_cli_writes_sweeps_and_figures_without_building_rows(tmp_path, capsys, monkeypatch):
    config = tmp_path / "central.json"
    config.write_text(serialize_scenario(CENTRAL))
    grid = SweepGrid(CENTRAL, (sweep_report.parse_axis("small_se=1:3:0.5"),
                               sweep_report.parse_axis("n_small=0:40:8")))
    rows = run_sweep(grid)
    want = {"csv": _csv_oracle(grid, rows), "json": _json_oracle(grid, rows)}
    figure = _json_oracle(figure_grid("fig4a"), run_sweep(figure_grid("fig4a")))

    def unexpected(grid):
        raise AssertionError("the CLI built the rows of a sweep")
    monkeypatch.setattr(sweep_report, "run_sweep", unexpected)
    for fmt in ("csv", "json"):
        argv = ["sweep", "--config", str(config), "--axis", "small_se=1:3:0.5",
                "--axis", "n_small=0:40:8", "--format", fmt, "--stdout"]
        assert cli.main(argv) == 0
        assert capsys.readouterr().out == want[fmt]
    assert cli.main(["figures", "--which", "fig4a", "--format", "json", "--stdout"]) == 0
    assert capsys.readouterr().out == figure
    out = tmp_path / "out.csv"
    assert cli.main(["sweep", "--config", str(config), "--axis", "small_se=1:3:0.5",
                     "--axis", "n_small=0:40:8", "--out", str(out)]) == 0
    assert capsys.readouterr().out.startswith("swept 30 points over small_se+n_small; ")
    assert out.read_text() == want["csv"]
    assert cli.main(["figures", "--which", "fig4a", "--out", str(tmp_path)]) == 0
    assert capsys.readouterr().out.endswith(" (123 rows)\n")


# ---------------------------------------------------------------------------
# A caller's own arrays: kept as read-only copies, on the array path
# ---------------------------------------------------------------------------

def _writable(values):
    """values as a writable float64 or int64 array where they are an array, or
    plain floats, or plain ints that fit int64; else None."""
    kinds = set(map(type, values.tolist() if isinstance(values, np.ndarray) else values))
    if kinds == {float} or kinds == {int} and -2**63 <= min(values) <= max(values) < 2**63:
        return np.array(values, dtype=float if kinds == {float} else np.int64)
    return None


def _texts(base, axes):
    """The CSV and JSON of the grid, or the error that ends either."""
    try:
        grid = SweepGrid(base, axes)
    except ValidationError as e:
        return f"error: {e}"
    return [_text_or_error(lambda: sweep_text(grid, fmt)) for fmt in ("csv", "json")]


_HOSTILE_ARRAYS = {
    "nan": (CENTRAL, (("alpha", (3.0, math.nan, 3.5)),)),
    "nan-first": (CENTRAL, (("alpha", (math.nan, 3.0)),)),
    "unordered": (CENTRAL, (("alpha", (3.5, 3.0)),)),
    "repeated": (CENTRAL, (("small_se", (1.0, 1.0)),)),
    "negative-count": (CENTRAL, (("n_small", (-3, 4)),)),
    "zero-cluster": (DIST, (("k_cluster", (0, 1)),)),
    "float-count": (CENTRAL, (("n_small", (1.0, 2.0)),)),
    "int-alpha": (CENTRAL, (("alpha", (2, 3, 2**62)),)),
}


@pytest.mark.parametrize("case", [case for case, (_, axes) in {**SWEEP_CASES, **_HOSTILE_ARRAYS}
                                  .items() if any(_writable(v) is not None for _, v in axes)])
def test_a_writable_array_axis_ends_as_its_read_only_twin(case):
    base, axes = SWEEP_CASES.get(case) or _HOSTILE_ARRAYS[case]
    arrays = {name: _writable(values) for name, values in axes}

    def given(make):
        return tuple((name, values if arrays[name] is None else make(arrays[name]))
                     for name, values in axes)

    def read_only(array):
        array = array.copy()
        array.flags.writeable = False
        return array

    want = _texts(base, given(read_only))
    # the caller's array, and a view of a longer one, as a caller's slice is
    for mine in (given(np.copy), given(lambda a: np.concatenate((a[:1], a))[1:])):
        assert _texts(base, mine) == want, case
        if isinstance(want, str):
            continue
        grid = SweepGrid(base, mine)
        for (_, kept), (_, values) in zip(grid.axes, mine):
            if isinstance(values, np.ndarray):   # a read-only copy, on the array path
                assert isinstance(kept, np.ndarray) and not kept.flags.writeable
                assert kept.base is None and np.array_equal(kept, values, equal_nan=True)
                values[...] = values[::-1]   # a later write to the caller's array
        assert [_text_or_error(lambda: sweep_text(grid, fmt)) for fmt in ("csv", "json")] \
            == want, case
    assert "np." not in str(want)


@pytest.mark.parametrize("spec", [
    "n_small=0:1000:25",
    f"n_small={2**63 - 2049}:{2**63 - 1}:1",          # up to the int64 limit
    f"n_small={2**63 - 1000}:{2**63 + 3000}:100",     # past it: a tuple of ints
    f"k_cluster=1:{2**63 - 1}:{2**62}",
])
def test_a_count_range_writes_the_bytes_of_its_tuple(spec):
    name, values = parse_axis(spec)
    base = CENTRAL if name == "n_small" else DIST
    grid = SweepGrid(base, ((name, values), ("small_se", (1.0, 2.5))))
    plain = SweepGrid(base, ((name, tuple(values.tolist()) if isinstance(values, np.ndarray)
                              else values), ("small_se", (1.0, 2.5))))
    assert isinstance(values, np.ndarray) == (max(_stepped(spec)) < 2**63)
    rows = run_sweep(plain)
    for fmt, oracle in (("csv", _csv_oracle), ("json", _json_oracle)):
        assert sweep_text(grid, fmt) == sweep_text(plain, fmt) == oracle(plain, rows)
