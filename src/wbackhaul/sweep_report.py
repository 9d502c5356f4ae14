"""Parameter-sweep engine, preset figure datasets, and the calibration report.

A sweep is a base scenario plus an ordered tuple of named axes; it
records throughput, system energy, and efficiency at every point of the
axes' cross product, the first axis varying slowest.  The figure
presets reproduce the qualitative curves the model is known for:
throughput vs. cell count, efficiency vs. cell count per band, and
efficiency vs. path loss exponent per small-cell radius.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass, replace
from typing import Callable, NamedTuple

from . import power_energy
from .scenario import (
    DEFAULT_TX_ANCHOR,
    Central,
    ConfigError,
    Distribution,
    FixedSE,
    ScenarioConfig,
    ShannonEdgeSE,
    ValidationError,
    default_table1,
)


class Axis(NamedTuple):
    """Everything a sweep needs to know about one named axis."""

    arch: type | None   # architecture the base scenario must have, if any
    integer: bool       # a station count: integer grid values and output cells
    apply: Callable[[ScenarioConfig, object], ScenarioConfig]


AXES = {
    "n_small": Axis(Central, True,
                    lambda cfg, v: replace(cfg, architecture=Central(v))),
    "k_cluster": Axis(Distribution, True,
                      lambda cfg, v: replace(cfg, architecture=Distribution(v))),
    "alpha": Axis(None, False, lambda cfg, v: replace(cfg, alpha=v)),
    "small_se": Axis(None, False, lambda cfg, v: replace(
        cfg, small=replace(cfg.small, spectrum_eff=FixedSE(v)))),
    "band": Axis(None, False, lambda cfg, v: replace(cfg, band_hz=v)),
    "small_radius": Axis(None, False, lambda cfg, v: replace(
        cfg, small=replace(cfg.small, radius_m=v))),
}

# Largest grid a sweep builds, per axis and over the whole cross product.
MAX_POINTS = 10**6

# The carrier bands of the published calibration table; also the curve
# families of the fig4 datasets.
BANDS_HZ = (5.8e9, 28e9, 60e9)

# Curve-family presets for the figure datasets.
FIG3_SE_VALUES = (1.0, 2.5, 5.0, 7.5, 10.0)
FIG5_RADII_M = (20.0, 30.0, 40.0, 50.0, 75.0, 100.0)
FIG5_ALPHA_RANGE = (2.5, 4.0)


def _axis_pair(axis) -> tuple:
    """(name, tuple of values) of one axis, or a ValidationError naming it."""
    try:
        name, values = axis
        return name, tuple(values)
    except (TypeError, ValueError):
        raise ValidationError(f"axis {axis!r}: must be a (name, values) pair") from None


@dataclass(frozen=True)
class SweepGrid:
    """A base scenario and the (name, values) axes swept over it, first slowest."""

    base: ScenarioConfig
    axes: tuple

    def __post_init__(self):
        try:
            axes = iter(self.axes)
        except TypeError:
            raise ValidationError(
                f"axes: must be a tuple of (name, values) pairs, got {self.axes!r}") from None
        object.__setattr__(self, "axes", tuple(_axis_pair(a) for a in axes))
        if not self.axes:
            raise ValidationError("axes: at least one axis is required")
        for i, (name, values) in enumerate(self.axes):
            axis = AXES.get(name) if isinstance(name, str) else None
            if axis is None:
                raise ValidationError(
                    f"axis: unknown axis {name!r}, expected one of {tuple(AXES)}")
            if len(values) == 0:
                raise ValidationError(f"axis {name}: values must be non-empty")
            try:
                unordered = any(b <= a for a, b in zip(values, values[1:]))
            except TypeError:   # values of types that do not compare
                raise ValidationError(f"axis {name}: values must be numbers") from None
            if unordered:
                raise ValidationError(f"axis {name}: values must be strictly increasing")
            if axis.arch is not None and not isinstance(self.base.architecture, axis.arch):
                raise ValidationError(
                    f"axis {name}: base scenario must be {axis.arch.__name__.lower()}")
            if name in self.axis_names[:i]:
                raise ValidationError(f"axis {name}: given more than once")
        points = math.prod(len(values) for _, values in self.axes)
        if points > MAX_POINTS:
            raise ValidationError(f"axes: {points} grid points, at most {MAX_POINTS}")

    @property
    def axis_names(self) -> tuple[str, ...]:
        return tuple(name for name, _ in self.axes)


@dataclass(frozen=True)
class SweepRow:
    """Evaluation of one grid point; axis_values follow grid.axis_names."""

    axis_values: tuple
    throughput_bps: float
    system_energy_j: float
    efficiency: float


def apply_axis(cfg: ScenarioConfig, name: str, value) -> ScenarioConfig:
    """Base scenario with one named parameter replaced by value."""
    if name not in AXES:
        raise ValidationError(f"axis: unknown axis {name!r}")
    try:
        return AXES[name].apply(cfg, value)
    except ConfigError as e:
        raise ValidationError(f"grid point {name}={value!r}: {e}") from e


def run_sweep(grid: SweepGrid) -> list[SweepRow]:
    """Evaluate every grid point, the first axis varying slowest; each axis
    value is applied once per point of the axes before it."""
    rows = []
    last = len(grid.axes) - 1

    def walk(cfg: ScenarioConfig, depth: int, point: tuple) -> None:
        name, values = grid.axes[depth]
        for v in values:
            at = apply_axis(cfg, name, v)
            if depth < last:
                walk(at, depth + 1, point + (v,))
                continue
            try:
                res = power_energy.efficiency(at)
            except ConfigError as e:
                raise ValidationError(f"grid point {name}={v!r}: {e}") from e
            rows.append(SweepRow(point + (v,), res.throughput_bps,
                                 res.system_energy_j, res.efficiency))

    walk(grid.base, 0, ())
    return rows


# ---------------------------------------------------------------------------
# Figure presets
# ---------------------------------------------------------------------------

_CENTRAL = ScenarioConfig(architecture=Central(100))
_DISTRIBUTION = ScenarioConfig(architecture=Distribution(10))
_SHANNON_SMALL = replace(_CENTRAL.small, spectrum_eff=ShannonEdgeSE(
    calibration_se=5.0, ref_radius_m=50.0))

_N = ("n_small", tuple(range(0, 1001, 25)))
_K = ("k_cluster", tuple(range(1, 101)))
_ALPHA = ("alpha", tuple(
    FIG5_ALPHA_RANGE[0] + i * 0.05
    for i in range(int(round((FIG5_ALPHA_RANGE[1] - FIG5_ALPHA_RANGE[0]) / 0.05)) + 1)))
_RADIUS = ("small_radius", FIG5_RADII_M)

_FIGURE_GRIDS = {
    "fig3a": SweepGrid(_CENTRAL, (_N, ("small_se", FIG3_SE_VALUES))),
    "fig3b": SweepGrid(_DISTRIBUTION, (_K, ("small_se", FIG3_SE_VALUES))),
    "fig4a": SweepGrid(_CENTRAL, (_N, ("band", BANDS_HZ))),
    "fig4b": SweepGrid(_DISTRIBUTION, (_K, ("band", BANDS_HZ))),
    "fig5a": SweepGrid(replace(_CENTRAL, small=_SHANNON_SMALL), (_ALPHA, _RADIUS)),
    "fig5b": SweepGrid(replace(_DISTRIBUTION, small=_SHANNON_SMALL), (_ALPHA, _RADIUS)),
}

FIGURES = tuple(_FIGURE_GRIDS)


def figure_grid(which: str) -> SweepGrid:
    """Preset sweep grid behind one of the named figure datasets."""
    if which not in FIGURES:
        raise ValidationError(f"figure: unknown dataset {which!r}, expected {FIGURES}")
    return _FIGURE_GRIDS[which]


def figure_dataset(which: str) -> list[SweepRow]:
    """Rows of the preset grid for the named figure dataset."""
    return run_sweep(figure_grid(which))


# ---------------------------------------------------------------------------
# Output formats
# ---------------------------------------------------------------------------

VALUE_COLUMNS = ("throughput_bps", "system_energy_j", "efficiency_bps_per_j")


def _float_cell(v) -> str:
    return format(float(v), ".17e")


def rows_to_csv(grid: SweepGrid, rows: list[SweepRow]) -> str:
    """CSV text: axis columns then the three value columns, LF line endings."""
    integer = [AXES[a].integer for a in grid.axis_names]
    lines = [",".join(grid.axis_names + VALUE_COLUMNS)]
    for row in rows:
        cells = [str(int(v)) if i else _float_cell(v)
                 for i, v in zip(integer, row.axis_values)]
        cells += [_float_cell(v) for v in
                  (row.throughput_bps, row.system_energy_j, row.efficiency)]
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


def rows_to_json(grid: SweepGrid, rows: list[SweepRow]) -> str:
    """JSON text mirroring the CSV rows as an array of objects."""
    axis_value = [(a, int if AXES[a].integer else float) for a in grid.axis_names]
    out = []
    for row in rows:
        obj = {a: cast(v) for (a, cast), v in zip(axis_value, row.axis_values)}
        obj["throughput_bps"] = row.throughput_bps
        obj["system_energy_j"] = row.system_energy_j
        obj["efficiency_bps_per_j"] = row.efficiency
        out.append(obj)
    return json.dumps(out, indent=2) + "\n"


# ---------------------------------------------------------------------------
# Calibration-table verification
# ---------------------------------------------------------------------------

# Published calibration cells this model must reproduce: transmit power
# (checked to +/-0.5%) and operating power (the published integers are
# floored values computed from the published rounded transmit powers).
_TABLE_TX_W = {
    "macro": {5.8e9: 10.0, 28e9: 233.0, 60e9: 1070.0},
    "small": {5.8e9: 6.3e-3, 28e9: 0.147, 60e9: 0.675},
}
_TABLE_OP_W = {
    "macro": {5.8e9: 568, 28e9: 5352, 60e9: 23305},
    "small": {5.8e9: 71, 28e9: 72, 60e9: 76},
}

TX_REL_TOL = 0.005


@dataclass(frozen=True)
class CellCheck:
    """One verified calibration cell."""

    label: str
    computed: float
    expected: float
    criterion: str
    passed: bool


@dataclass(frozen=True)
class Table1Report:
    checks: tuple[CellCheck, ...]

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    @property
    def n_passed(self) -> int:
        return sum(c.passed for c in self.checks)


def table1_report(alpha: float = 3.2,
                  anchor=DEFAULT_TX_ANCHOR) -> Table1Report:
    """Recompute every derivable calibration cell and compare.

    Returns a report with 12 checks (6 transmit-power, 6 operating-power);
    failures are entries, never exceptions.
    """
    checks = []
    for cell_class in ("macro", "small"):
        params = default_table1(cell_class)
        for band_hz in BANDS_HZ:
            ghz = band_hz / 1e9
            tx = power_energy.tx_power(params.radius_m, band_hz, alpha, anchor)
            tx_expected = _TABLE_TX_W[cell_class][band_hz]
            checks.append(CellCheck(
                label=f"{cell_class} P_TX @ {ghz:g} GHz",
                computed=tx, expected=tx_expected,
                criterion=f"within +/-{TX_REL_TOL:.1%}",
                passed=abs(tx - tx_expected) / tx_expected <= TX_REL_TOL))
            # The published operating powers round-trip only from the
            # published (rounded) transmit powers, then floor to watts.
            op = power_energy.operating_power(params.power_curve, tx_expected)
            op_expected = _TABLE_OP_W[cell_class][band_hz]
            checks.append(CellCheck(
                label=f"{cell_class} P_OP @ {ghz:g} GHz",
                computed=op, expected=float(op_expected),
                criterion="floor equals published integer",
                passed=math.floor(op) == op_expected))
    return Table1Report(checks=tuple(checks))
