"""Parameter-sweep engine, preset figure datasets, and the calibration report.

A sweep varies one named parameter of a base scenario (optionally
crossed with a second "curve family" parameter) and records throughput,
system energy, and efficiency at every grid point.  The figure presets
reproduce the qualitative curves the model is known for: throughput
vs. cell count, efficiency vs. cell count per band, and efficiency
vs. path loss exponent per small-cell radius.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass, replace

from . import power_energy
from .scenario import (
    DEFAULT_TX_ANCHOR,
    CellParams,
    Central,
    ConfigError,
    Distribution,
    FixedSE,
    FrequencyBand,
    ScenarioConfig,
    ShannonEdgeSE,
    ValidationError,
    default_table1,
)

AXES = ("n_small", "k_cluster", "alpha", "small_se", "band", "small_radius")

FIGURES = ("fig3a", "fig3b", "fig4a", "fig4b", "fig5a", "fig5b")

# The carrier bands of the published calibration table; also the curve
# families of the fig4 datasets.
BANDS_HZ = (5.8e9, 28e9, 60e9)

# Curve-family presets for the figure datasets.
FIG3_SE_VALUES = (1.0, 2.5, 5.0, 7.5, 10.0)
FIG5_RADII_M = (20.0, 30.0, 40.0, 50.0, 75.0, 100.0)
FIG5_ALPHA_RANGE = (2.5, 4.0)


@dataclass(frozen=True)
class SweepGrid:
    """One swept axis (plus optional curve-family axis) over a base scenario."""

    axis: str
    values: tuple
    base: ScenarioConfig
    secondary_axis: str | None = None
    secondary_values: tuple | None = None

    def __post_init__(self):
        object.__setattr__(self, "values", tuple(self.values))
        if self.secondary_values is not None:
            object.__setattr__(self, "secondary_values",
                               tuple(self.secondary_values))
        _check_axis(self.axis, self.values, self.base)
        if (self.secondary_axis is None) != (self.secondary_values is None):
            raise ValidationError(
                "secondary_axis and secondary_values: must be given together")
        if self.secondary_axis is not None:
            _check_axis(self.secondary_axis, self.secondary_values, self.base)
            if self.secondary_axis == self.axis:
                raise ValidationError("secondary_axis: must differ from axis")

    @property
    def axis_names(self) -> tuple[str, ...]:
        if self.secondary_axis is None:
            return (self.axis,)
        return (self.axis, self.secondary_axis)


@dataclass(frozen=True)
class SweepRow:
    """Evaluation of one grid point; axis_values follow grid.axis_names."""

    axis_values: tuple
    throughput_bps: float
    system_energy_j: float
    efficiency: float


def _check_axis(name: str, values, base: ScenarioConfig) -> None:
    if name not in AXES:
        raise ValidationError(f"axis: unknown axis {name!r}, expected one of {AXES}")
    if values is None or len(values) == 0:
        raise ValidationError(f"axis {name}: values must be non-empty")
    if any(b <= a for a, b in zip(values, values[1:])):
        raise ValidationError(f"axis {name}: values must be strictly increasing")
    if name == "n_small" and not isinstance(base.architecture, Central):
        raise ValidationError("axis n_small: base scenario must be central")
    if name == "k_cluster" and not isinstance(base.architecture, Distribution):
        raise ValidationError("axis k_cluster: base scenario must be distribution")


def apply_axis(cfg: ScenarioConfig, name: str, value) -> ScenarioConfig:
    """Base scenario with one named parameter replaced by value."""
    try:
        if name == "n_small":
            return replace(cfg, architecture=Central(value))
        if name == "k_cluster":
            return replace(cfg, architecture=Distribution(value))
        if name == "alpha":
            return replace(cfg, path_loss_alpha=value)
        if name == "small_se":
            return replace(cfg, small=replace(cfg.small, spectrum_eff=FixedSE(value)))
        if name == "band":
            return replace(cfg, band=FrequencyBand(value))
        if name == "small_radius":
            return replace(cfg, small=replace(cfg.small, radius_m=value))
    except ConfigError as e:
        raise ValidationError(f"grid point {name}={value!r}: {e}") from e
    raise ValidationError(f"axis: unknown axis {name!r}")


def run_sweep(grid: SweepGrid) -> list[SweepRow]:
    """Evaluate every grid point, ordered by (axis, secondary axis)."""
    rows = []
    for v in grid.values:
        cfg = apply_axis(grid.base, grid.axis, v)
        if grid.secondary_axis is None:
            rows.append(_evaluate_point(cfg, (v,), grid.axis, v))
        else:
            for w in grid.secondary_values:
                cfg2 = apply_axis(cfg, grid.secondary_axis, w)
                rows.append(_evaluate_point(cfg2, (v, w), grid.secondary_axis, w))
    return rows


def _evaluate_point(cfg, axis_values, last_axis, last_value) -> SweepRow:
    try:
        res = power_energy.efficiency(cfg)
    except ConfigError as e:
        raise ValidationError(f"grid point {last_axis}={last_value!r}: {e}") from e
    return SweepRow(axis_values=axis_values, throughput_bps=res.throughput_bps,
                    system_energy_j=res.system_energy_j, efficiency=res.efficiency)


# ---------------------------------------------------------------------------
# Figure presets
# ---------------------------------------------------------------------------

def _central_base() -> ScenarioConfig:
    return ScenarioConfig(architecture=Central(100))


def _distribution_base() -> ScenarioConfig:
    return ScenarioConfig(architecture=Distribution(10))


def _shannon_small(cell: CellParams) -> CellParams:
    return replace(cell, spectrum_eff=ShannonEdgeSE(calibration_se=5.0,
                                                    ref_radius_m=50.0))


def figure_grid(which: str) -> SweepGrid:
    """Preset sweep grid behind one of the named figure datasets."""
    lo, hi = FIG5_ALPHA_RANGE
    alphas = tuple(lo + i * 0.05 for i in range(int(round((hi - lo) / 0.05)) + 1))
    if which == "fig3a":
        return SweepGrid("n_small", tuple(range(0, 1001, 25)), _central_base(),
                         "small_se", FIG3_SE_VALUES)
    if which == "fig3b":
        return SweepGrid("k_cluster", tuple(range(1, 101)), _distribution_base(),
                         "small_se", FIG3_SE_VALUES)
    if which == "fig4a":
        return SweepGrid("n_small", tuple(range(0, 1001, 25)), _central_base(),
                         "band", BANDS_HZ)
    if which == "fig4b":
        return SweepGrid("k_cluster", tuple(range(1, 101)), _distribution_base(),
                         "band", BANDS_HZ)
    if which == "fig5a":
        base = _central_base()
        base = replace(base, small=_shannon_small(base.small))
        return SweepGrid("alpha", alphas, base, "small_radius", FIG5_RADII_M)
    if which == "fig5b":
        base = _distribution_base()
        base = replace(base, small=_shannon_small(base.small))
        return SweepGrid("alpha", alphas, base, "small_radius", FIG5_RADII_M)
    raise ValidationError(f"figure: unknown dataset {which!r}, expected {FIGURES}")


def figure_dataset(which: str) -> list[SweepRow]:
    """Rows of the preset grid for the named figure dataset."""
    return run_sweep(figure_grid(which))


# ---------------------------------------------------------------------------
# Output formats
# ---------------------------------------------------------------------------

VALUE_COLUMNS = ("throughput_bps", "system_energy_j", "efficiency_bps_per_j")

_INT_AXES = {"n_small", "k_cluster"}


def _format_number(axis: str | None, v) -> str:
    if axis in _INT_AXES:
        return str(int(v))
    return format(float(v), ".17e")


def rows_to_csv(grid: SweepGrid, rows: list[SweepRow]) -> str:
    """CSV text: axis columns then the three value columns, LF line endings."""
    header = ",".join(grid.axis_names + VALUE_COLUMNS)
    lines = [header]
    for row in rows:
        cells = [_format_number(a, v) for a, v in zip(grid.axis_names, row.axis_values)]
        cells += [_format_number(None, v) for v in
                  (row.throughput_bps, row.system_energy_j, row.efficiency)]
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


def rows_to_json(grid: SweepGrid, rows: list[SweepRow]) -> str:
    """JSON text mirroring the CSV rows as an array of objects."""
    out = []
    for row in rows:
        obj = {}
        for a, v in zip(grid.axis_names, row.axis_values):
            obj[a] = int(v) if a in _INT_AXES else float(v)
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
            band = FrequencyBand(band_hz)
            ghz = band_hz / 1e9
            tx = power_energy.tx_power(params.radius_m, band, alpha, anchor)
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
