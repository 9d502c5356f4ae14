"""Transmit power scaling, operating/embodied energy, and energy efficiency.

Transmit power is anchored: P_tx(r, f) = P0 * (r/r0)^alpha * (f/f0)^e
with (P0, r0, f0, e) from a TxAnchor.  Operating power is the linear
curve a * P_tx + b; energies are lifetime integrals plus embodied terms.
"""
from __future__ import annotations

import math

from . import traffic
from .scenario import (
    Architecture,
    CellParams,
    Central,
    EmbodiedAbsolute,
    EmbodiedRule,
    EnergyBreakdown,
    PowerCurve,
    ScenarioConfig,
    ThroughputBreakdown,
    TxAnchor,
    ValidationError,
    _check_positive,
    _check_type,
    _finite_total,
    _pow,
    _Value,
)


class EfficiencyResult(_Value):
    """Backhaul throughput per Joule of lifetime system energy, with the
    throughput and energy breakdowns it was computed from."""

    throughput: ThroughputBreakdown
    energy: EnergyBreakdown
    efficiency: float       # bit/s per Joule, throughput_bps / system_energy_j

    @property
    def throughput_bps(self) -> float:
        return self.throughput.total_bps

    @property
    def system_energy_j(self) -> float:
        return self.energy.system_total_j


def tx_power(radius_m: float, band_hz: float, alpha: float,
             anchor: TxAnchor) -> float:
    """Transmit power (W) needed to cover radius_m on the band_hz carrier.

    Scales the anchor power by (radius/anchor radius)^alpha for coverage
    and by (carrier/anchor carrier)^freq_exponent for the band; at the
    anchor's own radius and carrier it returns the anchor power exactly.
    """
    radius_m, band_hz, alpha = _check_positive(radius_m=radius_m, band_hz=band_hz, alpha=alpha)
    _check_type("anchor", anchor, TxAnchor, "a TxAnchor")
    return _finite_tx(radius_m, band_hz, alpha, anchor, "")


def _tx(radius_m, band_hz, alpha, anchor: TxAnchor, power=_pow):
    """The anchored transmit power, W, of checked arguments, with each power
    taken by power: _pow gives a float, inf or NaN where a power overflows
    a float; sweep_report._power gives the float64 column of the numbers
    in the object arrays among the arguments, equal to _pow's at each point."""
    return (anchor.power_w * power(radius_m / anchor.radius_m, alpha)
            * power(band_hz / anchor.carrier_hz, anchor.freq_exponent))


def _finite_tx(radius_m: float, band_hz: float, alpha: float, anchor: TxAnchor,
               cell: str) -> float:
    """_tx of checked arguments, or the error of a transmit power that
    overflows a float.  It names band_hz when the band factor is the larger
    one, else the radius_m of cell: "" for the library call, else the cell's
    JSON path and a dot.  The factors are compared by their logarithms,
    which never overflow."""
    p_tx = _tx(radius_m, band_hz, alpha, anchor)
    if math.isfinite(p_tx):
        return p_tx
    band = (anchor.freq_exponent * (math.log(band_hz) - math.log(anchor.carrier_hz))
            >= alpha * (math.log(radius_m) - math.log(anchor.radius_m)))
    raise ValidationError(
        f"{'band_hz' if band else cell + 'radius_m'}: transmit power overflows a float at "
        f"radius_m={radius_m!r}, alpha={alpha!r}, band_hz={band_hz!r}")


# The per-station helpers below take values of checked records (and the
# published calibration powers), so they check nothing themselves; those
# that return floats return columns of them when given columns (see
# sweep_report._grid_columns).
def _operating_power(curve: PowerCurve, tx_w: float) -> float:
    """Operating power draw (W) at the given transmit power."""
    return curve.slope_a * tx_w + curve.offset_b_w


def _embodied_energy(rule: EmbodiedRule, operating_j: float) -> float:
    """Manufacturing-plus-maintenance energy (J) for one station.

    A fractional rule f means embodied / (embodied + operating) == f,
    hence embodied = operating * f / (1 - f).
    """
    if isinstance(rule, EmbodiedAbsolute):
        return rule.init_j + rule.maint_j
    return operating_j * rule.fraction / (1.0 - rule.fraction)


def _lifetime_energy(cell: CellParams, tx_w: float) -> tuple[float, float, float]:
    """(P_op, operating J, embodied J) of one station of cell at the given
    transmit power, unchecked."""
    p_op = _operating_power(cell.power_curve, tx_w)
    e_op = p_op * cell.lifetime_s
    return p_op, e_op, _embodied_energy(cell.embodied, e_op)


def _station_energy(cell: CellParams, cfg: ScenarioConfig,
                    name: str) -> tuple[float, float]:
    """(operating_j, embodied_j) of one base station of the class name."""
    p_tx = _finite_tx(cell.radius_m, cfg.band_hz, cfg.alpha, cfg.tx_anchor, f"{name}.")
    p_op, e_op, e_em = _lifetime_energy(cell, p_tx)
    if not math.isfinite(e_op):
        # name the larger factor: a power that overflows on its own is the curve's
        if p_op >= cell.lifetime_s:
            raise ValidationError(f"{name}.power_curve: operating energy overflows a float "
                                  f"at P_op={p_op!r} W")
        raise ValidationError(f"{name}.lifetime_s: operating energy overflows a float at "
                              f"lifetime_s={cell.lifetime_s!r}")
    try:
        total = e_op + e_em
    except OverflowError:   # an absolute rule's integer Joules summed past the float range
        total = math.inf
    if not math.isfinite(total):
        raise ValidationError(f"{name}.embodied: a station's energy overflows a float")
    return e_op, e_em


def _station_terms(cfg: ScenarioConfig) -> tuple[float, float, float, float]:
    """Count-free energy terms, each checked finite: the operating and
    embodied J of one macro station (0.0 without a macro cell), then of one
    small station."""
    if isinstance(cfg.architecture, Central):
        mac_op, mac_em = _station_energy(cfg.macro, cfg, "macro")
    else:
        mac_op = mac_em = 0.0
    return (mac_op, mac_em, *_station_energy(cfg.small, cfg, "small"))


def _energy_total(stations: tuple, count: float) -> float:
    """System energy, J, unchecked, at count stations from _station_terms."""
    mac_op, mac_em, sc_op, sc_em = stations
    return mac_em + mac_op + count * (sc_em + sc_op)


def _energy(stations: tuple, arch: Architecture) -> EnergyBreakdown:
    """The EnergyBreakdown at the station count of arch, its total checked
    finite, from the _station_terms of a scenario of its architecture."""
    total = _energy_total(stations, traffic._counts(arch)[0])
    return EnergyBreakdown(*stations, _finite_total(total, arch, "system energy"))


def _ratio(throughput_bps: float, energy_j: float) -> float:
    """Efficiency, bit/s per J.  Every station's operating power is at least
    its offset b > 0, but a lifetime energy b * lifetime_s can still
    underflow to 0 (or so near it that the ratio overflows); that is a
    ValidationError, never inf."""
    eff = throughput_bps / energy_j if energy_j > 0 else math.inf
    if not math.isfinite(eff):
        raise ValidationError(f"lifetime_s: system energy {energy_j!r} J is too small")
    return eff


def scenario_energy(cfg: ScenarioConfig) -> EnergyBreakdown:
    """Lifetime energy of a full scenario.

    Central: one macro station plus n_small small stations.
    Distribution: a cooperative cluster of k_cluster identical small stations.
    """
    _check_type("cfg", cfg, ScenarioConfig, "a ScenarioConfig")
    return _energy(_station_terms(cfg), cfg.architecture)


def efficiency(cfg: ScenarioConfig) -> EfficiencyResult:
    """Energy efficiency of a scenario: total throughput / system energy.

    Every cell's and station's own terms are checked before any total, so
    an overflowing station names its own field even where a station count
    would overflow the totals as well.
    """
    _check_type("cfg", cfg, ScenarioConfig, "a ScenarioConfig")
    cells, stations = traffic._cell_terms(cfg), _station_terms(cfg)
    th = traffic._throughput(cells, cfg.architecture)
    en = _energy(stations, cfg.architecture)
    return EfficiencyResult(th, en, _ratio(th.total_bps, en.system_total_j))
