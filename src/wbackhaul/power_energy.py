"""Transmit power scaling, operating/embodied energy, and energy efficiency.

Transmit power is anchored: P_tx(r, f) = P0 * (r/r0)^alpha * (f/f0)^e
with (P0, r0, f0, e) from a TxAnchor.  Operating power is the linear
curve a * P_tx + b; energies are lifetime integrals plus embodied terms.

The energy of a scenario is one function, _energy_fields, for a point
and a grid alike, as its throughput is traffic._throughput_fields; they
check nothing.  scenario_energy and efficiency check the totals and the
ratio afterwards, and only where one is not finite do they walk the
per-cell and per-station checks, _check_cells and _check_stations, to
name the field at fault.
"""
from __future__ import annotations

import math

from . import traffic
from .scenario import (
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
# published calibration powers), so they check nothing themselves; given
# columns, they return columns (see _energy_fields).
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


def _energy_fields(cfg: ScenarioConfig, power=_pow, number=float) -> tuple:
    """The five EnergyBreakdown fields of cfg, unchecked: the operating and
    embodied J of one macro station (0.0 without a macro cell), then of one
    small station, then the system total, inf or NaN where a term overflows
    a float.  Each transmit power is _tx's with power, and number converts
    the station count, as in traffic._throughput_fields, which says what a
    point and a grid pass.  The total raises OverflowError where an
    absolute rule's integer Joules are summed past the float range."""
    arch = cfg.architecture
    central = isinstance(arch, Central)
    terms = [] if central else [0.0, 0.0]
    for cell in (cfg.macro, cfg.small)[1 - central:]:
        p_tx = _tx(cell.radius_m, cfg.band_hz, cfg.alpha, cfg.tx_anchor, power)
        e_op = _operating_power(cell.power_curve, p_tx) * cell.lifetime_s
        terms += e_op, _embodied_energy(cell.embodied, e_op)
    mac_op, mac_em, sc_op, sc_em = terms
    count = number(arch.n_small if central else arch.k_cluster)
    return mac_op, mac_em, sc_op, sc_em, mac_em + mac_op + count * (sc_em + sc_op)


def _check_stations(cfg: ScenarioConfig):
    """Raise the error of the first station of cfg, macro then small, whose
    transmit power, operating energy or energy overflows a float."""
    central = isinstance(cfg.architecture, Central)
    for name, cell in (("macro", cfg.macro), ("small", cfg.small))[1 - central:]:
        p_op = _operating_power(cell.power_curve, _finite_tx(
            cell.radius_m, cfg.band_hz, cfg.alpha, cfg.tx_anchor, f"{name}."))
        e_op = p_op * cell.lifetime_s
        if not math.isfinite(e_op):
            # name the larger factor: a power that overflows on its own is the curve's
            if p_op >= cell.lifetime_s:
                raise ValidationError(f"{name}.power_curve: operating energy overflows a "
                                      f"float at P_op={p_op!r} W")
            raise ValidationError(f"{name}.lifetime_s: operating energy overflows a float "
                                  f"at lifetime_s={cell.lifetime_s!r}")
        try:
            total = e_op + _embodied_energy(cell.embodied, e_op)
        except OverflowError:   # an absolute rule's integer Joules summed past the float range
            total = math.inf
        if not math.isfinite(total):
            raise ValidationError(f"{name}.embodied: a station's energy overflows a float")


def scenario_energy(cfg: ScenarioConfig) -> EnergyBreakdown:
    """Lifetime energy of a full scenario.

    Central: one macro station plus n_small small stations.
    Distribution: a cooperative cluster of k_cluster identical small stations.
    """
    _check_type("cfg", cfg, ScenarioConfig, "a ScenarioConfig")
    try:
        *fields, total = _energy_fields(cfg)
    except OverflowError:   # integer Joules past the float range, which a station check names
        fields, total = (), math.inf
    if not math.isfinite(total):
        _check_stations(cfg)
    return EnergyBreakdown(*fields, _finite_total(total, cfg.architecture, "system energy"))


def efficiency(cfg: ScenarioConfig) -> EfficiencyResult:
    """Energy efficiency of a scenario: total throughput / system energy.

    The two breakdowns and their ratio are computed unchecked.  Only where
    the ratio or the energy is not finite, or an ArithmeticError is raised
    (integer Joules past the float range, or an energy of 0), are the
    checks walked in order, to name the field at fault: each cell (small,
    then macro), each station (macro, then small), the throughput total,
    the energy total, then the ratio.  So an overflowing station names its
    own field even where a station count would overflow the totals as well.
    Every station's operating power is at least its offset b > 0, but a
    lifetime energy b * lifetime_s can still underflow to 0, or so near it
    that the ratio overflows: that is a ValidationError, never inf.
    """
    _check_type("cfg", cfg, ScenarioConfig, "a ScenarioConfig")
    try:
        throughput, energy = traffic._throughput_fields(cfg), _energy_fields(cfg)
        eff = throughput[6] / energy[4]
        if math.isfinite(eff) and math.isfinite(energy[4]):
            return EfficiencyResult(ThroughputBreakdown(*throughput), EnergyBreakdown(*energy),
                                    eff)
    except ArithmeticError:   # integer Joules past the float range, or an energy of 0
        pass
    traffic._check_cells(cfg)
    _check_stations(cfg)
    arch = cfg.architecture
    _finite_total(traffic._throughput_fields(cfg)[6], arch, "backhaul throughput")
    energy_j = _finite_total(_energy_fields(cfg)[4], arch, "system energy")
    raise ValidationError(f"lifetime_s: system energy {energy_j!r} J is too small")
