"""Transmit power scaling, operating/embodied energy, and energy efficiency.

Transmit power is anchored: P_tx(r, f) = P0 * (r/r0)^alpha * (f/f0)^e
with (P0, r0, f0, e) from a TxAnchor.  Operating power is the linear
curve a * P_tx + b; energies are lifetime integrals plus embodied terms.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

from . import traffic
from .scenario import (
    CellParams,
    Central,
    EmbodiedAbsolute,
    EmbodiedFraction,
    EmbodiedRule,
    EnergyBreakdown,
    PowerCurve,
    ScenarioConfig,
    ThroughputBreakdown,
    TxAnchor,
    ValidationError,
    _finite_total,
)


@dataclass(frozen=True)
class EfficiencyResult:
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
    if not radius_m > 0:
        raise ValidationError("radius_m: must be > 0")
    if not band_hz > 0:
        raise ValidationError("band_hz: must be > 0")
    if not alpha > 0:
        raise ValidationError("alpha: must be > 0")
    try:
        p_tx = (anchor.power_w
                * (radius_m / anchor.radius_m) ** alpha
                * (band_hz / anchor.carrier_hz) ** anchor.freq_exponent)
    except OverflowError:
        p_tx = math.inf
    if not math.isfinite(p_tx):
        raise ValidationError(
            f"radius_m: transmit power overflows a float at radius_m={radius_m!r}, "
            f"alpha={alpha!r}, band_hz={band_hz!r}")
    return p_tx


def operating_power(curve: PowerCurve, tx_w: float) -> float:
    """Operating power draw (W) at the given transmit power."""
    if tx_w < 0:
        raise ValidationError("tx_w: must be >= 0")
    return curve.slope_a * tx_w + curve.offset_b_w


def embodied_energy(rule: EmbodiedRule, operating_j: float) -> float:
    """Manufacturing-plus-maintenance energy (J) for one station.

    A fractional rule f means embodied / (embodied + operating) == f,
    hence embodied = operating * f / (1 - f).
    """
    if operating_j < 0:
        raise ValidationError("operating_j: must be >= 0")
    if isinstance(rule, EmbodiedAbsolute):
        return rule.init_j + rule.maint_j
    if isinstance(rule, EmbodiedFraction):
        return operating_j * rule.fraction / (1.0 - rule.fraction)
    raise ValidationError(f"embodied: unsupported rule {type(rule).__name__}")


def _station_energy(cell: CellParams, cfg: ScenarioConfig) -> tuple[float, float]:
    """(operating_j, embodied_j) of one base station of this class."""
    p_tx = tx_power(cell.radius_m, cfg.band_hz, cfg.path_loss_alpha, cfg.tx_anchor)
    e_op = operating_power(cell.power_curve, p_tx) * cell.lifetime_s
    return e_op, embodied_energy(cell.embodied, e_op)


def scenario_energy(cfg: ScenarioConfig) -> EnergyBreakdown:
    """Lifetime energy of a full scenario.

    Central: one macro station plus n_small small stations.
    Distribution: a cooperative cluster of k_cluster identical small stations.
    """
    arch = cfg.architecture
    if isinstance(arch, Central):
        count = arch.n_small
        mac_op, mac_em = _station_energy(cfg.macro, cfg)
    else:
        count = arch.k_cluster
        mac_op = mac_em = 0.0
    sc_op, sc_em = _station_energy(cfg.small, cfg)
    total = mac_em + mac_op + count * (sc_em + sc_op)
    return EnergyBreakdown(per_macro_operating_j=mac_op, per_macro_embodied_j=mac_em,
                           per_small_operating_j=sc_op, per_small_embodied_j=sc_em,
                           system_total_j=_finite_total(total, arch, "system energy"))


def efficiency(cfg: ScenarioConfig) -> EfficiencyResult:
    """Energy efficiency of a scenario: total throughput / system energy.

    Every station's operating power is at least its offset b > 0, but a
    lifetime energy b * lifetime_s can still underflow to 0 (or so near
    it that the ratio overflows); that is a ValidationError, never inf.
    """
    th = traffic.scenario_throughput(cfg)
    en = scenario_energy(cfg)
    energy_j = en.system_total_j
    eff = th.total_bps / energy_j if energy_j > 0 else math.inf
    if not math.isfinite(eff):
        raise ValidationError(f"lifetime_s: system energy {energy_j!r} J is too small")
    return EfficiencyResult(throughput=th, energy=en, efficiency=eff)
