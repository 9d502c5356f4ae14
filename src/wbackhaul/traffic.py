"""Backhaul traffic models for the central and distribution architectures.

Per-cell user traffic is bandwidth * spectrum efficiency.  The S1 feeder
adds a fractional protocol overhead on the downlink; the X2 interface
adds a fractional handover overhead in both directions.  Note the
resulting asymmetry: the uplink carries only the X2 fraction, with no
baseline user uplink term.
"""
from __future__ import annotations

import math

from . import link_model
from .scenario import (
    Central,
    ScenarioConfig,
    ThroughputBreakdown,
    ValidationError,
    _finite_total,
)


def _cell_backhaul(bandwidth_hz: float, se: float, overhead_s1: float,
                   overhead_x2: float) -> tuple[float, float]:
    """(up, down) backhaul bit/s of one cell carrying bandwidth_hz * se of user traffic.

    The uplink carries the X2 handover fraction only; the downlink carries
    the user data plus the S1 and X2 overheads.
    """
    return (overhead_x2 * bandwidth_hz * se,
            (1.0 + overhead_s1 + overhead_x2) * bandwidth_hz * se)


def scenario_throughput(cfg: ScenarioConfig) -> ThroughputBreakdown:
    """Throughput breakdown of a full scenario, resolving SE sources.

    Central: n_small small cells plus the macro cell each backhaul their
    own traffic.  Distribution: each of the K cluster members relays its
    traffic at the full downlink factor in both directions, and its
    downlink also carries the cooperative traffic of its K-1 neighbours,
    so the cluster total grows as K*(K+1), superlinear in the cluster size.
    """
    arch, small = cfg.architecture, cfg.small
    s1, x2 = cfg.overheads.s1, cfg.overheads.x2
    small_se = link_model.resolve_se(small.spectrum_eff, small.radius_m, cfg.alpha)
    # a cell's downlink is its largest term: it overflows whenever the uplink does
    small_up, small_down = _cell_backhaul(small.bandwidth_hz, small_se, s1, x2)
    if not math.isfinite(small_down):
        raise ValidationError(f"small.bandwidth_hz: cell backhaul overflows a float at "
                              f"{small.bandwidth_hz!r} Hz and {small_se!r} bit/s/Hz")
    if isinstance(arch, Central):
        count = arch.n_small
        macro = cfg.macro
        macro_se = link_model.resolve_se(macro.spectrum_eff, macro.radius_m, cfg.alpha)
        macro_up, macro_down = _cell_backhaul(macro.bandwidth_hz, macro_se, s1, x2)
        if not math.isfinite(macro_down):
            raise ValidationError(f"macro.bandwidth_hz: cell backhaul overflows a float at "
                                  f"{macro.bandwidth_hz!r} Hz and {macro_se!r} bit/s/Hz")
    else:
        count = arch.k_cluster
        coop_se = small_se + (count - 1) * small_se
        small_up = small_down
        small_down = _cell_backhaul(small.bandwidth_hz, coop_se, s1, x2)[1]
        macro_up = macro_down = 0.0
    total_up = count * small_up + macro_up
    total_down = count * small_down + macro_down
    return ThroughputBreakdown(
        small_up_bps=small_up, small_down_bps=small_down,
        macro_up_bps=macro_up, macro_down_bps=macro_down,
        total_up_bps=total_up, total_down_bps=total_down,
        total_bps=_finite_total(total_up + total_down, arch, "backhaul throughput"))
