"""Backhaul traffic models for the central and distribution architectures.

Per-cell user traffic is bandwidth * spectrum efficiency.  The S1 feeder
adds a fractional protocol overhead on the downlink; the X2 interface
adds a fractional handover overhead in both directions.  Note the
resulting asymmetry: the uplink carries only the X2 fraction, with no
baseline user uplink term.

The throughput of a scenario is one function, _throughput_fields, for a
point and a grid alike; it checks nothing.  scenario_throughput checks
its total afterwards, and only where that is not finite does it walk the
per-cell checks, _check_cells, to name the field at fault.
"""
from __future__ import annotations

import math

from . import link_model
from .scenario import (
    Central,
    ScenarioConfig,
    ThroughputBreakdown,
    ValidationError,
    _check_type,
    _finite_total,
    _pow,
)


def _cell_backhaul(bandwidth_hz: float, se: float, overhead_s1: float,
                   overhead_x2: float) -> tuple[float, float]:
    """(up, down) backhaul bit/s of one cell carrying bandwidth_hz * se of user traffic.

    The uplink carries the X2 handover fraction only; the downlink carries
    the user data plus the S1 and X2 overheads.
    """
    return (overhead_x2 * bandwidth_hz * se,
            (1.0 + overhead_s1 + overhead_x2) * bandwidth_hz * se)


def _throughput_fields(cfg: ScenarioConfig, power=_pow, log2=math.log2, number=float) -> tuple:
    """The seven ThroughputBreakdown fields of cfg, unchecked: inf or NaN
    where a term overflows a float.  Each SE is link_model._se's with power
    and log2, and number converts a station count to the float it is
    multiplied as; count - 1 is taken on the integer, so it is exact where
    the count is.  A point passes the defaults; sweep_report._grid_columns
    passes a cfg whose swept fields are columns, _power, _log2 and
    np.float64, and gets the float64 column of each field.  A distribution
    scenario has no macro cell: its macro terms are 0.0 (see
    scenario_throughput).
    """
    arch, small, s1, x2 = cfg.architecture, cfg.small, cfg.overheads.s1, cfg.overheads.x2
    se = link_model._se(small.spectrum_eff, small.radius_m, cfg.alpha, power, log2)
    small_up, small_down = _cell_backhaul(small.bandwidth_hz, se, s1, x2)
    if isinstance(arch, Central):
        count, macro = number(arch.n_small), cfg.macro
        macro_up, macro_down = _cell_backhaul(
            macro.bandwidth_hz, link_model._se(macro.spectrum_eff, macro.radius_m, cfg.alpha,
                                               power, log2), s1, x2)
    else:
        count, macro_up, macro_down = number(arch.k_cluster), 0.0, 0.0
        small_up, small_down = small_down, _cell_backhaul(
            small.bandwidth_hz, se + number(arch.k_cluster - 1) * se, s1, x2)[1]
    total_up = count * small_up + macro_up
    total_down = count * small_down + macro_down
    return small_up, small_down, macro_up, macro_down, total_up, total_down, total_up + total_down


def _check_cells(cfg: ScenarioConfig):
    """Raise the error of the first cell of cfg, small then macro, whose
    edge SNR or backhaul overflows a float.  A cell's downlink is its
    largest term, so it overflows whenever the uplink does."""
    central = isinstance(cfg.architecture, Central)
    for name, cell in (("small", cfg.small), ("macro", cfg.macro))[:1 + central]:
        se = link_model._finite_se(cell.spectrum_eff, cell.radius_m, cfg.alpha, f"{name}.")
        down = _cell_backhaul(cell.bandwidth_hz, se, cfg.overheads.s1, cfg.overheads.x2)[1]
        if not math.isfinite(down):
            raise ValidationError(f"{name}.bandwidth_hz: cell backhaul overflows a float at "
                                  f"{cell.bandwidth_hz!r} Hz and {se!r} bit/s/Hz")


def scenario_throughput(cfg: ScenarioConfig) -> ThroughputBreakdown:
    """Throughput breakdown of a full scenario, resolving SE sources.

    Central: n_small small cells plus the macro cell each backhaul their
    own traffic.  Distribution: each of the K cluster members relays its
    traffic at the full downlink factor in both directions, and its
    downlink also carries the cooperative traffic of its K-1 neighbours,
    so the cluster total grows as K*(K+1), superlinear in the cluster size.
    """
    _check_type("cfg", cfg, ScenarioConfig, "a ScenarioConfig")
    *fields, total = _throughput_fields(cfg)
    if not math.isfinite(total):
        _check_cells(cfg)
    return ThroughputBreakdown(*fields, _finite_total(total, cfg.architecture,
                                                      "backhaul throughput"))
