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
    Architecture,
    CellParams,
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


def _cell(cfg: ScenarioConfig, cell: CellParams, name: str) -> tuple[float, float, float]:
    """(se, up, down) of one cell of the class name; a cell's downlink is its
    largest term, so it overflows whenever the uplink does."""
    try:
        se = link_model.resolve_se(cell.spectrum_eff, cell.radius_m, cfg.alpha)
    except ValidationError as e:   # an overflow: the arguments come from a checked scenario
        raise ValidationError(f"{name}.{e}") from None
    up, down = _cell_backhaul(cell.bandwidth_hz, se, cfg.overheads.s1, cfg.overheads.x2)
    if not math.isfinite(down):
        raise ValidationError(f"{name}.bandwidth_hz: cell backhaul overflows a float at "
                              f"{cell.bandwidth_hz!r} Hz and {se!r} bit/s/Hz")
    return se, up, down


def _cell_terms(cfg: ScenarioConfig) -> tuple:
    """Count-free throughput terms, each cell's backhaul checked finite:
    (small_up, small_down, macro_up, macro_down, down_factor, small_se).

    Central: the per-cell up and down backhaul of a small and the macro
    cell; down_factor goes unused.  Distribution: a member relays at its
    full downlink in both directions, and down_factor * SE is its downlink
    at the cooperative SE that _sums sets; there is no macro cell.
    """
    small_se, small_up, small_down = _cell(cfg, cfg.small, "small")
    if not isinstance(cfg.architecture, Central):
        factor = (1.0 + cfg.overheads.s1 + cfg.overheads.x2) * cfg.small.bandwidth_hz
        return small_down, small_down, 0.0, 0.0, factor, small_se
    _, macro_up, macro_down = _cell(cfg, cfg.macro, "macro")
    return small_up, small_down, macro_up, macro_down, None, small_se


def _sums(cells: tuple, arch: Architecture) -> tuple:
    """The seven ThroughputBreakdown fields at the station count of arch,
    from the _cell_terms of a scenario of its architecture."""
    small_up, small_down, macro_up, macro_down, down_factor, se = cells
    if isinstance(arch, Central):
        count = arch.n_small
    else:
        count = arch.k_cluster
        small_down = down_factor * (se + (count - 1) * se)
    total_up = count * small_up + macro_up
    total_down = count * small_down + macro_down
    return (small_up, small_down, macro_up, macro_down, total_up, total_down,
            _finite_total(total_up + total_down, arch, "backhaul throughput"))


def scenario_throughput(cfg: ScenarioConfig) -> ThroughputBreakdown:
    """Throughput breakdown of a full scenario, resolving SE sources.

    Central: n_small small cells plus the macro cell each backhaul their
    own traffic.  Distribution: each of the K cluster members relays its
    traffic at the full downlink factor in both directions, and its
    downlink also carries the cooperative traffic of its K-1 neighbours,
    so the cluster total grows as K*(K+1), superlinear in the cluster size.
    """
    return ThroughputBreakdown(*_sums(_cell_terms(cfg), cfg.architecture))
