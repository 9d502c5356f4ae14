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
    _check_type,
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
    se = link_model._finite_se(cell.spectrum_eff, cell.radius_m, cfg.alpha, f"{name}.")
    up, down = _cell_backhaul(cell.bandwidth_hz, se, cfg.overheads.s1, cfg.overheads.x2)
    if not math.isfinite(down):
        raise ValidationError(f"{name}.bandwidth_hz: cell backhaul overflows a float at "
                              f"{cell.bandwidth_hz!r} Hz and {se!r} bit/s/Hz")
    return se, up, down


def _cell_terms(cfg: ScenarioConfig) -> tuple:
    """Count-free throughput terms of a scenario, each cell's backhaul
    checked finite (see _terms)."""
    small = _cell(cfg, cfg.small, "small")
    macro = _cell(cfg, cfg.macro, "macro") if isinstance(cfg.architecture, Central) else None
    return _terms(cfg, small, macro)


def _terms(cfg: ScenarioConfig, small: tuple, macro: tuple | None) -> tuple:
    """Count-free throughput terms from the (se, up, down) of the small cell
    and of the macro cell, None without one, whose other parameters are
    cfg's: (small_up, small_down, macro_up, macro_down, down_factor, small_se).

    Central: the per-cell up and down backhaul of a small and the macro
    cell; down_factor is None.  Distribution: a member relays at its full
    downlink in both directions, and down_factor * SE is its downlink at
    the cooperative SE that _sums sets; there is no macro cell.  Each term
    is a float, or a column of them (see sweep_report._grid_columns).
    """
    small_se, small_up, small_down = small
    if macro is None:
        factor = (1.0 + cfg.overheads.s1 + cfg.overheads.x2) * cfg.small.bandwidth_hz
        return small_down, small_down, 0.0, 0.0, factor, small_se
    return small_up, small_down, macro[1], macro[2], None, small_se


def _counts(arch: Architecture) -> tuple[float, float]:
    """(count, count - 1) of arch's stations as floats, the count algebra's
    operands; count - 1 is taken on the integer, so it is exact where the
    count is."""
    count = arch.n_small if isinstance(arch, Central) else arch.k_cluster
    return float(count), float(count - 1)


def _sums(cells: tuple, count: float, neighbours: float) -> tuple:
    """The seven ThroughputBreakdown fields, unchecked, at count stations
    (neighbours is count - 1), from _terms.  Floats or columns alike."""
    small_up, small_down, macro_up, macro_down, down_factor, se = cells
    if down_factor is not None:
        small_down = down_factor * (se + neighbours * se)
    total_up = count * small_up + macro_up
    total_down = count * small_down + macro_down
    return small_up, small_down, macro_up, macro_down, total_up, total_down, total_up + total_down


def _throughput(cells: tuple, arch: Architecture) -> ThroughputBreakdown:
    """The ThroughputBreakdown at the station count of arch, its total
    checked finite, from the _cell_terms of a scenario of its architecture."""
    *fields, total = _sums(cells, *_counts(arch))
    return ThroughputBreakdown(*fields, _finite_total(total, arch, "backhaul throughput"))


def scenario_throughput(cfg: ScenarioConfig) -> ThroughputBreakdown:
    """Throughput breakdown of a full scenario, resolving SE sources.

    Central: n_small small cells plus the macro cell each backhaul their
    own traffic.  Distribution: each of the K cluster members relays its
    traffic at the full downlink factor in both directions, and its
    downlink also carries the cooperative traffic of its K-1 neighbours,
    so the cluster total grows as K*(K+1), superlinear in the cluster size.
    """
    _check_type("cfg", cfg, ScenarioConfig, "a ScenarioConfig")
    return _throughput(_cell_terms(cfg), cfg.architecture)
