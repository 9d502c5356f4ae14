"""Throughput, energy, and efficiency models for small-cell wireless backhaul.

Two architectures are modeled: a central one, where every small cell
backhauls into the macro station, and a distributed one, where a
cooperative cluster of small cells relays toward a gateway cell.
"""

__version__ = "0.1.0"

from importlib import import_module as _import_module
from types import ModuleType as _ModuleType

from .link_model import resolve_se
from .power_energy import (
    EfficiencyResult,
    efficiency,
    scenario_energy,
    tx_power,
)
from .scenario import (
    SECONDS_PER_YEAR,
    CellParams,
    Central,
    ConfigError,
    Distribution,
    EmbodiedAbsolute,
    EmbodiedFraction,
    EnergyBreakdown,
    FixedSE,
    Overheads,
    ParseError,
    PowerCurve,
    ScenarioConfig,
    ShannonEdgeSE,
    ThroughputBreakdown,
    TxAnchor,
    ValidationError,
    default_table1,
    load_scenario,
    scenario_from_dict,
    scenario_to_dict,
    serialize_scenario,
)
from .sweep_report import (
    SweepGrid,
    figure_grid,
    run_sweep,
    table1_report,
)
from .traffic import scenario_throughput

# topology needs numpy, so its names, and the submodules that import numpy,
# are loaded on first use (PEP 562): a scenario is evaluated without numpy.
_TOPOLOGY_NAMES = (
    "NEAREST_TO_CENTER",
    "Placement",
    "RelayTree",
    "build_relay_tree",
    "export_topology",
    "gateway_ingress_bps",
    "link_loads",
    "place_uniform",
)

__all__ = sorted([name for name, value in globals().items()
                  if not name.startswith("_") and not isinstance(value, _ModuleType)]
                 + list(_TOPOLOGY_NAMES))


def __getattr__(name):
    if name in _TOPOLOGY_NAMES:
        return getattr(_import_module(".topology", __name__), name)
    if name in ("_kernels", "topology"):
        return _import_module("." + name, __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *__all__})
