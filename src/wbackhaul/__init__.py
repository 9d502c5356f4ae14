"""Throughput, energy, and efficiency models for small-cell wireless backhaul.

Two architectures are modeled: a central one, where every small cell
backhauls into the macro station, and a distributed one, where a
cooperative cluster of small cells relays toward a gateway cell.
"""

__version__ = "0.1.0"

from .link_model import resolve_se
from .power_energy import (
    EfficiencyResult,
    efficiency,
    embodied_energy,
    operating_power,
    scenario_energy,
    tx_power,
)
from .scenario import (
    ANCHOR_40W_1KM,
    DEFAULT_TX_ANCHOR,
    SECONDS_PER_YEAR,
    CellParams,
    Central,
    ConfigError,
    Distribution,
    EmbodiedAbsolute,
    EmbodiedFraction,
    EnergyBreakdown,
    FixedSE,
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
    SweepRow,
    Table1Report,
    figure_dataset,
    figure_grid,
    run_sweep,
    table1_report,
)
from .topology import (
    NEAREST_TO_CENTER,
    Placement,
    RelayTree,
    build_relay_tree,
    export_topology,
    gateway_ingress_bps,
    link_loads,
    place_uniform,
)
from .traffic import cell_backhaul, scenario_throughput
