"""The public API, pinned one name a line: adding, renaming or removing a
name of the package root or a ScenarioConfig field shows as a one-line diff."""
import dataclasses
import types

import wbackhaul as wb

PACKAGE_NAMES = [
    "ANCHOR_40W_1KM",
    "CellParams",
    "Central",
    "ConfigError",
    "DEFAULT_TX_ANCHOR",
    "Distribution",
    "EfficiencyResult",
    "EmbodiedAbsolute",
    "EmbodiedFraction",
    "EnergyBreakdown",
    "FixedSE",
    "NEAREST_TO_CENTER",
    "Overheads",
    "ParseError",
    "Placement",
    "PowerCurve",
    "RelayTree",
    "SECONDS_PER_YEAR",
    "ScenarioConfig",
    "ShannonEdgeSE",
    "SweepGrid",
    "ThroughputBreakdown",
    "TxAnchor",
    "ValidationError",
    "build_relay_tree",
    "cell_backhaul",
    "default_table1",
    "efficiency",
    "embodied_energy",
    "export_topology",
    "figure_grid",
    "gateway_ingress_bps",
    "link_loads",
    "load_scenario",
    "operating_power",
    "place_uniform",
    "resolve_se",
    "run_sweep",
    "scenario_energy",
    "scenario_from_dict",
    "scenario_throughput",
    "scenario_to_dict",
    "serialize_scenario",
    "table1_report",
    "tx_power",
]

# a scenario document's top-level keys, in the order they are written
SCENARIO_FIELDS = [
    "architecture",
    "band_hz",
    "small",
    "alpha",
    "tx_anchor",
    "overheads",
    "macro",
]


def test_package_root_names():
    # submodules are left out: importing wbackhaul.cli adds wb.cli
    assert sorted(name for name, v in vars(wb).items()
                  if not name.startswith("_") and not isinstance(v, types.ModuleType)
                  ) == PACKAGE_NAMES


def test_scenario_config_fields():
    assert [f.name for f in dataclasses.fields(wb.ScenarioConfig)] == SCENARIO_FIELDS
