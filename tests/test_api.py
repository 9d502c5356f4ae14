"""The public API, pinned one name a line: adding, renaming or removing a
name of the package root or a ScenarioConfig field shows as a one-line diff."""
import dataclasses
import types

import wbackhaul as wb

PACKAGE_NAMES = [
    "CellParams",
    "Central",
    "ConfigError",
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
    "default_table1",
    "efficiency",
    "export_topology",
    "figure_grid",
    "gateway_ingress_bps",
    "link_loads",
    "load_scenario",
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
