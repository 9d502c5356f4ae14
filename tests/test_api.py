"""The public API, pinned one name a line: adding, renaming or removing a
name of the package root or a ScenarioConfig field shows as a one-line diff."""
import dataclasses
import os
import subprocess
import sys
import types
from pathlib import Path

import pytest

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

# the names the root loads from topology on first use, with numpy
TOPOLOGY_NAMES = [
    "NEAREST_TO_CENTER",
    "Placement",
    "RelayTree",
    "build_relay_tree",
    "export_topology",
    "gateway_ingress_bps",
    "link_loads",
    "place_uniform",
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
    # dir() lists the names loaded on first use too; submodules are left
    # out: importing wbackhaul.cli adds wb.cli
    assert sorted(name for name in dir(wb) if not name.startswith("_")
                  and not isinstance(getattr(wb, name), types.ModuleType)) == PACKAGE_NAMES


@pytest.mark.parametrize("name", TOPOLOGY_NAMES)
def test_a_lazy_name_is_the_topology_object(name):
    from wbackhaul import topology
    assert getattr(wb, name) is getattr(topology, name)


def test_star_import_binds_every_root_name():
    namespace = {}
    exec("from wbackhaul import *", namespace)
    assert sorted(set(namespace) - {"__builtins__"}) == PACKAGE_NAMES


def test_an_unknown_root_attribute_is_an_attribute_error_naming_it():
    with pytest.raises(AttributeError, match="'wbackhaul' has no attribute 'no_such_name'"):
        wb.no_such_name


def test_the_lazy_submodules_resolve_in_a_fresh_process():
    src = str(Path(wb.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    proc = subprocess.run([sys.executable, "-c", (
        "import sys, wbackhaul as wb\n"
        "assert 'wbackhaul.topology' not in sys.modules and 'numpy' not in sys.modules\n"
        "print(wb._kernels.backend(), wb.topology.__name__, wb.sweep_report.__name__)")],
        capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "numpy wbackhaul.topology wbackhaul.sweep_report\n"


def test_scenario_config_fields():
    assert [f.name for f in dataclasses.fields(wb.ScenarioConfig)] == SCENARIO_FIELDS
