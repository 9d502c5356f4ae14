import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import wbackhaul
from wbackhaul import power_energy
from wbackhaul.cli import main
from wbackhaul.scenario import Central, ScenarioConfig

CENTRAL_100 = '{"architecture": {"type": "central", "n_small": 100}}'
DIST_10 = '{"architecture": {"type": "distribution", "k_cluster": 10}}'


@pytest.fixture
def central_cfg(tmp_path):
    p = tmp_path / "central100.json"
    p.write_text(CENTRAL_100)
    return p


def test_eval_human_summary(central_cfg, capsys):
    assert main(["eval", "--config", str(central_cfg)]) == 0
    out = capsys.readouterr().out
    assert "central (n_small=100)" in out
    assert "59.59 Gbit/s" in out
    assert "1.67466 TJ" in out
    assert "35.5833 mbit/s/J" in out


def test_eval_stdout_machine_values_exact(central_cfg, capsys):
    assert main(["eval", "--config", str(central_cfg), "--stdout"]) == 0
    doc = json.loads(capsys.readouterr().out)
    res = power_energy.efficiency(ScenarioConfig(architecture=Central(100)))
    assert doc["throughput_bps"] == res.throughput_bps
    assert doc["system_energy_j"] == res.system_energy_j
    assert doc["efficiency_bps_per_j"] == res.efficiency


def test_eval_missing_config_exits_2(tmp_path, capsys):
    missing = tmp_path / "missing.json"
    assert main(["eval", "--config", str(missing)]) == 2
    assert "missing.json" in capsys.readouterr().err


def test_eval_invalid_config_exits_1(tmp_path, capsys):
    p = tmp_path / "bad.json"
    p.write_text('{"architecture": {"type": "central", "n_small": -3}}')
    assert main(["eval", "--config", str(p)]) == 1
    assert "n_small" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["eval", "--config", "{cfg}"],
    ["sweep", "--config", "{cfg}", "--axis", "n_small=0:2:1", "--stdout"],
])
def test_non_utf8_config_exits_1(tmp_path, capsys, argv):
    p = tmp_path / "latin1.json"
    p.write_bytes('{"architecture": {"type": "central", "n_small": 1}, "caf\xe9": 1}'
                  .encode("latin-1"))
    assert main([a.format(cfg=p) for a in argv]) == 1
    assert "UTF-8" in capsys.readouterr().err


def test_unknown_flag_exits_1(central_cfg, capsys):
    assert main(["eval", "--config", str(central_cfg), "--bogus"]) == 1
    assert "usage" in capsys.readouterr().err


def test_unknown_command_exits_1(capsys):
    assert main(["frobnicate"]) == 1


def test_sweep_csv_roundtrip(tmp_path, capsys):
    cfg = tmp_path / "dist.json"
    cfg.write_text(DIST_10)
    out = tmp_path / "sweep.csv"
    assert main(["sweep", "--config", str(cfg), "--axis", "k_cluster=1:5:1",
                 "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "k_cluster,throughput_bps,system_energy_j,efficiency_bps_per_j"
    assert len(lines) == 6
    k3 = lines[3].split(",")
    assert int(k3[0]) == 3
    assert float(k3[1]) == pytest.approx(1.14e8 * 5 * 3 * 4, rel=1e-12)


def test_sweep_two_axes_and_list_values(tmp_path):
    cfg = tmp_path / "central.json"
    cfg.write_text(CENTRAL_100)
    out = tmp_path / "rows.json"
    assert main(["sweep", "--config", str(cfg),
                 "--axis", "n_small=0:100:50",
                 "--axis", "band=5.8e9,28e9,60e9",
                 "--out", str(out), "--format", "json"]) == 0
    rows = json.loads(out.read_text())
    assert len(rows) == 9
    assert rows[0]["n_small"] == 0 and rows[0]["band"] == 5.8e9


def test_sweep_requires_out_or_stdout(tmp_path, capsys):
    cfg = tmp_path / "dist.json"
    cfg.write_text(DIST_10)
    assert main(["sweep", "--config", str(cfg), "--axis", "k_cluster=1:3:1"]) == 1


def test_sweep_bad_axis_name_exits_1(tmp_path, capsys):
    cfg = tmp_path / "dist.json"
    cfg.write_text(DIST_10)
    assert main(["sweep", "--config", str(cfg), "--axis", "n_small=1:3:1",
                 "--stdout"]) == 1
    assert "central" in capsys.readouterr().err


def test_figures_writes_datasets(tmp_path, capsys):
    assert main(["figures", "--which", "fig5a", "--out", str(tmp_path)]) == 0
    text = (tmp_path / "fig5a.csv").read_text()
    header = text.splitlines()[0]
    assert header.startswith("alpha,small_radius,")
    assert len(text.splitlines()) == 1 + 31 * 6


def test_figures_all(tmp_path):
    assert main(["figures", "--out", str(tmp_path)]) == 0
    for name in ("fig3a", "fig3b", "fig4a", "fig4b", "fig5a", "fig5b"):
        assert (tmp_path / f"{name}.csv").exists()


def test_verify_table1_passes(capsys):
    assert main(["verify-table1"]) == 0
    out = capsys.readouterr().out
    assert "12/12 cells pass" in out
    assert "macro P_OP @ 28 GHz" in out


def test_topology_deterministic_files(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    args = ["topology", "--n", "50", "--radius", "500", "--seed", "3"]
    assert main(args + ["--out", str(a)]) == 0
    assert main(args + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()
    doc = json.loads(a.read_text())
    assert set(doc) == {"positions", "gateway_index", "parent",
                        "link_load_bps", "seed", "rng"}
    assert len(doc["positions"]) == 50
    # flow conservation at the gateway
    ingress = sum(doc["link_load_bps"][i] for i, p in enumerate(doc["parent"])
                  if p == doc["gateway_index"])
    assert ingress == 49 * 5.9e8


def test_topology_stdout_and_gateway_index(capsys):
    assert main(["topology", "--n", "4", "--seed", "1", "--gateway", "2",
                 "--stdout"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["gateway_index"] == 2


@pytest.mark.parametrize("flag,value,field", [
    ("--radius", "inf", "macro_radius_m"),
    ("--seed", "-1", "seed"),
    ("--per-cell-bps", "nan", "per_cell_bps"),
    ("--per-cell-bps", "inf", "per_cell_bps"),
])
def test_topology_bad_input_names_field(flag, value, field, capsys):
    assert main(["topology", "--n", "20", flag, value, "--stdout"]) == 1
    assert field in capsys.readouterr().err


def test_console_script_matches_library(tmp_path):
    cfg = tmp_path / "c.json"
    cfg.write_text(CENTRAL_100)
    # the child imports the same wbackhaul as this process, installed or not
    src = str(Path(wbackhaul.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    proc = subprocess.run(
        [sys.executable, "-m", "wbackhaul.cli", "eval", "--config", str(cfg),
         "--stdout"],
        capture_output=True, text=True, env=env)
    assert proc.returncode == 0
    doc = json.loads(proc.stdout)
    res = power_energy.efficiency(ScenarioConfig(architecture=Central(100)))
    assert doc["efficiency_bps_per_j"] == res.efficiency
