import contextlib
import io
import json
import math
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import wbackhaul
from wbackhaul import power_energy
from wbackhaul.cli import _parse_axis, main
from wbackhaul.scenario import Central, ScenarioConfig
from wbackhaul.sweep_report import MAX_POINTS

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


_HUGE = "1" + "0" * 400   # a JSON number no float can hold


@pytest.mark.parametrize("text,message", [
    ('{"architecture": {"type": "central", "n_small": 1}, "alpha": %s}' % _HUGE,
     "alpha: must be a number > 0"),
    ('{"architecture": {"type": "central", "n_small": 1}, "small": {"radius_m": %s}}' % _HUGE,
     "small.radius_m: must be a number > 0"),
    ('{"architecture": {"type": "central", "n_small": 1}, "band_hz": %s}' % _HUGE,
     "band_hz: must be a number > 0"),
    ("[" * 100000 + "]" * 100000, "invalid JSON"),
], ids=["alpha", "small.radius_m", "band_hz", "nested"])
def test_eval_hostile_config_exits_1_naming_the_path(tmp_path, capsys, text, message):
    p = tmp_path / "hostile.json"
    p.write_text(text)
    assert main(["eval", "--config", str(p)]) == 1
    assert f"error: {message}" in capsys.readouterr().err


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


def test_sweep_three_axes_match_efficiency(tmp_path, capsys):
    cfg = tmp_path / "central.json"
    cfg.write_text(CENTRAL_100)
    assert main(["sweep", "--config", str(cfg), "--axis", "n_small=0:100:50",
                 "--axis", "alpha=2.5:3.5:0.5", "--axis", "band=5.8e9,60e9",
                 "--format", "json", "--stdout"]) == 0
    rows = json.loads(capsys.readouterr().out)
    points = [(n, a, b) for n in (0, 50, 100) for a in (2.5, 3.0, 3.5)
              for b in (5.8e9, 60e9)]
    assert [(r["n_small"], r["alpha"], r["band"]) for r in rows] == points
    for row, (n, a, b) in zip(rows, points):
        res = power_energy.efficiency(ScenarioConfig(
            architecture=Central(n), path_loss_alpha=a, band_hz=b))
        assert row["throughput_bps"] == res.throughput_bps
        assert row["system_energy_j"] == res.system_energy_j
        assert row["efficiency_bps_per_j"] == res.efficiency


def test_sweep_repeated_axis_exits_1(central_cfg, capsys):
    assert main(["sweep", "--config", str(central_cfg), "--axis", "alpha=2.5,3",
                 "--axis", "alpha=3.5", "--stdout"]) == 1
    assert "alpha: given more than once" in capsys.readouterr().err


@pytest.mark.parametrize("spec,message", [
    ("alpha=2:inf:1", "bad number 'inf'"),
    ("alpha=2:3:inf", "bad number 'inf'"),
    ("alpha=nan,3", "bad number 'nan'"),
    ("alpha=2:1e400:1", "bad number '1e400'"),
    ("n_small=0:1000000000:1", f"more than {MAX_POINTS} values"),
    ("alpha=2:3:1e-300", f"more than {MAX_POINTS} values"),
    ("alpha=-1e308:1e308:1", f"more than {MAX_POINTS} values"),
])
def test_sweep_unbounded_axis_exits_1(central_cfg, capsys, spec, message):
    assert main(["sweep", "--config", str(central_cfg), "--axis", spec,
                 "--stdout"]) == 1
    name = spec.partition("=")[0]
    assert f"axis {name}: {message}" in capsys.readouterr().err


def _loop_values(start, stop, step):
    """Reference: the values a stepping loop yields, 1e-9 of a step past stop."""
    values, i = [], 0
    while start + i * step <= stop + step * 1e-9:
        values.append(start + i * step)
        i += 1
    return tuple(values)


def test_range_axis_matches_stepping_loop():
    rng = random.Random(7)
    for _ in range(2000):
        start, step = rng.uniform(-50, 50), 10 ** rng.uniform(-3, 1)
        stop = start + rng.randint(0, 60) * step + rng.choice((0.0, 0.5 * step))
        spec = f"alpha={start!r}:{stop!r}:{step!r}"
        assert _parse_axis(spec) == ("alpha", _loop_values(start, stop, step)), spec
    for start, stop, step in ((0, 100, 25), (3, 50, 7), (5, 4, 1), (1, 1, 3)):
        assert _parse_axis(f"k_cluster={start}:{stop}:{step}")[1] == tuple(
            range(start, stop + 1, step))


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


@pytest.mark.parametrize("argv", [
    ["sweep", "--config", "{cfg}", "--axis", "n_small=0:100:50",
     "--axis", "band=5.8e9,28e9"],
    ["sweep", "--config", "{cfg}", "--axis", "alpha=2.5:3:0.25", "--format", "json"],
    ["topology", "--n", "30", "--seed", "2"],
    ["eval", "--config", "{cfg}"],
], ids=["sweep-csv", "sweep-json", "topology", "eval"])
def test_out_and_stdout_write_the_same_bytes(central_cfg, tmp_path, capsys, argv):
    out = tmp_path / "out.txt"
    argv = [a.format(cfg=central_cfg) for a in argv]
    assert main(argv + ["--out", str(out), "--stdout"]) == 0
    assert out.read_bytes() == capsys.readouterr().out.encode("utf-8")


def _tiny_energy_config(tmp_path):
    p = tmp_path / "tiny.json"
    p.write_text(json.dumps({
        "architecture": {"type": "distribution", "k_cluster": 10},
        "small": {"radius_m": 1e-100,
                  "power_curve": {"slope_a": 1, "offset_b_w": 1e-200},
                  "lifetime_s": 1e-200}}))
    return str(p)


@pytest.mark.parametrize("argv", [
    ["eval", "--config", "{cfg}"],
    ["sweep", "--config", "{cfg}", "--axis", "k_cluster=1:3:1", "--stdout"],
])
def test_energy_underflow_exits_1_naming_lifetime(tmp_path, capsys, argv):
    cfg = _tiny_energy_config(tmp_path)
    assert main([a.format(cfg=cfg) for a in argv]) == 1
    assert "lifetime_s" in capsys.readouterr().err


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


_AXIS_NAMES = ("n_small", "k_cluster", "alpha", "small_se", "band", "small_radius",
               "macro_radius", "", " alpha")
# Valid grids stay small: no range of these tokens that passes holds more
# than 29 values (0:28e9:1000000000), and the rest exceed the point cap.
_PLAIN = st.sampled_from(("0", "1", "3", "7", "12"))
_PLAIN_STEP = st.sampled_from(("1", "4"))
_NUMBERS = st.one_of(_PLAIN, st.sampled_from((
    "-3", "-0", "2.5", "3.2", "28e9", "1e9", "1000000000", "1e-9", "1e-300", "1e308",
    "-1e308", "1e400", "10" * 200, "inf", "-inf", "nan", "", "x", "1_0", "0x10")))
_STEPS = st.one_of(_PLAIN_STEP, st.sampled_from(
    ("2.5", "1000000000", "0", "-1", "1e-9", "1e-300", "inf", "nan", "x")))


@st.composite
def _axis_specs(draw):
    kind = draw(st.sampled_from(("plain", "plain", "range", "list", "raw")))
    if kind == "raw":
        return draw(st.text(alphabet="0123456789.:,-=e", max_size=12))
    name = draw(st.sampled_from(_AXIS_NAMES))
    if kind == "plain":
        rhs = f"{draw(_PLAIN)}:{draw(_PLAIN)}:{draw(_PLAIN_STEP)}"
    elif kind == "range":
        rhs = f"{draw(_NUMBERS)}:{draw(_NUMBERS)}:{draw(_STEPS)}"
    else:
        rhs = ",".join(draw(st.lists(_NUMBERS, min_size=1, max_size=3)))
    return f"{name}={rhs}"


def _numbers_written(text: str, fmt: str) -> list:
    if fmt == "csv":
        return [float(cell) for line in text.splitlines()[1:] for cell in line.split(",")]
    return [v for row in json.loads(text, parse_constant=float) for v in row.values()]


@pytest.fixture(scope="module")
def sweep_configs(tmp_path_factory):
    root = tmp_path_factory.mktemp("fuzz")
    paths = {}
    for name, text in (("central", CENTRAL_100), ("distribution", DIST_10)):
        paths[name] = root / f"{name}.json"
        paths[name].write_text(text)
    return paths


@settings(max_examples=100, deadline=None)
@given(arch=st.sampled_from(("central", "distribution")),
       specs=st.lists(_axis_specs(), min_size=1, max_size=3),
       fmt=st.sampled_from(("csv", "json")))
def test_sweep_argv_never_raises_and_writes_finite_numbers(sweep_configs, arch, specs,
                                                           fmt):
    argv = ["sweep", "--config", str(sweep_configs[arch]), "--format", fmt, "--stdout"]
    for spec in specs:
        argv += ["--axis", spec]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1, 2), argv
    if code == 0:
        assert all(math.isfinite(v) for v in _numbers_written(out.getvalue(), fmt)), argv
    else:
        assert out.getvalue() == "" and err.getvalue(), argv
