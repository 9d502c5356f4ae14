import contextlib
import io
import json
import math
import os
import random
import subprocess
import sys
import tempfile
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import wbackhaul
from wbackhaul import power_energy, sweep_report
from wbackhaul.cli import main
from wbackhaul.scenario import (
    Central,
    ScenarioConfig,
    ValidationError,
    scenario_from_dict,
    serialize_scenario,
)
from wbackhaul.sweep_report import MAX_POINTS, figure_grid, parse_axis
from wbackhaul.traffic import scenario_throughput

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
    # a zero throughput prints without a prefix
    zero = central_cfg.with_name("zero.json")
    zero.write_text('{"architecture": {"type": "distribution", "k_cluster": 10}, "small": '
                    '{"spectrum_eff": {"type": "fixed", "bit_per_s_per_hz": 0}}}')
    assert main(["eval", "--config", str(zero)]) == 0
    assert "backhaul throughput: 0 bit/s (" in capsys.readouterr().out


@pytest.mark.parametrize("value,text", [
    (1e-9, "1 nbit/s/J"), (5e-10, "5e-10 bit/s/J"), (-5e-10, "-5e-10 bit/s/J"),
    (1e-300, "1e-300 bit/s/J"),
])
def test_a_value_below_the_smallest_prefix_prints_without_one(value, text):
    assert wbackhaul.cli._eng(value, "bit/s/J") == text


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
    ('{"architecture": {"type": "central", "n_small": 1}, "small": {"embodied": '
     '{"type": "absolute", "init_j": %s, "maint_j": %s}}}' % (10**308, 10**308),
     "small.embodied: a station's energy overflows a float"),
], ids=["alpha", "small.radius_m", "band_hz", "nested", "integer-embodied"])
def test_eval_hostile_config_exits_1_naming_the_path(tmp_path, capsys, text, message):
    p = tmp_path / "hostile.json"
    p.write_text(text)
    assert main(["eval", "--config", str(p)]) == 1
    assert f"error: {message}" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["eval", "--config", "{cfg}"],
    ["sweep", "--config", "{cfg}", "--axis", "n_small=0:2:1", "--stdout"],
])
def test_an_integer_literal_past_the_digit_limit_exits_1(tmp_path, capsys, argv,
                                                         int_digit_limit):
    p = tmp_path / "digits.json"
    p.write_text('{"architecture": {"type": "central", "n_small": %s}}' % ("9" * 5000))
    assert main([a.format(cfg=p) for a in argv]) == 1
    out = capsys.readouterr()
    assert out.err.startswith("error: invalid JSON: Exceeds the limit") and out.out == ""


def test_a_station_that_overflows_is_named_before_the_count(tmp_path, capsys):
    # n_small overflows the throughput total, and the macro station's own
    # energy overflows at every count: the station is the error
    doc = {"architecture": {"type": "central", "n_small": 10**300},
           "macro": {"power_curve": {"slope_a": 1e308, "offset_b_w": 1.0}}}
    cfg = scenario_from_dict(doc)
    station = "macro.power_curve: operating energy overflows a float"
    for evaluate in (power_energy.efficiency, power_energy.scenario_energy):
        with pytest.raises(ValidationError, match=f"^{station}"):
            evaluate(cfg)
    grid = sweep_report.SweepGrid(cfg, (parse_axis(f"n_small={10**300}"),))
    with pytest.raises(ValidationError, match=f"^grid point n_small=1{'0' * 300}: {station}"):
        sweep_report.run_sweep(grid)
    with pytest.raises(ValidationError, match="^architecture.n_small: backhaul throughput"):
        scenario_throughput(cfg)
    p = tmp_path / "two-faults.json"
    p.write_text(json.dumps(doc))
    assert main(["eval", "--config", str(p)]) == 1
    assert f"error: {station}" in capsys.readouterr().err


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


@pytest.mark.parametrize("command", ["sweep", "topology"])
def test_sweep_requires_out_or_stdout(command, tmp_path, capsys, monkeypatch):
    """Without a destination the command fails before it computes anything."""
    from wbackhaul import topology

    def never(*args, **kwargs):
        raise AssertionError("computed output that has nowhere to go")
    monkeypatch.setattr(topology, "place_uniform", never)
    monkeypatch.setattr(sweep_report, "sweep_text", never)
    cfg = tmp_path / "dist.json"
    cfg.write_text(DIST_10)
    argv = {"sweep": ["sweep", "--config", str(cfg), "--axis", "k_cluster=1:3:1"],
            "topology": ["topology", "--n", "1000"]}[command]
    assert main(argv) == 1
    assert capsys.readouterr().err == f"error: {command}: --out <path> or --stdout required\n"


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
            architecture=Central(n), alpha=a, band_hz=b))
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
    ("alpha=1:2", "expected <start>:<stop>:<step>, got '1:2'"),
    ("alpha=1:2:0", "step must be > 0"),
    ("alpha=1:2:-1", "step must be > 0"),
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
        name, values = parse_axis(spec)
        assert (name, tuple(values.tolist())) == ("alpha", _loop_values(start, stop, step)), spec
    for start, stop, step in ((0, 100, 25), (3, 50, 7), (5, 4, 1), (1, 1, 3)):
        assert tuple(parse_axis(f"k_cluster={start}:{stop}:{step}")[1].tolist()) == tuple(
            range(start, stop + 1, step))


def test_figures_writes_datasets(tmp_path, capsys):
    assert main(["figures", "--which", "fig5a", "--out", str(tmp_path)]) == 0
    text = (tmp_path / "fig5a.csv").read_text()
    header = text.splitlines()[0]
    assert header.startswith("alpha,small_radius,")
    assert len(text.splitlines()) == 1 + 31 * 6


# Each figure preset as a base scenario plus --axis specs, as the README lists them.
_SHANNON_SMALL = {"small": {"spectrum_eff": {"type": "shannon_edge", "calibration_se": 5.0,
                                             "ref_radius_m": 50.0}}}
_FIGURE_SWEEPS = {
    "fig3a": (CENTRAL_100, "n_small=0:1000:25", "small_se=1,2.5,5,7.5,10"),
    "fig3b": (DIST_10, "k_cluster=1:100:1", "small_se=1,2.5,5,7.5,10"),
    "fig4a": (CENTRAL_100, "n_small=0:1000:25", "band=5.8e9,28e9,60e9"),
    "fig4b": (DIST_10, "k_cluster=1:100:1", "band=5.8e9,28e9,60e9"),
    "fig5a": ({**json.loads(CENTRAL_100), **_SHANNON_SMALL},
              "alpha=2.5:4:0.05", "small_radius=20,30,40,50,75,100"),
    "fig5b": ({**json.loads(DIST_10), **_SHANNON_SMALL},
              "alpha=2.5:4:0.05", "small_radius=20,30,40,50,75,100"),
}


@pytest.mark.parametrize("name", sorted(_FIGURE_SWEEPS))
def test_sweep_reproduces_each_figure_preset(tmp_path, capsys, name):
    base, *specs = _FIGURE_SWEEPS[name]
    cfg = tmp_path / "base.json"
    cfg.write_text(base if isinstance(base, str) else json.dumps(base))
    assert serialize_scenario(figure_grid(name).base) == serialize_scenario(
        wbackhaul.load_scenario(cfg.read_text()))
    argv = ["sweep", "--config", str(cfg), "--stdout"]
    for spec in specs:
        argv += ["--axis", spec]
    assert main(argv) == 0
    swept = capsys.readouterr().out
    assert main(["figures", "--which", name, "--stdout"]) == 0
    assert swept == capsys.readouterr().out


def test_figures_stdout_needs_a_single_dataset(capsys):
    assert main(["figures", "--stdout"]) == 1
    assert "--stdout needs a single --which" in capsys.readouterr().err


def test_figures_all(tmp_path):
    assert main(["figures", "--out", str(tmp_path)]) == 0
    for name in ("fig3a", "fig3b", "fig4a", "fig4b", "fig5a", "fig5b"):
        assert (tmp_path / f"{name}.csv").exists()


def test_verify_table1_passes(capsys):
    assert main(["verify-table1"]) == 0
    out = capsys.readouterr().out
    assert "12/12 cells pass" in out
    assert "macro P_OP @ 28 GHz" in out


def test_verify_table1_fails_on_a_wrong_cell(monkeypatch, capsys):
    monkeypatch.setitem(sweep_report._TABLE_TX_W["macro"], 28e9, 300.0)
    assert main(["verify-table1"]) == 1
    out = capsys.readouterr().out
    assert "macro P_TX @ 28 GHz: computed" in out and ": FAIL" in out
    assert "10/12 cells pass" in out


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


@pytest.mark.parametrize("target", ["--stdout", "--out"])
def test_non_finite_output_exits_1_and_writes_nothing(central_cfg, tmp_path, capsys,
                                                       monkeypatch, target):
    efficiency = power_energy.efficiency
    monkeypatch.setattr(power_energy, "efficiency",
                        lambda cfg: replace(efficiency(cfg), efficiency=math.inf))
    out = tmp_path / "out.json"
    argv = ["eval", "--config", str(central_cfg), target]
    assert main(argv + ([str(out)] if target == "--out" else [])) == 1
    stdout, stderr = capsys.readouterr()
    assert stdout == "" and "error: output:" in stderr
    assert not out.exists()


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
    ("--per-cell-bps", "1e308", "per_cell_bps"),   # finite, but not times a subtree
    ("--radius", "1e308", "macro_radius_m"),
    ("--n", "1000001", "n: "),
])
def test_topology_bad_input_names_field(flag, value, field, capsys):
    assert main(["topology", "--n", "20", flag, value, "--stdout"]) == 1
    out, err = capsys.readouterr()
    assert out == "" and field in err


def _child(*argv, text=True):
    """Run python with argv in a fresh process that imports the same wbackhaul
    as this one, installed or not."""
    src = str(Path(wbackhaul.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    return subprocess.run([sys.executable, *argv], capture_output=True, text=text, env=env)


def test_console_script_matches_library(tmp_path):
    cfg = tmp_path / "c.json"
    cfg.write_text(CENTRAL_100)
    proc = _child("-m", "wbackhaul.cli", "eval", "--config", str(cfg), "--stdout")
    assert proc.returncode == 0
    doc = json.loads(proc.stdout)
    res = power_energy.efficiency(ScenarioConfig(architecture=Central(100)))
    assert doc["efficiency_bps_per_j"] == res.efficiency


def test_parser_eval_and_verify_table1_never_import_numpy(central_cfg):
    proc = _child("-c", (
        "import contextlib, io, sys; import wbackhaul.cli as c; c.build_parser()\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    assert c.main(['verify-table1']) == 0\n"
        "    assert c.main(['eval', '--config', sys.argv[1], '--stdout']) == 0\n"
        "print(sorted(m for m in sys.modules if m.partition('.')[0] == 'numpy'))"),
        str(central_cfg))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


@pytest.mark.parametrize("argv", [
    ["sweep", "--config", "{cfg}", "--axis", "n_small=0:10:5", "--stdout"],
    ["figures", "--which", "fig3a", "--stdout"],
    ["topology", "--n", "5", "--stdout"],
])
def test_numpy_commands_load_it_on_demand(central_cfg, argv):
    proc = _child("-c", (
        "import contextlib, io, sys; import wbackhaul.cli as c\n"
        "assert 'numpy' not in sys.modules\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    code = c.main(sys.argv[1:])\n"
        "print(code, 'numpy' in sys.modules)"),
        *(a.format(cfg=central_cfg) for a in argv))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "0 True\n"


def test_gateway_default_is_the_topology_rule():
    from wbackhaul import topology
    from wbackhaul.cli import build_parser
    args = build_parser().parse_args(["topology", "--n", "5"])
    assert args.gateway == topology.NEAREST_TO_CENTER


def test_main_builds_its_parser_on_the_first_call_alone(central_cfg, monkeypatch, capsys):
    from wbackhaul import cli
    built, real = [], cli.build_parser

    def counting_build_parser():
        built.append(None)
        return real()

    monkeypatch.setattr(cli, "build_parser", counting_build_parser)
    cli._parser.cache_clear()
    try:
        assert main(["verify-table1"]) == 0
        assert main(["eval", "--config", str(central_cfg), "--stdout"]) == 0
        assert main(["frobnicate"]) == 1
        assert len(built) == 1
    finally:
        cli._parser.cache_clear()   # the next parser is built by the real build_parser


def test_build_parser_returns_a_new_parser_each_call():
    from wbackhaul.cli import build_parser
    assert build_parser() is not build_parser()


def test_repeated_main_calls_share_no_state(central_cfg, capsys):
    two_axes = ["sweep", "--config", str(central_cfg), "--axis", "n_small=0:10:5",
                "--axis", "alpha=2:3:1", "--stdout"]
    assert main(two_axes) == 0
    first = capsys.readouterr().out
    assert first.startswith("n_small,alpha,")
    # the --axis list of the first call must not carry over
    assert main(["sweep", "--config", str(central_cfg), "--axis", "alpha=2:3:1",
                 "--stdout"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("alpha,throughput_bps,") and len(lines) == 3
    assert main(["sweep", "--axis", "alpha=2:3:1", "--stdout"]) == 1   # no --config
    assert "--config" in capsys.readouterr().err
    assert main(two_axes) == 0
    again = capsys.readouterr().out
    proc = _child("-m", "wbackhaul.cli", *two_axes, text=False)
    assert proc.returncode == 0, proc.stderr
    assert again.encode() == first.encode() == proc.stdout


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


_TOPOLOGY_TOKENS = st.sampled_from((
    "0", "1", "3", "17", "500", "2.5", "-1", "-0", "1e308", "-1e308", "1e150", "1e-320",
    "10" * 200, "nan", "inf", "-inf", "", "x", "0x10", "1_0", "nearest-to-center"))


def _reject_constant(name):
    raise ValueError(f"{name} in JSON output")


@settings(max_examples=100, deadline=None)
@given(n=st.integers(0, 64),
       flags=st.dictionaries(st.sampled_from(("--radius", "--seed", "--gateway",
                                              "--per-cell-bps")), _TOPOLOGY_TOKENS),
       joined=st.booleans())
def test_topology_argv_never_raises_and_writes_strict_json(n, flags, joined):
    argv = ["topology", "--n", str(n), "--stdout"]
    for flag, token in flags.items():
        # "--radius=-inf" passes a token argparse would take for a flag
        argv += [f"{flag}={token}"] if joined else [flag, token]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1, 2), argv
    if code == 0:
        json.loads(out.getvalue(), parse_constant=_reject_constant)
    else:
        assert out.getvalue() == "" and err.getvalue(), argv


# Hostile values for a scenario field: numbers no float holds, JSON's
# non-finite literals, wrong types and nesting deeper than the parser's stack.
_HOSTILE = st.sampled_from((
    "1" + "0" * 400, "-" + "1" + "0" * 400, "NaN", "Infinity", "-Infinity", "1e400",
    "1e-320", "0", "-1", "1", "2.5", "1e308", "true", "null", '"x"', "[]", "{}",
    '{"type": "fixed"}', "[" * 3000 + "]" * 3000, "{" + '"a":{' * 1500 + "}" * 1501))
_FIELDS = (("architecture",), ("architecture", "n_small"), ("architecture", "k_cluster"),
           ("band_hz",), ("alpha",), ("small",), ("small", "radius_m"),
           ("small", "lifetime_s"), ("small", "spectrum_eff"),
           ("small", "power_curve", "offset_b_w"), ("macro",), ("macro", "bandwidth_hz"),
           ("tx_anchor", "power_w"), ("overheads", "s1"), ("bogus",))


@st.composite
def _hostile_configs(draw) -> bytes:
    arch = draw(st.sampled_from(({"type": "central", "n_small": 100},
                                 {"type": "distribution", "k_cluster": 10})))
    doc = {"architecture": dict(arch)}
    slots = {}
    for path in draw(st.lists(st.sampled_from(_FIELDS), max_size=3)):
        obj = doc
        for key in path[:-1]:
            if not isinstance(obj.get(key), dict):
                obj[key] = {}
            obj = obj[key]
        slot = f"@{len(slots)}@"
        obj[path[-1]] = slot
        slots[f'"{slot}"'] = draw(_HOSTILE)
    text = json.dumps(doc)
    for slot, token in slots.items():
        text = text.replace(slot, token)
    data = text.encode("utf-8")
    if draw(st.booleans()):   # a byte that is not UTF-8, inside a string or not
        at = draw(st.integers(0, len(data)))
        data = data[:at] + draw(st.sampled_from((b"\xff", b"\xe9", b"\xc3"))) + data[at:]
    return data


@settings(max_examples=100, deadline=None)
@given(config=_hostile_configs(), to_file=st.booleans())
def test_eval_argv_never_raises_and_writes_strict_json(config, to_file):
    with tempfile.TemporaryDirectory() as tmp:
        cfg, out_path = Path(tmp) / "cfg.json", Path(tmp) / "out.json"
        cfg.write_bytes(config)
        argv = ["eval", "--config", str(cfg)]
        argv += ["--out", str(out_path)] if to_file else ["--stdout"]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
        assert code in (0, 1, 2), config
        written = out_path.read_text() if out_path.exists() else out.getvalue()
        if code == 0:
            json.loads(written, parse_constant=_reject_constant)
        else:
            assert out.getvalue() == "" and not out_path.exists() and err.getvalue(), config
