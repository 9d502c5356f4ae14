"""How each workload's ops are run against wbackhaul and checked.

Every workload has the same three steps per op:

* prepare(op, i): harness work before timing (config files, arrays, argv)
* call(op, prepared): the timed call into the program; it looks up the
  program's functions as module attributes at call time, so the traced
  run's wrappers are used
* check(op, i, prepared, result, exc): the output oracle; returns an
  Outcome

An op "fails" if it raised or exited differently from what was expected,
or if the oracle rejects its output; it is "wrong" in the last case only.
"""
from __future__ import annotations

import json
import math
import os
import random
import shutil
from dataclasses import dataclass, field

import numpy as np

import oracle

ROWS_SAMPLED = 16
NODES_SAMPLED = 48


@dataclass
class Outcome:
    items: int = 0              # grid points, stations or scenarios completed
    export_bytes: int = 0       # bytes of output files written
    problems: list = field(default_factory=list)
    wrong: bool = False         # output contradicts the oracle

    @property
    def failed(self) -> bool:
        return bool(self.problems)


def _fail(msg: str, wrong: bool = False) -> Outcome:
    return Outcome(problems=[msg], wrong=wrong)


def _read(path: str) -> str:
    with open(path, encoding="utf-8") as f:
        return f.read()


class Sweep:
    """In-process `wbackhaul sweep` and `wbackhaul figures` commands."""

    name = "sweep"
    items_alias = "points_per_s"
    export_layer = "sweep_report"

    def __init__(self, wb, tmp: str, seed: int):
        self.cli = wb.cli
        self.tmp = tmp
        self.seed = seed

    def prepare(self, op: dict, i: int) -> dict:
        fmt = op["format"]
        if op["kind"] == "figures":
            out = os.path.join(self.tmp, f"op{i}")
            argv = ["figures", "--which", op["which"], "--out", out, "--format", fmt]
            return {"argv": argv, "out": out}
        config = os.path.join(self.tmp, f"op{i}.config.json")
        with open(config, "w", encoding="utf-8") as f:
            json.dump(op["config"], f)
        out = os.path.join(self.tmp, f"op{i}.{fmt}")
        argv = ["sweep", "--config", config, "--out", out, "--format", fmt]
        for spec in op["axes"]:
            argv += ["--axis", spec]
        return {"argv": argv, "out": out, "config": config}

    def call(self, op: dict, prepared: dict):
        return self.cli.main(prepared["argv"])

    def size(self, op: dict) -> int:
        """Grid points the op evaluates."""
        return sum(math.prod(len(values) for _, values in axes)
                   for _, axes, _ in self._jobs(op, ""))

    def _jobs(self, op: dict, out: str) -> list:
        """(output path, [(axis, values), ...], base document) per output file."""
        if op["kind"] == "figures":
            which = list(oracle.FIGURES) if op["which"] == "all" else [op["which"]]
            return [(os.path.join(out, f"{w}.{op['format']}"),
                     list(oracle.FIGURES[w][1:]), oracle.FIGURES[w][0]) for w in which]
        return [(out, [oracle.axis_values(spec) for spec in op["axes"]], op["config"])]

    def check(self, op, i, prepared, result, exc) -> Outcome:
        try:
            return self._check(op, i, prepared, result, exc)
        finally:
            if op["kind"] == "figures":
                shutil.rmtree(prepared["out"], ignore_errors=True)
            else:
                for path in (prepared["out"], prepared["config"]):
                    if os.path.exists(path):
                        os.remove(path)

    def _check(self, op, i, prepared, result, exc) -> Outcome:
        if exc is not None:
            return _fail(f"raised {exc!r}")
        if result != 0:
            return _fail(f"exit code {result}, expected 0")
        rng = random.Random(f"{self.seed}/{i}")
        out = Outcome()
        for path, axes, base in self._jobs(op, prepared["out"]):
            try:
                text = _read(path)
            except OSError as e:
                return _fail(f"no output: {e}")
            n = math.prod(len(values) for _, values in axes)
            sample = sorted({0, n - 1, *(rng.randrange(n) for _ in range(ROWS_SAMPLED))})
            problems = oracle.check_sweep(text, op["format"], base, axes, sample)
            if problems:
                return _fail(f"{os.path.basename(path)}: {problems[0]}", wrong=True)
            out.items += n
            out.export_bytes += len(text.encode())
        return out


class Topology:
    """Relay trees: uniform placements through the CLI, clustered ones as a library."""

    name = "topology"
    items_alias = "nodes_per_s"
    export_layer = "topology"

    def __init__(self, wb, tmp: str, seed: int):
        self.cli = wb.cli
        self.topology = wb.topology
        self.tmp = tmp
        self.seed = seed

    def prepare(self, op: dict, i: int) -> dict:
        if op["kind"] == "clustered":
            return {"positions": np.array(op["positions"], dtype=np.float64)}
        out = os.path.join(self.tmp, f"op{i}.json")
        argv = ["topology", "--n", str(op["n"]), "--radius", repr(op["radius"]),
                "--seed", str(op["seed"]), "--gateway", str(op["gateway"]),
                "--per-cell-bps", repr(op["per_cell_bps"]), "--out", out]
        return {"argv": argv, "out": out}

    def size(self, op: dict) -> int:
        return op["n"]

    def call(self, op: dict, prepared: dict):
        if op["kind"] != "clustered":
            return self.cli.main(prepared["argv"])
        topo = self.topology
        placement = topo.Placement(positions=prepared["positions"],
                                   macro_radius_m=op["radius"], seed=op["seed"])
        tree = topo.build_relay_tree(placement, op["gateway"])
        tree = topo.link_loads(tree, op["per_cell_bps"])
        return topo.export_topology(placement, tree)

    def check(self, op, i, prepared, result, exc) -> Outcome:
        try:
            return self._check(op, i, prepared, result, exc)
        finally:
            if "out" in prepared and os.path.exists(prepared["out"]):
                os.remove(prepared["out"])

    def _check(self, op, i, prepared, result, exc) -> Outcome:
        if exc is not None:
            return _fail(f"raised {exc!r}")
        out = Outcome(items=op["n"])
        if op["kind"] == "clustered":
            doc = result
            positions = op["positions"]
        else:
            if result != 0:
                return _fail(f"exit code {result}, expected 0")
            try:
                text = _read(prepared["out"])
                doc = json.loads(text)
            except (OSError, ValueError) as e:
                return _fail(f"no output: {e}")
            out.export_bytes = len(text.encode())
            positions = None
            if doc.get("seed") != op["seed"]:
                return _fail(f"seed {doc.get('seed')}, expected {op['seed']}", wrong=True)
        rng = random.Random(f"{self.seed}/{i}")
        sample = [rng.randrange(op["n"]) for _ in range(NODES_SAMPLED)]
        problems = oracle.check_topology(doc, positions, op["n"], op["radius"],
                                         op["gateway"], op["per_cell_bps"], sample)
        if problems:
            return _fail(problems[0], wrong=True)
        return out


class Eval:
    """Library single-scenario ops, as in the README's Library section."""

    name = "eval"
    items_alias = "scenarios_per_s"
    export_layer = None

    def __init__(self, wb, tmp: str, seed: int):
        self.wb = wb
        self.seed = seed

    def prepare(self, op: dict, i: int):
        return None

    def size(self, op: dict) -> int:
        return 1

    def call(self, op: dict, prepared):
        wb = self.wb
        cfg = wb.load_scenario(op["text"])
        res = wb.efficiency(cfg)
        th = wb.scenario_throughput(cfg)
        en = wb.scenario_energy(cfg)
        same = None
        if op.get("roundtrip"):
            same = wb.load_scenario(wb.serialize_scenario(cfg)) == cfg
        return res, th, en, same

    def check(self, op, i, prepared, result, exc) -> Outcome:
        if op["kind"] != "valid":
            return self._check_rejected(op, exc)
        if exc is not None:
            return _fail(f"raised {exc!r}")
        res, th, en, same = result
        want = oracle.point(oracle.resolve(op["doc"]))
        got = (res.throughput_bps, res.system_energy_j, res.efficiency)
        if not all(oracle.close(g, w) for g, w in zip(got, want)):
            return _fail(f"efficiency {got} != closed form {want}", wrong=True)
        if th.total_bps != res.throughput_bps or en.system_total_j != res.system_energy_j:
            return _fail("scenario_throughput/scenario_energy disagree with efficiency",
                         wrong=True)
        if same is False:
            return _fail("serialize_scenario -> load_scenario changed the config",
                         wrong=True)
        return Outcome(items=1)

    def _check_rejected(self, op, exc) -> Outcome:
        if exc is None:
            return _fail(f"{op['kind']} input accepted, expected {op['expect']}", wrong=True)
        expect = getattr(self.wb, op["expect"])
        if not isinstance(exc, self.wb.ConfigError):
            return _fail(f"raised {exc!r}, expected {op['expect']}")
        if not isinstance(exc, expect):
            return _fail(f"raised {exc!r}, expected {op['expect']}", wrong=True)
        if op["fields"] and not any(f in str(exc) for f in op["fields"]):
            return _fail(f"{exc!r} names none of {op['fields']}", wrong=True)
        return Outcome()


WORKLOADS = {w.name: w for w in (Sweep, Topology, Eval)}
