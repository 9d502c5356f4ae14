"""Tests of the benchmark's own parts: generator, oracle, tracer, result contract.

Run from the repository root:

    python3 -m pytest layerbench -q
"""
import json
import shutil
import subprocess
import sys
import types
from pathlib import Path

import numpy as np
import pytest

import gen
import hostspeed
import oracle
import spans

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def _bench_spec() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as f:
        return json.load(f)


def _run(*args, cwd=ROOT):
    return subprocess.run([sys.executable, str(Path("layerbench") / "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=170)


# ---------------------------------------------------------------------------
# generator
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("workload", gen.WORKLOADS)
def test_same_seed_same_ops_and_other_seed_other_ops(workload):
    first = gen.take(workload, 7, 30)
    assert first == gen.take(workload, 7, 30)
    assert first != gen.take(workload, 8, 30)
    assert gen.take(workload, 7, 5, warmup=True) != first[:5]


def test_generator_never_imports_wbackhaul():
    # src is importable here, so an import of wbackhaul would succeed and show
    code = (
        "import sys\n"
        f"sys.path[:0] = [{str(BENCH)!r}, {str(ROOT / 'src')!r}]\n"
        "import gen\n"
        "for w in gen.WORKLOADS:\n"
        "    mix = gen.Mix(w)\n"
        "    for op in gen.take(w, 3, 12) + gen.take(w, 3, 4, warmup=True):\n"
        "        mix.add(op, 1)\n"
        "    mix.summary()\n"
        "bad = sorted(m for m in sys.modules if m.split('.')[0] == 'wbackhaul')\n"
        "sys.exit(f'generator imported {bad}' if bad else 0)\n")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


def test_eval_stream_has_the_stated_shares():
    ops = gen.take("eval", 11, 4 * gen.EVAL_BLOCK)
    kinds = [op["kind"] for op in ops]
    assert kinds.count("invalid") == 4 * gen.EVAL_INVALID_PER_BLOCK
    assert kinds.count("valid") == 4 * (gen.EVAL_BLOCK - gen.EVAL_INVALID_PER_BLOCK)


def test_overflow_probes_are_seeded_and_of_both_kinds():
    probes = gen.overflow_probes(2)
    assert probes == gen.overflow_probes(2) != gen.overflow_probes(3)
    assert len(probes) == gen.OVERFLOW_PROBES
    assert {tuple(op["fields"]) for op in probes} == {("alpha", "radius_m"), ("n_small",)}


def test_topology_blocks_are_balanced():
    ops = gen.take("topology", 5, 2 * gen.TOPOLOGY_BLOCK)
    lo, hi = gen.TOPOLOGY_NODES
    strata = gen.TOPOLOGY_STRATA
    edges = [lo * (hi / lo) ** (j / strata) for j in range(strata + 1)]
    for block in (ops[:gen.TOPOLOGY_BLOCK], ops[gen.TOPOLOGY_BLOCK:]):
        for kind in ("uniform", "clustered"):
            # one placement of each kind per stratum of the log range
            sizes = sorted(op["n"] for op in block if op["kind"] == kind)
            assert all(edges[j] * 0.999 <= n <= edges[j + 1] * 1.001
                       for j, n in enumerate(sizes))
            assert len(sizes) == strata
    for op in ops:
        if op["kind"] == "clustered":
            pts = op["positions"]
            assert len(pts) == op["n"]
            assert len({tuple(p) for p in pts}) < len(pts)   # exact duplicates


# ---------------------------------------------------------------------------
# oracle
# ---------------------------------------------------------------------------

def test_oracle_rejects_a_perturbed_sweep_row():
    base = {"architecture": {"type": "distribution", "k_cluster": 4}}
    axes = [oracle.axis_values("k_cluster=1:20:1"), oracle.axis_values("alpha=2.5,3.5")]
    params = oracle.resolve(base)
    lines = ["k_cluster,alpha," + ",".join(oracle.VALUE_KEYS)]
    for k in axes[0][1]:
        for a in axes[1][1]:
            vals = oracle.point(oracle.with_axis(oracle.with_axis(params, "k_cluster", k),
                                                 "alpha", a))
            lines.append(",".join(format(v, ".17e") for v in (k, a, *vals)))
    text = "\n".join(lines) + "\n"
    sample = list(range(40))
    assert oracle.check_sweep(text, "csv", base, axes, sample) == []
    bad = text.replace(lines[7], lines[7][:-3] + "999")
    assert oracle.check_sweep(bad, "csv", base, axes, sample)
    assert oracle.check_sweep(text.rsplit("\n", 2)[0] + "\n", "csv", base, axes, sample)


def test_oracle_distribution_closed_form_grows_as_k_k_plus_1():
    p = oracle.resolve({"architecture": {"type": "distribution", "k_cluster": 1}})
    t1 = oracle.point(p)[0]
    assert oracle.close(oracle.point(oracle.with_axis(p, "k_cluster", 9))[0], 45 * t1)


def test_oracle_rejects_a_wrong_parent():
    rng = np.random.default_rng(0)
    pos = rng.random((60, 2)) * 100 - 50
    pos[10] = pos[3]                                   # an exact duplicate
    g = int(np.argmin((pos ** 2).sum(axis=1)))
    parent = [oracle.expected_parent(pos, g, i) for i in range(60)]
    sizes = np.ones(60)
    order = np.argsort(np.hypot(*(pos - pos[g]).T), kind="stable")
    for i in order[::-1]:
        if parent[i] is not None:
            sizes[parent[i]] += sizes[i]
    loads = 2.0 * sizes
    loads[g] = 0.0
    doc = {"positions": pos.tolist(), "parent": parent, "gateway_index": g,
           "link_load_bps": loads.tolist()}
    sample = list(range(60))
    assert oracle.check_topology(doc, pos.tolist(), 60, 80.0, "nearest-to-center",
                                 2.0, sample) == []
    wrong = dict(doc, parent=list(parent))
    i = next(k for k in range(60) if parent[k] not in (None, g))
    wrong["parent"][i] = g
    assert oracle.check_topology(wrong, pos.tolist(), 60, 80.0, "nearest-to-center",
                                 2.0, sample)


# ---------------------------------------------------------------------------
# tracer
# ---------------------------------------------------------------------------

def _fake_package():
    lib = types.ModuleType("fakepkg.lib")

    def leaf(x):
        return sum(range(x))

    def mid(x):
        return lib.leaf(x) + lib.leaf(x)

    def top(x):
        return lib.mid(x) + lib.leaf(x)

    for fn in (leaf, mid, top):
        fn.__module__ = lib.__name__
        setattr(lib, fn.__name__, fn)
    user = types.ModuleType("fakepkg.user")
    user.top = top                                     # imported by name
    pkg = types.ModuleType("fakepkg")
    pkg.top = top
    return pkg, lib, user


def test_tracer_self_time_is_duration_minus_children_and_uninstall_restores():
    pkg, lib, user = _fake_package()
    original = lib.top
    tracer = spans.Tracer()
    tracer.install(pkg, {"lib": lib, "user": user})
    assert user.top is not original and pkg.top is not original
    for op in range(3):
        tracer.begin_op(op)
        user.top(20000)
        tracer.end_op()
    tracer.uninstall()
    assert lib.top is original and user.top is original and pkg.top is original

    roll = tracer.rollup()
    assert roll["lib.top"]["calls"] == 3
    assert roll["lib.mid"]["calls"] == 3
    assert roll["lib.leaf"]["calls"] == 9
    by_id = {s[0]: s for s in tracer.spans}
    child_ns = {}
    for sid, parent, nid, t0, t1, op in tracer.spans:
        if parent in by_id:
            child_ns[parent] = child_ns.get(parent, 0) + (t1 - t0)
            assert by_id[parent][5] == op
    self_ns = {}
    for sid, parent, nid, t0, t1, op in tracer.spans:
        name = tracer.names[nid]
        self_ns[name] = self_ns.get(name, 0) + (t1 - t0) - child_ns.get(sid, 0)
    for name, stats in roll.items():
        assert stats["self_ns"] == self_ns[name]
    assert sum(s["self_ns"] for s in roll.values()) == roll[spans.OP_SPAN]["total_ns"]


def test_host_speed_correction_scales_by_reference_over_local():
    speed = hostspeed.HostSpeed()
    ref = hostspeed.REFERENCE_S
    speed.times = [ref, ref, 3 * ref, ref]
    phase = types.SimpleNamespace(latencies_ns=[100, 100, 100], probe_index=[0, 2, 3])
    assert speed.local(2) == 2 * ref
    assert speed.corrected(phase) == pytest.approx([100.0, 50.0, 100.0])


def test_tracer_counts_errors_of_the_given_type():
    pkg, lib, user = _fake_package()
    tracer = spans.Tracer(error_type=ValueError)
    tracer.install(pkg, {"lib": lib})
    tracer.begin_op(0)
    with pytest.raises(TypeError):
        pkg.top("x")
    tracer.end_op()
    tracer.uninstall()
    assert tracer.rollup()["lib.top"]["errors"] == 0
    assert tracer.rollup()["lib.leaf"]["calls"] == 1


# ---------------------------------------------------------------------------
# the result contract
# ---------------------------------------------------------------------------

def _result(proc) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", ["0", "1"])
def test_eval_run_prints_every_declared_metric(trace):
    spec = _bench_spec()
    proc = _run("--workload", "eval", "--seed", "3", "--seconds", "1", "--trace", trace)
    res = _result(proc)
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    declared = spec["per_layer"] if trace == "1" else spec["end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {
        k: v["unit"] for k, v in res["metrics"].items()}
    assert res["correct"] is True and res["failed"] == 0
    # the overflow inputs of ROADMAP item 4 are probed apart from the timed ops
    meta = json.loads(next(line[5:] for line in proc.stdout.splitlines()
                           if line.startswith("meta ")))
    assert meta["known_defects"]["overflow_inputs"] == gen.OVERFLOW_PROBES


def test_sweep_and_topology_runs_are_correct():
    for workload in ("sweep", "topology"):
        res = _result(_run("--workload", workload, "--seed", "4", "--seconds", "1"))
        assert res["correct"] is True and res["failed"] == 0 and res["attempted"] >= 1


def test_run_without_sources_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "layerbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run("--workload", "eval", "--seed", "1", "--seconds", "1", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
