#!/usr/bin/env python3
"""Layered benchmark for wbackhaul: end-to-end metrics, or per-layer spans.

Run from the repository root:

    python3 layerbench/run.py --workload sweep --seed 1 --seconds 30 --trace 0

Workloads (closed loop, one client, one single-threaded process):

* sweep     in-process `sweep` / `figures` CLI commands (closed-form path)
* topology  relay trees, uniform via the CLI and clustered via the library
* eval      library single-scenario load / evaluate / round-trip ops

--trace 0 times a fixed set of ops, replayed in rounds until --seconds are
up, and reports the end-to-end metrics.  Every timing is
scaled to a reference host speed by a probe timed between ops (see
hostspeed); the raw figures are printed too.  set-up time is measured in
fresh interpreters.
--trace 1 spends half of --seconds on ops with every public function of
the eight layer modules wrapped in a span, replays the same ops untraced
to get the tracing overhead, and reports the per-layer metrics.  Spans go
to .bench_out/ at the end of the run.

The program is imported from src/ next to this directory; it is never
modified.  A human-readable table and a `meta` line precede the last
stdout line, which is the JSON result.
"""
from __future__ import annotations

import os

# one single-threaded process: keep numpy's thread pools at one thread
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import gen  # noqa: E402
import hostspeed  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"

SETUP_RUNS = 15
# blocks of ops in a run's op set per 30 s of --seconds: a round over the set
# takes 3 to 9 s on a 2-vCPU Xeon VM, so a 30 s run makes 3 to 11 rounds
BLOCKS_PER_30S = {"sweep": 3, "topology": 1, "eval": 450}
WARMUP_OPS = {"sweep": 8, "topology": 6, "eval": 200}
SETUP_CODE = ("import sys; sys.path.insert(0, sys.argv[1]); "
              "import wbackhaul.cli; wbackhaul.cli.build_parser()")

LAYERS = ("cli", "scenario", "link_model", "traffic", "power_energy", "sweep_report",
          "topology", "kernels")


class _Sink(io.TextIOBase):
    """Swallows the program's console output during timed ops."""

    def write(self, s):
        return len(s)


# ---------------------------------------------------------------------------
# set-up time and run metadata
# ---------------------------------------------------------------------------

def measure_setup(speed) -> Phase:
    """Wall time for fresh interpreters to import wbackhaul and build the parser.

    One unmeasured child first, so the bytecode cache is in place as it
    would be for an installed package.  Each child is bracketed by
    host-speed probes.
    """
    phase = Phase("setup")
    for k in range(SETUP_RUNS + 1):
        index = speed.probe()
        t0 = time.perf_counter_ns()
        subprocess.run([sys.executable, "-c", SETUP_CODE, str(SRC)], cwd=ROOT,
                       check=True, capture_output=True)
        if k:
            phase.latencies_ns.append(time.perf_counter_ns() - t0)
            phase.probe_index.append(index)
    speed.probe()
    return phase


def _commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        path = ROOT / ".git" / ref[5:]
        if path.exists():
            return path.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def run_meta(args, wb, numpy_version: str) -> dict:
    return {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "commit": _commit(),
            "python": platform.python_version(), "numpy": numpy_version,
            "wbackhaul": wb.__version__, "kernel_backend": wb._kernels.backend(),
            "nproc": os.cpu_count(), "pinned_cpus": sorted(os.sched_getaffinity(0)),
            "cpu_model": _cpu_model()}


# ---------------------------------------------------------------------------
# the closed loop
# ---------------------------------------------------------------------------

class Phase:
    """What one pass over the op stream attempted and measured."""

    def __init__(self, workload: str):
        self.latencies_ns: list[int] = []
        self.probe_index: list[int] = []    # latest host-speed probe at op start
        self.items = 0
        self.export_bytes = 0
        self.failed = 0
        self.wrong = 0
        self.problems: list[str] = []
        self.mix = gen.Mix(workload)

    @property
    def ops(self) -> int:
        return len(self.latencies_ns)


def run_ops(wl, stream, seconds=None, limit=None, tracer=None, speed=None) -> Phase:
    """Run and check ops one after another.

    Stops at the op limit, or, with seconds, at the block boundary nearest
    to that much time.
    """
    phase = Phase(wl.name)
    block = gen.BLOCK[wl.name]
    start = time.perf_counter()
    for i, op in enumerate(stream):
        if limit is not None and i >= limit:
            break
        elapsed = time.perf_counter() - start
        if seconds is not None and i % block == 0 and i and (
                elapsed + 0.5 * elapsed / (i // block) >= seconds):
            break
        prepared = wl.prepare(op, i)
        result = exc = None
        if speed is not None:
            phase.probe_index.append(speed.before_op())
        if tracer is not None:
            tracer.begin_op(i)
        t0 = time.perf_counter_ns()
        try:
            result = wl.call(op, prepared)
        except Exception as e:  # a failed op is recorded, the loop goes on
            exc = e
        t1 = time.perf_counter_ns()
        if tracer is not None:
            t1 = t0 + tracer.end_op()
        try:
            outcome = wl.check(op, i, prepared, result, exc)
        except Exception as e:  # an output the oracle cannot read is wrong
            outcome = workloads.Outcome(problems=[f"oracle: {e!r}"], wrong=True)
        phase.latencies_ns.append(t1 - t0)
        phase.mix.add(op, wl.size(op))
        phase.items += outcome.items
        phase.export_bytes += outcome.export_bytes
        if outcome.failed:
            phase.failed += 1
            phase.wrong += outcome.wrong
            if len(phase.problems) < 5:
                phase.problems.append(f"op {i} ({op['kind']}): {outcome.problems[0]}")
    if speed is not None:
        speed.probe()
    return phase


def probe_overflow(wb, tmp: str, seed: int) -> Phase:
    """Run the overflow inputs of ROADMAP item 4 once, untimed and untraced.

    They are kept out of the timed streams, where every op must succeed;
    each one that does not raise a ConfigError naming its field counts as
    failed here and is reported as a known defect.
    """
    return run_ops(workloads.Eval(wb, tmp, seed), iter(gen.overflow_probes(seed)))


def _quiet():
    stack = contextlib.ExitStack()
    stack.enter_context(contextlib.redirect_stdout(_Sink()))
    stack.enter_context(contextlib.redirect_stderr(_Sink()))
    return stack


def _percentile(values: list, q: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------

def measure(wl, workload: str, seed: int, seconds: float, speed) -> list[Phase]:
    """Rounds over the run's op set until `seconds` are up.

    The set is a whole number of blocks fixed by the workload and `seconds`,
    not by the host's speed, so that a seed always times the same ops.  A
    round starts only if one as long as the last still fits; the first
    always runs, so every op is timed at least once.
    """
    deadline = time.perf_counter() + seconds
    blocks = max(1, round(BLOCKS_PER_30S[workload] * seconds / 30))
    speed.probe()
    rounds = []
    while True:
        t0 = time.perf_counter()
        rounds.append(run_ops(wl, gen.ops(workload, seed), limit=blocks * gen.BLOCK[workload],
                              speed=speed))
        t1 = time.perf_counter()
        if t1 + (t1 - t0) > deadline:
            return rounds


def _per_op_median(rounds: list[list]) -> list[float]:
    """Median of each op's timings over the rounds."""
    return [statistics.median(r[i] for r in rounds) for i in range(len(rounds[0]))]


def end_to_end(rounds: list[Phase], setup: Phase, speed, peak_rss_mb: float
               ) -> tuple[dict, dict]:
    """(declared metrics, table-only metrics), each name -> (value, unit, samples).

    An op's latency is the median of its timings over the rounds, each at the
    reference host speed (see hostspeed); set-up time is the median of its
    timings at that speed.
    """
    per_op = _per_op_median([speed.corrected(p) for p in rounds])
    raw = _per_op_median([p.latencies_ns for p in rounds])
    n = len(per_op)
    busy_s = sum(per_op) / 1e9
    # p50 is over the ops' medians: a pooled median falls between the timings
    # of the two middle ops, which on topology differ by up to 20%, and takes
    # an extreme timing of one of them; p90 pools every timing of every op
    lat_ms = sorted(ns / 1e6 for p in rounds for ns in speed.corrected(p))
    metrics = {
        "setup_s": (statistics.median(speed.corrected(setup)) / 1e9, "s", setup.ops),
        "ops_per_s": (n / busy_s, "1/s", n),
        "items_per_s": (rounds[0].items / busy_s, "1/s", n),
        "op_p50_ms": (statistics.median(per_op) / 1e6, "ms", n),
        "peak_rss_mb": (peak_rss_mb, "MB", 1),
    }
    attempted = sum(p.ops for p in rounds)
    slowdown = [speed.local(k) / hostspeed.REFERENCE_S for p in rounds for k in p.probe_index]
    extra = {"error_rate": (sum(p.failed for p in rounds) / attempted, "1", attempted),
             "raw_ops_per_s": (n / (sum(raw) / 1e9), "1/s", n),
             "host_slowdown": (statistics.median(slowdown), "x", len(speed.times))}
    if len(lat_ms) >= 100:  # at least ten samples beyond p90
        extra["op_p90_ms"] = (_percentile(lat_ms, 90), "ms", len(lat_ms))
    return metrics, extra


class Counters:
    """Per-call hooks for the per-layer ratios the rollup alone cannot give."""

    def __init__(self):
        self.pairs = 0
        self.points = 0
        self.exit_nonzero = 0
        self.se_inputs: set = set()

    def hooks(self) -> dict:
        def pairs(args, kwargs):
            n = len(args[0])
            self.pairs += n * (n - 1) // 2

        def se_input(args, kwargs):
            self.se_inputs.add((args, tuple(sorted(kwargs.items()))))

        def points(rows):
            self.points += len(rows)

        def exit_code(code):
            self.exit_nonzero += code != 0

        return {"kernels.parent_ranks": {"on_args": pairs},
                "link_model.resolve_se": {"on_args": se_input},
                "sweep_report.run_sweep": {"on_result": points},
                "cli.main": {"on_result": exit_code},
                "scenario.load_scenario": {"keep_durations": True}}


def per_layer(tracer, counters: Counters, traced: Phase, untraced: Phase, wl,
              speed) -> dict:
    """name -> (value, unit, sample count); times and counts are per traced op.

    Span times are as measured; the tracing overhead compares the traced and
    untraced passes after correcting both for host contention.
    """
    roll = tracer.rollup()
    ops = traced.ops

    def get(name, key):
        return roll.get(name, {}).get(key, 0)

    def self_ms(name):
        return (f"{name}.self_ms", get(name, "self_ns") / ops / 1e6, "ms/op")

    def calls(name):
        return (f"{name}.calls", get(name, "calls") / ops, "1/op")

    def ratio(num, den):
        return num / den if den else 0.0

    load_ns = tracer.durations_of("scenario.load_scenario")
    op_total = get("bench.op", "total_ns")
    layer_self = {layer: sum(v["self_ns"] for k, v in roll.items()
                             if k.startswith(layer + ".")) for layer in LAYERS}
    export = {layer: (traced.export_bytes / ops if wl.export_layer == layer else 0.0)
              for layer in ("topology", "sweep_report")}
    rows = [
        self_ms("kernels.parent_ranks"), calls("kernels.parent_ranks"),
        ("kernels.parent_ranks.pairs", counters.pairs / ops, "pairs/op"),
        self_ms("kernels.subtree_sizes"),
        self_ms("topology.place_uniform"), self_ms("topology.build_relay_tree"),
        self_ms("topology.link_loads"), self_ms("topology.export_topology"),
        ("topology.export.bytes", export["topology"], "bytes/op"),
        self_ms("cli.main"), calls("cli.main"),
        ("cli.main.exit_nonzero", counters.exit_nonzero / ops, "1/op"),
        self_ms("sweep_report.apply_axis"), calls("sweep_report.apply_axis"),
        ("sweep_report.run_sweep.us_per_point",
         ratio(get("sweep_report.run_sweep", "total_ns") / 1e3, counters.points), "us/point"),
        self_ms("sweep_report.rows_to_csv"), self_ms("sweep_report.rows_to_json"),
        ("sweep_report.export.bytes", export["sweep_report"], "bytes/op"),
        self_ms("power_energy.efficiency"), self_ms("power_energy.scenario_energy"),
        calls("power_energy.tx_power"),
        self_ms("traffic.scenario_throughput"),
        ("traffic.scenario_throughput.calls_per_point",
         ratio(get("traffic.scenario_throughput", "calls"), counters.points), "1/point"),
        self_ms("link_model.resolve_se"), calls("link_model.resolve_se"),
        ("link_model.resolve_se.distinct_ratio",
         ratio(len(counters.se_inputs), get("link_model.resolve_se", "calls")), "ratio"),
        self_ms("scenario.load_scenario"), calls("scenario.load_scenario"),
        ("scenario.load_scenario.p50_us",
         statistics.median(load_ns) / 1e3 if load_ns else 0.0, "us"),
        self_ms("scenario.serialize_scenario"),
        ("scenario.config_errors", get("scenario.load_scenario", "errors") / ops, "1/op"),
    ]
    rows += [(f"layer.{layer}.self_ms", layer_self[layer] / ops / 1e6, "ms/op")
             for layer in LAYERS]
    untraced_ns = sum(untraced.latencies_ns)
    traced_fix, untraced_fix = (sum(speed.corrected(p)) for p in (traced, untraced))
    rows += [
        ("layer.bench.self_ms", get("bench.op", "self_ns") / ops / 1e6, "ms/op"),
        ("trace.op_wall_ms", op_total / ops / 1e6, "ms/op"),
        ("trace.untraced_op_ms", untraced_ns / untraced.ops / 1e6, "ms/op"),
        ("trace.overhead_pct", 100.0 * (traced_fix - untraced_fix) / untraced_fix, "%"),
        ("trace.layer_share_pct", 100.0 * sum(layer_self.values()) / op_total, "%"),
        ("trace.spans_per_op", tracer.next_id / ops, "1/op"),
        ("trace.ops", float(ops), "count"),
    ]
    return {name: (value, unit, ops) for name, value, unit in rows}


# ---------------------------------------------------------------------------
# main
# ---------------------------------------------------------------------------

def _args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=gen.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not args.seconds > 0:
        p.error("--seconds must be > 0")
    return args


def _print_table(args, wl, metrics: dict, extra: dict) -> None:
    print(f"layerbench workload={args.workload} seed={args.seed} trace={args.trace} "
          f"seconds={args.seconds:g}")
    print(f"  {'metric':44} {'value':>14} {'unit':>9} {'samples':>8}")
    for name, (value, unit, samples) in [*metrics.items(), *extra.items()]:
        label = f"{name} ({wl.items_alias})" if name == "items_per_s" else name
        print(f"  {label:44} {value:14.6g} {unit:>9} {samples:8d}")


def main(argv=None) -> int:
    args = _args(argv)
    if not (SRC / "wbackhaul" / "__init__.py").is_file():
        print(f"layerbench: no wbackhaul sources under {SRC}", file=sys.stderr)
        return 2
    # one CPU for the whole run, set-up children included, so that the
    # host-speed probes see the contention the ops see
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    sys.path.insert(0, str(SRC))
    import numpy
    import wbackhaul as wb
    import wbackhaul.cli  # noqa: F401  (cli is not imported by the package root)
    if Path(wb.__file__).resolve().parent != (SRC / "wbackhaul").resolve():
        print(f"layerbench: imported wbackhaul from {wb.__file__}", file=sys.stderr)
        return 2

    (ROOT / ".bench_tmp").mkdir(exist_ok=True)
    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    tmp = tempfile.mkdtemp(dir=ROOT / ".bench_tmp")
    wl = workloads.WORKLOADS[args.workload](wb, tmp, args.seed)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    try:
        with _quiet():
            warmup = gen.take(args.workload, args.seed, WARMUP_OPS[args.workload], warmup=True)
            run_ops(wl, iter(warmup + [gen.largest(args.workload, args.seed)]))
            # the high-water mark now covers the largest op of the range, and not
            # the harness's per-op records, whose size depends on the host's speed
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            speed = hostspeed.HostSpeed()
            if not args.trace:
                setup = measure_setup(speed)
                phases = measure(wl, args.workload, args.seed, args.seconds, speed)
                metrics, extra = end_to_end(phases, setup, speed, peak_rss_mb)
            else:
                tracer = spans.Tracer(error_type=wb.ConfigError)
                counters = Counters()
                layers = {name: getattr(wb, "_kernels" if name == "kernels" else name)
                          for name in LAYERS}
                tracer.install(wb, layers, counters.hooks())
                speed.probe()
                try:
                    traced = run_ops(wl, gen.ops(args.workload, args.seed),
                                     seconds=args.seconds / 2, tracer=tracer, speed=speed)
                finally:
                    tracer.uninstall()
                untraced = run_ops(wl, gen.ops(args.workload, args.seed), limit=traced.ops,
                                   speed=speed)
                phases = [traced, untraced]
                metrics = per_layer(tracer, counters, traced, untraced, wl, speed)
                extra = {}
                tracer.write_spans(str(out_dir / f"{stem}.spans.jsonl"))
            overflow = probe_overflow(wb, tmp, args.seed)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    defects = (float(overflow.failed), "count", overflow.ops)
    if args.trace:
        metrics["scenario.overflow_inputs_failed"] = defects
    else:
        extra["overflow_inputs_failed"] = defects
    attempted = sum(p.ops for p in phases)
    failed = sum(p.failed for p in phases)
    meta = run_meta(args, wb, numpy.__version__)
    mix = gen.Mix(args.workload)
    for p in phases:
        mix.merge(p.mix)
    meta["mix"] = mix.summary()
    meta["error_rate"] = failed / attempted
    meta["problems"] = [msg for p in phases for msg in p.problems][:5]
    meta["known_defects"] = {"overflow_inputs": overflow.ops, "failed": overflow.failed,
                             "problems": overflow.problems[:2]}
    result = {"correct": not any(p.wrong for p in phases), "attempted": attempted,
              "failed": failed,
              "metrics": {k: {"value": v, "unit": u} for k, (v, u, _) in metrics.items()}}
    with open(out_dir / f"{stem}.json", "w", encoding="utf-8") as f:
        json.dump({"meta": meta, "samples": {k: s for k, (_, _, s) in metrics.items()},
                   "table_only": {k: v for k, (v, _, _) in extra.items()}, **result}, f,
                  indent=2)
    _print_table(args, wl, metrics, extra)
    print("meta " + json.dumps(meta))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
