"""Seeded input generators for the three benchmark workloads.

Every op is plain data (dicts, lists, numbers, strings).  This module uses
only the standard library and never imports wbackhaul: the program under
test receives nothing but the generated inputs.

The stream comes in blocks (BLOCK ops per workload).  What sets an op's
cost is the same in every block and for every seed: for each stratum of
the log-uniform size range a block holds one op of each variant (output
format, or uniform and clustered placement), sized at the stratum's
log-centre, plus a fixed set of other ops.  The seed shuffles the ops
within a block and draws everything else i.i.d., so every block has
nearly the same mix whatever the seed.  Sizes are not drawn: on the
relay-tree kernel, whose cost is quadratic, drawing them within even the
middle fifth of a stratum could move the median op's cost by up to 18%
from seed to seed.
"""
from __future__ import annotations

import json
import math
import random
from itertools import count, islice

WORKLOADS = ("sweep", "topology", "eval")

YEAR_S = 3.1536e7

# sweep: grid points per op, log-uniform; a block of 16 holds a CSV and a
# JSON sweep per size stratum, and two `figures` commands (one in eight),
# one for all six datasets and one for a single dataset
SWEEP_POINTS = (50, 20000)
SWEEP_STRATA = 7
SWEEP_BLOCK = 2 * SWEEP_STRATA + 2
FIGURE_NAMES = ("fig3a", "fig3b", "fig4a", "fig4b", "fig5a", "fig5b")
AXES_BY_ARCH = {
    "central": ("n_small", "alpha", "small_se", "band", "small_radius"),
    "distribution": ("k_cluster", "alpha", "small_se", "band", "small_radius"),
}

# topology: stations per op, log-uniform; a block holds a uniform and a
# clustered placement per size stratum, so half the placements are clustered
TOPOLOGY_NODES = (500, 16000)
TOPOLOGY_STRATA = 9
TOPOLOGY_BLOCK = 2 * TOPOLOGY_STRATA

# eval: out of every block of 40 ops, 4 are invalid
EVAL_BLOCK = 40
EVAL_INVALID_PER_BLOCK = 4
ROUNDTRIP_EVERY = 4

# overflow inputs (ROADMAP item 4) are not part of any timed stream: every
# operation of a timed run must succeed.  They are run once per run, after
# timing, as a fixed set of probes whose failures are reported on their own
OVERFLOW_PROBES = 8

BLOCK = {"sweep": SWEEP_BLOCK, "topology": TOPOLOGY_BLOCK, "eval": EVAL_BLOCK}


def _rng(workload: str, seed: int, warmup: bool) -> random.Random:
    return random.Random(f"layerbench/{workload}/{seed}/{int(warmup)}")


def _size(u: float, lo: float, hi: float) -> int:
    return int(round(math.exp(math.log(lo) + u * (math.log(hi) - math.log(lo)))))


def _sizes(strata: int, lo: float, hi: float) -> list:
    """The log-centre of each stratum of [lo, hi], smallest first."""
    return [_size((j + 0.5) / strata, lo, hi) for j in range(strata)]


def ops(workload: str, seed: int, warmup: bool = False):
    """Endless stream of op dicts for one workload.

    warmup=True gives a separate stream of small ops of every kind, for
    filling caches before timing.
    """
    if workload == "sweep":
        return _sweep_ops(seed, warmup)
    if workload == "topology":
        return _topology_ops(seed, warmup)
    if workload == "eval":
        return _eval_ops(seed, warmup)
    raise ValueError(f"unknown workload {workload!r}")


def take(workload: str, seed: int, n: int, warmup: bool = False) -> list:
    return list(islice(ops(workload, seed, warmup), n))


def largest(workload: str, seed: int) -> dict:
    """An op at the top of the workload's size range, with the output that
    takes the most memory; run before timing so that peak memory does not
    depend on how many ops a run completes."""
    rng = _rng(workload, seed, True)
    if workload == "sweep":
        m = 4
        return {"kind": "sweep", "config": scenario_doc(rng, "central"), "format": "json",
                "axes": [_range_spec(rng, "n_small", SWEEP_POINTS[1] // m),
                         _list_spec(rng, "small_se", m)]}
    if workload == "topology":
        n = TOPOLOGY_NODES[1]
        return {"kind": "uniform", "n": n, "radius": 500.0, "gateway": "nearest-to-center",
                "per_cell_bps": 5.9e8, "seed": rng.randrange(2 ** 31)}
    return next(op for op in _eval_ops(seed, True) if op["kind"] == "valid")


# ---------------------------------------------------------------------------
# scenario documents
# ---------------------------------------------------------------------------

def _maybe(rng, p=0.6) -> bool:
    return rng.random() < p


def _spectrum_eff(rng) -> dict:
    if _maybe(rng, 0.5):
        return {"type": "fixed", "bit_per_s_per_hz": rng.uniform(0.5, 8.0)}
    se = {"type": "shannon_edge", "calibration_se": rng.uniform(1.0, 8.0)}
    if _maybe(rng):
        se["ref_radius_m"] = rng.uniform(20.0, 100.0)
    return se


def _embodied(rng) -> dict:
    if _maybe(rng, 0.5):
        return {"type": "absolute", "init_j": rng.uniform(1e8, 1e11),
                "maint_j": rng.uniform(0.0, 1e10)}
    return {"type": "fraction_of_total", "fraction": rng.uniform(0.05, 0.6)}


def _cell(rng, cls: str) -> dict:
    cell = {}
    if _maybe(rng):
        cell["bandwidth_hz"] = rng.choice((2e7, 4e7, 1e8, 2e8, 4e8))
    if _maybe(rng):
        cell["spectrum_eff"] = _spectrum_eff(rng)
    if _maybe(rng):
        cell["radius_m"] = (rng.uniform(10.0, 150.0) if cls == "small"
                            else rng.uniform(200.0, 1500.0))
    if _maybe(rng):
        cell["power_curve"] = {"slope_a": rng.uniform(1.0, 30.0),
                               "offset_b_w": rng.uniform(10.0, 500.0)}
    if _maybe(rng):
        cell["lifetime_s"] = rng.uniform(1.0, 15.0) * YEAR_S
    if _maybe(rng):
        cell["embodied"] = _embodied(rng)
    return cell


def scenario_doc(rng, arch: str) -> dict:
    """A valid scenario document; every optional field is present or not."""
    if arch == "central":
        doc = {"architecture": {"type": "central", "n_small": rng.randint(0, 1000)}}
    else:
        doc = {"architecture": {"type": "distribution",
                                "k_cluster": rng.randint(1, 100)}}
    if _maybe(rng):
        doc["band_hz"] = (rng.choice((5.8e9, 28e9, 60e9)) if _maybe(rng, 0.5)
                          else rng.uniform(2e9, 8e10))
    if _maybe(rng):
        doc["alpha"] = rng.uniform(2.0, 4.5)
    if _maybe(rng):
        doc["small"] = _cell(rng, "small")
    if arch == "central" and _maybe(rng, 0.5):
        doc["macro"] = _cell(rng, "macro")
    if _maybe(rng, 0.4):
        anchor = {}
        for key, lo, hi in (("power_w", 1.0, 50.0), ("radius_m", 100.0, 1000.0),
                            ("carrier_hz", 2e9, 3e10), ("freq_exponent", 0.0, 3.0)):
            if _maybe(rng):
                anchor[key] = rng.uniform(lo, hi)
        doc["tx_anchor"] = anchor
    if _maybe(rng, 0.4):
        over = {}
        if _maybe(rng):
            over["s1"] = rng.uniform(0.0, 0.3)
        if _maybe(rng):
            over["x2"] = rng.uniform(0.0, 0.2)
        doc["overheads"] = over
    return doc


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------

# name -> (low start range, span range) for float axes
_FLOAT_AXES = {
    "alpha": ((2.0, 3.0), (0.5, 2.0)),
    "small_se": ((0.5, 3.0), (1.0, 7.0)),
    "band": ((2e9, 1e10), (1e10, 7e10)),
    "small_radius": ((10.0, 40.0), (20.0, 200.0)),
}


def _range_spec(rng, axis: str, n: int) -> str:
    """`axis=start:stop:step` with exactly n values."""
    if axis in ("n_small", "k_cluster"):
        step = rng.choice((1, 2, 3, 5, 10, 25))
        start = rng.randint(0 if axis == "n_small" else 1, 50)
        return f"{axis}={start}:{start + (n - 1) * step}:{step}"
    (lo_a, lo_b), (span_a, span_b) = _FLOAT_AXES[axis]
    start = rng.uniform(lo_a, lo_b)
    step = rng.uniform(span_a, span_b) / (n - 1)
    return f"{axis}={start!r}:{start + (n - 1) * step!r}:{step!r}"


def _list_spec(rng, axis: str, n: int) -> str:
    """`axis=v1,v2,...` with n strictly increasing values."""
    if axis in ("n_small", "k_cluster"):
        lo = 0 if axis == "n_small" else 1
        values = sorted(rng.sample(range(lo, lo + 2000), n))
        return f"{axis}=" + ",".join(str(v) for v in values)
    (lo_a, _), (_, span_b) = _FLOAT_AXES[axis]
    values = sorted({rng.uniform(lo_a, lo_a + span_b) for _ in range(n)})
    return f"{axis}=" + ",".join(repr(v) for v in values)


def _sweep_op(rng, points: int, fmt: str, arch: str, two_axes: bool) -> dict:
    names = list(AXES_BY_ARCH[arch])
    primary = rng.choice(names)
    if two_axes:
        names.remove(primary)
        secondary = rng.choice(names)
        m = rng.randint(2, 8)
        axes = [_range_spec(rng, primary, max(2, round(points / m))),
                _list_spec(rng, secondary, m)]
    else:
        axes = [_range_spec(rng, primary, max(2, points))]
    return {"kind": "sweep", "config": scenario_doc(rng, arch), "axes": axes, "format": fmt}


def _sweep_ops(seed: int, warmup: bool):
    rng = _rng("sweep", seed, warmup)
    lo, hi = (20, 200) if warmup else SWEEP_POINTS
    for b in count():
        block = [{"kind": "figures", "which": "all", "format": ("csv", "json")[b % 2]},
                 {"kind": "figures", "which": FIGURE_NAMES[b % len(FIGURE_NAMES)],
                  "format": ("json", "csv")[b % 2]}]
        # per stratum, one of the two sweeps is central and one has two axes:
        # drawn independently, they made a block's cost vary from seed to seed
        for points in _sizes(SWEEP_STRATA, lo, hi):
            archs = rng.sample(("central", "distribution"), 2)
            two_axes = rng.sample((False, True), 2)
            block += [_sweep_op(rng, points, fmt, arch, two)
                      for fmt, arch, two in zip(("csv", "json"), archs, two_axes)]
        rng.shuffle(block)
        yield from block


# ---------------------------------------------------------------------------
# topology
# ---------------------------------------------------------------------------

def _in_disk(x, y, r):
    return x * x + y * y <= r * r


def clustered_positions(rng, n: int, radius: float) -> list:
    """Gaussian hotspots, groups of exact duplicates and one collinear row."""
    n_row = n // 5
    n_dup = n // 5
    n_hot = n - n_row - n_dup
    pts = []
    centers = []
    while len(centers) < rng.randint(3, 8):
        x, y = rng.uniform(-radius, radius), rng.uniform(-radius, radius)
        if _in_disk(x, y, 0.8 * radius):
            centers.append((x, y, rng.uniform(0.01, 0.08) * radius))
    while len(pts) < n_hot:
        cx, cy, sigma = rng.choice(centers)
        x, y = rng.gauss(cx, sigma), rng.gauss(cy, sigma)
        if _in_disk(x, y, radius):
            pts.append([x, y])
    y0 = rng.uniform(-0.5, 0.5) * radius
    half = 0.9 * math.sqrt(radius * radius - y0 * y0)
    pts.extend([-half + 2.0 * half * j / max(1, n_row - 1), y0] for j in range(n_row))
    while n_dup > 0:
        group = min(n_dup, rng.randint(2, 6))
        src = rng.choice(pts)
        pts.extend([src[0], src[1]] for _ in range(group))
        n_dup -= group
    rng.shuffle(pts)
    return pts


def _topology_ops(seed: int, warmup: bool):
    rng = _rng("topology", seed, warmup)
    lo, hi = (50, 300) if warmup else TOPOLOGY_NODES
    while True:
        block = []
        for kind in ("uniform", "clustered"):
            for n in _sizes(TOPOLOGY_STRATA, lo, hi):
                radius = rng.uniform(200.0, 2000.0)
                gateway = "nearest-to-center" if _maybe(rng, 0.7) else rng.randrange(n)
                op = {"kind": kind, "n": n, "radius": radius, "gateway": gateway,
                      "per_cell_bps": rng.uniform(1e8, 2e9), "seed": rng.randrange(2 ** 31)}
                if kind == "clustered":
                    op["positions"] = clustered_positions(rng, n, radius)
                block.append(op)
        rng.shuffle(block)
        yield from block


# ---------------------------------------------------------------------------
# eval
# ---------------------------------------------------------------------------

# Out-of-range edits: (path, bad value, names that identify the field in
# the error message; the document key or the model attribute).
_OUT_OF_RANGE = (
    (("alpha",), -1.0, ("alpha",)),
    (("alpha",), float("nan"), ("alpha",)),
    (("band_hz",), 0.0, ("band_hz", "carrier_hz")),
    (("small", "radius_m"), -10.0, ("radius_m",)),
    (("small", "bandwidth_hz"), 0.0, ("bandwidth_hz",)),
    (("small", "lifetime_s"), -1.0, ("lifetime_s",)),
    (("small", "power_curve"), {"slope_a": 0.0, "offset_b_w": 50.0}, ("slope_a",)),
    (("small", "power_curve"), {"slope_a": 5.0, "offset_b_w": -1.0}, ("offset_b_w",)),
    (("small", "embodied"), {"type": "fraction_of_total", "fraction": 1.5}, ("fraction",)),
    (("small", "embodied"), {"type": "absolute", "init_j": -1.0, "maint_j": 0.0},
     ("init_j",)),
    (("small", "spectrum_eff"), {"type": "fixed", "bit_per_s_per_hz": -1.0},
     ("bit_per_s_per_hz",)),
    (("small", "spectrum_eff"), {"type": "shannon_edge", "calibration_se": 0.0},
     ("calibration_se",)),
    (("tx_anchor", "power_w"), 0.0, ("power_w",)),
    (("tx_anchor", "freq_exponent"), -1.0, ("freq_exponent",)),
    (("overheads", "s1"), 1.5, ("s1",)),
    (("overheads", "x2"), -0.1, ("x2",)),
    (("alpha",), "3.2", ("alpha",)),
)

_UNKNOWN_KEY_AT = ((), ("architecture",), ("small",), ("small", "power_curve"),
                   ("tx_anchor",), ("overheads",))


def _set_path(doc: dict, path: tuple, value) -> None:
    for key in path[:-1]:
        doc = doc.setdefault(key, {})
    doc[path[-1]] = value


def _invalid_doc(rng, j: int) -> dict:
    """Invalid document kind j % 3: unknown key, out-of-range, malformed."""
    arch = rng.choice(("central", "distribution"))
    doc = scenario_doc(rng, arch)
    kind = j % 3
    if kind == 0:
        where = rng.choice(_UNKNOWN_KEY_AT)
        key = f"x_{rng.choice(('foo', 'bar', 'qux'))}{rng.randint(0, 99)}"
        target = doc
        for part in where:
            target = target.setdefault(part, {})
        target[key] = 1
        return {"text": json.dumps(doc), "expect": "ConfigError", "fields": [key]}
    if kind == 1:
        if arch == "central" and _maybe(rng, 0.2):
            doc["architecture"]["n_small"] = -rng.randint(1, 50)
            return {"text": json.dumps(doc), "expect": "ConfigError",
                    "fields": ["n_small"]}
        if arch == "distribution" and _maybe(rng, 0.2):
            doc["macro"] = {}
            return {"text": json.dumps(doc), "expect": "ConfigError", "fields": ["macro"]}
        path, value, fields = rng.choice(_OUT_OF_RANGE)
        _set_path(doc, path, value)
        return {"text": json.dumps(doc), "expect": "ConfigError", "fields": list(fields)}
    text = json.dumps(doc)
    return {"text": text[:rng.randrange(1, len(text) - 1)], "expect": "ParseError",
            "fields": []}


def _overflow_doc(rng, j: int) -> dict:
    """Valid-schema inputs that overflow the model (ROADMAP item 4).

    The transmit-power anchor keeps its default 500 m radius, as in the
    reported reproduction, so (1e6 / 500) ** 100 overflows.
    """
    if j % 2 == 0:
        doc = scenario_doc(rng, rng.choice(("central", "distribution")))
        doc.pop("tx_anchor", None)
        doc["alpha"] = 100
        doc.setdefault("small", {})["radius_m"] = 1e6
        fields = ["alpha", "radius_m"]
    else:
        doc = scenario_doc(rng, "central")
        doc["architecture"]["n_small"] = 10 ** 400
        fields = ["n_small"]
    return {"text": json.dumps(doc), "expect": "ConfigError", "fields": fields}


def overflow_probes(seed: int) -> list:
    """The OVERFLOW_PROBES overflow inputs of a run, half of each kind."""
    rng = random.Random(f"layerbench/overflow/{seed}")
    return [{"kind": "overflow", **_overflow_doc(rng, j)} for j in range(OVERFLOW_PROBES)]


def _eval_ops(seed: int, warmup: bool):
    rng = _rng("eval", seed, warmup)
    n_valid = 0
    n_invalid = 0
    for block in count():
        slots = ["valid"] * EVAL_BLOCK
        for s in rng.sample(range(EVAL_BLOCK), EVAL_INVALID_PER_BLOCK):
            slots[s] = "invalid"
        for kind in slots:
            if kind == "valid":
                doc = scenario_doc(rng, rng.choice(("central", "distribution")))
                indent = 2 if _maybe(rng, 0.5) else None
                yield {"kind": "valid", "text": json.dumps(doc, indent=indent),
                       "doc": doc, "roundtrip": n_valid % ROUNDTRIP_EVERY == 0}
                n_valid += 1
            else:
                yield {"kind": "invalid", **_invalid_doc(rng, n_invalid)}
                n_invalid += 1


# ---------------------------------------------------------------------------
# mix summary
# ---------------------------------------------------------------------------

def _quantiles(values: list) -> dict:
    if not values:
        return {}
    v = sorted(values)

    def pick(q):
        return v[min(len(v) - 1, int(q * len(v)))]

    return {"min": v[0], "p50": pick(0.5), "p90": pick(0.9), "max": v[-1],
            "mean": sum(v) / len(v)}


class Mix:
    """Running description of the ops attempted: the share with each property."""

    def __init__(self, workload: str):
        self.workload = workload
        self.n = 0
        self.flags: dict[str, int] = {}
        self.sizes: list[int] = []

    def _flag(self, name: str, on: bool) -> None:
        self.flags[name] = self.flags.get(name, 0) + bool(on)

    def add(self, op: dict, size: int) -> None:
        self.n += 1
        self.sizes.append(size)
        if self.workload == "sweep":
            self._flag("figures", op["kind"] == "figures")
            self._flag("json", op["format"] == "json")
            if op["kind"] == "sweep":
                self._flag("two_axes", len(op["axes"]) == 2)
                self._flag("central",
                           op["config"]["architecture"]["type"] == "central")
        elif self.workload == "topology":
            self._flag("clustered", op["kind"] == "clustered")
            self._flag("explicit_gateway", op["gateway"] != "nearest-to-center")
        else:
            self._flag("invalid", op["kind"] == "invalid")
            self._flag("roundtrip", op.get("roundtrip", False))

    def merge(self, other: "Mix") -> None:
        self.n += other.n
        self.sizes += other.sizes
        for k, v in other.flags.items():
            self.flags[k] = self.flags.get(k, 0) + v

    def summary(self) -> dict:
        size_name = {"sweep": "points_per_op", "topology": "nodes_per_op",
                     "eval": "scenarios_per_op"}[self.workload]
        return {"ops": self.n,
                "share": {k: v / self.n for k, v in self.flags.items()} if self.n else {},
                size_name: _quantiles(self.sizes)}
