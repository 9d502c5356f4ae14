"""Output oracle: an independent closed form of the model and relay-tree checks.

Nothing here imports wbackhaul.  The scenario formulas are restated from
the model's definition (the calibration table defaults included):

* spectrum efficiency: fixed, or Shannon edge
  log2(1 + (2**c - 1) * (r_ref / r)**alpha)
* central throughput: (1 + s1 + 2*x2) * (N * B_s * SE_s + B_m * SE_m)
  per class, linear in N
* distribution throughput: (1 + s1 + x2) * B * SE * K * (K + 1)
* transmit power: P0 * (r / r0)**alpha * (f / f0)**e; operating power
  a * P_tx + b; lifetime energy plus absolute or fractional embodied energy

Each check returns a list of problem strings; an empty list means the
output is correct.
"""
from __future__ import annotations

import json
import math

import numpy as np

REL_TOL = 1e-9

YEAR_S = 3.1536e7
_SMALL = {"bandwidth_hz": 1e8, "se": ("fixed", 5.0, None), "radius_m": 50.0,
          "a": 7.84, "b": 71.5, "lifetime_s": 5 * YEAR_S, "embodied": ("fraction", 0.2)}
_MACRO = {"bandwidth_hz": 1e8, "se": ("fixed", 5.0, None), "radius_m": 500.0,
          "a": 21.45, "b": 354.44, "lifetime_s": 10 * YEAR_S,
          "embodied": ("absolute", 75e9 + 10e9)}
_ANCHOR = {"power_w": 10.0, "radius_m": 500.0, "carrier_hz": 5.8e9, "freq_exponent": 2.0}

VALUE_KEYS = ("throughput_bps", "system_energy_j", "efficiency_bps_per_j")
INT_AXES = ("n_small", "k_cluster")


# ---------------------------------------------------------------------------
# scenario closed form
# ---------------------------------------------------------------------------

def _cell(doc: dict | None, defaults: dict) -> dict:
    cell = dict(defaults)
    doc = doc or {}
    for key in ("bandwidth_hz", "radius_m", "lifetime_s"):
        if key in doc:
            cell[key] = doc[key]
    if "spectrum_eff" in doc:
        se = doc["spectrum_eff"]
        if se["type"] == "fixed":
            cell["se"] = ("fixed", se["bit_per_s_per_hz"], None)
        else:
            cell["se"] = ("shannon", se["calibration_se"], se.get("ref_radius_m", 50.0))
    if "power_curve" in doc:
        cell["a"] = doc["power_curve"]["slope_a"]
        cell["b"] = doc["power_curve"]["offset_b_w"]
    if "embodied" in doc:
        em = doc["embodied"]
        cell["embodied"] = (("absolute", em["init_j"] + em["maint_j"])
                            if em["type"] == "absolute" else ("fraction", em["fraction"]))
    return cell


def resolve(doc: dict) -> dict:
    """Flat parameter set of a scenario document, defaults filled."""
    arch = doc["architecture"]
    p = {"central": arch["type"] == "central",
         "count": arch.get("n_small", arch.get("k_cluster")),
         "band_hz": doc.get("band_hz", 5.8e9),
         "alpha": doc.get("alpha", 3.2),
         "anchor": {**_ANCHOR, **doc.get("tx_anchor", {})},
         "s1": doc.get("overheads", {}).get("s1", 0.10),
         "x2": doc.get("overheads", {}).get("x2", 0.04),
         "small": _cell(doc.get("small"), _SMALL)}
    if p["central"]:
        p["macro"] = _cell(doc.get("macro"), _MACRO)
    return p


def with_axis(p: dict, axis: str, value) -> dict:
    """Parameters with one sweep axis set, as the sweep axis names define it."""
    q = dict(p)
    if axis in INT_AXES:
        q["count"] = value
    elif axis == "alpha":
        q["alpha"] = value
    elif axis == "band":
        q["band_hz"] = value
    elif axis == "small_se":
        q["small"] = {**p["small"], "se": ("fixed", value, None)}
    elif axis == "small_radius":
        q["small"] = {**p["small"], "radius_m": value}
    else:
        raise ValueError(f"unknown axis {axis!r}")
    return q


def _se(cell: dict, alpha: float) -> float:
    kind, value, ref = cell["se"]
    if kind == "fixed":
        return value
    return math.log2(1.0 + (2.0 ** value - 1.0) * (ref / cell["radius_m"]) ** alpha)


def _cell_energy(cell: dict, p: dict) -> float:
    an = p["anchor"]
    p_tx = (an["power_w"] * (cell["radius_m"] / an["radius_m"]) ** p["alpha"]
            * (p["band_hz"] / an["carrier_hz"]) ** an["freq_exponent"])
    e_op = (cell["a"] * p_tx + cell["b"]) * cell["lifetime_s"]
    kind, v = cell["embodied"]
    return e_op + (v if kind == "absolute" else e_op * v / (1.0 - v))


def point(p: dict) -> tuple[float, float, float]:
    """(throughput_bps, system_energy_j, efficiency) of one scenario."""
    s = p["small"]
    s_rate = s["bandwidth_hz"] * _se(s, p["alpha"])
    if p["central"]:
        m = p["macro"]
        m_rate = m["bandwidth_hz"] * _se(m, p["alpha"])
        throughput = (1.0 + p["s1"] + 2.0 * p["x2"]) * (p["count"] * s_rate + m_rate)
        energy = _cell_energy(m, p) + p["count"] * _cell_energy(s, p)
    else:
        k = p["count"]
        throughput = (1.0 + p["s1"] + p["x2"]) * s_rate * k * (k + 1)
        energy = k * _cell_energy(s, p)
    return throughput, energy, throughput / energy


def close(got: float, want: float, tol: float = REL_TOL) -> bool:
    return math.isfinite(got) and abs(got - want) <= tol * max(abs(want), 1e-300)


# ---------------------------------------------------------------------------
# sweep output
# ---------------------------------------------------------------------------

def axis_values(spec: str) -> tuple[str, list]:
    """Values an `axis=start:stop:step` or `axis=v1,v2,...` spec stands for."""
    name, _, rhs = spec.partition("=")
    conv = int if name in INT_AXES else float
    if ":" not in rhs:
        return name, [conv(t) for t in rhs.split(",")]
    start, stop, step = (conv(t) for t in rhs.split(":"))
    n = int(math.floor((stop - start) / step + 1e-9)) + 1
    return name, [start + i * step for i in range(n)]


# Figure presets, restated: (base document, primary axis, secondary axis).
_FIG_SE = [1.0, 2.5, 5.0, 7.5, 10.0]
_FIG_BANDS = [5.8e9, 28e9, 60e9]
_FIG_ALPHAS = [2.5 + i * 0.05 for i in range(31)]
_FIG_RADII = [20.0, 30.0, 40.0, 50.0, 75.0, 100.0]
_SHANNON_SMALL = {"spectrum_eff": {"type": "shannon_edge", "calibration_se": 5.0,
                                   "ref_radius_m": 50.0}}
_CENTRAL = {"architecture": {"type": "central", "n_small": 100}}
_DIST = {"architecture": {"type": "distribution", "k_cluster": 10}}
FIGURES = {
    "fig3a": (_CENTRAL, ("n_small", list(range(0, 1001, 25))), ("small_se", _FIG_SE)),
    "fig3b": (_DIST, ("k_cluster", list(range(1, 101))), ("small_se", _FIG_SE)),
    "fig4a": (_CENTRAL, ("n_small", list(range(0, 1001, 25))), ("band", _FIG_BANDS)),
    "fig4b": (_DIST, ("k_cluster", list(range(1, 101))), ("band", _FIG_BANDS)),
    "fig5a": ({**_CENTRAL, "small": _SHANNON_SMALL}, ("alpha", _FIG_ALPHAS),
              ("small_radius", _FIG_RADII)),
    "fig5b": ({**_DIST, "small": _SHANNON_SMALL}, ("alpha", _FIG_ALPHAS),
              ("small_radius", _FIG_RADII)),
}


def parse_rows(text: str, fmt: str, columns: list) -> list:
    """Rows of sweep output text as lists of numbers in the given column order.

    CSV must have exactly these columns; JSON rows may carry extra keys, and
    the row array may sit under a top-level "rows" key.
    """
    if fmt == "csv":
        lines = text.split("\n")
        if lines[-1] != "":
            raise ValueError("CSV output does not end with a newline")
        if lines[0].split(",") != columns:
            raise ValueError(f"CSV header {lines[0]!r}, expected {columns}")
        return [[float(c) for c in line.split(",")] for line in lines[1:-1]]
    doc = json.loads(text)
    rows = doc["rows"] if isinstance(doc, dict) else doc
    return [[r[k] for k in columns] for r in rows]


def check_sweep(text: str, fmt: str, base_doc: dict, axes: list, sample: list) -> list:
    """Check row count, axis columns and sampled rows of one sweep output.

    axes is [(name, values), ...] in CLI order; sample holds row indices.
    """
    try:
        rows = parse_rows(text, fmt, [a for a, _ in axes] + list(VALUE_KEYS))
    except (ValueError, KeyError, TypeError) as e:
        return [f"unparsable output: {e!r}"]
    sizes = [len(v) for _, v in axes]
    if len(rows) != math.prod(sizes):
        return [f"{len(rows)} rows, expected {math.prod(sizes)}"]
    problems = []
    inner = sizes[1] if len(sizes) == 2 else 1
    for col, (name, values) in enumerate(axes):
        for r, row in enumerate(rows):
            want = values[r // inner] if col == 0 else values[r % inner]
            if not close(row[col], want, 1e-15):
                problems.append(f"row {r}: {name}={row[col]!r}, expected {want!r}")
                break
    base = resolve(base_doc)
    for r in sample:
        p = base
        for col, (name, values) in enumerate(axes):
            v = values[r // inner] if col == 0 else values[r % inner]
            p = with_axis(p, name, v)
        want = point(p)
        got = rows[r][len(axes):]
        if not all(close(g, w) for g, w in zip(got, want)):
            problems.append(f"row {r}: values {got} != closed form {list(want)}")
    return problems


# ---------------------------------------------------------------------------
# relay tree
# ---------------------------------------------------------------------------

def expected_parent(pos: np.ndarray, gateway: int, i: int) -> int | None:
    """Brute-force parent: the nearest node ranked before i, smallest index on ties.

    Nodes are ranked by distance to the gateway (gateway first), exact
    ties by node index.
    """
    if i == gateway:
        return None
    d = np.hypot(pos[:, 0] - pos[gateway, 0], pos[:, 1] - pos[gateway, 1])
    d[gateway] = -1.0
    idx = np.arange(len(pos))
    before = np.nonzero((d < d[i]) | ((d == d[i]) & (idx < i)))[0]
    dx = pos[before, 0] - pos[i, 0]
    dy = pos[before, 1] - pos[i, 1]
    d2 = dx * dx + dy * dy
    return int(before[d2 == d2.min()].min())


def check_topology(doc: dict, positions, n: int, radius: float, gateway,
                   per_cell_bps: float, sample: list) -> list:
    """Check an exported topology: size, gateway, sampled parents, flow.

    positions is the input placement, or None when the program placed the
    nodes itself (then only their count and disk membership are checked).
    """
    try:
        pos = np.asarray(doc["positions"], dtype=np.float64).reshape(-1, 2)
        parent = doc["parent"]
        loads = np.asarray(doc["link_load_bps"], dtype=np.float64)
        g = doc["gateway_index"]
    except (KeyError, TypeError, ValueError) as e:
        return [f"unparsable topology: {e}"]
    if len(pos) != n or len(parent) != n or len(loads) != n:
        return [f"sizes {len(pos)}/{len(parent)}/{len(loads)}, expected {n}"]
    problems = []
    if positions is not None and not np.array_equal(pos, np.asarray(positions)):
        problems.append("exported positions differ from the placement")
    if not (pos[:, 0] ** 2 + pos[:, 1] ** 2 <= radius * radius * (1 + 1e-12)).all():
        problems.append("a station lies outside the macro disk")
    if gateway == "nearest-to-center":
        want_g = int(np.argmin(pos[:, 0] ** 2 + pos[:, 1] ** 2))
    else:
        want_g = gateway
    if g != want_g:
        return problems + [f"gateway {g}, expected {want_g}"]
    for i in sample:
        want = expected_parent(pos, g, i)
        if parent[i] != want:
            problems.append(f"node {i}: parent {parent[i]}, brute force {want}")
    if any(p is None for i, p in enumerate(parent) if i != g):
        return problems + ["a non-gateway node has no parent"]
    par = np.array([-1 if p is None else p for p in parent], dtype=np.int64)
    child_sum = np.zeros(n)
    others = par >= 0
    np.add.at(child_sum, par[others], loads[others])
    want_loads = per_cell_bps + child_sum
    if loads[g] != 0.0:
        problems.append(f"gateway link load {loads[g]}, expected 0")
    bad = others & ~(np.abs(loads - want_loads) <= REL_TOL * want_loads)
    if bad.any():
        problems.append(f"{int(bad.sum())} links break flow conservation")
    ingress = float(loads[par == g].sum())
    if not close(ingress, (n - 1) * per_cell_bps):
        problems.append(f"gateway ingress {ingress}, expected {(n - 1) * per_cell_bps}")
    return problems
