"""Spatial layouts and relay trees for the distribution architecture.

Small stations are placed uniformly in the macro disk; backhaul is then
relayed hop by hop toward a gateway station.  The routing rule is greedy
geographic: order the nodes by distance to the gateway (gateway first,
exact ties broken by node index) and attach each node to its Euclidean
nearest neighbor among the nodes that precede it in that order.  Parents
are therefore always at least as close to the gateway, the parent
relation is acyclic, and every node reaches the gateway.

Placement uses numpy's default_rng (PCG64); identical (n, radius, seed)
inputs reproduce positions bit for bit.  export_topology gives a tree as
a JSON-ready dict, and export_json as the JSON text of that dict.  The
positions are written without a Python call per coordinate: their digits
are the shortest round-trip digits of repr, found in numpy by Dragonbox
(Jeon, "Dragonbox: A New Floating-Point Binary-to-Decimal Conversion
Algorithm", 2020), which, like Ryu (Adams, "Ryu: fast float-to-string
conversion", PLDI 2018), needs no bignums (_kernels.repr_fields).
"""
from __future__ import annotations

import json
import math
import sys

import numpy as np

from . import _kernels
from .scenario import ValidationError, _check_number, _check_type, _checked, _Frozen, _with_checked

RNG_ALGORITHM = "numpy-default_rng-PCG64"

NEAREST_TO_CENTER = "nearest-to-center"

# Largest coordinate magnitude, meters: squared distances between nodes (at
# most 8 * _MAX_COORD_M**2) and the relay kernel's squared cell sizes then
# stay finite.
_MAX_COORD_M = 1e150

_MAX_N = 10**6  # stations: 10**6 take a few s and ~300 MB to place, build and load

# Number rules of the library arguments, as in scenario; numpy integers
# count, and a numpy float is checked as the Python float it converts to.
_REAL = (int, float, np.integer)
_INDEX = ((int, np.integer), 0, math.inf, "must be an integer >= 0")
_N = ((int, np.integer), 0, _MAX_N, f"must be an integer in [0, {_MAX_N}]")
_RADIUS = (_REAL, math.nextafter(0.0, 1.0), _MAX_COORD_M,
           f"must be a number in (0, {_MAX_COORD_M:g}]")
_BPS = (_REAL, 0, sys.float_info.max, "must be a finite number >= 0")


# _Frozen, not _Value: records holding arrays compare and hash by identity,
# as ndarrays have no truth value to compare by
class Placement(_Frozen):
    """n station positions (meters, (n, 2) float64 array) in a disk around the origin.

    The positions are a read-only copy of the array given, so that no view
    of the caller's array can change them once checked.
    """

    positions: np.ndarray
    macro_radius_m: float
    seed: int

    def __post_init__(self):
        pts = self.positions
        if not (isinstance(pts, np.ndarray) and pts.dtype.kind in "iuf"
                and pts.ndim == 2 and pts.shape[1] == 2):
            raise ValidationError("positions: must be a real-valued (n, 2) ndarray")
        with np.errstate(over="ignore"):   # a wider float beyond float64's range: inf
            pts = pts.astype(np.float64)
        if not (np.abs(pts) <= _MAX_COORD_M).all():
            raise ValidationError(f"positions: coordinates must be finite, at most "
                                  f"{_MAX_COORD_M:g} m in magnitude")
        pts.setflags(write=False)
        object.__setattr__(self, "positions", pts)
        object.__setattr__(self, "seed", _check_number("seed", self.seed, _INDEX))
        object.__setattr__(self, "macro_radius_m",
                           _check_real("macro_radius_m", self.macro_radius_m, _RADIUS))

    @property
    def n(self) -> int:
        return self.positions.shape[0]


class RelayTree(_Frozen):
    """Spanning tree of a placement, rooted at the gateway station.

    parent[i] is the next hop of node i toward the gateway (-1 for the
    gateway itself); link_load_bps[i] is the traffic on the edge
    i -> parent[i] (0 until link_loads() fills it, and 0 for the gateway).
    A hand-built tree must be one: each parent -1 or a node index, the
    gateway the only root, and every node's parent chain ending there; its
    loads must be finite.  It keeps read-only copies of the arrays given,
    the loads as float64, checked after copying, and the gateway index as
    the plain int it equals.
    """

    gateway_index: int
    parent: np.ndarray
    link_load_bps: np.ndarray

    def __post_init__(self):
        parent, loads = self.parent, self.link_load_bps
        if not (isinstance(parent, np.ndarray) and parent.ndim == 1
                and parent.dtype.kind in "iu" and parent.size > 0):
            raise ValidationError("parent: must be a non-empty 1-D integer ndarray")
        n = parent.shape[0]
        if not (isinstance(loads, np.ndarray) and loads.dtype.kind == "f"
                and loads.shape == (n,)):
            raise ValidationError(f"link_load_bps: must be a float ndarray of length {n}")
        with np.errstate(over="ignore"):   # a wider float beyond float64's range: inf
            parent, loads = parent.copy(), loads.astype(np.float64)
        if not np.isfinite(loads).all():
            raise ValidationError("link_load_bps: must hold finite numbers")
        g = _check_number("gateway_index", self.gateway_index,
                          ((int, np.integer), 0, n - 1, f"must be an integer in [0, {n})"))
        object.__setattr__(self, "gateway_index", g)
        object.__setattr__(self, "parent", parent)
        object.__setattr__(self, "link_load_bps", loads)
        if (((parent < -1) | (parent >= n)).any()
                or np.flatnonzero(parent == -1).tolist() != [g]):
            raise ValidationError(f"parent: must hold node indices in [0, {n}), and -1 "
                                  f"for the gateway {g} alone")
        # the gateway is the only root, so it lies on no cycle, and its subtree
        # counts exactly the nodes whose parent chain ends there
        if _kernels.subtree_sizes(parent)[g] != n:
            raise ValidationError("parent: has a cycle, so some nodes never reach the gateway")
        parent.setflags(write=False)
        loads.setflags(write=False)

    @property
    def n(self) -> int:
        return self.parent.shape[0]


def _check_real(name: str, value, rule: tuple):
    """value, checked by the number rule; a numpy float as the Python float it
    converts to, since numpy would compare it with the bound in its own precision."""
    return _check_number(name, float(value) if isinstance(value, np.floating) else value, rule)


def place_uniform(n: int, macro_radius_m: float, seed: int) -> Placement:
    """Sample n positions i.i.d. uniform over the disk of the given radius."""
    _check_number("n", n, _N)
    macro_radius_m = _check_real("macro_radius_m", macro_radius_m, _RADIUS)
    seed = _check_number("seed", seed, _INDEX)
    rng = np.random.default_rng(seed)
    # Uniform over the disk: radius is R*sqrt(u), angle uniform.
    r = macro_radius_m * np.sqrt(rng.random(n))
    theta = 2.0 * np.pi * rng.random(n)
    positions = np.column_stack((r * np.cos(theta), r * np.sin(theta)))
    positions.setflags(write=False)
    # fresh and within the disk, so neither copied nor checked again
    return _checked(Placement, positions=positions, macro_radius_m=macro_radius_m, seed=seed)


def _gateway_index(placement: Placement, gateway) -> int:
    if isinstance(gateway, str) and gateway == NEAREST_TO_CENTER:
        d2 = (placement.positions ** 2).sum(axis=1)
        return int(np.argmin(d2))  # first occurrence: smallest index on ties
    return _check_number("gateway", gateway, (
        (int, np.integer), 0, placement.n - 1,
        f"must be '{NEAREST_TO_CENTER}' or an integer index in [0, {placement.n})"))


def build_relay_tree(placement: Placement, gateway=NEAREST_TO_CENTER) -> RelayTree:
    """Build the greedy geographic relay tree of a placement.

    gateway is either the string NEAREST_TO_CENTER or an explicit node
    index.  Deterministic: duplicate positions are resolved by node
    index, never an error.
    """
    _check_type("placement", placement, Placement, "a Placement")
    if placement.n == 0:
        raise ValidationError("placement: must contain at least one node")
    g, n = _gateway_index(placement, gateway), placement.n
    pts = placement.positions
    d_gw = np.hypot(pts[:, 0] - pts[g, 0], pts[:, 1] - pts[g, 1])
    d_gw[g] = -1.0  # gateway sorts first even if another node shares its position
    order = np.argsort(d_gw)
    # argsort leaves each run of equal distances in no set order: one sort by
    # (run, index) puts every run in index order
    tied = d_gw[order[1:]] == d_gw[order[:-1]]
    if tied.any():
        run = np.concatenate(([0], np.cumsum(~tied)))
        order = np.sort(run * n + order) % n
    parent = np.empty(n, dtype=np.int64)
    parent[order] = _kernels.parent_ranks(pts[order], order)
    loads = np.zeros(n)
    parent.setflags(write=False)
    loads.setflags(write=False)
    # each parent has a lower rank than its child, so no cycle can form: the
    # tree is built without RelayTree's checks, which would prove that again
    return _checked(RelayTree, gateway_index=g, parent=parent, link_load_bps=loads)


def link_loads(tree: RelayTree, per_cell_bps: float) -> RelayTree:
    """Tree with each edge carrying per_cell_bps times its subtree size.

    The edge above node i aggregates the traffic of i and every node
    routed through it, so the gateway's incident edges together carry
    (n - 1) * per_cell_bps.
    """
    _check_type("tree", tree, RelayTree, "a RelayTree")
    per_cell_bps = _check_real("per_cell_bps", per_cell_bps, _BPS)
    sizes = _kernels.subtree_sizes(tree.parent).astype(np.float64)
    sizes[tree.gateway_index] = 0.0  # the gateway has no edge above it
    # checked in Python floats: numpy's multiply would overflow with a warning
    largest = float(sizes.max())
    if not math.isfinite(per_cell_bps * largest):
        raise ValidationError(f"per_cell_bps: {per_cell_bps!r} bit/s on an edge "
                              f"carrying {largest:.0f} stations overflows a float")
    loads = per_cell_bps * sizes
    loads.setflags(write=False)
    # the tree was checked when it was built; only its loads are new
    return _with_checked(tree, link_load_bps=loads)


def gateway_ingress_bps(tree: RelayTree) -> float:
    """Total traffic arriving at the gateway over its incident edges."""
    _check_type("tree", tree, RelayTree, "a RelayTree")
    return float(tree.link_load_bps[tree.parent == tree.gateway_index].sum())


def _check_export(placement: Placement, tree: RelayTree):
    """A ValidationError unless placement is a Placement and tree a RelayTree
    of as many nodes."""
    _check_type("placement", placement, Placement, "a Placement")
    _check_type("tree", tree, RelayTree, "a RelayTree")
    if tree.n != placement.n:
        raise ValidationError(f"tree: has {tree.n} nodes, the placement {placement.n}")


def export_topology(placement: Placement, tree: RelayTree) -> dict:
    """JSON-ready dict: positions, gateway_index, parent, link_load_bps, seed."""
    _check_export(placement, tree)
    parent = tree.parent.tolist()
    parent[tree.gateway_index] = None   # the one -1 a RelayTree holds
    return {
        "positions": placement.positions.tolist(),
        "gateway_index": tree.gateway_index,
        "parent": parent,
        "link_load_bps": tree.link_load_bps.tolist(),
        "seed": placement.seed,
        "rng": RNG_ALGORITHM,
    }


def export_json(placement: Placement, tree: RelayTree) -> str:
    """JSON text of export_topology(placement, tree), written from the arrays:
    the bytes json.dumps(indent=2) gives for that dict, and a final newline,
    since json.dumps with an indent runs CPython's pure-Python encoder.  Every
    number is finite, by the Placement and RelayTree checks.  Positions come
    from the shortest round-trip kernel _kernels.repr_fields, the other arrays
    from %-templates of their elements."""
    _check_export(placement, tree)
    n, g = tree.n, tree.gateway_index   # n >= 1: no array is the empty one, written []
    parent = tree.parent.tolist()
    del parent[g]
    parent_templates = ["    %d"] * n
    parent_templates[g] = "    null"
    # a tree's loads are subtree sizes times one rate, so few are distinct: each
    # is formatted once, keyed by its bits so that 0.0 and -0.0 stay apart
    bits, inverse = np.unique(tree.link_load_bps.view(np.int64), return_inverse=True)
    load_texts = np.array(["    %r" % v for v in bits.view(np.float64).tolist()],
                          dtype=object)
    fields = (
        ("positions", ["[\n", *_positions(placement.positions), "\n  ]"]),
        ("gateway_index", [json.dumps(g)]),
        ("parent", [_array(parent_templates) % tuple(parent)]),
        ("link_load_bps", [_array(load_texts[inverse].tolist())]),
        ("seed", [json.dumps(placement.seed)]),
        ("rng", [json.dumps(RNG_ALGORITHM)]),
    )
    # one join of all the pieces, so that the text is copied once
    pieces = ["{\n"]
    for key, texts in fields:
        pieces += ("  ", json.dumps(key), ": ", *texts, ",\n")
    pieces[-1] = "\n}\n"
    return "".join(pieces)


def _array(elements: list) -> str:
    """A JSON array as json.dumps(indent=2) indents it at the second level,
    from the text of its elements."""
    return "[\n" + ",\n".join(elements) + "\n  ]"


def _positions(positions: np.ndarray) -> list:
    """The elements of the positions array as json.dumps(indent=2) writes them,
    in the pieces of _kernels.table_text: a station a row, each coordinate
    the field of repr_fields."""
    pieces = _kernels.table_text(positions.shape[:1], [positions[:, 0], positions[:, 1]],
                                 [b"    [\n      ", b",\n      ", b"\n    ],\n"],
                                 _kernels.repr_fields)
    pieces[-1] = pieces[-1][:-2]   # no comma after the last station
    return pieces
