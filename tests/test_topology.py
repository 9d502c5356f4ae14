import json
from decimal import Decimal

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wbackhaul import _kernels, topology
from wbackhaul.scenario import ValidationError
from wbackhaul.sweep_report import json_text
from wbackhaul.topology import (
    Placement,
    RelayTree,
    build_relay_tree,
    export_json,
    export_topology,
    gateway_ingress_bps,
    link_loads,
    place_uniform,
)


def test_place_empty():
    pl = place_uniform(0, 500.0, seed=1)
    assert pl.positions.shape == (0, 2)


def test_place_count_and_disk_containment():
    pl = place_uniform(2000, 500.0, seed=3)
    assert pl.n == 2000
    assert (np.hypot(pl.positions[:, 0], pl.positions[:, 1]) <= 500.0).all()


def test_place_mean_radial_distance():
    # uniform disk: E[r] = (2/3) R
    pl = place_uniform(10_000, 500.0, seed=7)
    mean_r = np.hypot(pl.positions[:, 0], pl.positions[:, 1]).mean()
    assert mean_r == pytest.approx(500.0 * 2 / 3, rel=0.02)


def test_place_seed_determinism_bit_exact():
    a = place_uniform(1000, 500.0, seed=42)
    b = place_uniform(1000, 500.0, seed=42)
    assert np.array_equal(a.positions, b.positions)
    c = place_uniform(1000, 500.0, seed=43)
    assert not np.array_equal(a.positions, c.positions)


def _placement(points, radius=500.0, seed=0):
    return Placement(positions=np.asarray(points, dtype=float),
                     macro_radius_m=radius, seed=seed)


def test_single_node_tree():
    tree = build_relay_tree(_placement([[1.0, 2.0]]))
    assert tree.gateway_index == 0
    assert tree.parent.tolist() == [-1]
    assert link_loads(tree, 1e9).link_load_bps.tolist() == [0.0]


def test_line_of_four_builds_chain_with_counted_loads():
    # gateway at the end of a line: each hop relays everything behind it
    tree = build_relay_tree(_placement([[0, 0], [10, 0], [20, 0], [30, 0]]))
    assert tree.gateway_index == 0
    assert tree.parent.tolist() == [-1, 0, 1, 2]
    loads = link_loads(tree, 1e9).link_load_bps
    assert loads.tolist() == [0.0, 3e9, 2e9, 1e9]
    assert gateway_ingress_bps(link_loads(tree, 1e9)) == 3e9


def test_star_around_gateway():
    pts = [[0, 0], [10, 0], [0, 10], [-10, 0], [0, -10]]
    tree = build_relay_tree(_placement(pts))
    assert tree.parent.tolist() == [-1, 0, 0, 0, 0]
    loads = link_loads(tree, 1e9).link_load_bps
    assert loads[1:].tolist() == [1e9] * 4


def test_gateway_selection_rules():
    pts = [[100, 0], [1, 1], [50, 50]]
    assert build_relay_tree(_placement(pts)).gateway_index == 1
    assert build_relay_tree(_placement(pts), gateway=2).gateway_index == 2
    with pytest.raises(ValidationError):
        build_relay_tree(_placement(pts), gateway=7)
    with pytest.raises(ValidationError):
        build_relay_tree(place_uniform(0, 500.0, seed=0))


def test_spanning_tree_properties():
    for seed in range(5):
        pl = place_uniform(300, 500.0, seed=seed)
        tree = build_relay_tree(pl)
        assert int((tree.parent == -1).sum()) == 1
        assert int((tree.parent != -1).sum()) == pl.n - 1  # exactly N-1 edges
        # every node walks to the gateway
        for i in range(pl.n):
            j, hops = i, 0
            while tree.parent[j] != -1:
                j = tree.parent[j]
                hops += 1
                assert hops <= pl.n
            assert j == tree.gateway_index


def test_parents_are_never_farther_from_gateway():
    pl = place_uniform(500, 500.0, seed=11)
    tree = build_relay_tree(pl)
    g = tree.gateway_index
    d = np.hypot(pl.positions[:, 0] - pl.positions[g, 0],
                 pl.positions[:, 1] - pl.positions[g, 1])
    for i in range(pl.n):
        if tree.parent[i] != -1:
            assert d[tree.parent[i]] <= d[i]


def test_flow_conservation_exact():
    for seed in (0, 1, 2):
        pl = place_uniform(400, 500.0, seed=seed)
        tree = link_loads(build_relay_tree(pl), 1e9)
        assert gateway_ingress_bps(tree) == (pl.n - 1) * 1e9


def test_zero_per_cell_traffic():
    pl = place_uniform(50, 500.0, seed=5)
    tree = link_loads(build_relay_tree(pl), 0.0)
    assert tree.link_load_bps.tolist() == [0.0] * pl.n


def test_tree_determinism_bit_exact():
    a = link_loads(build_relay_tree(place_uniform(600, 500.0, seed=9)), 2e9)
    b = link_loads(build_relay_tree(place_uniform(600, 500.0, seed=9)), 2e9)
    assert a.gateway_index == b.gateway_index
    assert np.array_equal(a.parent, b.parent)
    assert np.array_equal(a.link_load_bps, b.link_load_bps)


def test_duplicate_positions_resolved_by_index():
    pts = [[0.0, 0.0]] * 5
    tree = build_relay_tree(_placement(pts))
    assert tree.gateway_index == 0
    assert tree.parent.tolist() == [-1, 0, 0, 0, 0]


def test_gateway_ingress_monotone_over_nested_placements():
    # Total gateway ingress is (n-1) * per-cell by flow conservation, so
    # it can only grow as nodes are added.  The per-edge *maximum* is not
    # monotone under this routing rule: a new node can bridge part of a
    # heavy branch onto a lighter one (e.g. seed 40, 200 -> 400 nodes).
    full = place_uniform(400, 500.0, seed=13)
    prev = -1.0
    for n in (5, 10, 50, 100, 200, 400):
        pl = Placement(positions=full.positions[:n].copy(),
                       macro_radius_m=500.0, seed=13)
        ingress = gateway_ingress_bps(link_loads(build_relay_tree(pl), 1e9))
        assert ingress > prev
        prev = ingress


def test_export_schema():
    pl = place_uniform(20, 500.0, seed=17)
    tree = link_loads(build_relay_tree(pl), 1e9)
    doc = export_topology(pl, tree)
    assert set(doc) == {"positions", "gateway_index", "parent",
                        "link_load_bps", "seed", "rng"}
    assert len(doc["positions"]) == 20
    assert doc["parent"][doc["gateway_index"]] is None
    assert doc["seed"] == 17
    assert isinstance(doc["rng"], str)
    json.dumps(doc)  # JSON-serializable as exported


def _brute_parent_ranks(pos, node_idx):
    """O(N^2) reference: nearest lower-ranked node, ties to the smaller index."""
    n = pos.shape[0]
    out = np.empty(n, dtype=np.int64)
    out[:1] = -1
    for k in range(1, n):
        diff = pos[:k] - pos[k]
        d2 = diff[:, 0] * diff[:, 0] + diff[:, 1] * diff[:, 1]
        ties = np.nonzero(d2 == d2.min())[0]
        out[k] = ties[np.argmin(node_idx[ties])]
    return out


def _hotspots_with_duplicates(rng, n):
    centers = rng.uniform(-400, 400, size=(5, 2))
    sigma = rng.uniform(2, 40, size=5)
    k = rng.integers(0, 5, size=n - n // 4)
    pts = centers[k] + rng.normal(size=(k.size, 2)) * sigma[k, None]
    dups = pts[rng.integers(0, pts.shape[0], size=n // 4)]  # exact copies
    return rng.permutation(np.concatenate([pts, dups]))


def _multi_density(rng, n):
    """A uniform background, tight hotspots, exact duplicates, a collinear
    row and a few far isolated stations: blocks of very different counts."""
    far = rng.uniform(-1.0, 1.0, size=(4, 2)) * 2e3
    row = np.column_stack((np.linspace(-450, 450, n // 10),
                           np.full(n // 10, rng.uniform(-400, 400))))
    centers = rng.uniform(-400, 400, size=(4, 2))
    sigma = np.array([0.01, 0.3, 3.0, 30.0])
    k = rng.integers(0, 4, size=n // 3)
    hot = centers[k] + rng.normal(size=(k.size, 2)) * sigma[k, None]
    flat = rng.uniform(-500, 500, size=(n - 4 - row.shape[0] - k.size - n // 8, 2))
    pts = np.concatenate([far, row, hot, flat])
    dups = pts[rng.integers(0, pts.shape[0], size=n // 8)]  # exact copies
    return rng.permutation(np.concatenate([pts, dups]))


def _oracle_cases():
    rng = np.random.default_rng(31)
    for seed in range(3):
        for n in (1, 2, 3, 17, 200, 5000):
            yield f"uniform-{n}-{seed}", place_uniform(n, 500.0, seed=seed).positions
    yield "all-duplicates", np.full((300, 2), 7.25)
    yield "collinear-row", np.column_stack((np.linspace(-450, 450, 700), np.full(700, 3.0)))
    for seed in range(3):
        yield f"hotspots-{seed}", _hotspots_with_duplicates(rng, 3000)
    yield "multi-density", _multi_density(rng, 3000)
    # d2 underflows to 0 or a few subnormal steps: the index tie-break decides
    yield "tiny-1e-160", 1e-160 * rng.integers(0, 30, size=(400, 2)).astype(float)
    yield "tiny-1e-162", 1e-162 * rng.uniform(0, 30, size=(400, 2))
    # a span of three subnormal steps: the finest cell size underflows to 0
    yield "subnormal", 5e-324 * rng.integers(0, 4, size=(300, 2)).astype(float)
    # d2 overflows to inf for far pairs
    yield "huge", 1e154 * rng.uniform(-1, 1, size=(300, 2))


@pytest.mark.parametrize("name,points", list(_oracle_cases()),
                         ids=[name for name, _ in _oracle_cases()])
def test_parent_ranks_match_brute_force_oracle(name, points):
    rng = np.random.default_rng(len(points))
    for node_idx in (np.arange(len(points), dtype=np.int64),
                     rng.permutation(len(points)).astype(np.int64)):
        with np.errstate(over="ignore"):
            ranks = _brute_parent_ranks(points, node_idx)
            expected = np.where(ranks < 0, -1, node_idx[ranks])
            assert np.array_equal(_kernels.parent_ranks(points, node_idx), expected)


def _oracle_case(name):
    return next(points for case, points in _oracle_cases() if case == name)


def test_ranks_start_on_the_levels_their_blocks_need(monkeypatch):
    """Ranks of a multi-density placement start on several grid levels."""
    points = _oracle_case("multi-density")
    n = len(points)
    calls = []
    resolve = _kernels._resolve

    def spy(level, slots, *args):
        calls.append((level, level[0][slots]))
        return resolve(level, slots, *args)
    monkeypatch.setattr(_kernels, "_resolve", spy)
    _kernels.parent_ranks(points, np.arange(n, dtype=np.int64))
    # levels run finest first, so a rank's first level is its start level
    start = {}
    for level, ranks in calls:
        for rank in ranks.tolist():
            start.setdefault(rank, id(level))
    assert len(start) == n - 1
    assert len(set(start.values())) >= 3


@pytest.mark.parametrize("name", ["multi-density", "all-duplicates", "hotspots-0"])
def test_parent_ranks_match_brute_force_oracle_in_tiny_chunks(name, monkeypatch):
    """Chunk edges of rows and of candidate pairs fall inside runs of tied
    candidates, and the oracle still holds."""
    monkeypatch.setattr(_kernels, "_CHUNK_ROWS", 5)
    monkeypatch.setattr(_kernels, "_CHUNK_PAIRS", 7)
    points = _oracle_case(name)
    node_idx = np.random.default_rng(3).permutation(len(points)).astype(np.int64)
    ranks = _brute_parent_ranks(points, node_idx)
    assert np.array_equal(_kernels.parent_ranks(points, node_idx),
                          np.where(ranks < 0, -1, node_idx[ranks]))


def _brute_tree(pts, g):
    """Parents by the brute-force rule over the lexsort order of gateway
    distance, the gateway first and equal distances by node index."""
    n = pts.shape[0]
    d = np.hypot(pts[:, 0] - pts[g, 0], pts[:, 1] - pts[g, 1])
    d[g] = -1.0
    order = np.lexsort((np.arange(n), d))
    expected = np.full(n, -1, dtype=np.int64)
    expected[order[1:]] = order[_brute_parent_ranks(pts[order], order)[1:]]
    return expected


def _assert_passes_the_checks(tree):
    """The tree as the checking constructor would build it: it raises a
    ValidationError for a parent array that is not a tree."""
    RelayTree(tree.gateway_index, tree.parent.copy(), tree.link_load_bps.copy())


@pytest.mark.parametrize("gateway", ["nearest-to-center", 0, 1234])
def test_relay_tree_matches_brute_force_rule(gateway):
    pts = _hotspots_with_duplicates(np.random.default_rng(5), 2000)
    tree = build_relay_tree(_placement(pts), gateway)
    assert np.array_equal(tree.parent, _brute_tree(pts, tree.gateway_index))


def _tie_cases():
    """Placements whose distinct positions share gateway distances, each
    with its gateway and the kinds of grid level its tree must run through:
    dense ones take their cell starts from a table, sparse ones search."""
    rng = np.random.default_rng(23)
    a = 7.5 * np.arange(-20, 21, dtype=float)
    lattice = np.stack(np.meshgrid(a, a), axis=-1).reshape(-1, 2)
    yield "lattice", rng.permutation(lattice), "nearest-to-center", {"dense"}
    # the 8 images of a point under the square's symmetries are one distance
    # from the gateway at the origin
    ab = rng.uniform(0.0, 300.0, size=(150, 2))
    images = [ab * sign for sign in ((1, 1), (1, -1), (-1, 1), (-1, -1))]
    rings = np.concatenate([[[0.0, 0.0]]] + images + [p[:, ::-1] for p in images])
    yield "rings", rng.permutation(rings), "nearest-to-center", {"dense"}
    # 40 more nodes at the origin; the gateway is one of them, not the first
    dups = np.concatenate([lattice, np.zeros((40, 2))])
    yield "gateway-duplicates", dups, lattice.shape[0] + 17, {"dense"}
    # a tight hotspot makes the finest levels sparse; the lattice rows find
    # their parents on coarser, dense ones
    hot = a[3] + 1e-3 * rng.normal(size=(3000, 2))
    yield ("lattice-and-hotspot", rng.permutation(np.concatenate([lattice, hot])),
           "nearest-to-center", {"dense", "sparse"})


@pytest.mark.parametrize("name,points,gateway,kinds", list(_tie_cases()),
                         ids=[case[0] for case in _tie_cases()])
def test_relay_tree_with_gateway_distance_ties_matches_brute_force_rule(
        name, points, gateway, kinds, monkeypatch):
    seen = set()
    cell_starts, start_levels = _kernels._cell_starts, _kernels._start_levels

    def spy(keys, side):
        starts = cell_starts(keys, side)
        seen.add("sparse" if starts is None else "dense")
        return starts

    def levels_only(*args):  # the base table that picks start levels is no level
        depth = start_levels(*args)
        seen.clear()
        return depth
    monkeypatch.setattr(_kernels, "_cell_starts", spy)
    monkeypatch.setattr(_kernels, "_start_levels", levels_only)
    tree = build_relay_tree(_placement(points), gateway)
    g = tree.gateway_index
    d = np.hypot(points[:, 0] - points[g, 0], points[:, 1] - points[g, 1])
    # the case holds distinct positions at one gateway distance
    assert np.unique(d).size < np.unique(points, axis=0).shape[0]
    assert kinds <= seen
    assert np.array_equal(tree.parent, _brute_tree(points, g))
    _assert_passes_the_checks(tree)


@pytest.mark.parametrize("name,points", [case for case in _oracle_cases()
                                         if (np.abs(case[1]) <= 1e150).all()],
                         ids=[name for name, p in _oracle_cases() if (np.abs(p) <= 1e150).all()])
def test_built_trees_pass_the_checking_constructor(name, points):
    for gateway in ("nearest-to-center", len(points) - 1):
        _assert_passes_the_checks(build_relay_tree(_placement(points), gateway))


def test_build_trusts_the_kernel_and_does_not_check_the_tree(monkeypatch):
    checks = []
    post_init = RelayTree.__post_init__
    monkeypatch.setattr(RelayTree, "__post_init__",
                        lambda self: checks.append(1) or post_init(self))
    tree = build_relay_tree(place_uniform(300, 500.0, seed=4))
    assert checks == []
    assert tree.link_load_bps.dtype == np.float64 and not tree.link_load_bps.any()
    for array in (tree.parent, tree.link_load_bps):
        assert not array.flags.writeable
        with pytest.raises(ValueError):
            array[0] = 1
    monkeypatch.undo()
    _assert_passes_the_checks(tree)


@pytest.mark.parametrize("placement", [
    place_uniform(10**5, 500.0, seed=11),
    _placement(_hotspots_with_duplicates(np.random.default_rng(12), 10**5)),
], ids=["uniform", "hotspots"])
def test_relay_tree_of_1e5_nodes_matches_brute_force_rule_on_a_sample(placement):
    tree = build_relay_tree(placement)
    _assert_passes_the_checks(tree)
    pts, g = placement.positions, tree.gateway_index
    d = np.hypot(pts[:, 0] - pts[g, 0], pts[:, 1] - pts[g, 1])
    d[g] = -1.0
    order = np.lexsort((np.arange(placement.n), d))
    rank = np.empty(placement.n, dtype=np.int64)
    rank[order] = np.arange(placement.n)
    for i in np.random.default_rng(13).choice(placement.n, size=300, replace=False):
        lower = order[:rank[i]]
        if lower.size == 0:
            assert tree.parent[i] == -1
            continue
        diff = pts[lower] - pts[i]
        d2 = diff[:, 0] * diff[:, 0] + diff[:, 1] * diff[:, 1]
        assert tree.parent[i] == lower[d2 == d2.min()].min()


def test_subtree_sizes_deep_chain_and_star():
    n = 5000
    chain = np.arange(-1, n - 1, dtype=np.int64)
    assert _kernels.subtree_sizes(chain).tolist() == list(range(n, 0, -1))
    star = np.zeros(n, dtype=np.int64)
    star[0] = -1
    assert _kernels.subtree_sizes(star).tolist() == [n] + [1] * (n - 1)
    row = _placement(np.column_stack((np.arange(n, dtype=float), np.zeros(n))))
    tree = build_relay_tree(row, gateway=0)
    assert tree.parent.tolist() == chain.tolist()
    sizes = _kernels.subtree_sizes(tree.parent)
    assert sizes.dtype == np.int64
    assert sizes.tolist() == list(range(n, 0, -1))


def _leaf_peeling_subtree_sizes(parent):
    """Reference: accumulate a node into its parent once all of its own
    children are done, one Python step per node."""
    par = parent.tolist()
    n = len(par)
    sizes = [1] * n
    pending = [0] * n
    for p in par:
        if p != -1:
            pending[p] += 1
    stack = [i for i in range(n) if pending[i] == 0]
    while stack:
        i = stack.pop()
        p = par[i]
        if p != -1:
            sizes[p] += sizes[i]
            pending[p] -= 1
            if pending[p] == 0:
                stack.append(p)
    return sizes


def _random_tree(rng, n, reach):
    """Parent array of a random tree on n nodes whose labels are a random
    permutation of their ranks: rank k hangs below one of the `reach`
    ranks just before it, so a small reach makes a deep tree."""
    label = rng.permutation(n)
    rank = np.arange(1, n)
    above = rank - 1 - rng.integers(0, np.minimum(rank, reach))
    parent = np.empty(n, dtype=np.int64)
    parent[label[0]] = -1
    parent[label[1:]] = label[above]
    return parent


def _subtree_cases():
    rng = np.random.default_rng(41)
    for n, reach in ((2, 1), (50, 3), (3000, 1), (3000, 2), (3000, 40), (20000, 20000)):
        yield f"random-{n}-reach-{reach}", _random_tree(rng, n, reach)
    yield "chain-1e5", np.arange(-1, 10**5 - 1, dtype=np.int64)
    star = np.full(10**4, 7, dtype=np.int64)
    star[7] = -1
    yield "star", star
    yield "single", np.array([-1], dtype=np.int64)


@pytest.mark.parametrize("name,parent", list(_subtree_cases()),
                         ids=[name for name, _ in _subtree_cases()])
def test_subtree_sizes_match_leaf_peeling_oracle(name, parent):
    sizes = _kernels.subtree_sizes(parent)
    assert sizes.dtype == np.int64
    assert sizes.tolist() == _leaf_peeling_subtree_sizes(parent)


def _writer_cases():
    yield "n-1", place_uniform(1, 500.0, seed=0), "nearest-to-center", 5.9e8
    yield "n-2", place_uniform(2, 500.0, seed=1), "nearest-to-center", 5.9e8
    yield "coincident", _placement([[3.5, -1.25]] * 5), "nearest-to-center", 5.9e8
    yield "explicit-gateway", place_uniform(500, 750.0, seed=2), 123, 1e9
    yield "zero-traffic", place_uniform(300, 500.0, seed=3), "nearest-to-center", 0.0
    yield "negative-zero-rate", place_uniform(300, 500.0, seed=3), 7, -0.0
    yield ("extreme-values", _placement([[0.0, -0.0], [5e-324, 1e150], [-1e150, 1e-7]]),
           "nearest-to-center", 1e300)
    chain = np.column_stack((np.arange(10**4, dtype=float), np.zeros(10**4)))
    yield "chain-1e4", _placement(chain), 0, 5.9e8
    yield ("clustered", _placement(_hotspots_with_duplicates(np.random.default_rng(9), 4000)),
           "nearest-to-center", 2.5e8)
    rng = np.random.default_rng(10)
    n = int(rng.integers(1, 2 * 10**4 + 1))
    yield ("random", place_uniform(n, float(rng.uniform(1.0, 1e4)), seed=int(rng.integers(1000))),
           int(rng.integers(n)), float(rng.uniform(0.0, 1e10)))
    # subnormal, exponent-form and mixed-form coordinates
    for radius in (1e-310, 3e-5, 2e16, 1e150):
        yield f"radius-{radius:g}", place_uniform(300, radius, seed=4), "nearest-to-center", 5.9e8
    signed_zeros = [[0.0, -0.0], [-0.0, 0.0], [0.0, 2.5], [-0.0, 1.0]]
    yield "signed-zero-coordinates", _placement(signed_zeros), "nearest-to-center", 5.9e8
    # the positions are written in pieces of _kernels._PIECE stations
    for n in (_kernels._PIECE - 1, _kernels._PIECE, _kernels._PIECE + 1):
        yield f"piece{n - _kernels._PIECE:+d}", place_uniform(n, 500.0, seed=n), 3, 5.9e8


def _assert_same_text(got, want):
    """got == want, exactly.  A mismatch reports both lengths and the first
    differing index with 80 characters around it, where a bare == between
    texts of a megabyte sets pytest diffing them for minutes."""
    if got == want:
        return
    i = next((i for i, (a, b) in enumerate(zip(got, want)) if a != b), min(len(got), len(want)))
    lo = max(i - 40, 0)
    pytest.fail(f"texts differ: lengths {len(got)} and {len(want)}, first at index {i}:\n"
                f"got  {got[lo:i + 40]!r}\nwant {want[lo:i + 40]!r}")


@pytest.mark.parametrize("name,placement,gateway,bps", list(_writer_cases()),
                         ids=[case[0] for case in _writer_cases()])
def test_export_json_writes_the_bytes_of_json_text(name, placement, gateway, bps):
    tree = link_loads(build_relay_tree(placement, gateway), bps)
    _assert_same_text(export_json(placement, tree), json_text(export_topology(placement, tree)))


def _hand_built_loads(n):
    rng = np.random.default_rng(12)
    yield "signed-zeros", rng.choice([0.0, -0.0, 5.9e8, -5.9e8], n)
    yield "float32", rng.choice(rng.random(40, dtype=np.float32) * 1e9, n)
    yield "all-distinct", rng.permutation(n) * np.pi + rng.random(n)


@pytest.mark.parametrize("name,loads", list(_hand_built_loads(2000)),
                         ids=[name for name, _ in _hand_built_loads(2000)])
def test_export_json_writes_hand_built_loads_as_json_text_does(name, loads):
    placement = place_uniform(2000, 500.0, seed=5)
    tree = build_relay_tree(placement, 9)
    tree = RelayTree(tree.gateway_index, tree.parent, loads)
    _assert_same_text(export_json(placement, tree), json_text(export_topology(placement, tree)))


# a long double beyond float64's range, where numpy's long double is wider
_LONG_MAX = pytest.param(np.finfo(np.longdouble).max, marks=pytest.mark.skipif(
    np.finfo(np.longdouble).max <= np.finfo(np.float64).max, reason="no wider long double"))


@pytest.mark.parametrize("bad", [float("inf"), -float("inf"), float("nan"), _LONG_MAX],
                         ids=["inf", "-inf", "nan", "longdouble-max"])
def test_relay_tree_rejects_a_non_finite_load(bad):
    # so no tree reaches gateway_ingress_bps or a writer with a load JSON cannot hold;
    # a long double load is cast to float64 first, to inf, with no overflow warning
    with pytest.raises(ValidationError, match="^link_load_bps: "):
        RelayTree(0, np.array([-1, 0, 0, 1]),
                  np.array([0.0, 1.0, bad, 2.0], dtype=np.asarray(bad).dtype))


def test_both_writers_raise_the_same_size_error():
    placement, tree = place_uniform(3, 500.0, 0), build_relay_tree(place_uniform(5, 500.0, 0))
    errors = []
    for write in (export_topology, export_json):
        with pytest.raises(ValidationError, match="^tree: ") as info:
            write(placement, tree)
        errors.append(str(info.value))
    assert errors == ["tree: has 5 nodes, the placement 3"] * 2


def test_relay_tree_keeps_a_plain_gateway_index_and_float64_loads():
    tree = RelayTree(np.int64(1), np.array([1, -1]), np.array([2.5, 0.0], dtype=np.float32))
    assert type(tree.gateway_index) is int and tree.gateway_index == 1
    assert tree.link_load_bps.dtype == np.float64 and tree.link_load_bps.tolist() == [2.5, 0.0]


def _texts(fields):
    """The texts of a kernel's rows, with their NULs deleted."""
    rows = np.concatenate((fields, np.full((fields.shape[0], 1), ord("\n"), np.uint8)), axis=1)
    return rows.tobytes().translate(None, b"\0").decode("ascii").split("\n")[:-1]


def _repr_texts(x):
    return _texts(_kernels.repr_fields(x))


def _e17_texts(x):
    return _texts(_kernels.e17_fields(x))


def _assert_texts(kernel_texts, oracle, x):
    x = np.asarray(x, dtype=np.float64)
    got, want = kernel_texts(x), [oracle(v) for v in x.ravel().tolist()]
    wrong = [(g, w) for g, w in zip(got, want) if g != w]
    assert len(got) == len(want) and not wrong, wrong[:5]


def _assert_reprs(x):
    _assert_texts(_repr_texts, repr, x)


def _assert_e17s(x):
    _assert_texts(_e17_texts, "%.17e".__mod__, x)


def _finite(bits):
    return bits[(bits >> 52 & 0x7FF) != 0x7FF].view(np.float64)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=60))
def test_repr_fields_equal_repr_on_finite_bit_patterns(patterns):
    x = _finite(np.array(patterns, dtype=np.uint64))
    if x.size:
        _assert_reprs(x)


def test_repr_fields_equal_repr_on_a_million_random_bit_patterns():
    _assert_reprs(_finite(np.random.default_rng(26).integers(0, 2**64, 10**6, dtype=np.uint64)))


def _workload_floats(rng, n):
    """n floats, a sixth from each kind of value that sweeps and topologies
    write: uniform on [0, 1e4), log-uniform on [1e-3, 1e12], uniform rounded
    to 0-14 decimals, multiples of 1/1024, integers below 2^53 and the axis
    values 2.5 + 0.05 i.  Random bit patterns are almost never short
    decimals or whole numbers."""
    k = n // 6
    decimals = 10.0 ** rng.integers(0, 15, k)
    return np.concatenate((
        rng.uniform(0, 1e4, k), 10.0 ** rng.uniform(-3, 12, k),
        np.rint(rng.uniform(0, 1e4, k) * decimals) / decimals,
        rng.integers(0, 2**24, k) / 1024, np.floor(2.0 ** rng.uniform(0, 53, k)),
        2.5 + 0.05 * np.arange(n - 5 * k)))


def test_repr_fields_equal_repr_on_the_values_sweeps_and_topologies_write():
    _assert_reprs(_workload_floats(np.random.default_rng(29), 6 * 10**5))


def _edge_floats():
    powers = np.array([2.0 ** e for e in range(-1074, 1024)]
                      + [float(f"1e{e}") for e in range(-323, 309)])
    with np.errstate(over="ignore"):
        above = np.nextafter(powers, np.inf)
    integers = ([float(2**53 + 2 * i) for i in range(1, 40)]
                + [float(2**e + 2**(e - 52) * i) for e in range(53, 90) for i in (1, 3, 7)])
    edges = np.concatenate((
        [0.0, 1e-322], np.nextafter(0.0, 1.0) * np.arange(1, 30),   # 5e-324, 1e-323, ...
        [2.2250738585072014e-308, 2.225073858507201e-308],
        powers, above[np.isfinite(above)], np.nextafter(powers, 0.0),
        [1e16, 9999999999999998.0, 1e-4, 9.999999999999999e-05, 1.7976931348623157e308],
        integers,
    ), axis=None)
    return np.concatenate((edges, -edges))


def test_repr_fields_equal_repr_on_the_edges_of_each_form():
    _assert_reprs(_edge_floats())


def test_repr_fields_take_any_shape_and_non_finite_values():
    x = np.array([[1.5, -2.0], [3e-5, 7e22], [np.inf, -np.nan]])
    assert _repr_texts(x) == [repr(v) for v in x.ravel().tolist()]
    assert _repr_texts(x.T) == [repr(v) for v in x.T.ravel().tolist()]


def _digit_18_ties():
    """Floats whose exact decimal value has 19 significant digits, the last a
    5: m / 2^p for odd m < 2^53 with m 5^p of 19 digits, a few per p."""
    rng = np.random.default_rng(28)
    ties = [682142176573.0546875]
    for p in range(1, 27):
        lo, hi = -(-10**18 // 5**p), min(10**19 // 5**p, 2**53)
        ties += [(int(m) | 1) / 2**p for m in rng.integers(lo, hi, 40)] if lo < hi - 1 else []
    return ties


def test_the_digit_18_ties_are_exact_ties():
    ties = _digit_18_ties()
    assert len(ties) > 900
    for v in ties:
        digits = Decimal(v).as_tuple().digits
        assert len(digits) == 19 and digits[-1] == 5, v


def _e17_edge_floats():
    """Every power of ten, its neighbours and 9.99999999999999999e(p - 1), which
    rounds up into the exponent p, and the floats next to it; ties at digit
    18; integers near 2^60; the ends of the normal range; subnormals and
    zeros; all with their negatives."""
    powers = np.array([float(f"1e{e}") for e in range(-323, 309)])
    nines = np.array([float(f"9.99999999999999999e{e}") for e in range(-324, 308)])
    with np.errstate(over="ignore"):
        around = [np.nextafter(x, y) for x in (powers, nines) for y in (0.0, np.inf)]
    edges = np.concatenate((
        powers, nines, *around, _digit_18_ties(),
        [float(2**60 + i * 2**8) for i in range(-200, 200)],
        [2.2250738585072014e-308, 2.225073858507201e-308, 2.2250738585072014e-307,
         1.7976931348623157e308, 1e100, 9.5e-100, 1e-99, 0.0],
        np.nextafter(0.0, 1.0) * np.array([1, 2, 3, 7, 2**20, 2**51, 2**52 - 1]),
    ), axis=None)
    edges = edges[np.isfinite(edges)]
    return np.concatenate((edges, -edges))


@settings(max_examples=300, deadline=None)
@given(st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=60))
def test_e17_fields_equal_percent_e17_on_finite_bit_patterns(patterns):
    x = _finite(np.array(patterns, dtype=np.uint64))
    if x.size:
        _assert_e17s(x)


def test_e17_fields_equal_percent_e17_on_a_million_random_bit_patterns():
    _assert_e17s(_finite(np.random.default_rng(28).integers(0, 2**64, 10**6, dtype=np.uint64)))


def test_e17_fields_equal_percent_e17_on_the_edges():
    _assert_e17s(_e17_edge_floats())


def test_e17_fields_take_any_shape_and_non_finite_values():
    x = np.array([[1.5, -2.0], [3e-5, 7e222], [np.inf, -np.nan], [-0.0, 5e-324]])
    for y in (x, x.T, x[1:2, :1], np.float64(0.1), x[:0]):
        y = np.asarray(y)
        assert _e17_texts(y) == ["%.17e" % v for v in y.ravel().tolist()]
    # two exponent digits in every row unless some element needs three
    assert _kernels.e17_fields(np.array([1e99, -1e-99])).shape == (2, 24)
    assert _kernels.e17_fields(np.array([1.0, 1e100])).shape == (2, 25)


def _export_per_element(placement, tree):
    return {
        "positions": [[float(x), float(y)] for x, y in placement.positions],
        "gateway_index": int(tree.gateway_index),
        "parent": [None if p == -1 else int(p) for p in tree.parent],
        "link_load_bps": [float(v) for v in tree.link_load_bps],
        "seed": int(placement.seed),
        "rng": "numpy-default_rng-PCG64",
    }


@pytest.mark.parametrize("placement", [
    place_uniform(3000, 750.0, seed=4),
    _placement(_hotspots_with_duplicates(np.random.default_rng(8), 1000)),
    _placement(np.array([[0, 0], [3, 4], [-2, 7]])),  # integer positions
], ids=["uniform", "hotspots", "integer"])
def test_export_bytes_match_per_element_construction(placement):
    tree = link_loads(build_relay_tree(placement), 5.9e8)
    assert (json.dumps(export_topology(placement, tree), indent=2)
            == json.dumps(_export_per_element(placement, tree), indent=2))


@pytest.mark.parametrize("radius", [float("inf"), float("nan"), -1.0, 0.0, 1e308,
                                    pytest.param(10 ** 400, id="400-digits")])
def test_place_rejects_bad_radius(radius):
    with pytest.raises(ValidationError, match="macro_radius_m"):
        place_uniform(10, radius, seed=0)


def test_place_rejects_negative_seed():
    with pytest.raises(ValidationError, match="seed"):
        place_uniform(10, 500.0, seed=-1)


@pytest.mark.parametrize("n", [2.5, -1, True, "3", 10**6 + 1, 10**20])
def test_place_rejects_non_integer_count(n):
    with pytest.raises(ValidationError, match="n: must be an integer"):
        place_uniform(n, 500.0, seed=0)


@pytest.mark.parametrize("bps", [float("nan"), float("inf"), -1.0])
def test_link_loads_require_finite_per_cell_bps(bps):
    tree = build_relay_tree(place_uniform(5, 500.0, seed=0))
    with pytest.raises(ValidationError, match="per_cell_bps"):
        link_loads(tree, bps)


def _with_coordinate(value):
    pts = place_uniform(50, 500.0, seed=2).positions.copy()
    pts[17, 1] = value
    return pts


@pytest.mark.parametrize("positions", [
    _with_coordinate(float("nan")),
    _with_coordinate(float("inf")),
    _with_coordinate(-float("inf")),
    [[0.0, 0.0], [1.0, 1.0]],                 # a list, not an array
    np.zeros(4),                              # 1-D
    np.zeros((4, 3)),                         # a third column
    np.zeros((4, 2), dtype=complex),
    np.zeros((4, 2), dtype=bool),
    np.zeros((4, 2), dtype=object),
    # cast to float64 first, to inf, with no overflow warning
    pytest.param(np.array([[0.0, 0.0], [np.finfo(np.longdouble).max, 1.0]], dtype=np.longdouble),
                 marks=_LONG_MAX.marks),
], ids=["nan", "inf", "-inf", "list", "1-D", "3-columns", "complex", "bool", "object",
        "longdouble-max"])
def test_tree_rejects_non_finite_positions(positions):
    with pytest.raises(ValidationError, match="^positions: "):
        build_relay_tree(Placement(positions, 500.0, 0))


@pytest.mark.parametrize("given", [
    np.array([[0, 0], [4_000_000_000, 0], [-1, 0], [4_000_000_001, 5]]),
    np.array([[0, 0], [1e30, 0], [2e30, 0]], dtype=np.float32),
], ids=["int64", "float32"])
def test_positions_are_stored_as_float64(given):
    # int64 squares of these would wrap, and float32 ones overflow
    pl = Placement(given, 500.0, 0)
    assert pl.positions.dtype == np.float64
    want = build_relay_tree(_placement(given.astype(float)))
    assert np.array_equal(build_relay_tree(pl).parent, want.parent)


@pytest.mark.parametrize("scale", [1e150, -1e150])
def test_tree_bounds_coordinates_so_distances_square_finitely(scale):
    pts = place_uniform(50, 1.0, seed=2).positions * scale
    # at the bound every squared distance is finite; the suite turns a numpy
    # overflow warning into an error
    build_relay_tree(_placement(pts.copy()))
    pts[17, 1] = 2 * scale
    with pytest.raises(ValidationError, match="positions"):
        build_relay_tree(_placement(pts))


@pytest.mark.parametrize("bps", [1e308, pytest.param(10 ** 400, id="400-digits")])
def test_link_loads_that_overflow_name_per_cell_bps(bps):
    tree = build_relay_tree(place_uniform(50, 500.0, seed=0))
    # raised before numpy's multiply, which would warn (an error in this suite)
    with pytest.raises(ValidationError, match="per_cell_bps"):
        link_loads(tree, bps)


def test_link_loads_bound_ignores_the_gateway():
    # the gateway's own subtree (all n nodes) carries no edge: with n = 2 the
    # one edge holds 1 * 1e308, which fits
    tree = link_loads(build_relay_tree(place_uniform(2, 500.0, seed=0)), 1e308)
    assert sorted(tree.link_load_bps.tolist()) == [0.0, 1e308]


_TEN = place_uniform(10, 500.0, seed=0)


@pytest.mark.parametrize("call,name", [
    (lambda: place_uniform(10, "500", 0), "macro_radius_m"),
    (lambda: place_uniform(10, 500.0, True), "seed"),
    (lambda: link_loads(build_relay_tree(_TEN), "1"), "per_cell_bps"),
    (lambda: link_loads(build_relay_tree(_TEN), True), "per_cell_bps"),
    (lambda: build_relay_tree(_TEN, gateway="x"), "gateway"),
    (lambda: build_relay_tree(_TEN, gateway=None), "gateway"),
    (lambda: build_relay_tree(_TEN, gateway=1.7), "gateway"),
    (lambda: build_relay_tree(_TEN, gateway=True), "gateway"),
    (lambda: build_relay_tree(_TEN, gateway=10), "gateway"),
    (lambda: place_uniform(10, np.float32("inf"), 0), "macro_radius_m"),
    (lambda: link_loads(build_relay_tree(_TEN), np.float32("inf")), "per_cell_bps"),
    (lambda: Placement(_TEN.positions, 500.0, "x"), "seed"),
    (lambda: RelayTree(0, [-1, 0], np.zeros(2)), "parent"),
    (lambda: RelayTree(0, np.array([-1, 0]), [0.0, 0.0]), "link_load_bps"),
    (lambda: RelayTree("x", np.array([-1, 0]), np.zeros(2)), "gateway_index"),
    (lambda: RelayTree(2.5, np.array([-1, 0]), np.zeros(2)), "gateway_index"),
    (lambda: RelayTree(7, np.array([-1, 0]), np.array([0.0, 1e9])), "gateway_index"),
    (lambda: RelayTree(0, np.array([-1, 0]), np.zeros(5)), "link_load_bps"),
    (lambda: RelayTree(0, np.array([-1, 0]), np.array([0, 1])), "link_load_bps"),
    (lambda: Placement(np.zeros((1, 2)), float("nan"), 0), "macro_radius_m"),
    (lambda: Placement(np.zeros((1, 2)), "x", 0), "macro_radius_m"),
    (lambda: export_topology(place_uniform(3, 500.0, 0),
                             build_relay_tree(place_uniform(5, 500.0, 0))), "tree"),
    (lambda: build_relay_tree("x"), "placement"),
    (lambda: link_loads("x", 1.0), "tree"),
    (lambda: gateway_ingress_bps(None), "tree"),
    (lambda: export_topology("x", build_relay_tree(_TEN)), "placement"),
    (lambda: export_json(_TEN, "x"), "tree"),
], ids=["radius-str", "seed-bool", "bps-str", "bps-bool", "gateway-str", "gateway-none",
        "gateway-float", "gateway-bool", "gateway-range", "radius-float32-inf",
        "bps-float32-inf", "placement-seed-str", "parent-list", "loads-list",
        "tree-gateway-str", "tree-gateway-float", "tree-gateway-range", "loads-length",
        "loads-int", "placement-radius-nan", "placement-radius-str", "export-n-mismatch",
        "build-placement-str", "loads-tree-str", "ingress-tree-none",
        "export-placement-str", "json-tree-str"])
def test_arguments_that_are_not_numbers_name_the_argument(call, name):
    with pytest.raises(ValidationError, match=f"^{name}: "):
        call()


def test_numpy_floats_act_as_python_floats():
    # a float32 is checked as the float it converts to: no overflowing cast
    a, b = place_uniform(5, np.float32(3.0), 0), place_uniform(5, 3.0, 0)
    assert np.array_equal(a.positions, b.positions)
    tree = build_relay_tree(b)
    assert np.array_equal(link_loads(tree, np.float32(2.5)).link_load_bps,
                          link_loads(tree, 2.5).link_load_bps)


def test_placement_keeps_a_copy_that_no_view_of_the_callers_array_changes():
    base = place_uniform(50, 500.0, seed=2).positions.copy()
    view = base[:]
    pl = Placement(base, 500.0, 0)
    assert base.flags.writeable and not pl.positions.flags.writeable
    view[17, 1] = float("nan")   # after the check: the placement keeps its own copy
    want = build_relay_tree(place_uniform(50, 500.0, seed=2))
    assert np.array_equal(build_relay_tree(pl).parent, want.parent)


def test_relay_tree_keeps_copies_that_no_view_of_the_callers_arrays_changes():
    parent, loads = np.array([-1, 0, 1, 2]), np.zeros(4)
    tree = RelayTree(0, parent[:], loads[:])
    assert parent.flags.writeable and not tree.parent.flags.writeable
    parent[1:] = [2, 3, 1]   # a cycle, after the check
    loads[:] = float("nan")
    assert link_loads(tree, 1.0).link_load_bps.tolist() == [0.0, 3.0, 2.0, 1.0]
    assert tree.link_load_bps.tolist() == [0.0] * 4


def test_placement_keeps_the_plain_numbers_it_checked():
    for pl in (Placement(np.zeros((2, 2)), np.float64(500.0), np.int64(3)),
               place_uniform(np.int64(2), np.float64(500.0), np.int64(3))):
        assert (type(pl.macro_radius_m), type(pl.seed)) == (float, int)


def test_records_compare_and_hash_by_identity():
    pl = place_uniform(10, 500.0, seed=1)
    tree = build_relay_tree(pl)
    assert pl == pl and pl != place_uniform(10, 500.0, seed=1)
    assert tree == tree and tree != build_relay_tree(pl)
    assert len({pl, pl, tree, tree}) == 2


def test_gateway_takes_numpy_integers():
    assert build_relay_tree(_TEN, gateway=np.int64(3)).gateway_index == 3


def _chain(n: int, rewire: tuple = ()) -> np.ndarray:
    """Parents of an n-node chain hanging from gateway 0, depth n - 1, with
    node rewire[0] pointed at rewire[1] if given."""
    parent = np.arange(-1, n - 1, dtype=np.int64)
    if rewire:
        parent[rewire[0]] = rewire[1]
    return parent


# n.bit_length() pointer-doubling rounds reach 2^18 - 1 hops at this size, and
# one round fewer only 2^17 - 1: one short of the chain's depth n - 1
_LONG = 2**17 + 1


@pytest.mark.parametrize("parent,gateway", [
    ([-1, 2, 1], 0),    # a cycle away from the gateway
    ([-1, 0, 3, 4, 2, 4], 0),  # a chain ending in a cycle
    (_chain(_LONG, (1, _LONG - 1)), 0),  # the last link closes a cycle
    (_chain(_LONG, (1, 3)), 0),          # a long tail ending in a 3-cycle
    ([-1, -1, 0], 0),   # a second root
    ([0, -1, 1], 0),    # the root is not the gateway
    ([-1, 0, -2], 0),   # an index below -1
    ([-1, 0, 5], 0),    # an index past the last node
    ([], 0),            # no root at all
    ([[-1, 0]], 0),     # not 1-D
    (np.array([-1.0, 0.0]), 0),   # float parents
], ids=["cycle", "tail-into-cycle", "long-cycle", "long-tail-into-3-cycle", "two-roots",
        "root-not-gateway", "below-minus-1", "past-n", "empty", "2-d", "float"])
def test_link_loads_reject_hand_built_trees_that_are_not_trees(parent, gateway):
    # every case fails when the tree is built, before link_loads could see it
    parent = parent if isinstance(parent, np.ndarray) else np.array(parent, dtype=np.int64)
    with pytest.raises(ValidationError, match="^parent: "):
        RelayTree(gateway, parent, np.zeros(parent.shape[-1]))


@pytest.mark.parametrize("parent,sizes", [
    (_chain(_LONG), list(range(_LONG, 0, -1))),
    # a parent dtype too narrow for the node count: 101 nodes in a chain, 99 below its end
    (np.minimum(_chain(200), 100).astype(np.int8), list(range(200, 99, -1)) + [1] * 99),
], ids=["depth-n-minus-1", "int8"])
def test_hand_built_trees_are_accepted_and_loaded(parent, sizes):
    tree = link_loads(RelayTree(0, parent, np.zeros(parent.shape[0])), 1.0)
    assert tree.link_load_bps.tolist() == [0.0] + sizes[1:]
    assert gateway_ingress_bps(tree) == sizes[1]


def test_link_loads_keep_the_tree_and_do_not_check_it_again(monkeypatch):
    tree = build_relay_tree(place_uniform(300, 500.0, seed=4))
    parent = tree.parent.copy()
    checks = []
    post_init = RelayTree.__post_init__
    monkeypatch.setattr(RelayTree, "__post_init__",
                        lambda self: checks.append(1) or post_init(self))
    loaded = link_loads(tree, 2e9)
    assert checks == []
    assert loaded.gateway_index == tree.gateway_index
    assert loaded.parent is tree.parent and np.array_equal(loaded.parent, parent)
    assert not tree.link_load_bps.any()     # the input tree keeps its zero loads
    for array in (loaded.parent, loaded.link_load_bps):
        assert not array.flags.writeable
        with pytest.raises(ValueError):
            array[0] = 1
