"""Hot numeric kernels: relay-tree construction and float-to-text.

parent_ranks answers, for every node, "nearest node closer to the
gateway" with an exact fixed-radius cell search (Bentley, Stanat and
Williams, "The complexity of finding fixed-radius near neighbors", IPL
1977) over a sparse square grid: a node's best candidate in the 3x3
block of cells around it is accepted only when it lies nearer than one
cell width, since every node outside the block is at least that far
away.  Rows that find no such candidate retry on a grid of twice the
cell size, up to a grid whose every block holds all nodes.  Each row
starts on the level its own neighbourhood needs: the base grid has about
two nodes a cell, and where it is crowded a row starts as many halvings
finer as would thin its 3x3 block to _OCCUPANCY nodes a cell; each level
queries the rows that start on it and those the finer levels left.
Acceptance is exact on any level, so the start level changes only the
cost.  Distances use the same IEEE operations and tie-break as the
brute-force rule, so the parents are bit-identical to it.  The ranks are
build_relay_tree's gateway-distance order: one unstable sort, then a tie
pass that puts each run of equal distances in node-index order with one
integer sort.

Each grid level lays the nodes out in cell order, cells by key and ranks
ascending within a cell, and gathers their coordinates in that order, so
a row's lower-ranked candidates in a cell are consecutive slots from the
cell's first.  A dense level (side^2 at most a few times n) reads each
cell's first slot from a table, the running sum of the cell counts (the
cell list of Allen and Tildesley, "Computer Simulation of Liquids", OUP
1987); a sparse level finds it by binary search in the sorted cell codes.
Either way the end of a neighbouring cell's run is searched, and a row's
own cell needs no search: its candidates there are the slots before it.

subtree_sizes counts the nodes below each node, for the link loads and
for RelayTree's proof that a hand-built tree is acyclic, by pointer
doubling (Wyllie's list ranking, "The complexity of parallel
computations", Cornell 1979): each of about log2(depth) rounds is one
bincount and one gather over all nodes, so a 10^5-node chain takes 17
numpy passes, not 10^5 Python steps.

repr_fields gives the repr text of every element of a float64 array with
no Python call per element.  Its digits are the shortest that read back as
the float, the nearest of that length, by Dragonbox (Jeon, "Dragonbox: A New
Floating-Point Binary-to-Decimal Conversion Algorithm", 2020), which, like
Schubfach (Giulietti, "The Schubfach way to render doubles", 2020) and Ryu
(Adams, "Ryu: fast float-to-string conversion", PLDI 2018), needs no
bignums: a table of 619 128-bit powers of ten, built once from Python ints,
and for each float one 64 x 128-bit product, assembled from 32-bit halves
in uint64, with a parity product more on about 1% of floats.  The rows lay
the digits out as repr does, in fixed columns with NUL bytes in the gaps,
which one bytes.translate deletes.  e17_fields gives the text of "%.17e" the
same way: its 18 digits, correctly rounded, are the fixed-precision case of
Ryu (Adams, "Ryu revisited: printf floating point conversion", OOPSLA
2019), from one 53 x 128-bit product with the same table.  table_text lays
out the rows of a table, constant separators and such fields, as byte
matrices, for the topology and sweep writers, with one kernel call per
piece of rows for all its float columns: a column with fewer values than
rows formats its next values in the same call, and its rows gather them.
"""
from __future__ import annotations

import itertools
from math import isqrt

import numpy as np

# Rows queried and candidate pairs gathered at once; they bound the
# kernel's scratch memory whatever the number of nodes.
_CHUNK_ROWS = 1 << 11
_CHUNK_PAIRS = 1 << 15
# A best candidate is accepted only when d2 < h^2 * _MARGIN.  With at most
# _MAX_CELLS cells per side the cell index of a point is off by less than
# 1e-10 of a cell, so no node outside the 3x3 block can come nearer.
_MARGIN = 1.0 - 1e-9
_MAX_CELLS = 1 << 16
# The margin argument needs h^2 well inside the normal float range.
_H2_RANGE = (1e-290, 1e290)
# Ranks start below the base grid when its sum(occupancy^2) > _OCCUPANCY * n,
# each on the first level where the nodes of its base 3x3 block would
# average at most _OCCUPANCY a cell.
_OCCUPANCY = 4
# A level takes its cell starts from a table when side^2 <= _DENSE * n.
_DENSE = 4


def _cell_keys(pos: np.ndarray, lo: np.ndarray, h: float):
    """Cell key of every node on the grid of cell size h anchored at lo.

    Cell coordinates start at 1, so the 3x3 block of any occupied cell
    has keys in [0, side^2).  Returns (keys, side, complete), where
    complete means every 3x3 block covers every node.
    """
    c = np.floor((pos - lo) / h).astype(np.int64) + 1
    top = int(c.max())
    side = top + 2
    return c[:, 0] * side + c[:, 1], side, top <= 2


def _start_levels(keys: np.ndarray, side: int, complete: bool, h: float, span: float):
    """How many halvings of the base cell h, whose grid keys and side are
    given, each rank starts below it.  0 for every rank unless the base grid
    is crowded (sum(occupancy^2) > _OCCUPANCY * n); else the fewest that
    would thin the rank's 3x3 block to _OCCUPANCY nodes a cell, and no more
    than the h^2 range and _MAX_CELLS allow (a level's side is span // h + 3).
    """
    n = keys.shape[0]
    table = _cell_starts(keys, side)
    if complete or table is None or (np.diff(table) ** 2).sum() <= _OCCUPANCY * n:
        return 0
    limits = []
    while h * h > 4 * _H2_RANGE[0] and 2 * (int(span / h) + 3) <= _MAX_CELLS:
        limits.append(9 * _OCCUPANCY * 4 ** len(limits))
        h /= 2
    # the nodes of each 3x3 block, as three runs of three cells
    count = sum(table[keys + d + 2] - table[keys + d - 1] for d in (-side, 0, side))
    return np.searchsorted(limits, count).astype(np.int8)


def parent_ranks(pos: np.ndarray, node_idx: np.ndarray) -> np.ndarray:
    """Node index of each rank's parent: its nearest strictly-lower-ranked node.

    pos is (n, 2) float64 of finite span (Placement bounds it) in rank
    order (gateway at rank 0, gateway distance non-decreasing); node_idx
    maps rank -> original node index and breaks exact distance ties
    (smaller index wins).  Rank 0 gets parent -1.
    """
    n = pos.shape[0]
    out = np.full(n, -1, dtype=np.int64)
    if n < 2:
        return out
    z = np.ascontiguousarray(pos).view(np.complex128)[:, 0]
    lo = pos.min(axis=0)
    span = float((pos.max(axis=0) - lo).max())
    # a span of a few subnormals can divide to 0; coincident nodes (span 0)
    # share a cell of any size, so that their one level is complete
    h = span / max(1, isqrt(n // 2)) or span or 1.0
    base = _cell_keys(pos, lo, h)
    depth = _start_levels(*base, h, span)
    k = int(np.max(depth))
    h /= 2 ** k
    while True:
        # the ranks that start on this level and those the finer ones left
        todo = (out < 0) & (depth >= k)
        todo[0] = False
        rows = np.flatnonzero(todo)
        if rows.size:
            keys, side, complete = base if k == 0 else _cell_keys(pos, lo, h)
            # slots: cells in key order, ranks ascending within each cell, so
            # a row's lower-ranked candidates in a cell are a prefix of that cell
            packed = np.sort(keys * n + np.arange(n, dtype=np.int64))
            order = packed % n
            level = (order, z[order], node_idx[order])
            starts = _cell_starts(keys, side)
            block = np.array([0, -side - 1, -side, -side + 1, -1, 1, side - 1, side, side + 1],
                             dtype=np.int64)[:, None]
            # the rows' slots ascend, so each offset's run of queries does
            # too, which searchsorted answers much faster
            slots = np.flatnonzero(todo[order])
            if complete:
                threshold = None
            elif _H2_RANGE[0] < h * h < _H2_RANGE[1]:
                threshold = h * h * _MARGIN
            else:
                threshold = -np.inf
            for s in range(0, slots.size, _CHUNK_ROWS):
                chunk = slots[s:s + _CHUNK_ROWS]
                code = packed[chunk]
                cells = code // n + block
                first = (np.searchsorted(packed, cells * n) if starts is None
                         else starts[cells])
                # the row's own cell (offset 0) holds its candidates just before it
                end = np.empty_like(first)
                end[0] = chunk
                end[1:] = np.searchsorted(packed, code + block[1:] * n)
                _resolve(level, chunk, first, end - first, threshold, out)
        elif k <= 0:
            return out
        h *= 2
        k -= 1


def _cell_starts(keys: np.ndarray, side: int):
    """First slot of every cell by key, then n: the table of a dense level.
    None for a sparse level, whose table would outgrow a few arrays of n."""
    if side * side > _DENSE * keys.shape[0]:
        return None
    starts = np.zeros(side * side + 1, dtype=np.int64)
    np.cumsum(np.bincount(keys, minlength=side * side), out=starts[1:])
    return starts


def _resolve(level, slots, first, count, threshold, out):
    """Write the parent's node index of every row whose best candidate is
    accepted; the other rows are left for the next, coarser grid.

    level holds the rank, position (as x + iy) and node index at each slot;
    slots are the rows' own slots, and first and count, (9, rows), the
    first slot and the number of each row's lower-ranked candidates in each
    cell of its 3x3 block.  threshold None accepts every row that has a
    candidate.
    """
    order, zs, ids = level
    first, count = first.T, count.T
    per_row = count.sum(axis=1)
    has = per_row > 0
    slots, first, count, per_row = slots[has], first[has], count[has], per_row[has]
    bounds = np.cumsum(per_row)
    a = 0
    while a < slots.size:
        done = int(bounds[a - 1]) if a else 0
        b = max(a + 1, int(np.searchsorted(bounds, done + _CHUNK_PAIRS, side="right")))
        c = count[a:b].ravel()
        seg_start = np.cumsum(c) - c
        cand = np.repeat(first[a:b].ravel() - seg_start, c)
        cand += np.arange(cand.size)
        m = per_row[a:b]
        dz = zs[cand]
        dz -= np.repeat(zs[slots[a:b]], m)
        d2 = dz.real * dz.real
        d2 += dz.imag * dz.imag
        row_start = np.cumsum(m) - m
        best = np.minimum.reduceat(d2, row_start)
        hit = np.flatnonzero(d2 == np.repeat(best, m))
        least = ids[cand[hit]]
        if hit.size > b - a:  # a tie: the least node index among each row's hits
            least = np.minimum.reduceat(least, np.searchsorted(hit, row_start))
        ok = slice(None) if threshold is None else best < threshold
        out[order[slots[a:b]][ok]] = least[ok]
        a = b


def subtree_sizes(parent: np.ndarray) -> np.ndarray:
    """Subtree node counts (incl. self) from parent pointers (-1 = root).

    Pointer doubling over a sentinel node n above the root: after k
    rounds anc[i] is i's 2^k-th ancestor (the sentinel once past the
    root) and g[i] counts the nodes 0 to 2^k - 1 hops below i, so each
    round adds to every node the counts of the nodes whose ancestor it
    is, and about log2(depth) numpy passes suffice for any acyclic parent
    array.  The counts are sums of whole numbers below 2^53 in float64,
    so they are exact.

    It also proves a hand-built tree acyclic: a node on a cycle, or whose
    chain runs into one, never reaches a root, so after the n.bit_length()
    rounds that cover any depth below n a root counts exactly the nodes
    whose chain ends at it, whatever the rest of the array holds.  A tree
    whose gateway is its only root is acyclic iff the gateway counts n.
    """
    n = parent.shape[0]
    # in int64: a narrower parent dtype may not hold the sentinel n
    anc = np.append(np.where(parent == -1, n, parent.astype(np.int64, copy=False)), n)
    g = np.ones(n + 1)
    g[n] = 0.0
    # a depth below n takes at most n.bit_length() rounds; a cycle stops there
    for _ in range(n.bit_length()):
        if (anc == n).all():
            break
        g += np.bincount(anc, weights=g, minlength=n + 1)
        g[n] = 0.0
        anc = anc[anc]
    return g[:n].astype(np.int64)


# The tables below are built without a ufunc call: the first ufunc call sets up
# state that stays resident, and an import should not be the one to pay it.
# One table of powers of ten serves both digit kernels: for each decimal
# exponent k in [_K_MIN, _K_MAX], phi = ceil(10^k 2^(127 - floor(k log2 10))), so
# that 2^127 <= phi < 2^128.  _PHI holds, per k, its 64-bit halves hi and lo as
# (hi, hi >> 32, hi & _M32, lo >> 32, lo & _M32, lo).
_K_MIN, _K_MAX = -292, 326
_M32, _M52 = (1 << 32) - 1, (1 << 52) - 1


def _phi_table() -> np.ndarray:
    rows = []
    for k in range(_K_MIN, _K_MAX + 1):
        shift = 127 - (k * 913124641741 >> 38)   # 127 - floor(k log2 10)
        phi = -(-(10 ** max(k, 0) << max(shift, 0)) // (10 ** max(-k, 0) << max(-shift, 0)))
        hi, lo = phi >> 64, phi & ((1 << 64) - 1)
        rows.append((hi, hi >> 32, hi & _M32, lo >> 32, lo & _M32, lo))
    return np.array(list(zip(*rows)), dtype=np.uint64)


_PHI = _phi_table()
_POW10 = np.array([10 ** i for i in range(19)], dtype=np.uint64)
# _QUADS[i]: the four ASCII digits of i < 10^4, as one little-endian word
_PAIRS = np.frombuffer(b"%02d" * 100 % tuple(range(100)), dtype=np.uint8).reshape(100, 2)
_QUADS = np.empty((100, 100, 4), dtype=np.uint8)
_QUADS[:, :, :2], _QUADS[:, :, 2:] = _PAIRS[:, None], _PAIRS
_QUADS = _QUADS.view("<u4").reshape(-1)
# _MASKS[18 b + l]: 0xFF in the digit columns of a repr_fields row that shows b
# digits before the point and l >= b in all: 2 to 2 + b and 22 + b to 22 + l
_MASKS = np.frombuffer(b"".join(
    bytes(2) + b"\xff" * b + bytes(20) + b"\xff" * (max(l, b) - b) + bytes(18 - max(l, b))
    for b in range(18) for l in range(18)), dtype=np.uint8).reshape(-1, 40)
# repr_fields' fixed bytes, by sign + 2 middle + 12 zero + 24 exponent sign: the
# sign, the "0" of "0.", 16 digits before the point, "." and up to three zeros,
# 17 digits after it, the "0" of "1.0", and "e+" or "e-"
_FIELDS = np.frombuffer("".join(
    (sign + middle[0] + "\0" * 16 + middle[1:].ljust(4, "\0") + "\0" * 17 + zero
     + form).ljust(45, "\0")
    for form, zero, middle, sign in itertools.product(
        ("", "e+", "e-"), "\0" "0", ("\0", "\0.", "0.", "0.0", "0.00", "0.000"), "\0-")
).encode(), dtype=np.uint8).reshape(-1, 45)


def _mulhi(a1, a0, b1, b0):
    """High 64 bits of a * b, from the 32-bit halves of each."""
    p00, p01, p10 = a0 * b0, a0 * b1, a1 * b0
    mid = (p00 >> 32) + (p01 & _M32) + (p10 & _M32)
    return a1 * b1 + (p01 >> 32) + (p10 >> 32) + (mid >> 32)


def _product(f: np.ndarray, k: np.ndarray):
    """(top, mid, low): the three 64-bit words of the 192-bit product f phi_k,
    for each uint64 f and decimal exponent k."""
    hi, hia, hib, loa, lob, lo = _PHI.take(k - _K_MIN, axis=1)
    fa, fb = f >> 32, f & _M32
    part = f * hi   # f phi's middle word is part + the top word of f lo
    mid = part + _mulhi(loa, lob, fa, fb)
    return _mulhi(hia, hib, fa, fb) + (mid < part), mid, f * lo


def _dragonbox(bits: np.ndarray):
    """(d, e): for each normal float of the given bits but a power of two, the
    shortest decimal d 10^e that reads back as it, the nearest of that length,
    ties to even d.

    Dragonbox (Jeon, "Dragonbox: A New Floating-Point Binary-to-Decimal
    Conversion Algorithm", 2020), with kappa = 2.  For x = c 2^q, k = 2 -
    floor(q log10 2) and beta = q + floor(k log2 10), one 64 x 128-bit
    product of (2c + 1) 2^beta and phi_k gives z = floor((c + 1/2) 2^q 10^k),
    the upper end of the interval that rounds to x, scaled by 10^k, and
    delta, the interval's width so scaled, is phi_k's top bits.  When z's
    remainder r by 1000 is below delta, z // 1000 lies in the interval and is
    the shortest, at e = 3 - k.  Otherwise the nearest multiple of 10^(2 - k)
    is 10 (z // 1000) + (r - delta / 2 + 50) // 100 or one less, and where
    that quotient is exact the parity of floor(x 10^k), a second product on
    those rows only, settles which.  An r equal to delta is settled by the
    parity of the lower end's product, an r of 0 by whether the upper end is
    exact and in the interval.
    """
    q = ((bits >> 52).astype(np.int64) & 0x7FF) - 1075
    k = 2 - (q * 661971961083 >> 41)                                # 2 - floor(q log10 2)
    beta = (q + (k * 913124641741 >> 38)).astype(np.uint64)         # in [6, 9]
    two_c = (bits & _M52 | 1 << 52) << 1
    z, mid, _ = _product((two_c | 1) << beta, k)
    delta = _PHI[0].take(k - _K_MIN) >> 63 - beta   # in [100, 1000)
    s = z // 1000
    r = z - s * 1000
    small = r > delta
    end = np.flatnonzero(r == 0)
    if end.size:   # an odd c leaves out the upper end, which z // 1000 may be
        end = end[(mid[end] == 0) & (bits[end] & 1 == 1)]
        s[end] -= 1
        r[end] = 1000
        small[end] = True
    tie = np.flatnonzero(r == delta)
    if tie.size:   # at the lower end: in the interval if the end is, for an even c
        parity, integer = _parity(two_c[tie] - 1, k[tie], beta[tie])
        small[tie] = ~(parity | integer & (bits[tie] & 1 == 0))
    dist = r - (delta >> 1) + 50
    step = dist // 100
    d = np.where(small, s * 10 + step, s)
    exact = np.flatnonzero(small & (dist == step * 100))
    if exact.size:   # d or d - 1, by the parity of x 10^k; a tie to even d
        parity, integer = _parity(two_c[exact], k[exact], beta[exact])
        d[exact] -= parity | integer & (d[exact] & 1 == 1)
    return d, 3 - small - k


def _parity(f, k, beta):
    """The parity of floor(f 2^beta phi_k / 2^128), and whether that quotient is
    an integer, judged by the product's 64 bits below it."""
    _, high, low = _product(f, k)
    return (high >> 64 - beta & 1) == 1, (high << beta | low >> 64 - beta) == 0


def _quads(d: np.ndarray) -> np.ndarray:
    """(d.size, 5) intp: the 18-digit numbers d < 10^18 in groups of four
    digits from the right, the indices of their _QUADS words."""
    quads = np.empty((d.shape[0], 5), dtype=np.intp)
    for j in range(4, 0, -1):
        step = d // 10000
        quads[:, j] = d - step * 10000
        d = step
    quads[:, 0] = d
    return quads


def repr_fields(x: np.ndarray) -> np.ndarray:
    """(x.size, 40 or 45) uint8: row i holds the ASCII text of
    repr(float(x.flat[i])) with NUL bytes in its gaps, so that deleting the
    NULs of the rows (bytes.translate(None, b"\\0")) gives the texts one
    after another.

    The digits are the shortest that read back as the float, by Dragonbox
    (_dragonbox): one 64 x 128-bit product per float, and a parity product
    on the few rows that need one.  They are laid out as repr lays them out:
    positional when the decimal point falls after digit p in (-4, 16], else
    d.ddde+XX.  Each column holds one part or is NUL: the sign, the "0" of
    "0.", the 16 digits before the point, the point and the zeros after it,
    17 digits after them, the "0" of "1.0", and the exponent, whose 5 columns
    are left out unless some element needs them.  Zeros, subnormals,
    non-finite values and powers of two, which _dragonbox does not take,
    get their text from repr, one call each: a power of two would need
    Dragonbox's shorter-interval case, as its gap below is half that above.
    """
    x = np.ascontiguousarray(x, dtype=np.float64).reshape(-1)
    bits, m = x.view(np.uint64), x.shape[0]
    d, k = _dragonbox(bits)
    # strip trailing zeros, a digit a pass, from the values that still end in one
    i = np.flatnonzero(d % 10 == 0)
    while i.size:
        d[i] //= 10
        k[i] += 1
        i = i[d[i] % 10 == 0]
    n = np.searchsorted(_POW10, d, side="right")   # digits
    point = k + n                                   # the value is 0.ddd 10^point
    quads = _quads(d * _POW10[18 - n])   # the digits left-aligned in 18
    fixed = (point > -4) & (point <= 16)
    wide = not fixed.all()
    middle = np.where(fixed & (point <= 0), 2 - point, fixed | (n > 1))
    form = np.where(fixed, 0, 1 + (point <= 0))
    out = _FIELDS[:, :45 if wide else 40].take(
        (bits >> 63).astype(np.intp) + 2 * middle + 12 * (fixed & (point >= n)) + 24 * form,
        axis=0)
    # the digits twice, masked to those before the point and those after it
    before = np.where(fixed, np.maximum(point, 0), 1)
    mask = _MASKS.take(18 * before + np.maximum(n, before * fixed), axis=0)
    mask &= _QUADS.take(np.broadcast_to(quads[:, None], (m, 2, 5))).view(np.uint8).reshape(m, 40)
    out[:, :40] |= mask
    if wide:
        e = np.abs(point - 1)
        out[:, 42:45] = np.column_stack(((e >= 100) * (e // 100 + 48), e // 10 % 10 + 48,
                                         e % 10 + 48))
        out[fixed, 42:45] = 0
    for i in np.flatnonzero(((bits >> 52 & 0x7FF) % 0x7FF == 0) | (bits & _M52 == 0)).tolist():
        text = repr(float(x[i])).encode()
        out[i] = 0
        out[i, :len(text)] = np.frombuffer(text, dtype=np.uint8)
    return out


def e17_fields(x: np.ndarray) -> np.ndarray:
    """(x.size, 24 or 25) uint8: row i holds the ASCII text of
    "%.17e" % float(x.flat[i]) with NUL bytes in its gaps, as in repr_fields.

    The 18 digits are x's, correctly rounded: the fixed-precision case of Ryu
    (Adams, "Ryu revisited: printf floating point conversion", OOPSLA 2019),
    on repr_fields' table.  A normal x = c 2^q lies in [10^e0, 2 10^(e0+1)) for
    e0 = floor((q + 52) log10 2), and one 53 x 128-bit product c phi, phi the
    table's entry for p = 17 - e0, is V 2^(128 - v) for V = x 10^p in
    [10^17, 2 10^18) and v = q + floor(p log2 10) + 1 in [5, 8].  Its bits
    from 128 - v up are V's integer part and the 64 below them its fraction,
    with V - 2^-64 < whole.frac < V + 2^-67: phi exceeds the exact power of
    ten by less than 1, so c phi exceeds V 2^(128 - v) by less than c < 2^53,
    2^-67 of a unit of V, and cutting the fraction to 64 bits loses less than
    2^-64.  V's integer part is the digits, or holds one more, which goes into the
    remainder; a remainder more than 8 / 2^64 above or below half rounds up
    or down.  The rows lay the text out in fixed columns: the sign, a digit,
    the point, 17 digits, "e", the exponent's sign and its 2 digits, or 3 in
    every row when some element needs them.  Zeros, subnormals, non-finite
    values and the elements within 8 / 2^64 of half, exact ties among them,
    take their text from Python's "%.17e".
    """
    x = np.ascontiguousarray(x, dtype=np.float64).reshape(-1)
    bits, m = x.view(np.uint64), x.shape[0]
    be = (bits >> 52).astype(np.int64) & 0x7FF
    q = be - 1075
    e0 = (q + 52) * 661971961083 >> 41   # floor((q + 52) log10 2)
    p = 17 - e0
    # c phi, in 64-bit words top, mid and low, is V 2^(128 - v)
    top, mid, low = _product(bits & _M52 | 1 << 52, p)
    v = (q + (p * 913124641741 >> 38) + 1).astype(np.uint64)   # in [5, 8]
    whole = top << v | mid >> 64 - v
    frac = mid << v | low >> 64 - v
    # 18 digits in whole, or 19 with the last one in the remainder; the rounding
    # is clear when whole.frac lies more than 8 / 2^64 from half a unit
    big = whole >= _POW10[18]
    d = np.where(big, whole // 10, whole)
    rem = whole - d * 10
    up = np.where(big, (rem > 5) | (rem == 5) & (frac >= 8), frac >= (1 << 63) + 8)
    down = np.where(big, (rem < 4) | (rem == 4) & (frac <= 2**64 - 8), frac <= (1 << 63) - 8)
    d += up
    carry = d == _POW10[18]   # 9.99...95 and up rounds to 10.0: 1.0 at e + 1
    d[carry] = _POW10[17]
    e = e0 + big + carry
    digits = _QUADS.take(_quads(d)).view(np.uint8).reshape(m, 20)   # "00" and the 18
    ae = np.abs(e)
    slow = (be == 0) | (be == 0x7FF) | ~(up | down)
    texts = [b"%.17e" % v for v in x[slow].tolist()]
    wide = (ae[~slow] >= 100).any() or any(len(text) > 24 for text in texts)
    out = np.empty((m, 24 + wide), dtype=np.uint8)
    out[:, 0] = (bits >> 63) * ord("-")
    out[:, 1] = digits[:, 2]
    out[:, 2] = ord(".")
    out[:, 3:20] = digits[:, 3:]
    out[:, 20] = ord("e")
    out[:, 21] = np.where(e < 0, ord("-"), ord("+"))
    exponent = _QUADS.take(ae).view(np.uint8).reshape(m, 4)   # "0" and 3 digits
    out[:, 22:] = exponent[:, 1:] if wide else exponent[:, 2:]
    if wide:
        out[ae < 100, 22] = 0
    for i, text in zip(np.flatnonzero(slow).tolist(), texts):
        out[i] = 0
        out[i, :len(text)] = np.frombuffer(text, dtype=np.uint8)
    return out


# Rows table_text lays out at once: bounds a writer's scratch memory
_PIECE = 1 << 11


def table_text(shape: tuple, columns: list, separators: list, kernel) -> list:
    """The text of a table with a row per element of an array of the given
    shape, in C order, as a list of pieces of _PIECE rows.  A row is
    separators[0], then each column's cell followed by the next separator.

    A column is an array that broadcasts to shape: float64, whose cells are
    the NUL-padded fields of kernel (repr_fields or e17_fields), or bytes,
    whose cells are its NUL-padded elements; at least one is float64.  Each
    piece makes one kernel call, on the piece's values of each float column
    with an element per row and on the next values, up to the piece's last
    row index, of each shorter float column: no row reads an element of a
    shorter column past its own index, so each value is formatted once,
    before any row reads it, and a call takes at most _PIECE values a
    column.  A shorter column keeps the fields formatted so far, and each
    row gathers its field by a broadcast index.  Each piece is one uint8
    matrix, the separators its constant columns, whose NULs one
    bytes.translate deletes.
    """
    size = int(np.prod(shape))
    floats = [column.reshape(-1) for column in columns if column.dtype.kind == "f"]
    # column number -> [its fields (so far, for a float column), each row's element index]
    kept = {i: [column.reshape(-1).view(np.uint8).reshape(column.size, -1)
                if column.dtype.kind == "S" else np.zeros((column.size, 0), dtype=np.uint8),
                np.broadcast_to(np.arange(column.size).reshape(column.shape), shape)]
            for i, column in enumerate(columns) if column.dtype.kind == "S" or column.size < size}
    separators = [np.frombuffer(separator, dtype=np.uint8) for separator in separators]
    pieces = []
    for start in range(0, size, _PIECE):
        stop = min(start + _PIECE, size)
        values = [column[start:stop] for column in floats]
        parts = iter(np.split(kernel(np.concatenate(values)),
                              np.cumsum([v.size for v in values[:-1]])))
        block = [separators[0]]
        for i, (column, separator) in enumerate(zip(columns, separators[1:])):
            new = next(parts) if column.dtype.kind == "f" else None
            if i in kept:
                fields, index = kept[i]
                if new is not None and new.shape[1] > fields.shape[1]:   # widen the fields kept
                    fields = kept[i][0] = np.hstack(
                        (fields, np.zeros((column.size, new.shape[1] - fields.shape[1]), np.uint8)))
                if new is not None:
                    fields[start:start + new.shape[0], :new.shape[1]] = new
                new = fields.take(index.flat[start:stop], axis=0)
            block += (new, separator)
        block = [part if part.ndim == 2 else np.broadcast_to(part, (stop - start, part.size))
                 for part in block]
        pieces.append(np.concatenate(block, axis=1).tobytes().translate(None, b"\0")
                      .decode("ascii"))
    return pieces


def backend() -> str:
    """Name of the kernel implementation: always 'numpy'."""
    return "numpy"
