"""Digraph values, structural predicates, canonical keys, and arc transforms.

Vertices are 0-indexed.  A :class:`Digraph` is immutable, and every
transform returns a fresh value, so everything here is safe to use
concurrently.  It stores one out-neighbour mask per vertex, an unbounded
Python int; its arcs and strong connectivity derive from those.

Batch code packs an adjacency into one integer, the *mask*: the n x n
matrix row-major, cell (i, j) at bit ``n*n-1-(i*n+j)``, so integer order is
lexicographic order of the adjacency bitstring.  Diagonal bits stay zero,
so for n <= 8 every mask is a nonnegative int64 and ``CanonicalKey.bits``
is the minimal mask itself, left-aligned in bytes.  Only this module knows
the layout.

The text format ``DGR1`` is one header line ``dgr1 <n>`` followed by one
``<tail> <head>`` line per arc, ASCII decimal, every line newline-terminated.
"""

from __future__ import annotations

import itertools
import operator
from dataclasses import dataclass
from functools import cached_property, lru_cache, reduce

import numpy as np

from . import _backend
from .errors import (
    DuplicateArcError,
    LoopArcError,
    MissingArcError,
    OutOfRangeError,
    ParseError,
    PreconditionError,
    TooLargeError,
)

CANONICAL_MAX_N = 8

Arc = tuple[int, int]


@dataclass(frozen=True)
class Digraph:
    """Simple directed graph: vertex count plus one out-neighbour mask per
    vertex, a Python int below 2^n with bit j of ``out_masks[i]`` for the
    arc (i, j) and bit i clear.  Build through :func:`make_digraph`, which
    checks the endpoints.  Only code that already holds valid masks calls
    the constructor: :func:`digraphs_from_masks`, the three transforms, and
    the campaigns' sampler."""

    n: int
    out_masks: tuple[int, ...]

    @cached_property
    def arcs(self) -> tuple[Arc, ...]:
        """The arcs sorted by (tail, head), lowest set bit first."""
        arcs = []
        for i, m in enumerate(self.out_masks):
            while m:
                low = m & -m
                arcs.append((i, low.bit_length() - 1))
                m ^= low
        return tuple(arcs)

    def has_arc(self, i: int, j: int) -> bool:
        return (self.out_masks[i] >> j) & 1 == 1


@dataclass(frozen=True, order=True)
class CanonicalKey:
    """Isomorphism-class identifier: the vertex count plus the
    lexicographically minimal row-major adjacency bitstring over all
    relabelings."""

    n: int
    bits: bytes

    @classmethod
    def from_mask(cls, n: int, mask: int) -> "CanonicalKey":
        """Key of a canonical mask: the mask left-aligned in bytes."""
        nbytes = (n * n + 7) // 8
        return cls(n, (mask << (8 * nbytes - n * n)).to_bytes(nbytes, "big"))

    def hex(self) -> str:
        return f"{self.n}:{self.bits.hex()}"


def make_digraph(n: int, arcs) -> Digraph:
    """Validate an arc list into a Digraph's out-neighbour masks.

    Rejects loops, endpoints outside [0, n), and duplicates (duplicates are
    an error, never silently merged).  Endpoints go through
    ``operator.index``, so numpy integers give Python-int masks.
    """
    if n < 1:
        raise OutOfRangeError(f"vertex count must be positive, got {n}")
    masks = [0] * n
    for arc in arcs:
        i, j = map(operator.index, arc)
        if i == j:
            raise LoopArcError(f"loop arc ({i}, {j}) not allowed")
        if not (0 <= i < n and 0 <= j < n):
            raise OutOfRangeError(f"arc ({i}, {j}) has endpoint outside 0..{n - 1}")
        if (masks[i] >> j) & 1:
            raise DuplicateArcError(f"arc ({i}, {j}) supplied more than once")
        masks[i] |= 1 << j
    return Digraph(n, tuple(masks))


def out_degrees(d: Digraph) -> tuple[int, ...]:
    """Out-degree of every vertex; the sum equals the arc count."""
    return tuple([m.bit_count() for m in d.out_masks])


def is_strongly_connected(d: Digraph) -> bool:
    """True iff every ordered vertex pair is joined by a directed path."""
    return masks_strongly_connected(d.n, d.out_masks)


def masks_strongly_connected(n: int, outs) -> bool:
    """:func:`is_strongly_connected` of the n-vertex digraph with the
    out-masks outs, a sequence of Python ints, without building it.

    A vertex with no out-arc, or one with no in-arc (the masks' OR is not
    all), decides it at once: only the one-vertex digraph is strong then.
    Otherwise sweeps over the vertices, until one changes neither set, grow
    the vertices vertex 0 reaches (``fwd``) and those that reach it
    (``back``); both must be all.
    """
    full = (1 << n) - 1
    if 0 in outs or reduce(operator.or_, outs, 0) != full:
        return n == 1
    fwd = back = 1
    while True:
        seen = fwd, back
        for v, m in enumerate(outs):
            if (fwd >> v) & 1:
                fwd |= m
            if m & back:
                back |= 1 << v
        if (fwd, back) == seen:
            return fwd == back == full


# ---------------------------------------------------------------------------
# canonical form

def _cell_bit(n: int, i, j):
    """Bit of adjacency cell (i, j) in a packed mask; elementwise on arrays."""
    return n * n - 1 - (i * n + j)


def pack_arcs(d: Digraph) -> int:
    """Adjacency as a single packed mask."""
    return sum(1 << _cell_bit(d.n, i, j) for i, j in d.arcs)


def unpack_arcs(mask: int, n: int) -> list[Arc]:
    return [(i, j) for i in range(n) for j in range(n) if (mask >> _cell_bit(n, i, j)) & 1]


def adjacency_rows_from_masks(masks: np.ndarray, n: int) -> np.ndarray:
    """Out-neighbour bitmask rows, shape (len(masks), n), column-major: the
    input of enumeration's strong filter, ``_backend.sc_filter``.

    Column k is n-bit chunk k of the mask: the row of vertex n-1-k, with bit
    n-1-j for head j.  That is the digraph relabeled by v -> n-1-v, so
    strong connectivity reads the same.
    """
    shifts = _cell_bit(n, n - 1 - np.arange(n, dtype=np.int64), n - 1)
    return ((masks >> shifts[:, None]) & ((1 << n) - 1)).T


@lru_cache(maxsize=None)
def _perm_bit_table(n: int) -> np.ndarray:
    """table[p, b] = destination bit of source bit b under the p-th
    relabeling (itertools order); :func:`min_relabeled_mask`'s table."""
    perms = np.array(list(itertools.permutations(range(n))), dtype=np.int8)
    i, j = np.divmod(np.arange(n * n), n)
    table = np.empty((len(perms), n * n), dtype=np.int8)
    table[:, _cell_bit(n, i, j)] = _cell_bit(n, perms[:, i], perms[:, j])
    return table


@lru_cache(maxsize=None)
def _swap_chain(n: int) -> tuple:
    """Heap's n! - 1 interchanges (Comput. J. 6, 1963), which reach every
    relabeling once from the identity, each a transposition of vertices a <
    b as two delta swaps, ``((d, column-b bits), (n*d, row-b bits))`` with
    d = b - a: each group's bits trade places with those d (n*d) above."""
    rows = [((1 << n) - 1) << _cell_bit(n, v, n - 1) for v in range(n)]
    cols = [sum(1 << _cell_bit(n, i, v) for i in range(n)) for v in range(n)]
    swaps, c, i = [], [0] * n, 1
    while i < n:
        if c[i] < i:
            a = 0 if i % 2 == 0 else c[i]
            swaps.append(((i - a, cols[i]), (n * (i - a), rows[i])))
            c[i], i = c[i] + 1, 1
        else:
            c[i], i = 0, i + 1
    return tuple(swaps)


def min_relabeled_mask(masks: np.ndarray, n: int) -> np.ndarray:
    """Minimum packed adjacency over all n! relabelings, vectorized."""
    return _backend.perm_min(masks.astype(np.int64), _perm_bit_table(n))


def canonical_masks(n: int) -> np.ndarray:
    """The loop-free masks with no zero out-row that equal their
    :func:`min_relabeled_mask`, ascending.

    Only candidates that can win reach the sieve, built row by row, one
    block per k = 1..n-1: row 0 reads 0...01...1 with k ones,
    and every other row has at least k ones.  Any other row 0 is lowered,
    and with it the mask, by the relabeling that fixes vertex 0 and moves
    its heads to the top labels.  A row of k ones in that form lies below
    every row with more ones, so moving a vertex of smaller outdegree to
    label 0 lowers row 0 too.  k = 0 is left out, since a vertex with no
    out-arc rules out strong connectivity.  They are np.int32 words while
    n*n <= 32 and int64 above, sieved along :func:`_swap_chain`; int64 out.
    """
    word = np.int32 if n * n <= 32 else np.int64
    blocks = []
    for k in range(1, n):
        masks = np.array([((1 << k) - 1) << _cell_bit(n, 0, n - 1)], dtype=word)
        for i in range(1, n):
            row = np.arange(1 << n, dtype=word) << _cell_bit(n, i, n - 1)
            row = row[((row >> _cell_bit(n, i, i)) & 1 == 0) & (np.bitwise_count(row) >= k)]
            masks = (masks[:, None] | row).ravel()
        blocks.append(masks)
    masks = np.concatenate(blocks)
    del blocks  # freed before the sieve allocates its buffers, which would raise the peak RSS
    return _backend.perm_sieve(masks, _swap_chain(n)).astype(np.int64)


def digraphs_from_masks(masks: np.ndarray, n: int) -> list[Digraph]:
    """The digraph of each packed mask, in order, for ``spectra enumerate``:
    vertex i's out-neighbour mask is row i of
    :func:`adjacency_stack_from_masks`, bit j for column j.  A diagonal bit
    raises :class:`LoopArcError`."""
    adj = adjacency_stack_from_masks(np.asarray(masks, dtype=np.int64), n)
    if adj.diagonal(axis1=1, axis2=2).any():
        raise LoopArcError("mask with a diagonal bit set")
    return [Digraph(n, tuple(row)) for row in (adj @ (1 << np.arange(n))).tolist()]


def adjacency_stack_from_masks(masks: np.ndarray, n: int) -> np.ndarray:
    """The 0/1 adjacency matrix of each packed mask, uint8, shape (N, n, n)."""
    return ((masks[:, None] >> np.arange(n * n - 1, -1, -1)) & 1).astype(np.uint8).reshape(len(masks), n, n)


def masks_bipartite_kpq(masks: np.ndarray, n: int, p: int, q: int) -> np.ndarray:
    """Flags of the strongly connected int64 masks that are bipartite and
    contain the bidirected K_{p,q}.  Bipartite: for some even ``split``
    (vertex 0 on side 0) no cell has both ends on one side.  K_{p,q}: for
    some disjoint P, Q of sizes p and q every cell of P x Q and Q x P is
    set.  Each cell set ORs into one flag array, so memory stays
    O(len(masks))."""
    def cells(pairs) -> int:
        return sum(1 << _cell_bit(n, i, j) for i, j in pairs)

    bipartite, kpq = np.zeros((2, len(masks)), dtype=bool)
    for split in range(0, 1 << n, 2):
        inner = cells((i, j) for i in range(n) for j in range(n) if (split >> i ^ split >> j) & 1 == 0)
        bipartite |= masks & inner == 0
    for part_p in itertools.combinations(range(n), p):
        for part_q in itertools.combinations([v for v in range(n) if v not in part_p], q):
            cross = cells(pair for i in part_p for j in part_q for pair in ((i, j), (j, i)))
            kpq |= masks & cross == cross
    return bipartite & kpq


@lru_cache(maxsize=1 << 16)
def canonical_key(d: Digraph) -> CanonicalKey:
    """Permutation-minimal adjacency encoding; equal keys iff isomorphic.

    Brute force over all n! relabelings of the packed mask, whose n*n bits
    with the top (diagonal) one zero fit a nonnegative int64 up to n = 8.
    """
    if d.n > CANONICAL_MAX_N:
        raise TooLargeError(f"canonical form capped at n={CANONICAL_MAX_N}, got {d.n}")
    canon = min_relabeled_mask(np.array([pack_arcs(d)], dtype=np.int64), d.n)[0]
    return CanonicalKey.from_mask(d.n, int(canon))


# ---------------------------------------------------------------------------
# transforms

def delete_arc(d: Digraph, arc: Arc) -> Digraph:
    """d with the bit of the arc (i, j) cleared."""
    i, j = arc
    if not (0 <= i < d.n and 0 <= j < d.n and d.has_arc(i, j)):
        raise MissingArcError(f"arc ({i}, {j}) not in digraph")
    masks = list(d.out_masks)
    masks[i] ^= 1 << j
    return Digraph(d.n, tuple(masks))


def subdivide_arc(d: Digraph, arc: Arc) -> Digraph:
    """Replace (i, j) by (i, w), (w, j) with w the fresh vertex n: clear
    bit j of i's mask, set bit w, and append w's mask, bit j alone."""
    i, j = arc
    w = d.n
    masks = list(delete_arc(d, arc).out_masks)
    masks[i] |= 1 << w
    return Digraph(w + 1, (*masks, 1 << j))


def retarget_in_arcs(d: Digraph, sources, p: int, q: int) -> Digraph:
    """Move the arcs (s, p) to (s, q) for every s in sources.

    Each source must currently point at p, must not be q, and must not
    already point at q.  The result may lose strong connectivity; that is
    the caller's concern.
    """
    if p == q:
        raise PreconditionError("p and q must differ")
    for v in (p, q):
        if not (0 <= v < d.n):
            raise OutOfRangeError(f"vertex {v} outside 0..{d.n - 1}")
    srcs = sorted(set(sources))
    for s in srcs:
        if not (0 <= s < d.n):
            raise OutOfRangeError(f"source {s} outside 0..{d.n - 1}")
        if s == q:
            raise PreconditionError(f"source {s} equals the new head q")
        if not d.has_arc(s, p):
            raise PreconditionError(f"source {s} has no arc to p={p}")
        if d.has_arc(s, q):
            raise PreconditionError(f"source {s} already points at q={q}")
    if not srcs:
        return d
    masks = list(d.out_masks)
    for s in srcs:
        masks[s] ^= 1 << p | 1 << q
    return Digraph(d.n, tuple(masks))


# ---------------------------------------------------------------------------
# DGR1 text format

def to_dgr1(d: Digraph) -> str:
    lines = [f"dgr1 {d.n}"]
    lines.extend(f"{i} {j}" for i, j in d.arcs)
    return "\n".join(lines) + "\n"


def _ascii_decimal(tok: str) -> bool:
    return tok != "" and all(c in "0123456789" for c in tok)


def from_dgr1(text: str) -> Digraph:
    """Parse the DGR1 format; anything malformed is rejected."""
    if not text.endswith("\n"):
        raise ParseError("missing final newline", pos=len(text), expected="newline")
    lines = text.split("\n")[:-1]
    head = lines[0].split(" ")
    if len(head) != 2 or head[0] != "dgr1" or not _ascii_decimal(head[1]):
        raise ParseError(f"bad header {lines[0]!r}", pos=0, expected="'dgr1 <n>'")
    n = int(head[1])
    if n < 1:
        raise ParseError("vertex count must be positive", pos=0, expected="n >= 1")
    arcs = []
    offset = len(lines[0]) + 1
    for line in lines[1:]:
        toks = line.split(" ")
        if len(toks) != 2 or not all(_ascii_decimal(t) for t in toks):
            raise ParseError(f"bad arc line {line!r}", pos=offset, expected="'<tail> <head>'")
        arcs.append((int(toks[0]), int(toks[1])))
        offset += len(line) + 1
    return make_digraph(n, arcs)


def write_dgr1(d: Digraph, path) -> None:
    with open(path, "w", encoding="ascii") as fh:
        fh.write(to_dgr1(d))


def read_dgr1(path) -> Digraph:
    """Parse a DGR1 file; a byte outside ASCII raises :class:`ParseError`
    at its position."""
    with open(path, "r", encoding="ascii", errors="surrogateescape") as fh:
        text = fh.read()
    if not text.isascii():
        pos = next(i for i, c in enumerate(text) if not c.isascii())
        raise ParseError(f"non-ASCII byte at {pos}", pos=pos, expected="ASCII")
    return from_dgr1(text)
