"""Digraph values, structural predicates, canonical keys, and arc transforms.

Vertices are 0-indexed.  A :class:`Digraph` is immutable; every transform
returns a fresh value, so everything here is safe to use concurrently.

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
from collections import deque
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from . import _backend
from .errors import (
    DuplicateArcError,
    LoopArcError,
    MissingArcError,
    NotStronglyConnectedError,
    OutOfRangeError,
    ParseError,
    PreconditionError,
    TooLargeError,
)

CANONICAL_MAX_N = 8
KPQ_SEARCH_MAX_N = 10

Arc = tuple[int, int]


@dataclass(frozen=True)
class Digraph:
    """Simple directed graph: vertex count plus a sorted, loop-free,
    duplicate-free arc tuple.  Build through :func:`make_digraph`."""

    n: int
    arcs: tuple[Arc, ...]

    @cached_property
    def arc_set(self) -> frozenset[Arc]:
        return frozenset(self.arcs)

    @cached_property
    def out_masks(self) -> tuple[int, ...]:
        """Per-vertex out-neighbour sets as n-bit masks (n <= 64)."""
        masks = [0] * self.n
        for i, j in self.arcs:
            masks[i] |= 1 << j
        return tuple(masks)

    @cached_property
    def in_masks(self) -> tuple[int, ...]:
        masks = [0] * self.n
        for i, j in self.arcs:
            masks[j] |= 1 << i
        return tuple(masks)

    def has_arc(self, i: int, j: int) -> bool:
        return (self.out_masks[i] >> j) & 1 == 1

    def in_neighbors(self, j: int) -> list[int]:
        m = self.in_masks[j]
        return [i for i in range(self.n) if (m >> i) & 1]


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
    """Validate and normalize an arc list into a Digraph.

    Rejects loops, endpoints outside [0, n), and duplicates (duplicates are
    an error, never silently merged).  Arcs come out sorted by (tail, head).
    """
    if n < 1:
        raise OutOfRangeError(f"vertex count must be positive, got {n}")
    seen = set()
    for arc in arcs:
        i, j = arc
        if i == j:
            raise LoopArcError(f"loop arc ({i}, {j}) not allowed")
        if not (0 <= i < n and 0 <= j < n):
            raise OutOfRangeError(f"arc ({i}, {j}) has endpoint outside 0..{n - 1}")
        if (i, j) in seen:
            raise DuplicateArcError(f"arc ({i}, {j}) supplied more than once")
        seen.add((i, j))
    return Digraph(n, tuple(sorted(seen)))


def out_degrees(d: Digraph) -> tuple[int, ...]:
    """Out-degree of every vertex; the sum equals the arc count."""
    degs = [0] * d.n
    for i, _ in d.arcs:
        degs[i] += 1
    return tuple(degs)


def is_strongly_connected(d: Digraph) -> bool:
    """True iff every ordered vertex pair is joined by a directed path."""
    return masks_strongly_connected(d.n, d.out_masks, d.in_masks)


def masks_strongly_connected(n: int, out_masks, in_masks) -> bool:
    """:func:`is_strongly_connected` on per-vertex out- and in-neighbour
    bitmasks, so callers can test an arc set without building a Digraph.

    Vertex 0 must reach every vertex along out-arcs and be reached from
    every vertex (reach it along in-arcs); each search grows a bitmask
    frontier over ``out_masks`` / ``in_masks``.
    """
    full = (1 << n) - 1
    for masks in (out_masks, in_masks):
        seen = frontier = 1
        while frontier:
            step = 0
            for v in range(n):
                if (frontier >> v) & 1:
                    step |= masks[v]
            frontier = step & ~seen
            seen |= frontier
        if seen != full:
            return False
    return True


def _reachable_from(d: Digraph, start: int) -> int:
    """Bitmask of vertices reachable from start (BFS); test oracle helper."""
    seen = 1 << start
    queue = deque([start])
    while queue:
        v = queue.popleft()
        fresh = d.out_masks[v] & ~seen
        seen |= fresh
        for j in range(d.n):
            if (fresh >> j) & 1:
                queue.append(j)
    return seen


def is_strongly_connected_bfs(d: Digraph) -> bool:
    """Reachability-from-every-vertex oracle; independent of the two
    searches from vertex 0 in :func:`is_strongly_connected`."""
    full = (1 << d.n) - 1
    return all(_reachable_from(d, v) == full for v in range(d.n))


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


def loop_free_masks(n: int) -> np.ndarray:
    """Masks of all 2^(n(n-1)) labeled loop-free digraphs on n vertices, ascending."""
    masks = np.zeros(1, dtype=np.int64)
    for i in range(n):
        row = np.arange(1 << n, dtype=np.int64) << _cell_bit(n, i, n - 1)
        row = row[(row >> _cell_bit(n, i, i)) & 1 == 0]
        masks = (masks[:, None] | row).ravel()
    return masks


def adjacency_rows_from_masks(masks: np.ndarray, n: int) -> np.ndarray:
    """Out-neighbour bitmask rows, shape (len(masks), n), column-major.

    Column k is n-bit chunk k of the mask: the row of vertex n-1-k, with bit
    n-1-j for head j.  That is the digraph relabeled by v -> n-1-v, so
    strong connectivity reads the same.
    """
    shifts = _cell_bit(n, n - 1 - np.arange(n, dtype=np.int64), n - 1)
    return ((masks >> shifts[:, None]) & ((1 << n) - 1)).T


@lru_cache(maxsize=None)
def _perm_bit_table(n: int) -> np.ndarray:
    """table[p, b] = destination bit of source bit b under the p-th
    relabeling (itertools order)."""
    perms = np.array(list(itertools.permutations(range(n))), dtype=np.int8)
    i, j = np.divmod(np.arange(n * n), n)
    table = np.empty((len(perms), n * n), dtype=np.int8)
    table[:, _cell_bit(n, i, j)] = _cell_bit(n, perms[:, i], perms[:, j])
    return table


def min_relabeled_mask(masks: np.ndarray, n: int) -> np.ndarray:
    """Minimum packed adjacency over all n! relabelings, vectorized."""
    return _backend.perm_min(masks.astype(np.int64), _perm_bit_table(n))


def canonical_masks(masks: np.ndarray, n: int) -> np.ndarray:
    """The masks equal to their :func:`min_relabeled_mask`, in input order."""
    return _backend.perm_sieve(masks.astype(np.int64, copy=False), _perm_bit_table(n))


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

def subdivide_arc(d: Digraph, arc: Arc) -> Digraph:
    """Replace (i, j) by (i, w), (w, j) with w the fresh vertex n."""
    i, j = arc
    if (i, j) not in d.arc_set:
        raise MissingArcError(f"arc ({i}, {j}) not in digraph")
    w = d.n
    arcs = [a for a in d.arcs if a != (i, j)]
    arcs.extend([(i, w), (w, j)])
    return make_digraph(d.n + 1, arcs)


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
    moved = {(s, p) for s in srcs}
    arcs = [a for a in d.arcs if a not in moved]
    arcs.extend((s, q) for s in srcs)
    return make_digraph(d.n, arcs)


# ---------------------------------------------------------------------------
# bipartite structure

def bipartition(d: Digraph) -> tuple[frozenset[int], frozenset[int]] | None:
    """Two-coloring of the underlying undirected graph, or None.

    Requires strong connectivity (so the coloring is unique up to swapping
    sides); part 0 is the side containing vertex 0.  Every arc is verified
    to cross before returning.
    """
    if not is_strongly_connected(d):
        raise NotStronglyConnectedError("bipartition needs a strongly connected digraph")
    n = d.n
    und = [d.out_masks[v] | d.in_masks[v] for v in range(n)]
    color = [-1] * n
    color[0] = 0
    queue = deque([0])
    while queue:
        v = queue.popleft()
        for w in range(n):
            if (und[v] >> w) & 1:
                if color[w] == -1:
                    color[w] = 1 - color[v]
                    queue.append(w)
                elif color[w] == color[v]:
                    return None
    for i, j in d.arcs:
        if color[i] == color[j]:  # pragma: no cover - BFS above already failed
            return None
    part0 = frozenset(v for v in range(n) if color[v] == 0)
    part1 = frozenset(v for v in range(n) if color[v] == 1)
    return part0, part1


def contains_bidirected_kpq(d: Digraph, p: int, q: int) -> bool:
    """True iff disjoint vertex sets of sizes p and q exist with all 2pq
    crossing arcs present.  Subset search, so n is capped at 10; when the
    digraph is bipartite only cross-part subsets are tried."""
    if p < 1 or q < 1:
        raise OutOfRangeError("part sizes must be at least 1")
    if d.n > KPQ_SEARCH_MAX_N:
        raise TooLargeError(f"subset search capped at n={KPQ_SEARCH_MAX_N}, got {d.n}")
    if p + q > d.n:
        return False
    bidir = [d.out_masks[v] & d.in_masks[v] for v in range(d.n)]

    def check(side_a, side_b, a: int, b: int) -> bool:
        cand_a = [v for v in side_a if bin(bidir[v]).count("1") >= b]
        cand_b = [v for v in side_b if bin(bidir[v]).count("1") >= a]
        if len(cand_a) < a or len(cand_b) < b:
            return False
        for sa in itertools.combinations(cand_a, a):
            common = ~0
            for v in sa:
                common &= bidir[v]
            hits = [w for w in cand_b if (common >> w) & 1]
            if len(hits) >= b:
                return True
        return False

    parts = bipartition(d) if is_strongly_connected(d) else None
    if parts is not None:
        a0, a1 = sorted(parts[0]), sorted(parts[1])
        return check(a0, a1, p, q) or check(a0, a1, q, p)
    verts = range(d.n)
    return check(verts, verts, p, q)


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
    if not lines:
        raise ParseError("empty input", pos=0, expected="'dgr1 <n>' header")
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
    with open(path, "r", encoding="ascii") as fh:
        return from_dgr1(fh.read())
