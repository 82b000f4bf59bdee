"""Test-only oracles: independent strong-connectivity and labeled-mask
references, the per-pair Perron-order and rank checks, a per-member
assembly of solve results, the per-digraph bipartite and K_{p,q}
predicates, and frozen class counts.  Nothing in the package uses them."""

import itertools
import math
from collections import deque

import numpy as np

from alphaspectra import _backend
from alphaspectra.campaigns import DECISION_MARGIN, Verdict
from alphaspectra.digraph import Digraph, _cell_bit, is_strongly_connected, out_degrees
from alphaspectra.errors import NotStronglyConnectedError, OutOfRangeError, TooLargeError
from alphaspectra.spectral import ITERATION_CAP, Interval, SpectralResult, build_alpha_matrix, rounding_factor

#: isomorphism-class counts of strongly connected digraphs; the n = 5 value
#: was computed once with an independent labeled-enumeration/dedup oracle
#: and frozen (see tests), the smaller ones are re-derived in the suite.
SC_CLASS_COUNTS = {2: 1, 3: 5, 4: 83, 5: 5048}

#: labeled (not up-to-isomorphism) strongly connected digraph counts,
#: frozen from the same oracle run.  Enumeration never builds the labeled
#: set, so these are only a fixture for the tests' oracles.
SC_LABELED_COUNTS = {2: 1, 3: 18, 4: 1606, 5: 565080}

KPQ_SEARCH_MAX_N = 10


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
    """Reachability-from-every-vertex oracle; independent of the sweep
    from vertex 0 in :func:`is_strongly_connected`."""
    full = (1 << d.n) - 1
    return all(_reachable_from(d, v) == full for v in range(d.n))


def loop_free_masks(n: int) -> np.ndarray:
    """Masks of all 2^(n(n-1)) labeled loop-free digraphs on n vertices, ascending."""
    masks = np.zeros(1, dtype=np.int64)
    for i in range(n):
        row = np.arange(1 << n, dtype=np.int64) << _cell_bit(n, i, n - 1)
        row = row[(row >> _cell_bit(n, i, i)) & 1 == 0]
        masks = (masks[:, None] | row).ravel()
    return masks


def perron_order_per_pair(bases, results):
    """Per-pair loop oracle for ``campaigns._perron_order``: for each
    ``(digraph, alpha, label)`` base and its result, every pair (i, j) in
    row-major order, counted when nested and listed when a violation."""
    count, violations = 0, []
    for (d, alpha, label), res in zip(bases, results):
        x, out_masks = res.perron.tolist(), d.out_masks
        for i in range(d.n):
            ni = out_masks[i]
            for j in range(d.n):
                nj = out_masks[j]
                if i == j or (ni >> j) & 1 or (nj >> i) & 1 or ni & ~nj:
                    continue
                count += 1
                if ni == nj:
                    if abs(x[j] - x[i]) > DECISION_MARGIN:
                        violations.append(f"{label} equal-nbhd {i},{j} alpha={alpha}")
                elif x[j] < x[i] - DECISION_MARGIN:
                    violations.append(f"{label} nested-nbhd {i},{j} alpha={alpha}")
    return count, violations


def judge_rank_per_pair(claim, ranked, pos, label, name):
    """Member-by-member oracle for ``campaigns.judge_rank``: counts the
    members with ``hi < X.lo`` and with ``lo > X.hi`` one comparison at a
    time, with no sorting or bisection.  A failure names the member below
    with the largest ``hi`` (the last in input order on a tie), or the one
    above with the least ``lo`` (the first on a tie)."""
    labels = [lab for lab, _ in ranked]
    if label not in labels:
        return Verdict(claim, "fail", f"expected {name}, not among the ranked members")
    x = ranked[labels.index(label)][1].enclosure
    below = [k for k, (_, res) in enumerate(ranked) if res.enclosure.hi < x.lo]
    above = [k for k, (_, res) in enumerate(ranked) if res.enclosure.lo > x.hi]
    if len(below) > pos:
        k = max(below, key=lambda k: (ranked[k][1].enclosure.hi, k))
        return Verdict(claim, "fail", f"expected {name}, found {labels[k]}")
    if len(above) > len(ranked) - 1 - pos:
        k = min(above, key=lambda k: (ranked[k][1].enclosure.lo, k))
        return Verdict(claim, "fail", f"expected {name}, found {labels[k]}")
    if len(ranked) == 1:
        return Verdict(claim, "pass", "single member, trivially extremal")
    radius = ranked[labels.index(label)][1].radius
    if len(below) + len(above) == len(ranked) - 1:
        status, k = "pass", pos + 1 if pos + 1 < len(ranked) else pos - 1
    else:
        decided = set(below) | set(above)
        status, k = "indistinguishable", min(
            (k for k, lab in enumerate(labels) if lab != label and k not in decided),
            key=lambda k: (abs(ranked[k][1].radius - radius), labels[k]))
    return Verdict(claim, status, f"{name} vs {labels[k]} gap {abs(ranked[k][1].radius - radius):.3e}")


def widen_one(lo, hi, n):
    """[lo*(1-g), hi*(1+g)], g = rounding_factor(n), one ulp further out on
    each side: the widening rule written out for one pair."""
    g = rounding_factor(n)
    return Interval(math.nextafter(lo * (1.0 - g), -math.inf), math.nextafter(hi * (1.0 + g), math.inf))


def solve_one_by_one(d, alpha, tol):
    """Per-member oracle for ``spectral_radii``'s results: the digraph's
    matrix, start and Noda kernel on a stack of one, then its own
    widening and :class:`SpectralResult`.  Returns the result, or the
    ``ConvergenceError`` message a miss of tol raises."""
    m, top = build_alpha_matrix(d, alpha)[None], max(out_degrees(d))
    x, _ = _backend._squared_start(m)
    raw_tol = tol - 2.0 * widen_one(top, top, d.n).width
    x, lo, hi, iters = _backend.power_iteration(m, x, np.array([raw_tol]), ITERATION_CAP)
    lo, hi, it = float(lo[0]), float(hi[0]), int(iters[0])
    enclosure = widen_one(lo, hi, d.n)
    if enclosure.width > tol:
        return (f"Noda iteration failed to reach tol={tol} in {it} iterations "
                f"(enclosure width {enclosure.width:.3e})")
    return SpectralResult(0.5 * (lo + hi), enclosure, x[0], it, (hi - lo) / hi if hi else 0.0)


def in_masks(d: Digraph) -> tuple[int, ...]:
    """In-neighbour mask of every vertex: bit i of entry j for the arc (i, j)."""
    masks = [0] * d.n
    for i, j in d.arcs:
        masks[j] |= 1 << i
    return tuple(masks)


def bipartition(d: Digraph) -> tuple[frozenset[int], frozenset[int]] | None:
    """Two-coloring of the underlying undirected graph, or None.

    Requires strong connectivity (so the coloring is unique up to swapping
    sides); part 0 is the side containing vertex 0.  The search from vertex
    0 reaches every vertex and so tests every arc: None as soon as one joins
    two vertices of the same color.  Oracle for
    ``digraph.masks_bipartite_kpq``.
    """
    if not is_strongly_connected(d):
        raise NotStronglyConnectedError("bipartition needs a strongly connected digraph")
    n = d.n
    ins = in_masks(d)
    und = [d.out_masks[v] | ins[v] for v in range(n)]
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
    part0 = frozenset(v for v in range(n) if color[v] == 0)
    part1 = frozenset(v for v in range(n) if color[v] == 1)
    return part0, part1


def contains_bidirected_kpq(d: Digraph, p: int, q: int) -> bool:
    """True iff disjoint vertex sets of sizes p and q exist with all 2pq
    crossing arcs present.  Subset search over the p-sets, so n is capped at
    10: a p-set works when its common bidirected neighbours number at least
    q, and they lie outside it because no vertex is its own neighbour.
    Oracle for ``digraph.masks_bipartite_kpq``."""
    if p < 1 or q < 1:
        raise OutOfRangeError("part sizes must be at least 1")
    if d.n > KPQ_SEARCH_MAX_N:
        raise TooLargeError(f"subset search capped at n={KPQ_SEARCH_MAX_N}, got {d.n}")
    if p + q > d.n:
        return False
    ins = in_masks(d)
    bidir = [d.out_masks[v] & ins[v] for v in range(d.n)]
    cand = [v for v in range(d.n) if bidir[v].bit_count() >= q]
    for chosen in itertools.combinations(cand, p):
        common = ~0
        for v in chosen:
            common &= bidir[v]
        if common.bit_count() >= q:
            return True
    return False
