"""Test-only oracles: independent strong-connectivity and labeled-mask
references, and frozen class counts.  Nothing in the package uses them."""

from collections import deque

import numpy as np

from alphaspectra.digraph import Digraph, _cell_bit

#: isomorphism-class counts of strongly connected digraphs; the n = 5 value
#: was computed once with an independent labeled-enumeration/dedup oracle
#: and frozen (see tests), the smaller ones are re-derived in the suite.
SC_CLASS_COUNTS = {2: 1, 3: 5, 4: 83, 5: 5048}

#: labeled (not up-to-isomorphism) strongly connected digraph counts,
#: frozen from the same oracle run.  Enumeration never builds the labeled
#: set, so these are only a fixture for the tests' oracles.
SC_LABELED_COUNTS = {2: 1, 3: 18, 4: 1606, 5: 565080}


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
