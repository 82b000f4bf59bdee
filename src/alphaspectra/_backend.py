"""Hot numeric kernels, implemented in numpy.

Kernels:

* ``power_iteration(m, tol, max_iter)`` -- Noda's shifted inverse iteration
  (power iteration on ``(sigma I - M)^-1``) for the Perron root of an
  irreducible nonnegative matrix, returning the iterate and its min/max
  quotient bounds ``(x, lo, hi, iterations)``.
* ``det_via_lu(a)`` -- determinant from LAPACK's LU factorization.
* ``sc_filter(rows, n)`` -- strong-connectivity flags for a batch of
  digraphs given as per-vertex out-neighbour bitmasks.
* ``perm_min(masks, table)`` -- minimum over vertex relabelings of packed
  adjacency bitmasks, given a bit-relocation table.
"""

from __future__ import annotations

import math

import numpy as np

#: kept for run records that log the active backend
BACKEND = "numpy"
HAVE_NUMBA = False


def _noda_step(m: np.ndarray, x: np.ndarray, sigma: float):
    """Solve (sigma I - M) z = x; return z normalised if it is positive
    (after negation, when sigma rounded below the root), else None."""
    try:
        z = np.linalg.solve(sigma * np.eye(m.shape[0]) - m, x)
    except np.linalg.LinAlgError:
        return None
    if (z < 0).all():
        z = -z
    if not (z > 0).all():
        return None
    return z / np.linalg.norm(z)


def power_iteration(m: np.ndarray, tol: float, max_iter: int):
    """Noda iteration from the flat start vector until the spread of the
    quotients (Mx)_i/x_i is at most tol.

    Each step solves (hi I - M) z = x with hi the current max quotient,
    which bounds the root from above (T. Noda, Numer. Math. 17, 1971);
    convergence is quadratic near the root and needs no primitivity.  A
    singular or sign-mixed solve is retried once with the shift
    hi + (hi - lo); if that fails too the iteration stops where it is.  M
    must be irreducible and nonnegative so the iterate stays positive.
    ``iterations`` counts solves.
    """
    n = m.shape[0]
    x = np.full(n, 1.0 / math.sqrt(n))
    q = (m @ x) / x
    lo, hi = float(q.min()), float(q.max())
    it = 0
    while hi - lo > tol and it < max_iter:
        it += 1
        z = _noda_step(m, x, hi)
        if z is None:
            z = _noda_step(m, x, hi + (hi - lo))
        if z is None:
            break
        x = z
        q = (m @ x) / x
        lo, hi = float(q.min()), float(q.max())
    return x, lo, hi, it


def det_via_lu(a: np.ndarray) -> float:
    """Determinant from LAPACK's LU factorization (``numpy.linalg.det``)."""
    return float(np.linalg.det(a))


def sc_filter(rows: np.ndarray, n: int) -> np.ndarray:
    """Strong-connectivity flags for a batch of bitmask adjacency rows.

    rows[t, i] holds the out-neighbour set of vertex i of digraph t as an
    n-bit mask.  Reachability closure by repeated squaring, vectorized
    across the batch.
    """
    reach = rows.copy()
    for i in range(n):
        reach[:, i] |= np.int64(1) << i
    sweeps = max(1, math.ceil(math.log2(n)) if n > 1 else 1)
    for _ in range(sweeps):
        nxt = reach.copy()
        for i in range(n):
            for j in range(n):
                bit = (reach[:, i] >> j) & 1
                nxt[:, i] |= bit * reach[:, j]
        reach = nxt
    full = (np.int64(1) << n) - 1
    return (reach == full).all(axis=1)


def perm_min(masks: np.ndarray, table: np.ndarray) -> np.ndarray:
    """Minimum over relabelings of packed adjacency masks.

    table[p, b] is the destination bit of source bit b under permutation p.
    """
    best = np.full(masks.shape, np.int64(1) << 62, dtype=np.int64)
    nbits = table.shape[1]
    for p in range(table.shape[0]):
        acc = np.zeros_like(masks)
        for b in range(nbits):
            acc |= ((masks >> b) & 1) << np.int64(table[p, b])
        np.minimum(best, acc, out=best)
    return best
