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
* ``perm_sieve(masks, table)`` -- the masks no relabeling maps strictly
  below themselves (the canonical ones), in input order, from the same
  table.
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
    n-bit mask.  Runs the two searches from vertex 0 of
    ``digraph.is_strongly_connected`` across the batch, one vertex column
    at a time; n - 1 rounds reach every vertex within distance n - 1.
    """
    fwd = np.ones(rows.shape[0], dtype=np.int64)
    back = fwd.copy()
    for _ in range(n - 1):
        for v in range(n):
            col = rows[:, v]
            # v's out-neighbours join fwd once v is in it; v joins back
            # once one of its out-neighbours is in it
            fwd |= -((fwd >> v) & 1) & col
            back |= (col & back != 0).astype(np.int64) << v
    full = (1 << n) - 1
    return (fwd == full) & (back == full)


def perm_min(masks: np.ndarray, table: np.ndarray) -> np.ndarray:
    """Minimum over relabelings of packed adjacency masks.

    table[p, b] is the destination bit of source bit b under relabeling p.
    Each block of masks meets every relabeling at once, in about 2^16
    (mask, relabeling) cells; bits set in no mask are skipped.
    """
    nperm, nbits = table.shape
    used = int(np.bitwise_or.reduce(masks, initial=0))
    bits = [b for b in range(nbits) if (used >> b) & 1]
    step = max(1, (1 << 16) // nperm)
    out = np.empty(masks.shape, dtype=np.int64)
    for lo in range(0, len(masks), step):
        block = masks[lo:lo + step, None]
        acc = np.zeros((len(block), nperm), dtype=np.int64)
        for b in bits:
            acc |= ((block >> b) & 1) << table[:, b]
        out[lo:lo + step] = acc.min(axis=1)
    return out


def perm_sieve(masks: np.ndarray, table: np.ndarray) -> np.ndarray:
    """The masks equal to their ``perm_min``, in input order.

    Walks the relabelings of table after row 0 (the identity), each pass
    relabeling only the masks that are still minimal and keeping those no
    larger than their image.  Bit b moves by table[p, b] - b, so the bits
    sharing a distance move with one masked shift, in place; bits set in no
    mask are skipped.
    """
    used = int(np.bitwise_or.reduce(masks, initial=0))
    bits = [b for b in range(table.shape[1]) if (used >> b) & 1]
    keep = masks
    for row in table[1:]:
        moves: dict[int, int] = {}
        for b in bits:
            d = int(row[b]) - b
            moves[d] = moves.get(d, 0) | (1 << b)
        image = np.zeros_like(keep)
        part = np.empty_like(keep)
        for d, group in moves.items():
            np.bitwise_and(keep, group, out=part)
            image |= np.left_shift(part, d, out=part) if d >= 0 else np.right_shift(part, -d, out=part)
        keep = keep[keep <= image]
    return keep
