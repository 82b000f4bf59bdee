"""Hot numeric kernels, implemented in numpy.

Kernels:

* ``power_iteration(m, tol, max_iter)`` -- Noda's shifted inverse iteration
  (power iteration on ``(sigma I - M)^-1``) for the Perron roots of a stack
  of irreducible nonnegative matrices, shape ``(N, n, n)``, one stacked
  solve per round; returns the iterates and their min/max quotient bounds
  ``(x, lo, hi, iterations)``, one row per matrix.  The name predates Noda
  iteration and is kept because the benchmark's tracer binds it.
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

import functools
import math

import numpy as np

#: kept for run records that log the active backend
BACKEND = "numpy"
HAVE_NUMBA = False


def _solve(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """z[k] with a[k] z[k] = b[k]; a row of NaN where a[k] is singular.

    One stacked LAPACK call; numpy rejects the whole stack if one member is
    singular, and only then are the members solved one by one.
    """
    try:
        return np.linalg.solve(a, b[:, :, None])[:, :, 0]
    except np.linalg.LinAlgError:
        z = np.full_like(b, np.nan)
        for k in range(len(a)):
            try:
                z[k] = np.linalg.solve(a[k], b[k])
            except np.linalg.LinAlgError:
                pass
        return z


def _shifted_solve(m: np.ndarray, x: np.ndarray, sigma: np.ndarray, eye: np.ndarray) -> np.ndarray:
    """Solve (sigma_k I - M_k) z_k = x_k for every k and return the z_k
    normalised, each signed so that its first entry is positive (a negative
    z_k means sigma_k rounded below the root)."""
    z = _solve(sigma[:, None, None] * eye - m, x)
    z /= np.copysign(np.sqrt(z[:, None, :] @ z[:, :, None])[:, 0], z[:, :1])
    return z


#: identity matrices by size; shared, never written
_eye = functools.lru_cache(maxsize=None)(np.eye)


def _quotient_bounds(m: np.ndarray, x: np.ndarray):
    """Row-wise min and max of the quotients (M_k x_k)_i / (x_k)_i."""
    q = (m @ x[:, :, None])[:, :, 0] / x
    return np.minimum.reduce(q, axis=1), np.maximum.reduce(q, axis=1)


def power_iteration(m: np.ndarray, tol: np.ndarray, max_iter: int):
    """Noda iteration on a stack m of shape (N, n, n), from the flat start
    vector, until each row's spread of the quotients (Mx)_i/x_i is at most
    its entry of tol, shape (N,).

    Each step solves (hi I - M) z = x with hi the current max quotient,
    which bounds the root from above (T. Noda, Numer. Math. 17, 1971);
    convergence is quadratic near the root and needs no primitivity.  A
    round makes one stacked solve over the rows still iterating, each at
    its own shift.  A row whose solve is singular or sign-mixed is retried
    once with the shift hi + (hi - lo); if that fails too, the row stops
    where it is while the others go on.  Every M must be irreducible and
    nonnegative so the iterates stay positive.  Returns ``x`` (N, n),
    ``lo``, ``hi`` and ``iterations`` (N,); a row's iterations count its
    rounds, the one whose retry failed included.
    """
    count, n = m.shape[0], m.shape[1]
    eye = _eye(n)
    x = np.full((count, n), 1.0 / math.sqrt(n))
    lo, hi = _quotient_bounds(m, x)
    iterations = np.zeros(count, dtype=np.int64)
    # live: the rows still iterating, whose state is kept compacted; while
    # every row iterates, nothing is indexed or copied
    live = np.flatnonzero(hi - lo > tol)
    ml, xl, lol, hil, toll = m, x, lo, hi, tol
    if live.size < count:
        if not live.size:
            return x, lo, hi, iterations
        ml, xl, lol, hil, toll = m[live], x[live], lo[live], hi[live], tol[live]
    for rounds in range(1, max_iter + 1):
        z = _shifted_solve(ml, xl, hil, eye)
        failed = None
        if not np.minimum.reduce(z, axis=None) > 0:
            bad = np.flatnonzero(~(z > 0).all(axis=1))
            z[bad] = _shifted_solve(ml[bad], xl[bad], hil[bad] + (hil[bad] - lol[bad]), eye)
            failed = bad[~(z[bad] > 0).all(axis=1)]
            z[failed] = xl[failed]
        xl = z
        lol, hil = _quotient_bounds(ml, z)
        going = hil - lol > toll
        if failed is not None:
            going[failed] = False
        if np.logical_and.reduce(going):
            continue
        if live.size == count and not np.logical_or.reduce(going):
            return xl, lol, hil, np.full(count, rounds)
        stop = ~going
        done = live[stop]
        x[done], lo[done], hi[done], iterations[done] = xl[stop], lol[stop], hil[stop], rounds
        live = live[going]
        if not live.size:
            return x, lo, hi, iterations
        ml, xl, lol, hil, toll = ml[going], xl[going], lol[going], hil[going], toll[going]
    x[live], lo[live], hi[live], iterations[live] = xl, lol, hil, max_iter
    return x, lo, hi, iterations


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
