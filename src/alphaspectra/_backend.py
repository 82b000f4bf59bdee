"""Hot numeric kernels, implemented in numpy.

Kernels:

* ``power_iteration(m, x, tol, max_iter)`` -- Noda's shifted inverse
  iteration (power iteration on ``(sigma I - M)^-1``) for the Perron roots
  of a stack of irreducible nonnegative matrices, shape ``(N, n, n)``, from
  the start x that ``_squared_start(m)`` makes with the matrices' strong
  flags, one stacked solve per round; returns the iterates and their
  min/max quotient bounds ``(x, lo, hi, iterations)``, one row per matrix.
  The name predates Noda iteration; the benchmark's tracer binds it.
* ``det_via_lu(a)`` -- determinant from LAPACK's LU factorization.
* ``sc_filter(rows)`` -- strong-connectivity flags for a batch of
  digraphs given as per-vertex out-neighbour bitmasks.
* ``perm_min(masks, table)`` -- minimum over vertex relabelings of packed
  adjacency bitmasks, given a bit-relocation table.
* ``perm_sieve(masks, moves)`` -- the masks no relabeling maps strictly
  below themselves (the canonical ones), in input order, from each
  relabeling's column step and row step of masked shifts.
"""

from __future__ import annotations

import functools
import math

import numpy as np
from numpy.linalg import _umath_linalg

#: kept for run records that log the active backend
BACKEND = "numpy"
HAVE_NUMBA = False


def _solve(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """z[k] with a[k] z[k] = b[k]; a row of NaN where a[k] is singular.

    The stacked LAPACK gufunc behind ``np.linalg.solve``, bit-equal to it,
    without the wrapper that raises for the whole stack; the invalid flag a
    singular member sets is left to the caller's ``np.errstate``.
    """
    return _umath_linalg.solve(a, b[:, :, None], signature="dd->d")[:, :, 0]


def _shifted_solve(m: np.ndarray, x: np.ndarray, sigma: np.ndarray, eye: np.ndarray) -> np.ndarray:
    """Solve (sigma_k I - M_k) z_k = x_k for every k and return the z_k
    normalised, each signed so that its first entry is positive (a negative
    z_k means sigma_k rounded below the root)."""
    z = _solve(sigma[:, None, None] * eye - m, x)
    z /= np.copysign(np.sqrt(z[:, None, :] @ z[:, :, None])[:, 0], z[:, :1])
    return z


#: identity matrices by size; shared, never written
_eye = functools.lru_cache(maxsize=None)(np.eye)

#: the smallest positive normal float
_TINY = np.finfo(float).tiny


def _quotient_bounds(m: np.ndarray, x: np.ndarray):
    """Row-wise min and max of the quotients (M_k x_k)_i / (x_k)_i."""
    q = (m @ x[:, :, None])[:, :, 0] / x
    return np.minimum.reduce(q, axis=1), np.maximum.reduce(q, axis=1)


#: the start vector is B^(2^SQUARINGS) 1: over the 665 oracle-grid triples
#: (criterion-1 grid, n <= 7) 4, 5, 6, 7, 8 and 9 squarings leave 1766,
#: 1145, 545, 164, 64 and 48 Noda rounds in all, against 3596 from the flat
#: vector; one-digraph solves of those triples stop getting faster at 7
SQUARINGS = 7


def _squared_start(m: np.ndarray):
    """Row sums of B_k^(2^SQUARINGS), each row scaled to unit length, with
    B_k = (I + M_k) / (1 + largest row sum of M_k), by stacked squaring,
    and the flags that B_k^(2^r), r = min(ceil(log2(n-1)), SQUARINGS), has
    no zero entry.  B_k has the zero pattern of I + M_k, and float sums of
    nonnegative products are zero where the exact ones are, so a flag
    proves (I + M_k)^(n-1) > 0: M_k is irreducible (Horn & Johnson, *Matrix
    Analysis*, Thm 6.2.24).  Underflow or n > 2^SQUARINGS + 1 also clear it.
    B_k has row sums at most 1, so its powers cannot overflow; they
    underflow only where the radius lies far below the largest row sum, or
    the Perron entries span some 300 decades, and the caller checks.  The
    row sums are scaled to a largest entry of 1 before their length is
    taken, so the squares in the length do not underflow.
    """
    b = m + _eye(m.shape[1])
    b /= np.maximum.reduce(b.sum(axis=2), axis=1)[:, None, None]
    reach = min((m.shape[1] - 2).bit_length(), SQUARINGS)
    for _ in range(reach):
        b = b @ b
    strong = np.ones(len(b), dtype=bool) if np.minimum.reduce(b, axis=None) > 0 else (b > 0).all(axis=(1, 2))
    for _ in range(SQUARINGS - reach):
        b = b @ b
    x = b.sum(axis=2)
    x /= np.maximum.reduce(x, axis=1)[:, None]
    x /= np.sqrt(x[:, None, :] @ x[:, :, None])[:, 0]
    return x, strong


# one errstate per call, not per round, for the flags _solve leaves
@np.errstate(all="ignore")
def power_iteration(m: np.ndarray, x: np.ndarray, tol: np.ndarray, max_iter: int):
    """Noda iteration on a stack m of shape (N, n, n), from the start x,
    shape (N, n), which it overwrites, until each row's spread of the
    quotients (Mx)_i/x_i is at most its entry of tol, shape (N,).

    The caller's start is :func:`_squared_start`'s: B^K 1 with B = (I + M)
    / c, c = 1 + the largest row sum, and K = 2^SQUARINGS.  The quotients of
    M are c (Bx)_i / x_i - 1, and for B >= 0 the quotient interval of Bx
    lies inside that of x, so in exact arithmetic the start's interval is
    never wider than the flat vector's; near the root it is usually within
    tol already.  B has a positive diagonal, so B^K 1 is positive; a row
    whose start has an entry that is not a positive normal float
    (underflow) starts from the flat vector instead.  The enclosure is the
    quotient interval of whatever positive iterate a row ends on, so the
    start changes no certificate, and a row's start depends only on its
    own matrix, so a row gets the same bits in any stack.

    Each step solves (hi I - M) z = x with hi the current max quotient,
    which bounds the root from above (T. Noda, Numer. Math. 17, 1971);
    convergence is quadratic near the root and needs no primitivity.  The
    rounds are one loop over the live rows, those still iterating: each
    round gathers them from x, lo and hi, makes one stacked solve, each row
    at its own shift, scatters the results back and drops the rows that
    stopped.  A row whose solve is singular or sign-mixed is retried once
    with the shift hi + (hi - lo); if that fails too, the row stops where
    it is while the others go on.  Every M must be irreducible and
    nonnegative so the iterates stay positive.  Returns ``x`` (N, n),
    ``lo``, ``hi`` and ``iterations`` (N,); a row's iterations count its
    rounds, the one whose retry failed included.
    """
    count, n = m.shape[0], m.shape[1]
    eye = _eye(n)
    if not (np.minimum.reduce(x, axis=None) >= _TINY and np.maximum.reduce(x, axis=None) < math.inf):
        x[~((x >= _TINY) & (x < math.inf)).all(axis=1)] = 1.0 / math.sqrt(n)
    lo, hi = _quotient_bounds(m, x)
    iterations = np.zeros(count, dtype=np.int64)
    live = np.flatnonzero(hi - lo > tol)
    rounds = 0
    while live.size and rounds < max_iter:
        rounds += 1
        ml, xl, lol, hil = m[live], x[live], lo[live], hi[live]
        z = _shifted_solve(ml, xl, hil, eye)
        going = np.ones(live.size, dtype=bool)
        if not np.minimum.reduce(z, axis=None) > 0:
            bad = np.flatnonzero(~(z > 0).all(axis=1))
            z[bad] = _shifted_solve(ml[bad], xl[bad], hil[bad] + (hil[bad] - lol[bad]), eye)
            failed = bad[~(z[bad] > 0).all(axis=1)]
            z[failed] = xl[failed]
            going[failed] = False
        lol, hil = _quotient_bounds(ml, z)
        x[live], lo[live], hi[live], iterations[live] = z, lol, hil, rounds
        going &= hil - lol > tol[live]
        live = live[going]
    return x, lo, hi, iterations


def det_via_lu(a: np.ndarray) -> float:
    """Determinant of the float64 matrix a by LAPACK's LU factorization: the
    gufunc behind ``numpy.linalg.det``, bit-equal to it, minus its casts."""
    return float(_umath_linalg.det(a))


def sc_filter(rows: np.ndarray) -> np.ndarray:
    """Strong-connectivity flags for a batch of bitmask adjacency rows.

    rows[t, i] holds the out-neighbour set of vertex i of digraph t as an
    n-bit mask, n = rows.shape[1].  Runs the sweep of
    ``digraph.is_strongly_connected`` across the batch, one vertex column at
    a time, for a fixed n - 1 sweeps, which reach every vertex within
    distance n - 1.
    """
    count, n = rows.shape
    fwd = np.ones(count, dtype=np.int64)
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


def perm_sieve(masks: np.ndarray, moves) -> np.ndarray:
    """The masks equal to their ``perm_min``, in input order.

    Walks the relabelings of moves (``digraph._perm_moves``), each pass
    relabeling only the masks still minimal and keeping those no larger
    than their image: a column step, then a row step, each the OR of its
    input's groups, shifted, in buffers allocated once, never zero-filled.
    """
    keep = masks
    part, cols, image = np.empty((3, len(masks)), dtype=masks.dtype)
    for steps in moves:
        src, live = keep, len(keep)
        for step, out in zip(steps, (cols[:live], image[:live])):
            for k, (shift, group) in enumerate(step):
                dst = part[:live] if k else out
                np.bitwise_and(src, group, out=dst)
                if shift:
                    (np.left_shift if shift > 0 else np.right_shift)(dst, abs(shift), out=dst)
                if k:
                    out |= dst
            src = out
        keep = keep[keep <= src]
    return keep
