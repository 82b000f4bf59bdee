"""Spectral radius of the convex combination alpha*D + (1-alpha)*A.

For a strongly connected digraph the radius is a simple positive eigenvalue
with a positive eigenvector.  Noda's shifted inverse iteration converges to
it in a few solves, and the min/max quotients (Mx)_i / x_i, widened by the
rounding bound gamma_{n+2}, give a certified enclosure at every step.  An
independent determinant-scan root finder is kept deliberately free of any
shared code with the iteration path so the two can check each other.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import _backend
from .chareq import scan_largest_root
from .digraph import Digraph, is_strongly_connected, out_degrees
from .errors import (
    AlphaRangeError,
    ConvergenceError,
    NonpositiveVectorError,
    NotStronglyConnectedError,
)

DEFAULT_TOL = 1e-12
#: Noda iteration converges quadratically near the root: over every n = 5
#: class and the criterion-1 family grid up to n = 12, at alpha up to 0.99,
#: no solve needs more than 26 steps.
ITERATION_CAP = 100


class Interval(NamedTuple):
    """Closed interval [lo, hi]."""

    lo: float
    hi: float

    @property
    def width(self) -> float:
        return self.hi - self.lo

    def disjoint_below(self, other: "Interval") -> bool:
        """True iff every point of self lies strictly below all of other."""
        return self.hi < other.lo


@dataclass(frozen=True, eq=False)
class AlphaMatrix:
    """Dense alpha*D + (1-alpha)*A of a digraph, rows indexed by tails."""

    digraph: Digraph
    alpha: float
    matrix: np.ndarray


@dataclass(frozen=True, eq=False)
class SpectralResult:
    """Radius estimate with a certified enclosure and the Perron vector.

    ``residual`` is the final spread of the quotients (Mx)_i / x_i relative
    to the largest one (0 for the one-vertex digraph).
    """

    radius: float
    enclosure: Interval
    perron: np.ndarray
    iterations: int
    residual: float


def _check_alpha(alpha: float) -> float:
    alpha = float(alpha)
    if not (0.0 <= alpha < 1.0):
        raise AlphaRangeError(f"alpha must be in [0, 1), got {alpha}")
    return alpha


def build_alpha_matrix(d: Digraph, alpha: float) -> AlphaMatrix:
    """Entry (i, i) = alpha * outdeg(i); entry (i, j) = 1 - alpha on arcs."""
    alpha = _check_alpha(alpha)
    m = np.zeros((d.n, d.n))
    off = 1.0 - alpha
    for i, j in d.arcs:
        m[i, j] = off
    degs = out_degrees(d)
    for i in range(d.n):
        m[i, i] = alpha * degs[i]
    return AlphaMatrix(d, alpha, m)


def row_sum_bounds(m: AlphaMatrix) -> Interval:
    """[min outdegree, max outdegree]; the radius always lies inside, with
    equality of the endpoints exactly when all outdegrees agree."""
    if not is_strongly_connected(m.digraph):
        raise NotStronglyConnectedError("row-sum bounds need an irreducible matrix")
    degs = out_degrees(m.digraph)
    return Interval(float(min(degs)), float(max(degs)))


def cw_enclosure(m: AlphaMatrix, x: np.ndarray) -> Interval:
    """Quotient bounds [min (Mx)_i/x_i, max (Mx)_i/x_i] for positive x,
    widened by :func:`rounding_safe`; always contains the spectral radius."""
    x = np.asarray(x, dtype=float)
    if x.shape != (m.digraph.n,) or not (x > 0).all():
        raise NonpositiveVectorError("test vector must be strictly positive")
    q = (m.matrix @ x) / x
    return rounding_safe(float(q.min()), float(q.max()), m.digraph.n)


def rounding_factor(n: int) -> float:
    """gamma_{n+2} = (n+2)u / (1 - (n+2)u), u = 2**-53, rounded up to a
    multiple of 2**-52 so that 1 - g and 1 + g are exact floats.

    A quotient (Mx)_i / x_i computed in floats is a length-n dot product and
    one division; the matrix entries alpha*outdeg and 1 - alpha carry one
    rounding each.  That is at most n + 2 relative roundings, so the exact
    quotient lies within a factor 1 -+ gamma_{n+2} of the computed one
    (Higham, *Accuracy and Stability of Numerical Algorithms*, Lemma 3.1
    and section 3.1).
    """
    return ((n + 2) // 2 + 1) * 2.0**-52


def rounding_safe(lo: float, hi: float, n: int) -> Interval:
    """[lo*(1-g), hi*(1+g)] with g = rounding_factor(n), each end moved one
    ulp outward to cover the rounding of the product."""
    g = rounding_factor(n)
    return Interval(
        float(np.nextafter(lo * (1.0 - g), -np.inf)),
        float(np.nextafter(hi * (1.0 + g), np.inf)),
    )


def spectral_radius(d: Digraph, alpha: float, tol: float = DEFAULT_TOL) -> SpectralResult:
    """Radius, certified enclosure, and Perron vector by Noda iteration.

    The enclosure is the final quotient interval widened by
    :func:`rounding_safe`, so it contains the radius of alpha*D + (1-alpha)*A
    for the float alpha given, whatever the rounding; its width is at most
    tol.  ``radius`` is the midpoint of the unwidened quotients, so a
    regular digraph gets exactly its degree.
    """
    alpha = _check_alpha(alpha)
    if tol <= 0:
        raise ValueError(f"tol must be positive, got {tol}")
    if not is_strongly_connected(d):
        raise NotStronglyConnectedError("spectral radius defined here for strongly connected digraphs")
    m = build_alpha_matrix(d, alpha).matrix
    # the quotients never exceed the largest row sum, so stopping the raw
    # spread twice that sum's widening below tol leaves room for the widening
    top = float(max(out_degrees(d)))
    raw_tol = tol - 2.0 * rounding_safe(top, top, d.n).width
    x, lo, hi, iters = _backend.power_iteration(m, raw_tol, ITERATION_CAP)
    enclosure = rounding_safe(lo, hi, d.n)
    if enclosure.width > tol:
        raise ConvergenceError(
            f"Noda iteration failed to reach tol={tol} in {iters} iterations "
            f"(enclosure width {enclosure.width:.3e})"
        )
    return SpectralResult(
        radius=0.5 * (lo + hi),
        enclosure=enclosure,
        perron=x,
        iterations=iters,
        residual=(hi - lo) / hi if hi else 0.0,
    )


def det_scan_largest_real_root(d: Digraph, alpha: float, tol: float = DEFAULT_TOL) -> float:
    """Independent oracle: rightmost real root of det(xI - M).

    Scans down from (max outdegree + 1) in 0.25 steps and bisects, with the
    routine the characteristic-equation oracle also uses,
    :func:`~alphaspectra.chareq.scan_largest_root`.  Shares no code with
    the Noda-iteration path.
    """
    alpha = _check_alpha(alpha)
    if not is_strongly_connected(d):
        raise NotStronglyConnectedError("determinant scan needs a strongly connected digraph")
    if d.n == 1:
        return 0.0
    m = build_alpha_matrix(d, alpha).matrix

    def char_det(x: float) -> float:
        return _backend.det_via_lu(x * np.eye(d.n) - m)

    return scan_largest_root(char_det, max(out_degrees(d)), alpha, tol, "det(xI - M)")
