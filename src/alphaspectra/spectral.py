"""Spectral radius of the convex combination alpha*D + (1-alpha)*A.

For a strongly connected digraph the radius is a simple positive eigenvalue
with a positive eigenvector.  Noda's shifted inverse iteration converges to
it in a few solves, and the min/max quotients (Mx)_i / x_i, widened by the
rounding bound gamma_{n+2}, give a certified enclosure at every step.
:func:`spectral_radii` solves a list of digraphs at once: one stacked
kernel call per vertex count, every digraph at its own alpha and shift;
:func:`spectral_radius` is its one-element case.  An independent
determinant-scan root finder is kept deliberately free of any shared code
with the iteration path so the two can check each other.
"""

from __future__ import annotations

import math
import numbers
from collections.abc import Iterable
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import _backend
from .chareq import DEFAULT_TOL, check_alpha, descend_to_largest_root
from .digraph import Digraph, is_strongly_connected, out_degrees
from .errors import ConvergenceError, NonpositiveVectorError, NotStronglyConnectedError

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


def _alpha_stack(digraphs: list[Digraph], n: int, alphas: list[float]):
    """alpha_k*D + (1-alpha_k)*A of each n-vertex digraph, shape (N, n, n),
    and each digraph's largest outdegree.

    The entries are laid out in one list and converted once, so a stack of
    one costs what filling a single matrix does (about 7 us, where a numpy
    scatter of the arc cells takes 15 us); for all 5048 n = 5 classes the
    loop takes about 20 ms, twice the scatter's time (2-core x86_64 host).
    """
    cells = [0.0] * (len(digraphs) * n * n)
    tops = []
    for k, (d, alpha) in enumerate(zip(digraphs, alphas)):
        start, off, degs = k * n * n, 1.0 - alpha, [0] * n
        for i, j in d.arcs:
            cells[start + i * n + j] = off
            degs[i] += 1
        for i, deg in enumerate(degs):
            cells[start + i * (n + 1)] = alpha * deg
        tops.append(max(degs))
    return np.array(cells).reshape(len(digraphs), n, n), tops


def build_alpha_matrix(d: Digraph, alpha: float) -> np.ndarray:
    """Entry (i, i) = alpha * outdeg(i); entry (i, j) = 1 - alpha on arcs."""
    return _alpha_stack([d], d.n, [check_alpha(alpha)])[0][0]


def row_sum_bounds(d: Digraph) -> Interval:
    """[min outdegree, max outdegree], the extreme row sums of alpha*D +
    (1-alpha)*A; its radius lies inside at every alpha, with equality of the
    endpoints exactly when all outdegrees agree."""
    if not is_strongly_connected(d):
        raise NotStronglyConnectedError("row-sum bounds need a strongly connected digraph")
    degs = out_degrees(d)
    return Interval(float(min(degs)), float(max(degs)))


def cw_enclosure(m: np.ndarray, x: np.ndarray) -> Interval:
    """Quotient bounds [min (mx)_i/x_i, max (mx)_i/x_i] of the (n, n) m and a
    positive x, widened by :func:`rounding_safe`; contains the radius of m."""
    n = m.shape[0]
    x = np.asarray(x, dtype=float)
    if x.shape != (n,) or not (x > 0).all():
        raise NonpositiveVectorError("test vector must be strictly positive")
    q = (m @ x) / x
    return rounding_safe(float(q.min()), float(q.max()), n)


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
    return Interval(math.nextafter(lo * (1.0 - g), -math.inf), math.nextafter(hi * (1.0 + g), math.inf))


def spectral_radii(
    digraphs: Iterable[Digraph], alphas: float | Iterable[float], tol: float = DEFAULT_TOL
) -> list[SpectralResult]:
    """:func:`spectral_radius` of every digraph, in input order.

    ``alphas`` is one alpha for all or one per digraph.  The digraphs are
    grouped by vertex count and each group is solved in one stacked call of
    the Noda kernel, each digraph at its own alpha; a member that converges
    slowly or needs a retry holds up no other.  Every result obeys the
    rules of the one-digraph case, and one that misses tol raises
    :class:`ConvergenceError` for the whole call.
    """
    digraphs = list(digraphs)
    if isinstance(alphas, numbers.Real):
        alphas = [alphas] * len(digraphs)
    alphas = [check_alpha(a) for a in alphas]
    if len(alphas) != len(digraphs):
        raise ValueError(f"{len(alphas)} alphas for {len(digraphs)} digraphs")
    if not tol > 0:
        raise ValueError(f"tol must be positive, got {tol}")
    groups: dict[int, list[int]] = {}
    for k, d in enumerate(digraphs):
        if not is_strongly_connected(d):
            raise NotStronglyConnectedError("spectral radius defined here for strongly connected digraphs")
        groups.setdefault(d.n, []).append(k)
    results = [None] * len(digraphs)
    for n, members in groups.items():
        m, tops = _alpha_stack([digraphs[k] for k in members], n, [alphas[k] for k in members])
        # the quotients never exceed the largest row sum, so stopping the raw
        # spread twice that sum's widening below tol leaves room for the widening
        raw_tol = np.array([tol - 2.0 * rounding_safe(top, top, n).width for top in tops])
        x, lo, hi, iters = _backend.power_iteration(m, raw_tol, ITERATION_CAP)
        for k, xk, lok, hik, it in zip(members, x, lo.tolist(), hi.tolist(), iters.tolist()):
            enclosure = rounding_safe(lok, hik, n)
            if enclosure.width > tol:
                raise ConvergenceError(
                    f"Noda iteration failed to reach tol={tol} in {it} iterations "
                    f"(enclosure width {enclosure.width:.3e})"
                )
            results[k] = SpectralResult(
                radius=0.5 * (lok + hik),
                enclosure=enclosure,
                perron=xk,
                iterations=it,
                residual=(hik - lok) / hik if hik else 0.0,
            )
    return results


def spectral_radius(d: Digraph, alpha: float, tol: float = DEFAULT_TOL) -> SpectralResult:
    """Radius, certified enclosure, and Perron vector by Noda iteration.

    The enclosure is the final quotient interval widened by
    :func:`rounding_safe`, so it contains the radius of alpha*D + (1-alpha)*A
    for the float alpha given, whatever the rounding; its width is at most
    tol.  ``radius`` is the midpoint of the unwidened quotients, so a
    regular digraph gets exactly its degree.  The one-element case of
    :func:`spectral_radii`.
    """
    return spectral_radii([d], [alpha], tol)[0]


def _det_scan_matrix(d: Digraph, alpha: float, degs: tuple[int, ...]) -> np.ndarray:
    """alpha*D + (1-alpha)*A for the determinant scan, filled from the arcs
    and the outdegrees degs by its own code."""
    m = np.zeros((d.n, d.n))
    for i, j in d.arcs:
        m[i, j] = 1.0 - alpha
    for i, deg in enumerate(degs):
        m[i, i] = alpha * deg
    return m


def det_scan_largest_real_root(d: Digraph, alpha: float, tol: float = DEFAULT_TOL) -> float:
    """Independent oracle: rightmost real root of det(xI - M).

    Descends by secant steps from (max outdegree + 1), where the
    determinant is positive, increasing and convex down to the radius, with
    the routine the characteristic-equation oracle also uses,
    :func:`~alphaspectra.chareq.descend_to_largest_root`.  Builds its matrix by
    :func:`_det_scan_matrix`, so it shares no code with the Noda-iteration
    path.
    """
    alpha = check_alpha(alpha)
    if not is_strongly_connected(d):
        raise NotStronglyConnectedError("determinant scan needs a strongly connected digraph")
    degs = out_degrees(d)
    m = _det_scan_matrix(d, alpha, degs)
    eye = np.eye(d.n)

    def char_det(x: float) -> float:
        return _backend.det_via_lu(x * eye - m)

    return descend_to_largest_root(char_det, max(degs), tol, "det(xI - M)")
