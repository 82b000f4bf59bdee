"""Spectral radius of the convex combination alpha*D + (1-alpha)*A.

For a strongly connected digraph the radius is a simple positive eigenvalue
with a positive eigenvector.  Noda's shifted inverse iteration, started
from a repeated-squaring power iterate, often certifies it with no solve
at all and otherwise in a few, and the min/max quotients (Mx)_i / x_i,
widened by the rounding bound gamma_{n+2}, give a certified enclosure at
every step.
:func:`spectral_radii` solves many digraphs at once: per vertex count one
0/1 adjacency stack, from the out-masks or given, one matrix build, one
start whose squarings also prove strong connectivity, and one kernel
call, each digraph at its own alpha; :func:`spectral_radius` is its
one-element case.  An independent determinant-scan root finder shares
no code with the iteration path, so the two can check each other.
"""

from __future__ import annotations

import functools
import math
import numbers
from collections.abc import Iterable, Sequence
from dataclasses import dataclass
from itertools import chain
from typing import NamedTuple

import numpy as np

from . import _backend
from .chareq import DEFAULT_TOL, check_alpha, descend_to_largest_root, outdegree_bound
from .digraph import Digraph, is_strongly_connected, out_degrees
from .errors import ConvergenceError, LoopArcError, NonpositiveVectorError, NotStronglyConnectedError

#: Noda iteration converges quadratically near the root, and its start is
#: already close: over every n = 5 class and the criterion-1 family grid up
#: to n = 12, at alpha 0, 0.3, 0.5, 0.75, 0.85, 0.9, 0.95 and 0.99, no solve
#: needs more than 10 steps on the classes and 25 on the grid (both at 0.99),
#: and the mean on the classes is at most 1.75 steps.
ITERATION_CAP = 100

#: twice the widening of [top, top]: the quotients never exceed the largest
#: row sum top, so a raw spread this far below tol leaves room to widen it
_top_margin = functools.lru_cache(maxsize=None)(lambda top, n: 2.0 * rounding_safe(top, top, n).width)


class Interval(NamedTuple):
    """Closed interval [lo, hi]."""

    lo: float
    hi: float

    @property
    def width(self) -> float:
        return self.hi - self.lo


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


@dataclass(eq=False, slots=True)
class SpectralResults(Sequence):
    """What :func:`spectral_radii` returns: its results as columns, in
    input order.

    ``lo`` and ``hi`` are the widened enclosure ends, ``radius``,
    ``iterations`` and ``residual`` the other fields, all lists of Python
    numbers; ``perron`` holds the Perron rows, the (N, n) kernel array when
    every digraph has n vertices.  Indexing or iterating builds each
    :class:`SpectralResult` from its row of the columns.
    """

    lo: list[float]
    hi: list[float]
    radius: list[float]
    iterations: list[int]
    residual: list[float]
    perron: Sequence[np.ndarray]

    def __len__(self) -> int:
        return len(self.radius)

    def __getitem__(self, k):
        if isinstance(k, slice):
            return [self[j] for j in range(len(self))[k]]
        return SpectralResult(self.radius[k], Interval(self.lo[k], self.hi[k]), self.perron[k], self.iterations[k],
                              self.residual[k])

    def take(self, order: list[int]) -> "SpectralResults":
        """The results at the positions in order, in that order."""
        perron = self.perron
        perron = perron[order] if isinstance(perron, np.ndarray) else [perron[k] for k in order]
        return SpectralResults(*[[col[k] for k in order] for col in
                                 (self.lo, self.hi, self.radius, self.iterations, self.residual)], perron)

    @staticmethod
    def gather(parts: list[tuple[list[int], "SpectralResults"]]) -> "SpectralResults":
        """One input-order table from ``(positions, results)`` parts: each
        part's positions ascending, all of them together 0..N-1."""
        if len(parts) == 1:
            return parts[0][1]
        flat = list(chain.from_iterable(positions for positions, _ in parts))
        cols = [list(chain.from_iterable(getattr(res, f) for _, res in parts))
                for f in ("lo", "hi", "radius", "iterations", "residual", "perron")]
        return SpectralResults(*cols).take(sorted(range(len(flat)), key=flat.__getitem__))


def _matrix_stack(adj: np.ndarray, alphas: list[float]):
    """alpha_k*D + (1-alpha_k)*A of each 0/1 matrix of the adjacency stack
    adj, shape (N, n, n), and each one's largest outdegree."""
    n = adj.shape[1]
    degs, alpha = adj.sum(axis=2), np.array(alphas)
    m = adj * (1.0 - alpha)[:, None, None]
    m.reshape(len(adj), n * n)[:, :: n + 1] = alpha[:, None] * degs
    return m, degs.max(axis=1).tolist()


def _reach_strong(m: np.ndarray) -> np.ndarray:
    """Exact strong flags of the stack m: no zero entry in I + A (from m's
    zeros) squared, clipped to 0/1, until it covers paths of n - 1 arcs."""
    reach = (m != 0) + _backend._eye(m.shape[1])
    for _ in range((m.shape[1] - 2).bit_length()):
        reach = np.minimum(reach @ reach, 1.0)
    return (reach > 0).all(axis=(1, 2))


def _alpha_stack(digraphs: list[Digraph], alphas: list[float]):
    """:func:`_matrix_stack` of same-size digraphs, unpacked from the out-masks."""
    n = digraphs[0].n
    width = (n + 7) // 8
    raw = b"".join([m.to_bytes(width, "little") for d in digraphs for m in d.out_masks])
    bits = np.frombuffer(raw, np.uint8).reshape(len(digraphs), n, width)
    return _matrix_stack(np.unpackbits(bits, axis=2, count=n, bitorder="little"), alphas)


def build_alpha_matrix(d: Digraph, alpha: float) -> np.ndarray:
    """Entry (i, i) = alpha * outdeg(i); entry (i, j) = 1 - alpha on arcs."""
    return _alpha_stack([d], [check_alpha(alpha)])[0][0]


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


def _widen(lo: float, hi: float, g: float) -> tuple[float, float]:
    """lo*(1-g) and hi*(1+g), each moved one ulp outward to cover the
    rounding of the product."""
    return math.nextafter(lo * (1.0 - g), -math.inf), math.nextafter(hi * (1.0 + g), math.inf)


def rounding_safe(lo: float, hi: float, n: int) -> Interval:
    """[lo*(1-g), hi*(1+g)] with g = rounding_factor(n), each end moved one
    ulp outward to cover the rounding of the product."""
    return Interval(*_widen(lo, hi, rounding_factor(n)))


def spectral_radii(
    digraphs: Iterable[Digraph] | np.ndarray, alphas: float | Iterable[float], tol: float = DEFAULT_TOL
) -> SpectralResults:
    """:func:`spectral_radius` of every digraph, in input order, as one
    :class:`SpectralResults` table.

    ``alphas`` is one alpha for all or one per digraph.  The digraphs are
    grouped by vertex count, or come as one group: a 0/1 adjacency stack,
    shape (N, n, n); another shape or entry raises ``ValueError``, and a 1
    on the diagonal :class:`LoopArcError`.  Every group's matrices and
    start are built first; the start's squarings prove most digraphs
    strongly connected and the exact reach squaring checks the rest, so one
    that fails raises :class:`NotStronglyConnectedError` before anything is
    solved.  Each group is then solved in one stacked call of the Noda
    kernel, each digraph at its own alpha; one that is slow or retries holds
    up no other.  Every result obeys the rules of the one-digraph case, and
    one that misses tol raises :class:`ConvergenceError` for the whole call.
    """
    digraphs = digraphs if isinstance(digraphs, np.ndarray) else list(digraphs)
    shared = isinstance(alphas, numbers.Real)
    alphas = [check_alpha(alphas)] * len(digraphs) if shared else [check_alpha(a) for a in alphas]
    if len(alphas) != len(digraphs):
        raise ValueError(f"{len(alphas)} alphas for {len(digraphs)} digraphs")
    if not tol > 0:
        raise ValueError(f"tol must be positive, got {tol}")
    if isinstance(digraphs, np.ndarray):
        square = digraphs.ndim == 3 and 0 < digraphs.shape[1] == digraphs.shape[2]
        if not square or ((digraphs != 0) & (digraphs != 1)).any():
            raise ValueError(f"adjacency stack must be (N, n, n) with 0/1 entries, got shape {digraphs.shape}")
        if digraphs.diagonal(axis1=1, axis2=2).any():
            raise LoopArcError("adjacency stack with a 1 on the diagonal")
        stacks = [(digraphs.shape[1], range(len(digraphs)), *_matrix_stack(digraphs, alphas))] if len(digraphs) else []
    else:
        groups: dict[int, list[int]] = {}
        for k, d in enumerate(digraphs):
            groups.setdefault(d.n, []).append(k)
        stacks = [(n, members, *_alpha_stack([digraphs[k] for k in members], [alphas[k] for k in members]))
                  for n, members in groups.items()]
    stacks = [(n, members, m, tops, *_backend._squared_start(m)) for n, members, m, tops in stacks]
    if not all(strong.all() or _reach_strong(m[~strong]).all() for _, _, m, _, _, strong in stacks):
        raise NotStronglyConnectedError("spectral radius defined here for strongly connected digraphs")
    parts = []
    for n, members, m, tops, x, _ in stacks:
        raw_tol = np.array([tol - _top_margin(top, n) for top in tops])
        x, lo, hi, iters = _backend.power_iteration(m, x, raw_tol, ITERATION_CAP)
        g, iters = rounding_factor(n), iters.tolist()
        wlo, whi, radius, residual = [], [], [], []
        for l, h, it in zip(lo.tolist(), hi.tolist(), iters):
            wl, wh = _widen(l, h, g)
            if wh - wl > tol:
                raise ConvergenceError(
                    f"Noda iteration failed to reach tol={tol} in {it} iterations (enclosure width {wh - wl:.3e})"
                )
            wlo.append(wl)
            whi.append(wh)
            radius.append(0.5 * (l + h))
            residual.append((h - l) / h if h else 0.0)
        parts.append((members, SpectralResults(wlo, whi, radius, iters, residual, x)))
    return SpectralResults.gather(parts)


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

    Descends by secant steps from just above the Brauer-Cassini bound of
    its own two largest outdegrees, where the determinant is positive,
    increasing and convex down to the radius, with the bound and routine the
    characteristic-equation oracle also uses, ``chareq.outdegree_bound`` and
    :func:`~alphaspectra.chareq.descend_to_largest_root`.  Its matrix comes
    from :func:`_det_scan_matrix`, so it shares no code with the
    Noda-iteration path.
    """
    alpha = check_alpha(alpha)
    if not is_strongly_connected(d):
        raise NotStronglyConnectedError("determinant scan needs a strongly connected digraph")
    degs = out_degrees(d)
    m, eye = _det_scan_matrix(d, alpha, degs), np.eye(d.n)
    return descend_to_largest_root(lambda x: _backend.det_via_lu(x * eye - m), outdegree_bound(degs, alpha), d.n, tol,
                                   "det(xI - M)")
