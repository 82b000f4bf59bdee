"""Scalar characteristic functions for the families that admit one.

Each function is written in the substituted variable y = (x - alpha) /
(1 - alpha).  The largest real root of each function is the spectral
radius of the corresponding digraph, which is what the oracle-agreement
tests pin down.

Supported kinds: ``infty``, ``theta``, ``gprime`` (the two chord variants
``g1``/``g2`` satisfy the same function), and ``bip1``/``bip2``/``bip5``/
``bip6``.  The bidirected complete bipartite radius has a closed form and
lives in :func:`kpq_radius`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import AlphaRangeError, InvalidSpecError, NoSignChangeError
from .families import FamilySpec, validate_spec

DEFAULT_TOL = 1e-12
ROOT_SCAN_STEP = 0.25

_EQ_KINDS = ("infty", "theta", "gprime", "bip1", "bip2", "bip5", "bip6")


def check_alpha(alpha: float) -> float:
    """alpha as a float; raises :class:`AlphaRangeError` unless it lies in
    [0, 1)."""
    alpha = float(alpha)
    if not (0.0 <= alpha < 1.0):
        raise AlphaRangeError(f"alpha must be in [0, 1), got {alpha}")
    return alpha


@dataclass(frozen=True)
class CharEquation:
    """One scalar characteristic function: a family member plus alpha."""

    spec: FamilySpec
    alpha: float

    def __post_init__(self):
        if self.spec.kind not in _EQ_KINDS:
            raise InvalidSpecError(f"no scalar characteristic function for {self.spec.kind!r}")
        validate_spec(self.spec)
        check_alpha(self.alpha)


def char_equation_for(spec: FamilySpec, alpha: float) -> CharEquation:
    """Equation for a family member, mapping the chord variants g1/g2 onto
    the gprime function they share."""
    if spec.kind in ("g1", "g2"):
        spec = FamilySpec.gprime(spec.params[0])
    return CharEquation(spec, alpha)


def _bip_cubic(x: float, alpha: float, p: int, q: int) -> float:
    """Cubic bracket of the attached-path equations, as the elimination of
    the eigen-equation on K_{p,q} leaves it."""
    a = alpha
    one = (1 - a) * (1 - a)
    return (
        (x - a * q) * (x - a * p) * (x - a * (q + 1))
        - one * q * (x - a * q)
        - one * q * (p - 1) * (x - a * (q + 1))
    )


def eval_char(eq: CharEquation, x: float) -> float:
    """Value of the characteristic function at x."""
    a = eq.alpha
    spec = eq.spec
    y = (x - a) / (1 - a)
    n = spec.n_vertices
    kind = spec.kind
    if kind == "infty":
        s = spec.s
        head = (x - s * a) / (1 - a) * y ** (n - 1)
        return head - sum(y ** (n - 1 - k) for k in spec.ks)
    if kind == "theta":
        s = spec.s
        l1 = spec.l1
        head = (x - s * a) / (1 - a) * y ** (n - 1)
        return head - sum(y ** (n - 2 - l1 - k) for k in spec.ks)
    if kind == "gprime":
        t = (x - 2 * a) / (1 - a)
        return t * t * y ** (n - 2) - (2 * x - 3 * a) / (1 - a) - 1.0
    nn, p, q = spec.npq
    tail_pow = y ** (nn - p - q)
    if kind == "bip1":
        return tail_pow * _bip_cubic(x, a, p, q) - (1 - a) ** 3 * q
    if kind == "bip2":
        return tail_pow * _bip_cubic(x, a, q, p) - (1 - a) ** 3 * p
    if kind == "bip5":
        return tail_pow * _bip_cubic(x, a, p, q) - (1 - a) * (1 - a) * (x - a * q)
    # bip6
    return tail_pow * _bip_cubic(x, a, q, p) - (1 - a) * (1 - a) * (x - a * p)


def _max_outdegree(spec: FamilySpec) -> int:
    kind = spec.kind
    if kind in ("infty", "theta"):
        return spec.s
    if kind == "gprime":
        return 2
    _, p, q = spec.npq
    if kind in ("bip1", "bip5"):
        return max(q + 1, p)
    return p + 1  # bip2 / bip6


def scan_largest_root(f, max_deg: int, alpha: float, tol: float, what: str) -> float:
    """Largest real root of f, the characteristic function of a digraph
    with maximum outdegree max_deg; shared by both root oracles.

    The radius sits between max(1, alpha * max_deg) and max_deg.  Steps
    down from max_deg + 1 by ``ROOT_SCAN_STEP`` to the first x with
    f(x) <= 0, then steps down the last step in eighths of it to the first
    such x again, and refines that bracket by :func:`_brent_refine` to
    width tol (or to adjacent floats).  The sub-steps keep the refinement
    on the topmost sign change: a bracket of the coarse scan can hold three
    roots, and interpolation would converge to any of them.  Finding no
    sign change means the function or the bracket is wrong, so it raises
    instead of guessing; ``what`` names f in the message.
    """
    if not tol > 0:
        raise ValueError(f"tol must be positive, got {tol}")
    hi = max_deg + 1.0
    floor = max(1.0, alpha * max_deg) - ROOT_SCAN_STEP
    up, f_up = hi, f(hi)
    if f_up <= 0.0:
        raise NoSignChangeError(f"{what} not positive at the upper bound x={hi}")
    while True:
        if up <= floor:
            raise NoSignChangeError(f"no sign change of {what} above x={floor}")
        lo = up - ROOT_SCAN_STEP
        f_lo = f(lo)
        if f_lo <= 0.0:
            break
        up, f_up = lo, f_lo
    sub = ROOT_SCAN_STEP / 8
    while up - sub > lo:
        x = up - sub
        f_x = f(x)
        if f_x <= 0.0:
            lo, f_lo = x, f_x
            break
        up, f_up = x, f_x
    if f_lo == 0.0:
        return lo
    return _brent_refine(f, lo, f_lo, up, f_up, tol)


def _brent_refine(f, lo: float, f_lo: float, up: float, f_up: float, tol: float) -> float:
    """Root of f in (lo, up), given f(lo) < 0 < f(up), to width tol.

    Brent's ``zero`` (R. P. Brent, *Algorithms for Minimization without
    Derivatives*, 1973, ch. 4, after Dekker 1969): inverse quadratic or
    secant steps from the latest point b, with a bisection step whenever
    they would not shrink the bracket [b, c] fast enough.  Every point is
    at least tol/4 inside the bracket, so a point next to the root steps
    across it and closes the bracket.  Returns a point where f is exactly
    0, or the bracket's midpoint once its width is at most tol or its ends
    are adjacent floats.
    """
    step = 0.25 * tol
    a, f_a, b, f_b = lo, f_lo, up, f_up
    c, f_c = a, f_a
    d = e = b - a
    while True:
        if abs(f_c) < abs(f_b):
            a, f_a, b, f_b, c, f_c = b, f_b, c, f_c, b, f_b
        mid = 0.5 * (b + c)
        if abs(c - b) <= tol or mid == b or mid == c:
            return mid
        m = mid - b
        if abs(e) >= step and abs(f_a) > abs(f_b):
            s = f_b / f_a
            if a == c:
                p, q = 2.0 * m * s, 1.0 - s
            else:
                q, r = f_a / f_c, f_b / f_c
                p = s * (2.0 * m * q * (q - r) - (b - a) * (r - 1.0))
                q = (q - 1.0) * (r - 1.0) * (s - 1.0)
            if p > 0.0:
                q = -q
            p = abs(p)
            if 2.0 * p < 3.0 * m * q - abs(step * q) and p < abs(0.5 * e * q):
                e, d = d, p / q
            else:
                e = d = m
        else:
            e = d = m
        a, f_a = b, f_b
        x = b + d if abs(d) > step else b + math.copysign(step, m)
        if not min(b, c) < x < max(b, c):
            x = mid
        b, f_b = x, f(x)
        if f_b == 0.0:
            return b
        if (f_b > 0.0) == (f_c > 0.0):
            c, f_c = a, f_a
            d = e = b - a


def largest_root(eq: CharEquation, tol: float = DEFAULT_TOL) -> float:
    """Rightmost real root of the characteristic function, by the scan and
    Brent refinement of :func:`scan_largest_root`."""
    deg = _max_outdegree(eq.spec)
    what = f"the characteristic function of {eq.spec}"
    return scan_largest_root(lambda x: eval_char(eq, x), deg, eq.alpha, tol, what)


def kpq_radius(p: int, q: int, alpha: float) -> float:
    """Closed-form radius of the bidirected complete bipartite digraph:
    the larger root of x^2 - alpha(p+q)x - pq + 2*alpha*pq."""
    if p < 1 or q < 1:
        raise InvalidSpecError(f"kpq needs p, q >= 1, got {p}, {q}")
    a = check_alpha(alpha)
    disc = (a * (p + q)) ** 2 - 8 * a * p * q + 4 * p * q
    return (a * (p + q) + disc**0.5) / 2.0
