"""Scalar characteristic functions for the families that admit one.

Each function is written in the substituted variable y = (x - alpha) /
(1 - alpha).  Each is det(xI - M) divided by positive factors whose roots
are eigenvalues, so its largest real root is the spectral radius, and it
is positive, increasing and convex above it: :func:`largest_root` reaches
the radius by secant steps from above, which do not step past it.

Supported kinds: ``infty``, ``theta``, ``gprime`` (the two chord variants
``g1``/``g2`` satisfy the same function), and ``bip1``/``bip2``/``bip5``/
``bip6``.  The bidirected complete bipartite radius has a closed form and
lives in :func:`kpq_radius`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .errors import AlphaRangeError, InvalidSpecError, NoSignChangeError
from .families import FamilySpec, validate_spec

DEFAULT_TOL = 1e-12

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
    """One scalar characteristic function: a family member plus alpha.

    ``cycle_terms`` is, for infty and theta, (s, n - 1, the powers of y
    the s cycle terms take), read off the spec once; None otherwise.
    """

    spec: FamilySpec
    alpha: float
    cycle_terms: tuple[int, int, tuple[int, ...]] | None = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        spec = self.spec
        if spec.kind not in _EQ_KINDS:
            raise InvalidSpecError(f"no scalar characteristic function for {spec.kind!r}")
        validate_spec(spec)
        check_alpha(self.alpha)
        terms = None
        if spec.kind in ("infty", "theta"):
            n = spec.n_vertices
            base = n - 1 if spec.kind == "infty" else n - 2 - spec.l1
            terms = (spec.s, n - 1, tuple(base - k for k in spec.ks))
        object.__setattr__(self, "cycle_terms", terms)


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
    y = (x - a) / (1 - a)
    if eq.cycle_terms is not None:
        s, top, powers = eq.cycle_terms
        head = (x - s * a) / (1 - a) * y ** top
        return head - sum(y ** p for p in powers)
    spec = eq.spec
    n = spec.n_vertices
    kind = spec.kind
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


def descend_to_largest_root(f, max_deg: int, n: int, tol: float, what: str) -> float:
    """Largest real root rho of f, the characteristic function of a digraph
    on n vertices with maximum outdegree max_deg; shared by both oracles.

    f is det(xI - M), or that determinant divided by positive factors whose
    roots are eigenvalues, and every eigenvalue of the nonnegative M has
    modulus at most rho <= max_deg.  By Gauss-Lucas so do the roots of f'
    and f'', so f is positive, increasing and convex on (rho, inf), and a
    secant step between two points above rho stays above rho.  Returns
    max_deg where f(max_deg) <= 0; else descends from max_deg + 1 and
    max_deg by such steps, each at least tol and one ulp, to the first x
    with f(x) <= 0, bisects that last step to width tol (or to adjacent
    floats) and returns the false-position point inside it.  f not
    positive at max_deg + 1, not increasing above the root, or without a
    sign change after 100 + 2n steps is a wrong function, so it raises
    instead of guessing; ``what`` names f in the message.
    """
    if not tol > 0:
        raise ValueError(f"tol must be positive, got {tol}")
    up, lo = max_deg + 1.0, float(max_deg)
    f_up, f_lo = f(up), f(lo)
    if not f_up > 0.0:
        raise NoSignChangeError(f"{what} not positive at the upper bound x={up}")
    if f_lo <= 0.0:
        return lo
    # no root of the criterion-1 grid (n <= 12) or the n = 5 classes takes
    # over 40 evaluations.  Far above the root f grows like y^n, so a step
    # lowers y by about a factor 1 - 1/n: uncapped, the worst alpha of a
    # 0.05 grid takes 55 evaluations on infty:10,20 (n = 31), 117 on
    # infty:30,40 (n = 71), 164 on infty:40,60 (n = 101) and 243 on
    # infty:60,90 (n = 151), about 1.6 per vertex, so 2 leaves a margin
    max_steps = 100 + 2 * n
    for _ in range(max_steps):
        if f_lo >= f_up:
            raise NoSignChangeError(f"{what} does not increase between x={lo} and x={up}")
        step = max(f_lo * (up - lo) / (f_up - f_lo), tol, math.ulp(lo))
        up, f_up = lo, f_lo
        lo = up - step
        f_lo = f(lo)
        if f_lo <= 0.0:
            break
    else:
        raise NoSignChangeError(f"no sign change of {what} in {max_steps} secant steps")
    while f_lo < 0.0 and up - lo > tol:
        mid = 0.5 * (lo + up)
        if mid == lo or mid == up:
            break
        f_mid = f(mid)
        if f_mid > 0.0:
            up, f_up = mid, f_mid
        else:
            lo, f_lo = mid, f_mid
    return lo - f_lo * (up - lo) / (f_up - f_lo)


def largest_root(eq: CharEquation, tol: float = DEFAULT_TOL) -> float:
    """Rightmost real root of the characteristic function, by the secant
    descent of :func:`descend_to_largest_root`; an evaluation that
    overflows a float raises :class:`NoSignChangeError`."""
    spec = eq.spec
    what = f"the characteristic function of {spec}"
    try:
        return descend_to_largest_root(lambda x: eval_char(eq, x), _max_outdegree(spec), spec.n_vertices, tol, what)
    except OverflowError:
        raise NoSignChangeError(f"{what} overflows a float") from None


def kpq_radius(p: int, q: int, alpha: float) -> float:
    """Closed-form radius of the bidirected complete bipartite digraph:
    the larger root of x^2 - alpha(p+q)x - pq + 2*alpha*pq."""
    if p < 1 or q < 1:
        raise InvalidSpecError(f"kpq needs p, q >= 1, got {p}, {q}")
    a = check_alpha(alpha)
    disc = (a * (p + q)) ** 2 - 8 * a * p * q + 4 * p * q
    return (a * (p + q) + disc**0.5) / 2.0
