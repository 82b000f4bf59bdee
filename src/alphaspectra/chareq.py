"""Scalar characteristic functions for the families that admit one.

Each function is written in the substituted variable y = (x - alpha) /
(1 - alpha).  Each is det(xI - M) divided by positive factors whose roots
are eigenvalues, so its largest real root is the spectral radius, and it
is positive, increasing and convex above it: :func:`largest_root` reaches
the radius by secant steps down from a Brauer-Cassini bound, never past it.

Supported kinds: ``infty``, ``theta``, ``gprime`` (the two chord variants
``g1``/``g2`` satisfy the same function), and ``bip1``/``bip2``/``bip5``/
``bip6``.  The bidirected complete bipartite radius has a closed form and
lives in :func:`kpq_radius`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .errors import AlphaRangeError, InvalidSpecError, NoSignChangeError
from .families import FamilySpec

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
        check_alpha(self.alpha)
        terms = None
        if spec.kind in ("infty", "theta"):
            n = spec.n_vertices
            base = n - 1 if spec.kind == "infty" else n - 2 - spec.l1
            terms = (spec.s, n - 1, tuple(base - k for k in spec.ks))
        object.__setattr__(self, "cycle_terms", terms)

    def __str__(self) -> str:
        return f"the characteristic function of {self.spec}"


def char_equation_for(spec: FamilySpec, alpha: float) -> CharEquation:
    """Equation for a family member, mapping the chord variants g1/g2 onto
    the gprime function they share."""
    if spec.kind in ("g1", "g2"):
        spec = FamilySpec.gprime(spec.params[0])
    return CharEquation(spec, alpha)


def _bip_cubic(x: float, a: float, u: int, v: int) -> float:
    """Cubic bracket of the attached-path equations, as the elimination of
    the eigen-equation on K_{p,q} leaves it: (u, v) = (p, q) for bip1 and
    bip5, (q, p) for bip2 and bip6."""
    one = (1 - a) * (1 - a)
    return (
        (x - a * v) * (x - a * u) * (x - a * (v + 1))
        - one * v * (x - a * v)
        - one * v * (u - 1) * (x - a * (v + 1))
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
    u, v = (p, q) if kind in ("bip1", "bip5") else (q, p)
    tail = (1 - a) ** 3 * v if kind in ("bip1", "bip2") else (1 - a) * (1 - a) * (x - a * v)
    return y ** (nn - p - q) * _bip_cubic(x, a, u, v) - tail


def _top_outdegrees(spec: FamilySpec) -> tuple[int, int]:
    """The two largest outdegrees of ``generate(spec)``, read off the spec."""
    if spec.kind in ("infty", "theta"):
        return spec.s, 1
    if spec.kind == "gprime":
        return 2, 2
    _, p, q = spec.npq
    return (max(q + 1, p) if spec.kind in ("bip1", "bip5") else p + 1), p  # p + 1 for bip2 / bip6


def cassini_root(d1: int, d2: int, alpha: float) -> float:
    """Larger root of (x - alpha*d1)(x - alpha*d2) = (1-alpha)^2*d1*d2; no term is negative, so for
    outdegrees below 2^25 its 4.5 roundings (5 in the radicand) keep it within 1 -+ 5u of the exact root."""
    b, gap = 1.0 - alpha, alpha * (d1 - d2)
    return (alpha * (d1 + d2) + math.sqrt(gap * gap + 4 * d1 * d2 * (b * b))) / 2.0


def outdegree_bound(degs, alpha: float) -> float:
    """Upper bound on the radius rho of alpha*D + (1-alpha)*A from the
    outdegrees degs (or the two largest, d1 >= d2): d1 or, if lower, the
    Brauer-Cassini bound :func:`cassini_root` times 1 + 16u (u = 2^-53),
    which, itself rounded once, lifts the float root above the exact one.
    Brauer (Horn & Johnson, *Matrix Analysis*, Thm 6.4.7) puts every
    eigenvalue z in an oval |z - alpha*d_i|*|z - alpha*d_j| <=
    (1-alpha)^2*d_i*d_j, i != j; as rho >= alpha*d1 (H&J Cor. 8.1.20), both
    factors are nonnegative at rho, so rho is at most the oval's larger
    root, which increases in d_i and d_j."""
    d2, d1 = sorted((0, *degs))[-2:]
    return min(float(d1), cassini_root(d1, d2, alpha) * (1.0 + 2.0**-49))


def descend_to_largest_root(f, bound: float, n: int, tol: float, what: object) -> float:
    """Largest real root rho of f, the characteristic function of a digraph
    on n vertices, below a bound >= rho; shared by both oracles.

    f is det(xI - M), or that determinant divided by positive factors whose
    roots are eigenvalues, and every eigenvalue of the nonnegative M has
    modulus at most rho.  By Gauss-Lucas so do the roots of f' and f'', so
    f is positive, increasing and convex on (rho, inf), and a secant step
    between two points above rho stays above rho.  Returns bound where
    f(bound) <= 0; else descends from bound + 2^-10*max(1, bound) and bound
    by such steps, each at least tol/2 and one ulp, to the first x with
    f(x) <= 0, cuts that last step at tol/2 above that x if wider than tol,
    then bisects it to width tol (or to adjacent floats) and returns the
    false-position point inside it.  f not positive above bound, not
    increasing above the root, or without a sign change after 100 + 2n
    steps raises; ``what``, formatted only into that message, names f.
    """
    if not tol > 0:
        raise ValueError(f"tol must be positive, got {tol}")
    up, lo = bound + 2.0**-10 * max(1.0, bound), float(bound)
    f_up, f_lo = f(up), f(lo)
    if not f_up > 0.0:
        raise NoSignChangeError(f"{what} not positive at the upper bound x={up}")
    if f_lo <= 0.0:
        return lo
    # no root of the criterion-1 grid (n <= 12) or the n = 5 classes at alpha 0 to 0.99 takes over
    # 41 evaluations.  Far above the root f grows like y^n, so a step lowers y by about a factor
    # 1 - 1/n: uncapped, the worst alpha of a 0.05 grid takes 35, 74, 103 and 153 evaluations on
    # infty:10,20, :30,40, :40,60 and :60,90 (n = 31, 71, 101, 151), so 2n leaves a margin
    max_steps = 100 + 2 * n
    for _ in range(max_steps):
        if f_lo >= f_up:
            raise NoSignChangeError(f"{what} does not increase between x={lo} and x={up}")
        step = max(f_lo * (up - lo) / (f_up - f_lo), 0.5 * tol, math.ulp(lo))
        up, f_up = lo, f_lo
        lo = up - step
        f_lo = f(lo)
        if f_lo <= 0.0:
            break
    else:
        raise NoSignChangeError(f"no sign change of {what} in {max_steps} secant steps")
    probe = lo + 0.5 * tol  # a secant step crosses rho only by rounding, so rho lies just above lo
    while f_lo < 0.0 and up - lo > tol:
        mid = probe if lo < probe < up else 0.5 * (lo + up)
        if mid == lo or mid == up:
            break
        f_mid = f(mid)
        if f_mid > 0.0:
            up, f_up = mid, f_mid
        else:
            lo, f_lo = mid, f_mid
    return lo - f_lo * (up - lo) / (f_up - f_lo)


def largest_root(eq: CharEquation, tol: float = DEFAULT_TOL) -> float:
    """Rightmost real root of the characteristic function: the descent of
    :func:`descend_to_largest_root` from the spec's :func:`outdegree_bound`;
    an evaluation that overflows a float raises :class:`NoSignChangeError`."""
    try:
        bound = outdegree_bound(_top_outdegrees(eq.spec), eq.alpha)
        return descend_to_largest_root(lambda x: eval_char(eq, x), bound, eq.spec.n_vertices, tol, eq)
    except OverflowError:
        raise NoSignChangeError(f"{eq} overflows a float") from None


def kpq_radius(p: int, q: int, alpha: float) -> float:
    """Closed-form radius of the bidirected complete bipartite digraph:
    the larger root of x^2 - alpha(p+q)x - pq + 2*alpha*pq."""
    if p < 1 or q < 1:
        raise InvalidSpecError(f"kpq needs p, q >= 1, got {p}, {q}")
    return cassini_root(q, p, check_alpha(alpha))
