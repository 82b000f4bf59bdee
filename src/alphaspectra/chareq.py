"""Scalar characteristic functions for the families that admit one.

Each function is written in the substituted variable y = (x - alpha) /
(1 - alpha); integer powers of y go through binary exponentiation so the
evaluations stay stable over the whole alpha grid.  The largest real root
of each function is the spectral radius of the corresponding digraph, which
is what the oracle-agreement tests pin down.

Supported kinds: ``infty``, ``theta``, ``gprime`` (the two chord variants
``g1``/``g2`` satisfy the same function), and ``bip1``/``bip2``/``bip5``/
``bip6``.  The bidirected complete bipartite radius has a closed form and
lives in :func:`kpq_radius`.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import AlphaRangeError, InvalidSpecError, NoSignChangeError
from .families import FamilySpec, validate_spec

ROOT_SCAN_STEP = 0.25
DEFAULT_ROOT_TOL = 1e-12

_EQ_KINDS = ("infty", "theta", "gprime", "bip1", "bip2", "bip5", "bip6")


@dataclass(frozen=True)
class CharEquation:
    """One scalar characteristic function: a family member plus alpha."""

    spec: FamilySpec
    alpha: float

    def __post_init__(self):
        if self.spec.kind not in _EQ_KINDS:
            raise InvalidSpecError(f"no scalar characteristic function for {self.spec.kind!r}")
        validate_spec(self.spec)
        if not (0.0 <= self.alpha < 1.0):
            raise AlphaRangeError(f"alpha must be in [0, 1), got {self.alpha}")

    @property
    def kind(self) -> str:
        return self.spec.kind


def char_equation_for(spec: FamilySpec, alpha: float) -> CharEquation:
    """Equation for a family member, mapping the chord variants g1/g2 onto
    the gprime function they share."""
    if spec.kind in ("g1", "g2"):
        spec = FamilySpec.gprime(spec.params[0])
    return CharEquation(spec, alpha)


def _ipow(base: float, exp: int) -> float:
    """base**exp for integer exp >= 0 by repeated squaring."""
    acc = 1.0
    while exp:
        if exp & 1:
            acc *= base
        base *= base
        exp >>= 1
    return acc


def _bip_cubic(x: float, alpha: float, p: int, q: int) -> float:
    """Cubic bracket of the attached-path equations (the coefficient string
    is checked against its factored origin in the test suite)."""
    a = alpha
    c2 = a * p + 2 * a * q + a
    c1 = a * a * q * q + a * a * p * q + 2 * a * p * q + a * a * q + a * a * p - p * q
    c0 = (
        -2 * a * a * q * q * p
        - 2 * a * a * p * q
        + a * q * q * p
        + a * p * q
        + 2 * a * a * q
        - a * a * a * q
        - a * q
    )
    return ((x - c2) * x + c1) * x + c0


def bip_cubic_factored(x: float, alpha: float, p: int, q: int) -> float:
    """Same cubic straight from the eigen-equation elimination; kept as an
    independent transcription check."""
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
        head = (x - s * a) / (1 - a) * _ipow(y, n - 1)
        return head - sum(_ipow(y, n - 1 - k) for k in spec.ks)
    if kind == "theta":
        s = spec.s
        l1 = spec.l1
        head = (x - s * a) / (1 - a) * _ipow(y, n - 1)
        return head - sum(_ipow(y, n - 2 - l1 - k) for k in spec.ks)
    if kind == "gprime":
        t = (x - 2 * a) / (1 - a)
        return t * t * _ipow(y, n - 2) - (2 * x - 3 * a) / (1 - a) - 1.0
    nn, p, q = spec.npq
    tail_pow = _ipow(y, nn - p - q)
    if kind == "bip1":
        return tail_pow * _bip_cubic(x, a, p, q) - _ipow(1 - a, 3) * q
    if kind == "bip2":
        return tail_pow * _bip_cubic(x, a, q, p) - _ipow(1 - a, 3) * p
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
    f(x) <= 0, then bisects the last step down to width tol (or to adjacent
    floats).  Finding no sign change means the function or the bracket is
    wrong, so it raises instead of guessing; ``what`` names f in the message.
    """
    if tol <= 0:
        raise ValueError(f"tol must be positive, got {tol}")
    hi = max_deg + 1.0
    floor = max(1.0, alpha * max_deg) - ROOT_SCAN_STEP
    if f(hi) <= 0.0:
        raise NoSignChangeError(f"{what} not positive at the upper bound x={hi}")
    up = hi
    while True:
        if up <= floor:
            raise NoSignChangeError(f"no sign change of {what} above x={floor}")
        lo = up - ROOT_SCAN_STEP
        if f(lo) <= 0.0:
            break
        up = lo
    while up - lo > tol:
        mid = 0.5 * (lo + up)
        if mid == lo or mid == up:
            break
        if f(mid) <= 0.0:
            lo = mid
        else:
            up = mid
    return 0.5 * (lo + up)


def largest_root(eq: CharEquation, tol: float = DEFAULT_ROOT_TOL) -> float:
    """Rightmost real root of the characteristic function, by the 0.25-step
    scan and bisection of :func:`scan_largest_root`."""
    deg = _max_outdegree(eq.spec)
    what = f"the characteristic function of {eq.spec}"
    return scan_largest_root(lambda x: eval_char(eq, x), deg, eq.alpha, tol, what)


def kpq_radius(p: int, q: int, alpha: float) -> float:
    """Closed-form radius of the bidirected complete bipartite digraph:
    the larger root of x^2 - alpha(p+q)x - pq + 2*alpha*pq."""
    if p < 1 or q < 1:
        raise InvalidSpecError(f"kpq needs p, q >= 1, got {p}, {q}")
    a = float(alpha)
    if not (0.0 <= a < 1.0):
        raise AlphaRangeError(f"alpha must be in [0, 1), got {alpha}")
    disc = (a * (p + q)) ** 2 - 8 * a * p * q + 4 * p * q
    return (a * (p + q) + disc**0.5) / 2.0
