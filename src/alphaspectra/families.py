"""Constructors for the named digraph families and their enumerators.

Families and the text syntax used by the CLI:

========================  =======================================
``cycle:n``               directed cycle on n vertices
``complete:n``            bidirected complete digraph
``kpq:p,q``               bidirected complete bipartite digraph
``infty:k1,k2,...``       s >= 2 directed cycles sharing one hub,
                          cycle i of length k_i + 1
``theta:k1,...,ks;l1``    s >= 2 internally disjoint paths u -> v with
                          k_i inner vertices, plus a return path v -> u
                          with l1 inner vertices
``bip1..bip6:n,p,q``      bidirected K_{p,q} plus one attached directed
                          path; the six variants differ in the path's
                          endpoints (kinds 1-4 need n-p-q odd, 5-6 even)
``gprime:n``              theta(0,1,n-3) plus the chord out of the middle
                          vertex into the long path
``g1:n``, ``g2:n``        theta(1,1,n-4) plus a chord between the two
                          middle vertices, one per direction
========================  =======================================

Every generator is its core arcs plus directed paths through fresh
vertices, each path's interior numbered in increasing order.  Labelings
are fixed so that identical specs always produce identical labeled
digraphs:

* infty: hub 0, cycle i on the next k_i fresh vertices in order.
* theta: u = 0 (the out-degree-s hub), v = 1, then the path interiors in
  path order, then the return-path interior.
* bip: parts {0..p-1} and {p..p+q-1}, path interior p+q..n-1 in order.
* gprime: w = 0, u = 1, v = 2, chain 3..n-1.
* g1/g2: u = 0, w = 1, w1 = 2, v = 3, chain 4..n-1.
"""

from __future__ import annotations

from dataclasses import dataclass

from .digraph import Digraph, make_digraph
from .errors import InfeasibleError, InvalidSpecError, ParseError

_BIP_KINDS = tuple(f"bip{k}" for k in range(1, 7))
_KINDS = ("cycle", "complete", "kpq", "infty", "theta", "gprime", "g1", "g2") + _BIP_KINDS


@dataclass(frozen=True)
class FamilySpec:
    """Tagged descriptor of one family member.

    ``params`` holds, per kind: (n,) for cycle/complete/gprime/g1/g2,
    (p, q) for kpq, the cycle-length list for infty, the path-length list
    plus trailing l1 for theta, and (n, p, q) for bip1..bip6.  A spec is
    valid once made: building one that breaks an invariant, by any route,
    raises :class:`InvalidSpecError` naming it, so consumers trust a spec.
    """

    kind: str
    params: tuple[int, ...]

    def __post_init__(self):
        k, ps = self.kind, self.params
        if k not in _KINDS:
            raise InvalidSpecError(f"unknown family kind {k!r}")
        if k in ("cycle", "complete"):
            if len(ps) != 1 or ps[0] < 2:
                raise InvalidSpecError(f"{k} needs a single n >= 2, got {ps}")
        elif k == "kpq":
            if len(ps) != 2 or min(ps) < 1:
                raise InvalidSpecError(f"kpq needs p, q >= 1, got {ps}")
        elif k == "infty":
            if len(ps) < 2:
                raise InvalidSpecError("infty needs s >= 2 cycles")
            if min(ps) < 1:
                raise InvalidSpecError("infty cycle lengths must be >= 1")
            if any(ps[i] > ps[i + 1] for i in range(len(ps) - 1)):
                raise InvalidSpecError("infty cycle lengths must be nondecreasing")
        elif k == "theta":
            if len(ps) < 3:
                raise InvalidSpecError("theta needs s >= 2 forward paths plus l1")
            ks, l1 = ps[:-1], ps[-1]
            if min(ks) < 0 or l1 < 0:
                raise InvalidSpecError("theta path lengths must be >= 0")
            if any(ks[i] > ks[i + 1] for i in range(len(ks) - 1)):
                raise InvalidSpecError("theta path lengths must be nondecreasing")
            if ks[1] == 0:
                raise InvalidSpecError("at most one zero-length path (no duplicate arc u->v)")
        elif k in _BIP_KINDS:
            if len(ps) != 3:
                raise InvalidSpecError(f"{k} needs (n, p, q), got {ps}")
            n, p, q = ps
            if not (p >= q >= 2):
                raise InvalidSpecError(f"{k} needs p >= q >= 2, got p={p}, q={q}")
            if p + q > n - 1:
                raise InvalidSpecError(f"{k} needs p + q <= n - 1, got n={n}, p={p}, q={q}")
            rem = n - p - q
            if k in ("bip1", "bip2", "bip3", "bip4") and rem % 2 == 0:
                raise InvalidSpecError(f"{k} needs n - p - q odd, got {rem}")
            if k in ("bip5", "bip6") and rem % 2 == 1:
                raise InvalidSpecError(f"{k} needs n - p - q even, got {rem}")
        else:  # gprime / g1 / g2
            if len(ps) != 1 or ps[0] < 5:
                raise InvalidSpecError(f"{k} needs a single n >= 5, got {ps}")

    # -- constructors -------------------------------------------------
    @staticmethod
    def cycle(n: int) -> "FamilySpec":
        return FamilySpec("cycle", (n,))

    @staticmethod
    def complete(n: int) -> "FamilySpec":
        return FamilySpec("complete", (n,))

    @staticmethod
    def kpq(p: int, q: int) -> "FamilySpec":
        return FamilySpec("kpq", (p, q))

    @staticmethod
    def infty(*ks: int) -> "FamilySpec":
        return FamilySpec("infty", tuple(sorted(ks)))

    @staticmethod
    def theta(ks, l1: int) -> "FamilySpec":
        return FamilySpec("theta", tuple(sorted(ks)) + (l1,))

    @staticmethod
    def bip(kind: int, n: int, p: int, q: int) -> "FamilySpec":
        return FamilySpec(f"bip{kind}", (n, p, q))

    @staticmethod
    def gprime(n: int) -> "FamilySpec":
        return FamilySpec("gprime", (n,))

    @staticmethod
    def g1(n: int) -> "FamilySpec":
        return FamilySpec("g1", (n,))

    @staticmethod
    def g2(n: int) -> "FamilySpec":
        return FamilySpec("g2", (n,))

    # -- accessors ----------------------------------------------------
    @property
    def ks(self) -> tuple[int, ...]:
        if self.kind == "infty":
            return self.params
        if self.kind == "theta":
            return self.params[:-1]
        raise InvalidSpecError(f"{self.kind} has no cycle-length list")

    @property
    def l1(self) -> int:
        if self.kind != "theta":
            raise InvalidSpecError(f"{self.kind} has no return-path length")
        return self.params[-1]

    @property
    def s(self) -> int:
        return len(self.ks)

    @property
    def n_vertices(self) -> int:
        k = self.kind
        if k == "kpq":
            return self.params[0] + self.params[1]
        if k == "infty":
            return sum(self.params) + 1
        if k == "theta":
            return sum(self.params) + 2
        return self.params[0]  # cycle, complete, bip, gprime, g1, g2

    @property
    def npq(self) -> tuple[int, int, int]:
        if self.kind not in _BIP_KINDS:
            raise InvalidSpecError(f"{self.kind} has no (n, p, q)")
        return self.params  # type: ignore[return-value]


# ---------------------------------------------------------------------------
# generation

def generate(spec: FamilySpec) -> Digraph:
    """Build the labeled digraph for a family descriptor."""
    k, n = spec.kind, spec.n_vertices
    if k == "cycle":
        arcs = _path(0, 1, n, 0)
    elif k == "complete":
        arcs = [(i, j) for i in range(n) for j in range(n) if i != j]
    elif k == "kpq":
        arcs = _kpq_arcs(*spec.params)
    elif k in ("infty", "theta"):
        # infty: cycles from hub 0 back to 0; theta: paths u = 0 -> v = 1
        v = int(k == "theta")
        arcs, nxt = [], 1 + v
        for ki in spec.ks:
            arcs += _path(0, nxt, nxt + ki, v)
            nxt += ki
        if v:
            arcs += _path(1, nxt, n, 0)
    elif k in _BIP_KINDS:
        _, p, q = spec.npq
        start, end = ((0, p - 1), (p, p + q - 1), (0, 0), (p, p), (0, p), (p, 0))[int(k[3]) - 1]
        arcs = _kpq_arcs(p, q) + _path(start, p + q, n, end)
    elif k == "gprime":
        arcs = [(0, 2), (0, 1), (1, 2), (1, 3)] + _path(2, 3, n, 0)
    else:  # g1 / g2
        chord = (1, 2) if k == "g1" else (2, 1)
        arcs = [(0, 1), (1, 3), (0, 2), (2, 3), chord] + _path(3, 4, n, 0)
    return make_digraph(n, arcs)


def _path(a: int, first: int, stop: int, b: int) -> list[tuple[int, int]]:
    """The arcs of the directed path from a through first .. stop-1 to b."""
    verts = [a, *range(first, stop), b]
    return list(zip(verts, verts[1:]))


def _kpq_arcs(p: int, q: int) -> list[tuple[int, int]]:
    """Both arcs between each of the vertices 0 .. p-1 and p .. p+q-1."""
    return [arc for u in range(p) for w in range(p, p + q) for arc in ((u, w), (w, u))]


# ---------------------------------------------------------------------------
# enumeration of compositions

def _nondecreasing_sums(total: int, parts: int, minval: int):
    """All nondecreasing tuples of `parts` >= 1 ints >= minval summing to total."""
    if parts == 1:
        if total >= minval:
            yield (total,)
        return
    for first in range(minval, total // parts + 1):
        for rest in _nondecreasing_sums(total - first, parts - 1, first):
            yield (first,) + rest


def list_compositions(family: str, n: int, s: int) -> list[FamilySpec]:
    """All valid family members at the given vertex count and cycle count."""
    if family not in ("infty", "theta"):
        raise InvalidSpecError(f"list_compositions supports infty/theta, got {family!r}")
    if s < 2 or n < s + 1:
        raise InfeasibleError(f"no {family} family at n={n}, s={s}")
    if family == "infty":
        return [FamilySpec.infty(*ks) for ks in _nondecreasing_sums(n - 1, s, 1)]
    # ks[1] == 0 would duplicate the arc u -> v
    return [FamilySpec.theta(ks, l1) for l1 in range(n - 1)
            for ks in _nondecreasing_sums(n - 2 - l1, s, 0) if ks[1] > 0]


def list_bicyclic(n: int) -> list[FamilySpec]:
    """All strongly connected bicyclic digraphs on n vertices, one spec per
    isomorphism class: the two-cycle hubs and the two-path thetas."""
    if n < 3:
        raise InfeasibleError(f"bicyclic digraphs need n >= 3, got {n}")
    return list_compositions("infty", n, 2) + list_compositions("theta", n, 2)


# ---------------------------------------------------------------------------
# text syntax

def format_spec(spec: FamilySpec) -> str:
    k = spec.kind
    if k == "theta":
        return f"theta:{','.join(map(str, spec.ks))};{spec.l1}"
    return f"{k}:{','.join(map(str, spec.params))}"


def parse_spec(text: str) -> FamilySpec:
    """Parse the CLI family syntax.  Syntax errors raise :class:`ParseError`
    before any spec is made; the spec then checks its own invariants."""
    head, sep, tail = text.partition(":")
    if not sep:
        raise ParseError(f"missing ':' in {text!r}", pos=len(text), expected="':'")
    kind = head.strip()
    if kind not in _KINDS:
        raise ParseError(f"unknown family {kind!r}", pos=0, expected="|".join(_KINDS))
    pos = len(head) + 1

    def ints(chunk: str, at: int) -> tuple[int, ...]:
        vals = []
        for tok in chunk.split(","):
            tok = tok.strip()
            if tok == "" or not all(c in "0123456789" for c in tok):
                raise ParseError(f"bad integer {tok!r} in {text!r}", pos=at, expected="decimal integer")
            vals.append(int(tok))
            at += len(tok) + 1
        return tuple(vals)

    if kind == "theta":
        ks_part, sep2, l1_part = tail.partition(";")
        if not sep2:
            raise ParseError(f"theta needs ';l1' in {text!r}", pos=len(text), expected="';'")
        ks = ints(ks_part, pos)
        l1 = ints(l1_part, pos + len(ks_part) + 1)
        if len(l1) != 1:
            raise ParseError("theta takes a single l1", pos=pos + len(ks_part) + 1, expected="one integer")
        return FamilySpec.theta(ks, l1[0])
    vals = ints(tail, pos)
    return FamilySpec.infty(*vals) if kind == "infty" else FamilySpec(kind, vals)
