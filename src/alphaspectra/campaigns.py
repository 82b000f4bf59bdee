"""Verification campaigns: exhaustive enumeration, extremal-family checks,
global minima, bipartite minima, and transform-lemma fuzzing.

Every campaign returns a :class:`VerificationReport` whose verdicts carry
the exact claim they test.  Two radii are ordered only by their certified
enclosures: disjoint enclosures decide, and overlapping ones leave the pair
unordered, so a strict claim on it is ``indistinguishable`` rather than
silently ordered.  Every inequality status, the transform lemmas'
included, comes from :func:`claim_status`, and every rank verdict from
:func:`judge_rank`, which fails only on a certified counter-order.
"""

from __future__ import annotations

import csv
import io
import json
import time
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from . import _backend
from .digraph import (
    Arc,
    CanonicalKey,
    Digraph,
    adjacency_rows_from_masks,
    adjacency_stack_from_masks,
    bipartition,
    canonical_key,
    canonical_masks,
    contains_bidirected_kpq,
    delete_arc,
    digraphs_from_masks,
    is_strongly_connected,
    retarget_in_arcs,
    subdivide_arc,
)
from .errors import InfeasibleError, InvalidParamsError, TooLargeError
from .families import FamilySpec, format_spec, generate, list_bicyclic, list_compositions
from .spectral import SpectralResult, spectral_radii

#: smallest Perron-vector entry difference the lemma fuzz's eigenvector
#: ordering check counts; radii are ordered by their enclosures alone
DECISION_MARGIN = 1e-9
ENUMERATION_MAX_N = 5


@dataclass
class ReportItem:
    label: str
    alpha: float
    radius: float
    lo: float
    hi: float


@dataclass
class Verdict:
    claim: str
    status: str  # pass | fail | indistinguishable | exploratory | skipped
    detail: str = ""


@dataclass
class VerificationReport:
    campaign: str
    alpha_grid: list[float]
    items: list[ReportItem] = field(default_factory=list)
    verdicts: list[Verdict] = field(default_factory=list)
    runtime_s: float = 0.0

    def passed(self) -> bool:
        """True iff every non-exploratory verdict passed."""
        return all(v.status in ("pass", "exploratory", "skipped") for v in self.verdicts)

    def to_json(self) -> str:
        """The fields in declaration order, items and verdicts as objects."""
        items, verdicts = [vars(it) for it in self.items], [vars(v) for v in self.verdicts]
        return json.dumps({**vars(self), "items": items, "verdicts": verdicts}, indent=2)

    def to_csv(self) -> str:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["spec", "alpha", "radius", "lo", "hi"])
        for it in self.items:
            writer.writerow([it.label, repr(it.alpha), repr(it.radius), repr(it.lo), repr(it.hi)])
        return buf.getvalue()


def merge_reports(campaign: str, reports: list[VerificationReport]) -> VerificationReport:
    """Concatenate per-alpha reports into one grid-wide report."""
    grid = sorted({a for r in reports for a in r.alpha_grid})
    merged = VerificationReport(campaign, grid)
    for r in reports:
        merged.items.extend(r.items)
        merged.verdicts.extend(r.verdicts)
        merged.runtime_s += r.runtime_s
    return merged


def decide_order(a: SpectralResult, b: SpectralResult) -> int | None:
    """-1 if a < b, +1 if a > b, certified by disjoint enclosures; None
    when the enclosures overlap."""
    if a.enclosure.disjoint_below(b.enclosure):
        return -1
    if b.enclosure.disjoint_below(a.enclosure):
        return 1
    return None


def claim_status(a: SpectralResult, relation: str, b: SpectralResult) -> str:
    """Status of the claim ``a <relation> b``, relation ``>``, ``>=`` or ``=``.

    When :func:`decide_order` orders the pair, ``>`` and ``>=`` pass when a
    is above b, and every other outcome fails.  When the enclosures overlap
    nothing refutes ``=`` or ``>=``, so they pass, and ``>`` is
    ``indistinguishable``."""
    if relation not in (">", ">=", "="):
        raise InvalidParamsError(f"unknown relation {relation!r}")
    order = decide_order(a, b)
    if order is None:
        return "indistinguishable" if relation == ">" else "pass"
    return "pass" if order == 1 and relation != "=" else "fail"


def judge_claim(claim: str, a: SpectralResult, relation: str, b: SpectralResult) -> Verdict:
    """:func:`claim_status` of ``a <relation> b`` as a verdict; the detail is the radii's gap."""
    return Verdict(claim, claim_status(a, relation, b), f"gap {abs(a.radius - b.radius):.3e}")


def judge_rank(
    claim: str, ranked: list[tuple[str, SpectralResult]], pos: int, label: str, name: str
) -> Verdict:
    """Verdict for "``label`` holds rank ``pos``" in ``ranked``, a list of
    ``(label, result)`` sorted by ``(radius, label)``.

    Decided from certified counts, not from the midpoint order.  With X
    the expected member, ``below`` members have ``hi < X.lo`` and ``above``
    members ``lo > X.hi``, each counted by bisection in the sorted
    enclosure ends.  The claim fails iff ``below > pos`` or ``above >
    N-1-pos`` (or X is not ranked), and the detail names a certified
    counter-member.  It passes iff both counts are exact, which puts X at
    ``pos`` separated from its neighbour (the next rank, or the previous
    one for the last rank).  Otherwise it is ``indistinguishable``, and the
    detail names the overlapping member nearest X.  ``name`` is how details
    show the expected member.
    """
    labels = [lab for lab, _ in ranked]
    if label not in labels:
        return Verdict(claim, "fail", f"expected {name}, not among the ranked members")
    x = ranked[labels.index(label)][1]
    ends = np.array([res.enclosure for _, res in ranked])
    by_lo, by_hi = np.argsort(ends[:, 0], kind="stable"), np.argsort(ends[:, 1], kind="stable")
    below = int(np.searchsorted(ends[by_hi, 1], x.enclosure.lo, "left"))
    above = len(ranked) - int(np.searchsorted(ends[by_lo, 0], x.enclosure.hi, "right"))
    if below > pos:
        return Verdict(claim, "fail", f"expected {name}, found {labels[by_hi[below - 1]]}")
    if above > len(ranked) - 1 - pos:
        return Verdict(claim, "fail", f"expected {name}, found {labels[by_lo[-above]]}")
    if len(ranked) == 1:
        return Verdict(claim, "pass", "single member, trivially extremal")
    if below + above == len(ranked) - 1:
        nb = pos + 1 if pos + 1 < len(ranked) else pos - 1
        status, (got, other) = "pass", ranked[nb]
    else:
        status, (got, other) = "indistinguishable", min(
            ((lab, res) for lab, res in ranked if lab != label and decide_order(res, x) is None),
            key=lambda t: (abs(t[1].radius - x.radius), t[0]))
    return Verdict(claim, status, f"{name} vs {got} gap {abs(other.radius - x.radius):.3e}")


def _item(label: str, alpha: float, res: SpectralResult) -> ReportItem:
    return ReportItem(label, alpha, res.radius, res.enclosure.lo, res.enclosure.hi)


def _rank(report: VerificationReport, labels: list[str], members, alpha: float) -> list[tuple[str, SpectralResult]]:
    """``(label, result)`` of each label and member, sorted by ``(radius,
    label)``; the members go to :func:`spectral_radii` as they are, and the
    ranked items are appended to the report."""
    ranked = sorted(zip(labels, spectral_radii(members, alpha)), key=lambda t: (t[1].radius, t[0]))
    report.items += [_item(label, alpha, res) for label, res in ranked]
    return ranked


# ---------------------------------------------------------------------------
# exhaustive enumeration

@lru_cache(maxsize=None)
def enumerate_sc_digraphs(n: int) -> np.ndarray:
    """The canonical mask of each isomorphism class of strongly connected
    digraphs, n <= 5, as a read-only int64 array, ascending.

    :func:`canonical_masks` gives the canonical masks with no zero out-row,
    one per isomorphism class, from only the 65 892 candidates at n = 5
    whose vertex 0 has least outdegree and a row 0 of the form 0...01...1
    (not all 1 048 576 labeled masks), sieved in int32 words.  The
    strong-connectivity filter runs on their adjacency rows alone, since
    strong connectivity does not depend on the labeling.  No digraph and no
    key is built: a class's key is ``CanonicalKey.from_mask(n, mask)``,
    its digraph (the labeling with that mask) comes from
    :func:`digraphs_from_masks`, and its adjacency matrix from
    :func:`adjacency_stack_from_masks`.
    """
    if n < 2:
        raise InvalidParamsError(f"enumeration needs n >= 2, got {n}")
    if n > ENUMERATION_MAX_N:
        raise TooLargeError(f"full enumeration capped at n={ENUMERATION_MAX_N}, got {n}")
    canon = canonical_masks(n)
    masks = canon[_backend.sc_filter(adjacency_rows_from_masks(canon, n))]
    masks.flags.writeable = False
    return masks


# ---------------------------------------------------------------------------
# extremal families

def _expected_extremes(family: str, n: int, s: int) -> tuple[FamilySpec, FamilySpec]:
    """(maximizer, minimizer) claimed for the family (infty or theta) at (n, s)."""
    if family == "infty":
        lo = (n - 1) // s
        r = n - 1 - s * lo
        balanced = (lo,) * (s - r) + (lo + 1,) * r
        return FamilySpec.infty(*((1,) * (s - 1) + (n - s,))), FamilySpec.infty(*balanced)
    mx = FamilySpec.theta((0,) + (1,) * (s - 2) + (n - s,), 0)
    mn = FamilySpec.theta((0,) + (1,) * (s - 1), n - s - 1)
    return mx, mn


def verify_family_extremes(family: str, n: int, s: int, alpha: float) -> VerificationReport:
    """Rank one family (or the union, or all bicyclic digraphs) and check
    the claimed extremal members, asserting uniqueness through enclosure
    separation.

    family: "infty" | "theta" | "combined" | "bicyclic" (bicyclic ignores s
    and additionally checks the 2nd/3rd-minimum ranking, n >= 5).
    """
    t0 = time.perf_counter()
    if family == "infty" or family == "theta":
        specs = list_compositions(family, n, s)
    elif family == "combined":
        specs = list_compositions("infty", n, s) + list_compositions("theta", n, s)
    elif family == "bicyclic":
        if n < 5:
            raise InfeasibleError(f"bicyclic ranking claims need n >= 5, got {n}")
        specs = list_bicyclic(n)
    else:
        raise InvalidParamsError(f"unknown family campaign {family!r}")

    report = VerificationReport(f"family-extremes:{family}", [alpha])
    results = _rank(report, [format_spec(spec) for spec in specs], [generate(spec) for spec in specs], alpha)

    a_str = f"alpha={alpha}"
    if family == "bicyclic":
        checks = [
            (0, FamilySpec.theta((0, 1), n - 3), f"bicyclic minimum at (n={n}, {a_str})"),
            (1, FamilySpec.theta((1, 1), n - 4), f"bicyclic second minimum at (n={n}, {a_str})"),
            (2, FamilySpec.theta((0, 2), n - 4), f"bicyclic third minimum at (n={n}, {a_str})"),
        ]
    else:
        mx, _ = _expected_extremes("infty" if family == "combined" else family, n, s)
        _, mn = _expected_extremes("theta" if family == "combined" else family, n, s)
        at = f"at (n={n}, s={s}, {a_str})"
        checks = [(len(results) - 1, mx, f"{family} maximum {at}"), (0, mn, f"{family} minimum {at}")]
    for pos, spec, claim in checks:
        name = format_spec(spec)
        report.verdicts.append(judge_rank(claim, results, pos, name, name))

    report.runtime_s = time.perf_counter() - t0
    return report


# ---------------------------------------------------------------------------
# global minima over all strongly connected digraphs

def verify_global_minima(n: int, alpha: float) -> VerificationReport:
    """Rank every isomorphism class at n = 5 and check the first four ranks:
    the cycle, then the three claimed near-minimal digraphs.

    Ranks from the enumerated masks: labels are their keys' ``hex()``, and
    radii come from one solve of their :func:`adjacency_stack_from_masks`
    stack, so no class becomes a :class:`Digraph`.

    The ranking claim is asserted for alpha <= 1/2; above that it is the
    conjectured ordering, so the verdicts become exploratory observations
    that never fail the campaign.
    """
    if n > ENUMERATION_MAX_N:
        raise TooLargeError(f"full enumeration capped at n={ENUMERATION_MAX_N}, got {n}")
    if n != 5:
        raise InvalidParamsError(f"rank claims are stated at n=5, got {n}")
    t0 = time.perf_counter()
    report = VerificationReport("global-min", [alpha])
    # asarray: a sequence of masks, such as a sample of the classes, ranks too
    masks = np.asarray(enumerate_sc_digraphs(n), dtype=np.int64)
    labels = [CanonicalKey.from_mask(n, m).hex() for m in masks.tolist()]
    results = _rank(report, labels, adjacency_stack_from_masks(masks, n), alpha)

    expected = [
        ("rank 1 is the directed cycle", FamilySpec.cycle(n)),
        ("rank 2 is theta(0,1,n-3)", FamilySpec.theta((0, 1), n - 3)),
        ("rank 3 is theta(1,1,n-4)", FamilySpec.theta((1, 1), n - 4)),
        ("rank 4 is theta(0,2,n-4)", FamilySpec.theta((0, 2), n - 4)),
    ]
    for pos, (name, spec) in enumerate(expected):
        claim = f"{name} (n={n}, alpha={alpha})"
        label = canonical_key(generate(spec)).hex()
        v = judge_rank(claim, results, pos, label, format_spec(spec))
        radius = results[pos][1].radius
        if pos == 0 and v.status != "fail":
            # the directed cycle's radius is exactly 1 at every alpha
            lo, hi = results[0][1].enclosure
            if not lo <= 1.0 <= hi:
                v = Verdict(claim, "fail", f"radius {radius!r} is not 1, gap {abs(radius - 1.0):.3e}")
        if alpha > 0.5:
            word = "differs from" if v.status == "fail" else "matches"
            gap = abs(radius - results[pos + 1][1].radius)
            v = Verdict(claim, "exploratory", f"{word} the conjectured digraph; gap to next {gap:.3e}")
        report.verdicts.append(v)

    report.runtime_s = time.perf_counter() - t0
    return report


# ---------------------------------------------------------------------------
# bipartite minima

def verify_bipartite_minimum(n: int, p: int, q: int, alpha: float) -> VerificationReport:
    """Check the attached-path family inequality chain at (n, p, q, alpha),
    and at (5, 2, 2) additionally confirm the claimed unique minimizer over
    every strongly connected bipartite digraph containing the bidirected
    K_{p,q}, by exhaustive enumeration."""
    if not (p >= q >= 2 and p + q <= n - 1):
        raise InvalidParamsError(f"need p >= q >= 2 and p + q <= n - 1, got {(n, p, q)}")
    t0 = time.perf_counter()
    report = VerificationReport("bipartite-min", [alpha])
    rem = n - p - q
    loc = f"(n={n}, p={p}, q={q}, alpha={alpha})"

    def bip(kind: int, m: int = n) -> FamilySpec:
        return FamilySpec.bip(kind, m, p, q)

    # (claim, big, small, relation); a row without specs is skipped
    b2 = ("B2 = B1 when p = q", "=") if p == q else ("B2 > B1 when p > q", ">")
    if p == q or alpha == 0.0:
        b6 = ("B6 = B5{} when p = q or alpha = 0", "=")
    else:
        b6 = ("B6 > B5{} when p > q and alpha > 0", ">")
    if rem % 2 == 1:
        items = [bip(1), bip(2), bip(3), bip(4)]
        rows = [
            (b2[0], bip(2), bip(1), b2[1]),
            ("B3 > B1", bip(3), bip(1), ">"),
            ("B4 > B2", bip(4), bip(2), ">"),
        ]
        if rem >= 3:
            items += [bip(5, n - 1), bip(6, n - 1)]
            rows += [
                ("B5 at n-1 > B1 at n", bip(5, n - 1), bip(1), ">"),
                (b6[0].format(" at n-1"), bip(6, n - 1), bip(5, n - 1), b6[1]),
            ]
        else:
            rows.append(("B5 at n-1 > B1 at n", None, None, ">"))
    else:
        items = [bip(5), bip(6), bip(1, n - 1)]
        rows = [
            (b6[0].format(""), bip(6), bip(5), b6[1]),
            ("B1 at n-1 >= B5 at n", bip(1, n - 1), bip(5), ">="),
        ]
    radii = dict(zip(items, spectral_radii([generate(spec) for spec in items], alpha)))
    report.items = [_item(format_spec(spec), alpha, radii[spec]) for spec in items]
    for claim, big, small, relation in rows:
        claim = f"{claim} {loc}"
        if big is None:
            report.verdicts.append(Verdict(claim, "skipped", "n-1 leaves no room for the even path"))
        else:
            report.verdicts.append(judge_claim(claim, radii[big], relation, radii[small]))

    # exhaustive branch: only reachable enumeration size is (5, 2, 2)
    if n <= ENUMERATION_MAX_N:
        masks = enumerate_sc_digraphs(n)
        kept = [(CanonicalKey.from_mask(n, m).hex(), d)
                for m, d in zip(masks.tolist(), digraphs_from_masks(masks, n))
                if bipartition(d) is not None and contains_bidirected_kpq(d, p, q)]
        results = _rank(report, [label for label, _ in kept], [d for _, d in kept], alpha)
        want = bip(1 if rem % 2 == 1 else 5)
        label = canonical_key(generate(want)).hex()
        claim = f"unique bipartite minimum by enumeration {loc}"
        report.verdicts.append(judge_rank(claim, results, 0, label, format_spec(want)))

    report.runtime_s = time.perf_counter() - t0
    return report


# ---------------------------------------------------------------------------
# transform-lemma fuzzing

ALPHA_CHOICES = tuple(round(0.1 * k, 1) for k in range(10))
#: probability of each arc in :func:`random_sc_digraph`
ARC_DENSITY = 0.4
#: relation each radius lemma claims: base vs the subdigraph or the
#: subdivided digraph, the retargeted digraph vs base
RADIUS_LEMMAS = {"subdigraph": ">", "subdivision": ">=", "retarget": ">="}
#: why a drawn instance of a lemma is not checked, as the report names it
SKIP_REASONS = {"subdivision": "on-cycle", "retarget": "disconnected"}


@lru_cache(maxsize=None)
def _ordered_pairs(n: int) -> tuple[tuple[int, int], ...]:
    """The ordered pairs (i, j), i != j, of n vertices in row-major order."""
    return tuple((i, j) for i in range(n) for j in range(n) if i != j)


def random_sc_digraph(rng: np.random.Generator, n: int) -> Digraph:
    """Rejection-sampled strongly connected digraph with i.i.d. arcs.

    Each attempt draws one coin per ordered pair (i, j), i != j, in
    row-major order into out-neighbour masks, and the first Digraph of
    them (built without :func:`~alphaspectra.digraph.make_digraph`) that
    is strongly connected is returned.
    """
    pairs = _ordered_pairs(n)
    for _ in range(100_000):
        out_masks = [0] * n
        for (i, j), coin in zip(pairs, rng.random(len(pairs)).tolist()):
            if coin < ARC_DENSITY:
                out_masks[i] |= 1 << j
        d = Digraph(n, tuple(out_masks))
        if is_strongly_connected(d):
            return d
    raise RuntimeError("rejection sampling failed to find a strongly connected digraph")


def _deletable_arcs(digraphs: list[Digraph]) -> list[list[Arc]]:
    """Per digraph, the arcs whose deletion keeps it strongly connected, in
    arc order, as tuples of Python ints.

    Every (digraph, arc) pair is one row: the digraph's out-neighbour masks
    with the arc's bit cleared.  Per vertex count, the (digraph, tail, head)
    triples are the set cells of the out-mask bit cube, in arc order per
    digraph, and the rows go through one ``sc_filter`` call.
    """
    keep: list[list[Arc]] = [[] for _ in digraphs]
    for n in {d.n for d in digraphs}:
        members = [k for k, d in enumerate(digraphs) if d.n == n]
        masks = np.array([digraphs[k].out_masks for k in members], dtype=np.int64)
        owners, tails, heads = np.nonzero((masks[:, :, None] >> np.arange(n)) & 1)
        rows = masks[owners]
        rows[np.arange(len(rows)), tails] ^= 1 << heads
        strong = _backend.sc_filter(rows)
        arcs = list(zip(tails[strong].tolist(), heads[strong].tolist()))
        ends = np.searchsorted(owners[strong], np.arange(len(members) + 1)).tolist()
        for b, k in enumerate(members):
            keep[k] = arcs[ends[b]:ends[b + 1]]
    return keep


def _perron_order(bases: list[tuple[Digraph, float, str]], results: list[SpectralResult]) -> tuple[int, list[str]]:
    """The perron-order lemma on every ``(digraph, alpha, label)`` base: the
    number of nested pairs, and the violation texts in (base, i, j) order.

    A pair (i, j) is nested when i != j, neither arc i->j nor j->i exists
    and N+(i) is a subset of N+(j).  It is a violation when the sets are
    equal and ``|x_j - x_i| > DECISION_MARGIN``, or when they differ and
    ``x_j < x_i - DECISION_MARGIN``.  One array pass per vertex count."""
    count, found = 0, []
    for n in {d.n for d, _, _ in bases}:
        members = [k for k, (d, _, _) in enumerate(bases) if d.n == n]
        masks = np.array([bases[k][0].out_masks for k in members], dtype=np.int64)
        x = np.array([results[k].perron for k in members])
        arc = (masks[:, :, None] >> np.arange(n)) & 1  # arc[b, i, j]: arc i -> j
        mi, mj, xi, xj = masks[:, :, None], masks[:, None, :], x[:, :, None], x[:, None, :]
        nested = (arc | arc.transpose(0, 2, 1) == 0) & (mi & ~mj == 0) & ~np.eye(n, dtype=bool)
        equal = mi == mj
        bad = nested & np.where(equal, np.abs(xj - xi) > DECISION_MARGIN, xj < xi - DECISION_MARGIN)
        count += int(nested.sum())
        found += [(members[b], i, j, bool(equal[b, i, j])) for b, i, j in np.argwhere(bad).tolist()]
    return count, [f"{bases[k][2]} {'equal' if eq else 'nested'}-nbhd {i},{j} alpha={bases[k][1]}"
                   for k, i, j, eq in sorted(found)]


def _lemma_fleet() -> list[FamilySpec]:
    """Fixed family digraphs (n <= 10) swept alongside the random trials."""
    fleet: list[FamilySpec] = [
        FamilySpec.cycle(5),
        FamilySpec.complete(4),
        FamilySpec.kpq(2, 2),
        FamilySpec.kpq(3, 2),
        FamilySpec.gprime(6),
        FamilySpec.g1(6),
        FamilySpec.g2(6),
        FamilySpec.bip(1, 7, 2, 2),
        FamilySpec.bip(2, 7, 2, 2),
        FamilySpec.bip(3, 7, 2, 2),
        FamilySpec.bip(4, 7, 2, 2),
        FamilySpec.bip(5, 8, 2, 2),
        FamilySpec.bip(6, 8, 2, 2),
        FamilySpec.bip(1, 8, 3, 2),
        FamilySpec.bip(5, 9, 3, 2),
    ]
    for s in (2, 3):
        for n in (6, 7):
            fleet.extend(list_compositions("infty", n, s))
            fleet.extend(list_compositions("theta", n, s))
    return fleet


def verify_transform_lemmas(trials: int, seed: int) -> VerificationReport:
    """Fuzz the four transform lemmas on seeded random strongly connected
    digraphs plus the fixed family fleet.

    Checks, whenever the preconditions hold:

    * deleting an arc that keeps strong connectivity strictly lowers the
      radius;
    * subdividing an arc of anything but a directed cycle never raises it;
    * moving in-arcs from a vertex with the smaller eigenvector entry to one
      with a larger entry never lowers it (checked when the moved digraph is
      still strongly connected);
    * vertices with nested out-neighbourhoods (and no arc between them) have
      ordered eigenvector entries, equal exactly for equal neighbourhoods.

    The three radius lemmas are the claims ``base > sub``, ``base >=
    subdivided`` and ``moved >= base`` under :func:`claim_status`; an
    instance whose status is not ``pass`` is a violation, so only disjoint
    enclosures in the wrong order, or overlapping ones under ``>``, count.
    Eigenvector entries, which have no enclosures, are compared beyond
    ``DECISION_MARGIN``.

    The run has six phases.  Every base is drawn first: the ``trials``
    random digraphs (each an ``n``, an alpha and a sampled digraph), then
    each fleet digraph at alpha 0 and 0.5.  All bases are solved in one
    :func:`~alphaspectra.spectral.spectral_radii` call, and their deletable
    arcs come from one :func:`_deletable_arcs` pass, which draws nothing.
    Each base then draws its derived digraphs from its own result, since
    its Perron vector steers the retarget draws; a retarget move is checked
    only if its :func:`~alphaspectra.digraph.retarget_in_arcs` digraph stays
    strongly connected.  The Perron-order lemma is then checked on every
    base by :func:`_perron_order`, which draws nothing either.  Last, the
    queued claims are solved in a second batch call and judged in queue
    order; a violation's text is formatted only then.  So a seed fixes
    every random base before any transform draw is made.
    """
    if trials <= 0:
        raise InvalidParamsError(f"trials must be positive, got {trials}")
    if seed < 0:
        raise InvalidParamsError(f"seed must be non-negative, got {seed}")
    t0 = time.perf_counter()
    rng = np.random.default_rng(seed)
    counts = {"subdigraph": 0, "subdivision": 0, "retarget": 0, "perron-order": 0}
    skips = dict.fromkeys(counts, 0)
    violations: dict[str, list[str]] = {k: [] for k in counts}

    # derived radius claims (lemma, digraph, alpha, base result, label and
    # two violation-text parts), solved in one batch once every base is done
    queued: list[tuple[str, Digraph, float, SpectralResult, str, str, object]] = []

    def check_base(d: Digraph, alpha: float, label: str, base: SpectralResult, candidates: list[Arc]):
        report.items.append(_item(label, alpha, base))
        x = base.perron.tolist()
        n, out_masks = d.n, d.out_masks

        # subdigraph lemma: strict decrease when an arc can go
        if candidates:
            pick = candidates[int(rng.integers(len(candidates)))]
            queued.append(("subdigraph", delete_arc(d, pick), alpha, base, label, "arc ", pick))

        # subdivision lemma: excluded on directed cycles
        if len(d.arcs) == d.n:
            skips["subdivision"] += 1
        else:
            pick = d.arcs[int(rng.integers(len(d.arcs)))]
            queued.append(("subdivision", subdivide_arc(d, pick), alpha, base, label, "arc ", pick))

        # retargeting lemma
        pairs = _ordered_pairs(n)
        order = rng.permutation(len(pairs))
        for idx in order[:4]:
            pp, qq = pairs[int(idx)]
            if x[qq] < x[pp]:
                continue
            sources = [s for s in range(n) if (out_masks[s] >> pp) & 1 and s != qq and not (out_masks[s] >> qq) & 1]
            if not sources:
                continue
            moved = retarget_in_arcs(d, sources[:1 + int(rng.integers(len(sources)))], pp, qq)
            if not is_strongly_connected(moved):
                skips["retarget"] += 1
                continue
            queued.append(("retarget", moved, alpha, base, label, "sources->", qq))
            break

    bases: list[tuple[Digraph, float, str]] = []
    for t in range(trials):
        n = int(rng.integers(2, 9))
        alpha = float(rng.choice(ALPHA_CHOICES))
        bases.append((random_sc_digraph(rng, n), alpha, f"random-n{n}-t{t}"))
    for spec in _lemma_fleet():
        d, label = generate(spec), format_spec(spec)
        bases += [(d, 0.0, label), (d, 0.5, label)]

    digraphs, alphas, labels = zip(*bases)
    report = VerificationReport("transform-lemmas", sorted(set(alphas)))
    results = spectral_radii(digraphs, alphas)
    for d, alpha, label, base, candidates in zip(digraphs, alphas, labels, results, _deletable_arcs(digraphs)):
        check_base(d, alpha, label, base, candidates)
    counts["perron-order"], violations["perron-order"] = _perron_order(bases, results)

    derived = spectral_radii([q[1] for q in queued], [q[2] for q in queued])
    for (lemma, _, alpha, base, label, what, arg), res in zip(queued, derived):
        counts[lemma] += 1
        a, b = (res, base) if lemma == "retarget" else (base, res)
        if claim_status(a, RADIUS_LEMMAS[lemma], b) != "pass":
            violations[lemma].append(f"{label} {what}{arg} alpha={alpha}")

    for lemma, count in counts.items():
        bad = violations[lemma]
        detail = f"{count} instances checked"
        if skips[lemma]:
            detail += f"; {skips[lemma]} skipped ({lemma}-{SKIP_REASONS[lemma]})"
        if bad:
            detail += "; violations: " + "; ".join(bad[:5])
        report.verdicts.append(Verdict(f"{lemma} lemma", "fail" if bad else "pass", detail))
    report.runtime_s = time.perf_counter() - t0
    return report
