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
from itertools import compress, repeat
from json.encoder import encode_basestring_ascii

import numpy as np

from . import _backend
from .chareq import check_alpha
from .digraph import (
    Arc,
    CanonicalKey,
    Digraph,
    adjacency_rows_from_masks,
    adjacency_stack_from_masks,
    canonical_key,
    canonical_masks,
    delete_arc,
    is_strongly_connected,
    masks_bipartite_kpq,
    masks_strongly_connected,
    retarget_in_arcs,
    subdivide_arc,
)
from .errors import InfeasibleError, InvalidParamsError, TooLargeError
from .families import FamilySpec, format_spec, generate, list_bicyclic, list_compositions
from .spectral import Interval, SpectralResult, SpectralResults, spectral_radii

#: smallest Perron-vector entry difference the lemma fuzz's eigenvector
#: ordering check counts; radii are ordered by their enclosures alone
DECISION_MARGIN = 1e-9
ENUMERATION_MAX_N = 5


#: one report item as ``json.dumps(asdict(report), indent=2)`` writes it:
#: the label as a JSON string, then the four floats' reprs
_ITEM_JSON = """\
    {
      "label": %s,
      "alpha": %r,
      "radius": %r,
      "lo": %r,
      "hi": %r
    }"""


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
        """``json.dumps(asdict(self), indent=2)``, byte for byte.

        An indenting ``json.dumps`` walks every value in Python, so it
        gets the report without its items.  Each item fills
        :data:`_ITEM_JSON` with the C string encoder ``json`` uses and the
        reprs of its floats, as ``json`` writes a finite Python float; the
        campaigns make items of no other kind, their alphas having passed
        ``check_alpha``.  The block replaces the first ``"items": [],``,
        which no encoded string can hold, since its quotes would be
        escaped."""
        text = json.dumps({**vars(self), "items": [], "verdicts": [vars(v) for v in self.verdicts]}, indent=2)
        if not self.items:
            return text
        block = ",\n".join([_ITEM_JSON % (encode_basestring_ascii(it.label), it.alpha, it.radius, it.lo, it.hi)
                            for it in self.items])
        return text.replace('"items": [],', f'"items": [\n{block}\n  ],', 1)

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


def decide_order(a: Interval, b: Interval) -> int | None:
    """-1 if a < b, +1 if a > b, certified by the disjoint enclosures a
    and b; None when they overlap."""
    if a.hi < b.lo:
        return -1
    if b.hi < a.lo:
        return 1
    return None


def claim_status(a: Interval, relation: str, b: Interval) -> str:
    """Status of the claim ``a <relation> b`` on the enclosures a and b,
    relation ``>``, ``>=`` or ``=``.

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
    return Verdict(claim, claim_status(a.enclosure, relation, b.enclosure), f"gap {abs(a.radius - b.radius):.3e}")


def judge_rank(claim: str, labels: list[str], ranked: SpectralResults, pos: int, label: str, name: str) -> Verdict:
    """Verdict for "``label`` holds rank ``pos``" among ``labels``, whose
    results ``ranked`` are sorted by ``(radius, label)``.

    Decided from certified counts, not from the midpoint order.  With X
    the expected member, ``below`` members have ``hi < X.lo`` and ``above``
    members ``lo > X.hi``, each counted by bisection in the sorted
    enclosure ends, read off ``ranked.lo`` and ``ranked.hi``.  The claim
    fails iff ``below > pos`` or ``above > N-1-pos`` (or X is not ranked),
    and the detail names a certified counter-member.  It passes iff both
    counts are exact, which puts X at ``pos`` separated from its neighbour
    (the next rank, or the previous one for the last rank).  Otherwise it
    is ``indistinguishable``, and the detail names the overlapping member
    nearest X.  ``name`` is how details show the expected member.
    """
    if label not in labels:
        return Verdict(claim, "fail", f"expected {name}, not among the ranked members")
    k, size, radius = labels.index(label), len(labels), ranked.radius
    lo, hi = np.array(ranked.lo), np.array(ranked.hi)
    by_lo, by_hi = np.argsort(lo, kind="stable"), np.argsort(hi, kind="stable")
    below = int(np.searchsorted(hi[by_hi], ranked.lo[k], "left"))
    above = size - int(np.searchsorted(lo[by_lo], ranked.hi[k], "right"))
    if below > pos:
        return Verdict(claim, "fail", f"expected {name}, found {labels[by_hi[below - 1]]}")
    if above > size - 1 - pos:
        return Verdict(claim, "fail", f"expected {name}, found {labels[by_lo[-above]]}")
    if size == 1:
        return Verdict(claim, "pass", "single member, trivially extremal")
    if below + above == size - 1:
        status, got = "pass", pos + 1 if pos + 1 < size else pos - 1
    else:
        x = Interval(ranked.lo[k], ranked.hi[k])
        status, got = "indistinguishable", min(
            (j for j in range(size) if labels[j] != label
             and decide_order(Interval(ranked.lo[j], ranked.hi[j]), x) is None),
            key=lambda j: (abs(radius[j] - radius[k]), labels[j]))
    return Verdict(claim, status, f"{name} vs {labels[got]} gap {abs(radius[got] - radius[k]):.3e}")


def _rank(report: VerificationReport, labels: list[str], members, alpha: float) -> tuple[list[str], SpectralResults]:
    """The labels and :func:`spectral_radii` results of the members, which
    go to it as they are, sorted by ``(radius, label)``; the ranked items
    are appended to the report."""
    res = spectral_radii(members, alpha)
    order = [k for _, _, k in sorted(zip(res.radius, labels, range(len(labels))))]
    labels, ranked = [labels[k] for k in order], res.take(order)
    report.items += map(ReportItem, labels, repeat(alpha), ranked.radius, ranked.lo, ranked.hi)
    return labels, ranked


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

    alpha = check_alpha(alpha)
    report = VerificationReport(f"family-extremes:{family}", [alpha])
    labels, ranked = _rank(report, [format_spec(spec) for spec in specs], [generate(spec) for spec in specs], alpha)

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
        checks = [(len(labels) - 1, mx, f"{family} maximum {at}"), (0, mn, f"{family} minimum {at}")]
    for pos, spec, claim in checks:
        name = format_spec(spec)
        report.verdicts.append(judge_rank(claim, labels, ranked, pos, name, name))

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
    alpha = check_alpha(alpha)
    report = VerificationReport("global-min", [alpha])
    # asarray: a sequence of masks, such as a sample of the classes, ranks too
    masks = np.asarray(enumerate_sc_digraphs(n), dtype=np.int64)
    labels = [CanonicalKey.from_mask(n, m).hex() for m in masks.tolist()]
    labels, ranked = _rank(report, labels, adjacency_stack_from_masks(masks, n), alpha)

    expected = [
        ("rank 1 is the directed cycle", FamilySpec.cycle(n)),
        ("rank 2 is theta(0,1,n-3)", FamilySpec.theta((0, 1), n - 3)),
        ("rank 3 is theta(1,1,n-4)", FamilySpec.theta((1, 1), n - 4)),
        ("rank 4 is theta(0,2,n-4)", FamilySpec.theta((0, 2), n - 4)),
    ]
    for pos, (name, spec) in enumerate(expected):
        claim = f"{name} (n={n}, alpha={alpha})"
        label = canonical_key(generate(spec)).hex()
        v = judge_rank(claim, labels, ranked, pos, label, format_spec(spec))
        radius = ranked.radius[pos]
        if pos == 0 and v.status != "fail":
            # the directed cycle's radius is exactly 1 at every alpha
            if not ranked.lo[0] <= 1.0 <= ranked.hi[0]:
                v = Verdict(claim, "fail", f"radius {radius!r} is not 1, gap {abs(radius - 1.0):.3e}")
        if alpha > 0.5:
            word = "differs from" if v.status == "fail" else "matches"
            gap = abs(radius - ranked.radius[pos + 1])
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
    K_{p,q}, by exhaustive enumeration.  That branch ranks the masks
    :func:`masks_bipartite_kpq` keeps as global-min ranks its classes, so
    no class becomes a :class:`Digraph`."""
    if not (p >= q >= 2 and p + q <= n - 1):
        raise InvalidParamsError(f"need p >= q >= 2 and p + q <= n - 1, got {(n, p, q)}")
    t0 = time.perf_counter()
    alpha = check_alpha(alpha)
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
    report.items = [ReportItem(format_spec(spec), alpha, radii[spec].radius, *radii[spec].enclosure) for spec in items]
    for claim, big, small, relation in rows:
        claim = f"{claim} {loc}"
        if big is None:
            report.verdicts.append(Verdict(claim, "skipped", "n-1 leaves no room for the even path"))
        else:
            report.verdicts.append(judge_claim(claim, radii[big], relation, radii[small]))

    # exhaustive branch: only reachable enumeration size is (5, 2, 2)
    if n <= ENUMERATION_MAX_N:
        masks = enumerate_sc_digraphs(n)
        masks = masks[masks_bipartite_kpq(masks, n, p, q)]
        labels = [CanonicalKey.from_mask(n, m).hex() for m in masks.tolist()]
        labels, ranked = _rank(report, labels, adjacency_stack_from_masks(masks, n), alpha)
        want = bip(1 if rem % 2 == 1 else 5)
        label = canonical_key(generate(want)).hex()
        claim = f"unique bipartite minimum by enumeration {loc}"
        report.verdicts.append(judge_rank(claim, labels, ranked, 0, label, format_spec(want)))

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
    row-major order into out-neighbour masks, and the first masks that are
    strongly connected become the Digraph returned (built without
    :func:`~alphaspectra.digraph.make_digraph`); a rejected attempt builds
    none.
    """
    pairs = _ordered_pairs(n)
    for _ in range(100_000):
        out_masks = [0] * n
        for (i, j), coin in zip(pairs, rng.random(len(pairs)).tolist()):
            if coin < ARC_DENSITY:
                out_masks[i] |= 1 << j
        if masks_strongly_connected(n, out_masks):
            return Digraph(n, tuple(out_masks))
    raise RuntimeError("rejection sampling failed to find a strongly connected digraph")


def _base_facts(
    bases: list[tuple[Digraph, float, str]],
) -> tuple[SpectralResults, list[list[Arc]], list[list[Arc]], int, list[str]]:
    """Per ``(digraph, alpha, label)`` base, in input order, its result,
    as one :class:`~alphaspectra.spectral.SpectralResults` table, its arcs
    and the arcs whose deletion keeps it strongly connected, both in arc
    order as tuples of Python ints; then the perron-order lemma on every
    base: the number of nested pairs, and the violation texts in (base, i,
    j) order.

    One pass per vertex count over the out-mask bit cube ``arc[b, i, j]``,
    which is the 0/1 adjacency stack the group is solved from.  Its set
    cells, in order, are each base's arcs; each arc's row is the base's
    out-masks with that bit cleared, and the rows go through one
    ``sc_filter`` call.  A pair (i, j) is nested when i != j, neither arc
    i->j nor j->i exists and N+(i) is a subset of N+(j).  It is a violation
    when the sets are equal and ``|x_j - x_i| > DECISION_MARGIN``, or when
    they differ and ``x_j < x_i - DECISION_MARGIN``.  Nothing is drawn."""
    parts, arcs_of, deletable = [], [None] * len(bases), [None] * len(bases)
    count, found = 0, []
    for n in {d.n for d, _, _ in bases}:
        members = [k for k, (d, _, _) in enumerate(bases) if d.n == n]
        masks = np.array([bases[k][0].out_masks for k in members], dtype=np.int64)
        arc = (masks[:, :, None] >> np.arange(n)) & 1  # arc[b, i, j]: arc i -> j
        results = spectral_radii(arc, [bases[k][1] for k in members])
        parts.append((members, results))
        owners, tails, heads = np.nonzero(arc)
        rows = masks[owners]
        rows[np.arange(len(rows)), tails] ^= 1 << heads
        strong = _backend.sc_filter(rows).tolist()
        arcs = list(zip(tails.tolist(), heads.tolist()))
        ends = np.searchsorted(owners, np.arange(len(members) + 1)).tolist()
        for b, k in enumerate(members):
            lo, hi = ends[b], ends[b + 1]
            arcs_of[k], deletable[k] = arcs[lo:hi], list(compress(arcs[lo:hi], strong[lo:hi]))
        x = np.asarray(results.perron)
        mi, mj, xi, xj = masks[:, :, None], masks[:, None, :], x[:, :, None], x[:, None, :]
        nested = (arc | arc.transpose(0, 2, 1) == 0) & (mi & ~mj == 0) & ~np.eye(n, dtype=bool)
        equal = mi == mj
        bad = nested & np.where(equal, np.abs(xj - xi) > DECISION_MARGIN, xj < xi - DECISION_MARGIN)
        count += int(nested.sum())
        found += [(members[b], i, j, bool(equal[b, i, j])) for b, i, j in np.argwhere(bad).tolist()]
    texts = [f"{bases[k][2]} {'equal' if eq else 'nested'}-nbhd {i},{j} alpha={bases[k][1]}"
             for k, i, j, eq in sorted(found)]
    return SpectralResults.gather(parts), arcs_of, deletable, count, texts


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

    The run has four phases.  Every base is drawn first: the ``trials``
    random digraphs (each an ``n``, an alpha and a sampled digraph), then
    each fleet digraph at alpha 0 and 0.5.  One :func:`_base_facts` pass,
    which draws nothing, then gives every base its result, from one
    :func:`~alphaspectra.spectral.spectral_radii` call per vertex count,
    its arcs and its deletable arcs, and checks the Perron-order lemma on
    every base.  Each base then draws its derived digraphs from its own
    result, since its Perron vector steers the retarget draws; a retarget
    move is checked only if its
    :func:`~alphaspectra.digraph.retarget_in_arcs` digraph stays strongly
    connected.  Last, the queued claims are solved in one more batch call
    and judged in queue order; a violation's text is formatted only then.
    So a seed fixes every random base before any transform draw is made.
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

    # derived radius claims (lemma, digraph, alpha, base index, label and
    # two violation-text parts), solved in one batch once every base is done
    queued: list[tuple[str, Digraph, float, int, str, str, object]] = []

    def check_base(base: int, d: Digraph, alpha: float, label: str, arcs: list[Arc], candidates: list[Arc]):
        x = results.perron[base].tolist()
        n, out_masks = d.n, d.out_masks

        # subdigraph lemma: strict decrease when an arc can go
        if candidates:
            pick = candidates[int(rng.integers(len(candidates)))]
            queued.append(("subdigraph", delete_arc(d, pick), alpha, base, label, "arc ", pick))

        # subdivision lemma: excluded on directed cycles
        if len(arcs) == n:
            skips["subdivision"] += 1
        else:
            pick = arcs[int(rng.integers(len(arcs)))]
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
        alpha = ALPHA_CHOICES[int(rng.integers(len(ALPHA_CHOICES)))]
        bases.append((random_sc_digraph(rng, n), alpha, f"random-n{n}-t{t}"))
    for spec in _lemma_fleet():
        d, label = generate(spec), format_spec(spec)
        bases += [(d, 0.0, label), (d, 0.5, label)]

    report = VerificationReport("transform-lemmas", sorted({alpha for _, alpha, _ in bases}))
    results, arcs, deletable, counts["perron-order"], violations["perron-order"] = _base_facts(bases)
    report.items += map(ReportItem, [label for _, _, label in bases], [alpha for _, alpha, _ in bases],
                        results.radius, results.lo, results.hi)
    for k, (d, alpha, label) in enumerate(bases):
        check_base(k, d, alpha, label, arcs[k], deletable[k])

    derived = spectral_radii([q[1] for q in queued], [q[2] for q in queued])
    for (lemma, _, alpha, k, label, what, arg), lo, hi in zip(queued, derived.lo, derived.hi):
        counts[lemma] += 1
        base, res = Interval(results.lo[k], results.hi[k]), Interval(lo, hi)
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
