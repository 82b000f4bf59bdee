"""Verification campaigns: exhaustive enumeration, extremal-family checks,
global minima, bipartite minima, and transform-lemma fuzzing.

Every campaign returns a :class:`VerificationReport` whose verdicts carry
the exact claim they test.  Two radii are ordered only by their certified
enclosures: disjoint enclosures decide, and overlapping ones leave the pair
unordered, so a strict claim on it is ``indistinguishable`` rather than
silently ordered.  Every rank and inequality verdict, the transform lemmas'
included, comes from :func:`judge_claim`.
"""

from __future__ import annotations

import csv
import io
import json
import time
from collections.abc import Iterable
from dataclasses import asdict, dataclass, field
from functools import lru_cache

import numpy as np

from . import _backend
from .digraph import (
    CanonicalKey,
    Digraph,
    adjacency_rows_from_masks,
    bipartition,
    canonical_key,
    canonical_masks,
    contains_bidirected_kpq,
    is_strongly_connected,
    loop_free_masks,
    make_digraph,
    masks_strongly_connected,
    retarget_in_arcs,
    subdivide_arc,
    unpack_arcs,
)
from .errors import InfeasibleError, InvalidParamsError, TooLargeError
from .families import FamilySpec, format_spec, generate, list_bicyclic, list_compositions
from .spectral import SpectralResult, spectral_radii

#: smallest Perron-vector entry difference the lemma fuzz's eigenvector
#: ordering check counts; radii are ordered by their enclosures alone
DECISION_MARGIN = 1e-9
ENUMERATION_MAX_N = 5

#: isomorphism-class counts of strongly connected digraphs; the n = 5 value
#: was computed once with an independent labeled-enumeration/dedup oracle
#: and frozen (see tests), the smaller ones are re-derived in the suite.
SC_CLASS_COUNTS = {2: 1, 3: 5, 4: 83, 5: 5048}

#: labeled (not up-to-isomorphism) strongly connected digraph counts,
#: frozen from the same oracle run.  Enumeration never builds the labeled
#: set, so these are only a fixture for the tests' oracles.
SC_LABELED_COUNTS = {2: 1, 3: 18, 4: 1606, 5: 565080}


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
        return json.dumps(asdict(self), indent=2)

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


def judge_claim(claim: str, a: SpectralResult, relation: str, b: SpectralResult) -> Verdict:
    """Verdict for the claim ``a <relation> b``; relation is ``>``, ``>=``
    or ``=``.

    When :func:`decide_order` orders the pair, the order decides: ``>`` and
    ``>=`` pass when a is above b, and every other outcome fails.  When the
    enclosures overlap nothing refutes ``=`` or ``>=``, so they pass, and
    ``>`` is ``indistinguishable``.  The detail is the gap between the radii.
    """
    if relation not in (">", ">=", "="):
        raise InvalidParamsError(f"unknown relation {relation!r}")
    order = decide_order(a, b)
    if order is None:
        status = "indistinguishable" if relation == ">" else "pass"
    else:
        status = "pass" if order == 1 and relation != "=" else "fail"
    return Verdict(claim, status, f"gap {abs(a.radius - b.radius):.3e}")


def judge_rank(
    claim: str, ranked: list[tuple[str, SpectralResult]], pos: int, label: str, name: str
) -> Verdict:
    """Verdict for "``label`` holds rank ``pos``" in ``ranked``, a list of
    ``(label, result)`` sorted by ``(radius, label)``.

    The member must be the expected one and must separate from its
    neighbour (the next rank, or the previous one for the last rank) under
    :func:`judge_claim`.  ``name`` is how details show the expected member.
    """
    got = ranked[pos][0]
    if got != label:
        return Verdict(claim, "fail", f"expected {name}, found {got}")
    if len(ranked) == 1:
        return Verdict(claim, "pass", "single member, trivially extremal")
    nb = pos + 1 if pos + 1 < len(ranked) else pos - 1
    v = judge_claim(claim, ranked[max(pos, nb)][1], ">", ranked[min(pos, nb)][1])
    return Verdict(claim, v.status, f"{name} vs {ranked[nb][0]} {v.detail}")


def _item(label: str, alpha: float, res: SpectralResult) -> ReportItem:
    return ReportItem(label, alpha, res.radius, res.enclosure.lo, res.enclosure.hi)


def _rank(
    report: VerificationReport, pairs: Iterable[tuple[str, Digraph]], alpha: float
) -> list[tuple[str, SpectralResult]]:
    """``(label, result)`` for each ``(label, digraph)`` pair, sorted by
    ``(radius, label)``; the ranked items are appended to the report."""
    pairs = list(pairs)
    ranked = list(zip([label for label, _ in pairs], spectral_radii([d for _, d in pairs], alpha)))
    ranked.sort(key=lambda t: (t[1].radius, t[0]))
    report.items += [_item(label, alpha, res) for label, res in ranked]
    return ranked


# ---------------------------------------------------------------------------
# exhaustive enumeration

@lru_cache(maxsize=None)
def enumerate_sc_digraphs(n: int) -> tuple[tuple[Digraph, CanonicalKey], ...]:
    """One ``(digraph, key)`` pair per isomorphism class of strongly
    connected digraphs, n <= 5.

    Sieves the 2^(n(n-1)) labeled loop-free masks down to the canonical
    ones (each equal to its own permutation-minimal mask, so one per
    isomorphism class), then runs the strong-connectivity filter on those
    alone; strong connectivity does not depend on the labeling, and no
    labeled strongly connected set is built.  Each class is represented by
    the labeling with the minimal mask, and ``key`` is built from the same
    mask, so it equals ``canonical_key(digraph)`` without recomputing it.
    Classes come out sorted by canonical mask.
    """
    if n < 2:
        raise InvalidParamsError(f"enumeration needs n >= 2, got {n}")
    if n > ENUMERATION_MAX_N:
        raise TooLargeError(f"full enumeration capped at n={ENUMERATION_MAX_N}, got {n}")
    canon = canonical_masks(loop_free_masks(n), n)
    canon = canon[_backend.sc_filter(adjacency_rows_from_masks(canon, n), n)]
    return tuple(
        (make_digraph(n, unpack_arcs(c, n)), CanonicalKey.from_mask(n, c)) for c in canon.tolist()
    )


# ---------------------------------------------------------------------------
# extremal families

def _expected_extremes(family: str, n: int, s: int) -> tuple[FamilySpec, FamilySpec]:
    """(maximizer, minimizer) claimed for the family at (n, s)."""
    if family == "infty":
        lo = (n - 1) // s
        r = n - 1 - s * lo
        balanced = (lo,) * (s - r) + (lo + 1,) * r
        return FamilySpec.infty(*((1,) * (s - 1) + (n - s,))), FamilySpec.infty(*balanced)
    if family == "theta":
        mx = FamilySpec.theta((0,) + (1,) * (s - 2) + (n - s,), 0)
        mn = FamilySpec.theta((0,) + (1,) * (s - 1), n - s - 1)
        return mx, mn
    raise InvalidParamsError(f"no extremal claim table for {family!r}")


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
    results = _rank(report, ((format_spec(spec), generate(spec)) for spec in specs), alpha)

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
    results = _rank(report, ((key.hex(), d) for d, key in enumerate_sc_digraphs(n)), alpha)

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
        pairs = (
            (key.hex(), d)
            for d, key in enumerate_sc_digraphs(n)
            if bipartition(d) is not None and contains_bidirected_kpq(d, p, q)
        )
        results = _rank(report, pairs, alpha)
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


def random_sc_digraph(rng: np.random.Generator, n: int) -> Digraph:
    """Rejection-sampled strongly connected digraph with i.i.d. arcs.

    Each attempt draws one coin per ordered pair (i, j), i != j, in
    row-major order, and tests strong connectivity on the bitmasks before
    any Digraph is built.
    """
    pairs = [(i, j) for i in range(n) for j in range(n) if i != j]
    for _ in range(100_000):
        arcs = [a for a, coin in zip(pairs, rng.random(len(pairs)).tolist()) if coin < ARC_DENSITY]
        out_masks, in_masks = [0] * n, [0] * n
        for i, j in arcs:
            out_masks[i] |= 1 << j
            in_masks[j] |= 1 << i
        if masks_strongly_connected(n, out_masks, in_masks):
            return make_digraph(n, arcs)
    raise RuntimeError("rejection sampling failed to find a strongly connected digraph")


def _deletable_arcs(d: Digraph) -> list[tuple[int, int]]:
    """The arcs of d whose deletion keeps it strongly connected, tested by
    toggling each arc's bits in the neighbour masks."""
    out_masks, in_masks = list(d.out_masks), list(d.in_masks)
    keep = []
    for i, j in d.arcs:
        out_masks[i] ^= 1 << j
        in_masks[j] ^= 1 << i
        if masks_strongly_connected(d.n, out_masks, in_masks):
            keep.append((i, j))
        out_masks[i] ^= 1 << j
        in_masks[j] ^= 1 << i
    return keep


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
    subdivided`` and ``moved >= base`` under :func:`judge_claim`; an
    instance whose status is not ``pass`` is a violation, so only disjoint
    enclosures in the wrong order, or overlapping ones under ``>``, count.
    Eigenvector entries, which have no enclosures, are compared beyond
    ``DECISION_MARGIN``.

    The run has four phases.  Every base is drawn first: the ``trials``
    random digraphs (each an ``n``, an alpha and a sampled digraph), then
    each fleet digraph at alpha 0 and 0.5.  All bases are solved in one
    :func:`~alphaspectra.spectral.spectral_radii` call.  Each base then
    draws its derived digraphs from its own result, since its Perron
    vector steers the retarget draws; their claims are queued.  The queue
    is solved in a second batch call and judged in queue order.  So a seed
    fixes every random base before any transform draw is made.
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

    # derived radius claims (lemma, digraph, alpha, base result, violation
    # text), solved in one batch once every base is done
    queued: list[tuple[str, Digraph, float, SpectralResult, str]] = []

    def check_base(d: Digraph, alpha: float, label: str, base: SpectralResult):
        report.items.append(_item(label, alpha, base))
        x = base.perron

        # subdigraph lemma: strict decrease when an arc can go
        candidates = _deletable_arcs(d)
        if candidates:
            pick = candidates[int(rng.integers(len(candidates)))]
            sub = make_digraph(d.n, [b for b in d.arcs if b != pick])
            queued.append(("subdigraph", sub, alpha, base, f"{label} arc {pick} alpha={alpha}"))

        # subdivision lemma: excluded on directed cycles
        if len(d.arcs) == d.n:
            skips["subdivision"] += 1
        else:
            pick = d.arcs[int(rng.integers(len(d.arcs)))]
            queued.append(("subdivision", subdivide_arc(d, pick), alpha, base, f"{label} arc {pick} alpha={alpha}"))

        # retargeting lemma
        pairs = [(pp, qq) for pp in range(d.n) for qq in range(d.n) if pp != qq]
        order = rng.permutation(len(pairs))
        for idx in order[:4]:
            pp, qq = pairs[int(idx)]
            sources = [s for s in d.in_neighbors(pp) if s != qq and not d.has_arc(s, qq)]
            if not sources or x[qq] < x[pp]:
                continue
            take = 1 + int(rng.integers(len(sources)))
            moved = retarget_in_arcs(d, sources[:take], pp, qq)
            if not is_strongly_connected(moved):
                skips["retarget"] += 1
                continue
            queued.append(("retarget", moved, alpha, base, f"{label} sources->{qq} alpha={alpha}"))
            break

        # eigenvector ordering under nested out-neighbourhoods
        for i in range(d.n):
            for j in range(d.n):
                if i == j or d.has_arc(i, j) or d.has_arc(j, i):
                    continue
                ni, nj = d.out_masks[i], d.out_masks[j]
                if ni & ~nj:
                    continue
                counts["perron-order"] += 1
                if ni == nj:
                    if abs(x[j] - x[i]) > DECISION_MARGIN:
                        violations["perron-order"].append(f"{label} equal-nbhd {i},{j} alpha={alpha}")
                elif x[j] < x[i] - DECISION_MARGIN:
                    violations["perron-order"].append(f"{label} nested-nbhd {i},{j} alpha={alpha}")

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
    for d, alpha, label, base in zip(digraphs, alphas, labels, spectral_radii(digraphs, alphas)):
        check_base(d, alpha, label, base)

    derived = spectral_radii([q[1] for q in queued], [q[2] for q in queued])
    for (lemma, _, _, base, where), res in zip(queued, derived):
        counts[lemma] += 1
        a, b = (res, base) if lemma == "retarget" else (base, res)
        if judge_claim("", a, RADIUS_LEMMAS[lemma], b).status != "pass":
            violations[lemma].append(where)

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
