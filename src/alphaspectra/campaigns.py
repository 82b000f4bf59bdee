"""Verification campaigns: exhaustive enumeration, extremal-family checks,
global minima, bipartite minima, and transform-lemma fuzzing.

Every campaign returns a :class:`VerificationReport` whose verdicts carry
the exact claim they test.  Two radii are compared through their certified
enclosures first; only when the enclosures overlap does the midpoint decide,
and then only beyond a declared margin -- anything closer is reported as
``indistinguishable`` rather than silently ordered.
"""

from __future__ import annotations

import csv
import io
import json
import time
from dataclasses import asdict, dataclass, field
from functools import lru_cache

import numpy as np

from . import _backend
from .digraph import (
    CanonicalKey,
    Digraph,
    _mask_to_key_bytes,
    adjacency_rows_from_masks,
    bipartition,
    canonical_key,
    contains_bidirected_kpq,
    is_strongly_connected,
    make_digraph,
    min_relabeled_mask,
    retarget_in_arcs,
    subdivide_arc,
    unpack_arcs,
)
from .errors import InfeasibleError, InvalidParamsError, TooLargeError
from .families import FamilySpec, format_spec, generate, list_bicyclic, list_compositions
from .spectral import DEFAULT_TOL, SpectralResult, spectral_radius

DECISION_MARGIN = 1e-9
EQUALITY_TOL = 1e-10
ENUMERATION_MAX_N = 5

#: isomorphism-class counts of strongly connected digraphs; the n = 5 value
#: was computed once with an independent labeled-enumeration/dedup oracle
#: and frozen (see tests), the smaller ones are re-derived in the suite.
SC_CLASS_COUNTS = {2: 1, 3: 5, 4: 83, 5: 5048}

#: labeled (not up-to-isomorphism) strongly connected digraph counts,
#: frozen from the same oracle run.
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

    def to_dict(self) -> dict:
        return {
            "campaign": self.campaign,
            "alpha_grid": self.alpha_grid,
            "items": [asdict(i) for i in self.items],
            "verdicts": [asdict(v) for v in self.verdicts],
            "runtime_s": self.runtime_s,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2)

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


def decide_order(a: SpectralResult, b: SpectralResult, margin: float = DECISION_MARGIN) -> int | None:
    """-1 if a < b, +1 if a > b, None if the pair is indistinguishable.

    Certified when the enclosures are disjoint; otherwise the midpoints
    decide, but only beyond the margin.
    """
    if a.enclosure.disjoint_below(b.enclosure):
        return -1
    if b.enclosure.disjoint_below(a.enclosure):
        return 1
    if a.radius < b.radius - margin:
        return -1
    if a.radius > b.radius + margin:
        return 1
    return None


# ---------------------------------------------------------------------------
# exhaustive enumeration

@lru_cache(maxsize=None)
def enumerate_sc_digraphs(n: int) -> tuple[tuple[Digraph, CanonicalKey], ...]:
    """One ``(digraph, key)`` pair per isomorphism class of strongly
    connected digraphs, n <= 5.

    Iterates all 2^(n(n-1)) labeled loop-free digraphs, filters the strongly
    connected ones, and dedupes by the permutation-minimal adjacency mask.
    Each class is represented by the labeling with that minimal mask, and
    ``key`` is built from the same mask, so it equals
    ``canonical_key(digraph)`` without recomputing it.  Classes come out
    sorted by canonical mask.
    """
    if n < 2:
        raise InvalidParamsError(f"enumeration needs n >= 2, got {n}")
    if n > ENUMERATION_MAX_N:
        raise TooLargeError(f"full enumeration capped at n={ENUMERATION_MAX_N}, got {n}")
    nbits = n * (n - 1)
    masks = np.arange(1 << nbits, dtype=np.int64)
    rows = adjacency_rows_from_masks(masks, n)
    sc = _backend.sc_filter(rows, n)
    sc_masks = masks[sc]
    return tuple(
        (make_digraph(n, unpack_arcs(int(c), n)), CanonicalKey(n, _mask_to_key_bytes(int(c), n)))
        for c in np.unique(min_relabeled_mask(sc_masks, n))
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


def verify_family_extremes(
    family: str,
    n: int,
    s: int,
    alpha: float,
    tol: float = DEFAULT_TOL,
    margin: float = DECISION_MARGIN,
) -> VerificationReport:
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

    results = [(spec, spectral_radius(generate(spec), alpha, tol)) for spec in specs]
    results.sort(key=lambda t: (t[1].radius, format_spec(t[0])))
    report = VerificationReport(f"family-extremes:{family}", [alpha])
    for spec, res in results:
        report.items.append(
            ReportItem(format_spec(spec), alpha, res.radius, res.enclosure.lo, res.enclosure.hi)
        )

    def check_rank(pos: int, expected: FamilySpec, claim: str):
        spec, res = results[pos]
        if spec != expected:
            report.verdicts.append(
                Verdict(claim, "fail", f"expected {format_spec(expected)}, found {format_spec(spec)}")
            )
            return
        neighbor = None
        if pos + 1 < len(results):
            neighbor = results[pos + 1]
        elif pos - 1 >= 0:
            neighbor = results[pos - 1]
        if neighbor is None:
            report.verdicts.append(Verdict(claim, "pass", "single member, trivially extremal"))
            return
        if decide_order(res, neighbor[1], margin) is None:
            gap = abs(res.radius - neighbor[1].radius)
            report.verdicts.append(
                Verdict(
                    claim,
                    "indistinguishable",
                    f"{format_spec(spec)} vs {format_spec(neighbor[0])} gap {gap:.3e}",
                )
            )
        else:
            report.verdicts.append(Verdict(claim, "pass", f"{format_spec(spec)}"))

    a_str = f"alpha={alpha}"
    if family in ("infty", "theta"):
        mx, mn = _expected_extremes(family, n, s)
        check_rank(len(results) - 1, mx, f"{family} maximum at (n={n}, s={s}, {a_str})")
        check_rank(0, mn, f"{family} minimum at (n={n}, s={s}, {a_str})")
    elif family == "combined":
        mx, _ = _expected_extremes("infty", n, s)
        _, mn = _expected_extremes("theta", n, s)
        check_rank(len(results) - 1, mx, f"combined maximum at (n={n}, s={s}, {a_str})")
        check_rank(0, mn, f"combined minimum at (n={n}, s={s}, {a_str})")
    else:  # bicyclic
        expected = [
            FamilySpec.theta((0, 1), n - 3),
            FamilySpec.theta((1, 1), n - 4),
            FamilySpec.theta((0, 2), n - 4),
        ]
        names = ["minimum", "second minimum", "third minimum"]
        for pos, (exp, name) in enumerate(zip(expected, names)):
            check_rank(pos, exp, f"bicyclic {name} at (n={n}, {a_str})")

    report.runtime_s = time.perf_counter() - t0
    return report


# ---------------------------------------------------------------------------
# global minima over all strongly connected digraphs

def verify_global_minima(
    n: int,
    alpha: float,
    tol: float = DEFAULT_TOL,
    margin: float = DECISION_MARGIN,
) -> VerificationReport:
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
    results = [(key.hex(), spectral_radius(d, alpha, tol)) for d, key in enumerate_sc_digraphs(n)]
    results.sort(key=lambda t: (t[1].radius, t[0]))
    report = VerificationReport("global-min", [alpha])
    for label, res in results:
        report.items.append(ReportItem(label, alpha, res.radius, res.enclosure.lo, res.enclosure.hi))

    exploratory = alpha > 0.5
    expected = [
        ("rank 1 is the directed cycle", FamilySpec.cycle(n)),
        ("rank 2 is theta(0,1,n-3)", FamilySpec.theta((0, 1), n - 3)),
        ("rank 3 is theta(1,1,n-4)", FamilySpec.theta((1, 1), n - 4)),
        ("rank 4 is theta(0,2,n-4)", FamilySpec.theta((0, 2), n - 4)),
    ]
    for pos, (name, spec) in enumerate(expected):
        claim = f"{name} (n={n}, alpha={alpha})"
        got_label, got = results[pos]
        ok = got_label == canonical_key(generate(spec)).hex()
        if pos == 0:
            ok = ok and abs(got.radius - 1.0) <= margin
        nxt = results[pos + 1][1]
        sep = decide_order(got, nxt, margin)
        if exploratory:
            status = "exploratory"
            detail = ("matches the conjectured digraph" if ok else "differs from the conjectured digraph")
            detail += f"; gap to next {abs(got.radius - nxt.radius):.3e}"
        elif not ok:
            status, detail = "fail", f"rank {pos + 1} is not {format_spec(spec)}"
        elif sep is None:
            status = "indistinguishable"
            detail = f"rank {pos + 1} vs rank {pos + 2} gap {abs(got.radius - nxt.radius):.3e}"
        else:
            status, detail = "pass", f"radius {got.radius!r}"
        report.verdicts.append(Verdict(claim, status, detail))

    report.runtime_s = time.perf_counter() - t0
    return report


# ---------------------------------------------------------------------------
# bipartite minima

def _radius_of(spec: FamilySpec, alpha: float, tol: float) -> SpectralResult:
    return spectral_radius(generate(spec), alpha, tol)


def verify_bipartite_minimum(
    n: int,
    p: int,
    q: int,
    alpha: float,
    tol: float = DEFAULT_TOL,
    margin: float = DECISION_MARGIN,
) -> VerificationReport:
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

    def add_item(spec: FamilySpec, res: SpectralResult):
        report.items.append(
            ReportItem(format_spec(spec), alpha, res.radius, res.enclosure.lo, res.enclosure.hi)
        )

    def check_strict(claim: str, big: SpectralResult, small: SpectralResult):
        order = decide_order(big, small, margin)
        if order == 1:
            report.verdicts.append(Verdict(claim, "pass"))
        elif order is None:
            gap = abs(big.radius - small.radius)
            report.verdicts.append(Verdict(claim, "indistinguishable", f"gap {gap:.3e}"))
        else:
            report.verdicts.append(
                Verdict(claim, "fail", f"{big.radius!r} not above {small.radius!r}")
            )

    def check_equal(claim: str, a: SpectralResult, b: SpectralResult):
        gap = abs(a.radius - b.radius)
        if gap <= EQUALITY_TOL:
            report.verdicts.append(Verdict(claim, "pass", f"gap {gap:.3e}"))
        else:
            report.verdicts.append(Verdict(claim, "fail", f"gap {gap:.3e} above {EQUALITY_TOL}"))

    if rem % 2 == 1:
        b1 = FamilySpec.bip(1, n, p, q)
        b2 = FamilySpec.bip(2, n, p, q)
        b3 = FamilySpec.bip(3, n, p, q)
        b4 = FamilySpec.bip(4, n, p, q)
        r1, r2, r3, r4 = (_radius_of(s, alpha, tol) for s in (b1, b2, b3, b4))
        for s_, r_ in zip((b1, b2, b3, b4), (r1, r2, r3, r4)):
            add_item(s_, r_)
        if p == q:
            check_equal(f"B2 = B1 when p = q {loc}", r2, r1)
        else:
            check_strict(f"B2 > B1 when p > q {loc}", r2, r1)
        check_strict(f"B3 > B1 {loc}", r3, r1)
        check_strict(f"B4 > B2 {loc}", r4, r2)
        if rem >= 3:
            b5prev = FamilySpec.bip(5, n - 1, p, q)
            b6prev = FamilySpec.bip(6, n - 1, p, q)
            r5prev = _radius_of(b5prev, alpha, tol)
            r6prev = _radius_of(b6prev, alpha, tol)
            add_item(b5prev, r5prev)
            add_item(b6prev, r6prev)
            check_strict(f"B5 at n-1 > B1 at n {loc}", r5prev, r1)
            if p == q or alpha == 0.0:
                check_equal(f"B6 = B5 at n-1 when p = q or alpha = 0 {loc}", r6prev, r5prev)
            else:
                check_strict(f"B6 > B5 at n-1 when p > q and alpha > 0 {loc}", r6prev, r5prev)
        else:
            report.verdicts.append(
                Verdict(f"B5 at n-1 > B1 at n {loc}", "skipped", "n-1 leaves no room for the even path")
            )
    else:
        b5 = FamilySpec.bip(5, n, p, q)
        b6 = FamilySpec.bip(6, n, p, q)
        r5 = _radius_of(b5, alpha, tol)
        r6 = _radius_of(b6, alpha, tol)
        add_item(b5, r5)
        add_item(b6, r6)
        if p == q or alpha == 0.0:
            check_equal(f"B6 = B5 when p = q or alpha = 0 {loc}", r6, r5)
        else:
            check_strict(f"B6 > B5 when p > q and alpha > 0 {loc}", r6, r5)
        b1prev = FamilySpec.bip(1, n - 1, p, q)
        r1prev = _radius_of(b1prev, alpha, tol)
        add_item(b1prev, r1prev)
        order = decide_order(r1prev, r5, margin)
        gap = abs(r1prev.radius - r5.radius)
        if order == 1 or gap <= EQUALITY_TOL:
            report.verdicts.append(Verdict(f"B1 at n-1 >= B5 at n {loc}", "pass", f"gap {gap:.3e}"))
        elif order is None:
            report.verdicts.append(
                Verdict(f"B1 at n-1 >= B5 at n {loc}", "indistinguishable", f"gap {gap:.3e}")
            )
        else:
            report.verdicts.append(
                Verdict(f"B1 at n-1 >= B5 at n {loc}", "fail", f"{r1prev.radius!r} < {r5.radius!r}")
            )

    # exhaustive branch: only reachable enumeration size is (5, 2, 2)
    if n <= ENUMERATION_MAX_N:
        claim = f"unique bipartite minimum by enumeration {loc}"
        results = [
            (key.hex(), spectral_radius(d, alpha, tol))
            for d, key in enumerate_sc_digraphs(n)
            if bipartition(d) is not None and contains_bidirected_kpq(d, p, q)
        ]
        results.sort(key=lambda t: (t[1].radius, t[0]))
        for label, res in results:
            report.items.append(ReportItem(label, alpha, res.radius, res.enclosure.lo, res.enclosure.hi))
        want_spec = FamilySpec.bip(1 if rem % 2 == 1 else 5, n, p, q)
        got_label, got = results[0]
        if got_label != canonical_key(generate(want_spec)).hex():
            report.verdicts.append(Verdict(claim, "fail", f"minimum is not {format_spec(want_spec)}"))
        elif len(results) > 1 and decide_order(got, results[1][1], margin) is None:
            gap = abs(got.radius - results[1][1].radius)
            report.verdicts.append(Verdict(claim, "indistinguishable", f"runner-up gap {gap:.3e}"))
        else:
            report.verdicts.append(
                Verdict(claim, "pass", f"{format_spec(want_spec)} over {len(results)} candidates")
            )

    report.runtime_s = time.perf_counter() - t0
    return report


# ---------------------------------------------------------------------------
# transform-lemma fuzzing

ALPHA_CHOICES = tuple(round(0.1 * k, 1) for k in range(10))


def random_sc_digraph(rng: np.random.Generator, n: int, density: float = 0.4) -> Digraph:
    """Rejection-sampled strongly connected digraph with i.i.d. arcs."""
    for _ in range(100_000):
        arcs = [
            (i, j)
            for i in range(n)
            for j in range(n)
            if i != j and rng.random() < density
        ]
        d = make_digraph(n, arcs)
        if is_strongly_connected(d):
            return d
    raise RuntimeError("rejection sampling failed to find a strongly connected digraph")


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


def verify_transform_lemmas(
    trials: int,
    seed: int,
    tol: float = DEFAULT_TOL,
    margin: float = DECISION_MARGIN,
) -> VerificationReport:
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
    """
    if trials <= 0:
        raise InvalidParamsError(f"trials must be positive, got {trials}")
    t0 = time.perf_counter()
    rng = np.random.default_rng(seed)
    counts = {"subdigraph": 0, "subdivision": 0, "retarget": 0, "perron-order": 0}
    skips = {"subdivision-on-cycle": 0, "retarget-disconnected": 0}
    violations: dict[str, list[str]] = {k: [] for k in counts}
    alphas_used: set[float] = set()

    def check_base(d: Digraph, alpha: float, label: str):
        alphas_used.add(alpha)
        base = spectral_radius(d, alpha, tol)
        report.items.append(
            ReportItem(label, alpha, base.radius, base.enclosure.lo, base.enclosure.hi)
        )
        x = base.perron

        # subdigraph lemma: strict decrease when an arc can go
        candidates = [a for a in d.arcs if is_strongly_connected(make_digraph(d.n, [b for b in d.arcs if b != a]))]
        if candidates:
            pick = candidates[int(rng.integers(len(candidates)))]
            sub = make_digraph(d.n, [b for b in d.arcs if b != pick])
            counts["subdigraph"] += 1
            if spectral_radius(sub, alpha, tol).radius >= base.radius - margin:
                violations["subdigraph"].append(f"{label} arc {pick} alpha={alpha}")

        # subdivision lemma: excluded on directed cycles
        if len(d.arcs) == d.n:
            skips["subdivision-on-cycle"] += 1
        else:
            pick = d.arcs[int(rng.integers(len(d.arcs)))]
            counts["subdivision"] += 1
            if spectral_radius(subdivide_arc(d, pick), alpha, tol).radius > base.radius + margin:
                violations["subdivision"].append(f"{label} arc {pick} alpha={alpha}")

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
                skips["retarget-disconnected"] += 1
                continue
            counts["retarget"] += 1
            if spectral_radius(moved, alpha, tol).radius < base.radius - margin:
                violations["retarget"].append(f"{label} sources->{qq} alpha={alpha}")
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
                    if abs(x[j] - x[i]) > margin:
                        violations["perron-order"].append(f"{label} equal-nbhd {i},{j} alpha={alpha}")
                elif x[j] < x[i] - margin:
                    violations["perron-order"].append(f"{label} nested-nbhd {i},{j} alpha={alpha}")

    report = VerificationReport("transform-lemmas", [])
    for t in range(trials):
        n = int(rng.integers(2, 9))
        alpha = float(rng.choice(ALPHA_CHOICES))
        d = random_sc_digraph(rng, n)
        check_base(d, alpha, f"random-n{n}-t{t}")
    for spec in _lemma_fleet():
        for alpha in (0.0, 0.5):
            check_base(generate(spec), alpha, format_spec(spec))

    report.alpha_grid = sorted(alphas_used)
    for lemma, count in counts.items():
        bad = violations[lemma]
        detail = f"{count} instances checked"
        for key, cnt in skips.items():
            if key.startswith(lemma.split("-")[0]) and cnt:
                detail += f"; {cnt} skipped ({key})"
        if bad:
            report.verdicts.append(
                Verdict(f"{lemma} lemma", "fail", detail + "; violations: " + "; ".join(bad[:5]))
            )
        else:
            report.verdicts.append(Verdict(f"{lemma} lemma", "pass", detail))
    report.runtime_s = time.perf_counter() - t0
    return report
