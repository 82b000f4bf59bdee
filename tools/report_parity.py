"""Byte parity of reports and digraph sets between a parent commit and the working tree.

    python3 tools/report_parity.py --parent REF

Run from the root of a checkout.  The parent is exported with ``git
archive`` into a temporary directory (``bench_ab.export``); the change side
is the working tree's ``src/``, so the check can run before a commit.
Each side runs the same fixed campaign set (``campaign_set``) in its own
interpreter, zeroes every report's ``runtime_s`` and prints the sha256 of
its ``to_json()`` and of its ``to_csv()``, the two report files.  It also
prints the sha256 of the concatenated DGR1 text of fixed digraph sets
(``DIGRAPH_SETS``): the enumerated classes, each after its canonical
key's ``hex()``, the criterion-1 family grid, the lemma fleet, the
bidirected K_{p,q} and ``families``: 1789 members of every family kind
over a grid of sizes.  Reports list only radii, and
only global-min's carry keys (at n = 5), so these catch a change in how
digraphs are decoded, in their arc order or in their keys.  The
lemma-derived sets (``LEMMA_SETS``) hash the DGR1 text and alpha of every
digraph the transform-lemma fuzz derives from its bases, as passed to its
last ``spectral_radii`` call; reports carry only the bases' radii, so
these catch a change in the deleted arcs, subdivisions or retarget moves.  Last come fixed solver sets
(``SOLVER_SETS``): the ``radius``, enclosure, ``iterations`` and Perron
vector bytes of every result of one ``spectral_radii`` call over the
n = 5 classes per alpha, of one-at-a-time ``spectral_radius`` calls
over the criterion-1 grid at the oracle-grid workload's alphas, of
cycle(200), which takes more arcs than the start's squarings cover, and
complete(40) at alpha 0 and 0.99, which reports do not carry, and of the
lemma fleet, each member at alpha 0 and 0.5, in one call over several
vertex counts, so the results must come back in input order.  The
family campaigns also run theta at (40, 4) and infty at (35, 4), alpha
0.5 and 0.95: large stacks near the float start's limits, and the
bipartite minimum's exhaustive branch at (5, 2, 2) runs at three more
alphas (``BIPARTITE_ALPHAS``).  The oracle set
(``ORACLE_SETS``) holds both root oracles' values, ``largest_root`` and
``det_scan_largest_real_root``, over the criterion-1 grid at the
oracle-grid alphas plus 0.99.  One line per report or set says whether the
two sides' hashes match, a report's JSON and CSV hashes each; for the
oracle set it also gives the count of bit-identical roots, the largest
difference between the two sides and how many roots fall outside the
other side's Noda enclosure widened by tol.
The sieve sets (``SIEVE_SETS``) hash ``canonical_masks(n)`` for n = 2..5,
which holds masks of digraphs that are not strongly connected, and the
``perm_sieve`` survivors of a seeded sample of n = 6 candidates: the
k = 2 block of ``canonical_masks``, row 0 ``000011`` and every other row
drawn from the loop-free rows with at least two ones, sieved along
``digraph._swap_chain``, or by ``digraph._perm_moves`` on a tree from
before the chain.  The kernel sets (``KERNEL_SETS``) hash the
``_backend.sc_filter`` flags of seeded rows for n = 2..12, each row at
its own arc density, and the deletable arcs of seeded lemma bases, from
``campaigns._base_facts``, so the strong-connectivity kernel is pinned beyond the n = 5 enumeration.
The exit status is 0 when every hash but the oracle set's matches and no
oracle root falls outside, and 1 otherwise: a change to the root finders
may move their last bits but never past a certified enclosure.

A change that moves radii in their last bits changes every report's hash,
so reports are also compared by verdict: the (claim, status) list of the
two sides, and, for the items of the same label and alpha, whether each
radius lies inside the other side's enclosure and whether the two
enclosures meet.  Both enclosures are certified, so disjoint ones mean one
side is wrong; a radius just outside the other side's enclosure only
means the two midpoints differ by more than the distance from the root to
that enclosure's edge.  A report whose hashes differ says whether its
verdicts are the same, how many radii fall outside and by how much at
most, and how many enclosure pairs are disjoint; each verdict that
differs is listed with both details.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

from bench_ab import export, git

ALPHAS = (0.0, 0.5, 0.9)
#: more alphas for the bipartite minimum's exhaustive branch, the only
#: other campaign that filters and ranks the enumerated classes
BIPARTITE_ALPHAS = (0.25, 0.75, 0.99)

#: run in each tree: the campaign calls, digraph sets and solver sets come
#: on stdin; one JSON object per line out, the hash and, for a report, its
#: CSV's hash, verdicts and items
CHILD = """
import functools, hashlib, json, sys
import numpy as np
from alphaspectra import _backend, campaigns, digraph
from alphaspectra.digraph import CanonicalKey, canonical_masks, digraphs_from_masks, to_dgr1
from alphaspectra.families import FamilySpec, generate, list_compositions
from alphaspectra.spectral import spectral_radii, spectral_radius
from perfbench.workloads import ORACLE_ALPHAS, criterion1_grid
# (digraph, key) of every enumerated class, decoded from its mask
def classes(n):
    masks = campaigns.enumerate_sc_digraphs(n)
    return list(zip(digraphs_from_masks(masks, n), [CanonicalKey.from_mask(n, m) for m in masks.tolist()]))
n5_classes = functools.cache(lambda: [d for d, _ in classes(5)])
solvers = {
    "spectral_radii_n5": lambda alpha: spectral_radii(n5_classes(), alpha),
    "spectral_radius_oracle_grid": lambda: [
        spectral_radius(generate(spec), alpha) for spec in criterion1_grid() for alpha in ORACLE_ALPHAS],
    "spectral_radii_cycle200_complete40": lambda alpha: spectral_radii(
        [generate(FamilySpec.cycle(200)), generate(FamilySpec.complete(40))], alpha),
    "spectral_radii_lemma_fleet": lambda: spectral_radii(
        [d for d in map(generate, campaigns._lemma_fleet()) for _ in (0.0, 0.5)],
        [0.0, 0.5] * len(campaigns._lemma_fleet())),
}
def oracle_roots(*extra_alphas):
    from alphaspectra.chareq import char_equation_for, largest_root
    from alphaspectra.spectral import det_scan_largest_real_root
    rows = []
    for spec in criterion1_grid():
        d = generate(spec)
        for alpha in ORACLE_ALPHAS + extra_alphas:
            lo, hi = spectral_radius(d, alpha).enclosure
            rows.append([largest_root(char_equation_for(spec, alpha)), det_scan_largest_real_root(d, alpha), lo, hi])
    return rows
def lemma_derived(trials, seed):
    calls, solve = [], campaigns.spectral_radii
    def spy(digraphs, alphas):
        calls.append(list(zip(digraphs, alphas)))
        return solve(digraphs, alphas)
    campaigns.spectral_radii = spy
    try:
        campaigns.verify_transform_lemmas(trials, seed)
    finally:
        campaigns.spectral_radii = solve
    return calls[-1]
def sieve_sample(n, k, count, seed):
    rng = np.random.default_rng(seed)
    masks = np.full(count, ((1 << k) - 1) << digraph._cell_bit(n, 0, n - 1), dtype=np.int64)
    for i in range(1, n):
        rows = np.arange(1 << n, dtype=np.int64)
        rows = rows[((rows >> (n - 1 - i)) & 1 == 0) & (np.bitwise_count(rows) >= k)]
        masks |= rng.choice(rows, size=count) << digraph._cell_bit(n, i, n - 1)
    chain = digraph._swap_chain if hasattr(digraph, "_swap_chain") else digraph._perm_moves
    return _backend.perm_sieve(masks, chain(n))
sieves = {"canonical_masks": canonical_masks, "sieve_sample": sieve_sample}
# count seeded n-vertex rows, each at an arc density drawn from 0.1..0.6
def sc_filter_flags(n, count, seed):
    rng = np.random.default_rng(seed)
    arcs = (rng.random((count, n, n)) < rng.uniform(0.1, 0.6, (count, 1, 1))) & ~np.eye(n, dtype=bool)
    return _backend.sc_filter((arcs.astype(np.int64) << np.arange(n)).sum(axis=2)).tolist()
# the deletable arcs of the lemma fuzz's seeded random bases (n = 2..8)
# and the lemma fleet, read off the _base_facts pass
def deletable_arcs(trials, seed):
    rng = np.random.default_rng(seed)
    bases = [campaigns.random_sc_digraph(rng, int(rng.integers(2, 9))) for _ in range(trials)]
    bases += [generate(spec) for spec in campaigns._lemma_fleet()]
    return campaigns._base_facts([(d, 0.0, "") for d in bases])[2]
kernels = {"sc_filter_flags": sc_filter_flags, "deletable_arcs": deletable_arcs}
# every kind: infty and theta for s = 2..4 up to n = 15, cycle and complete
# for n = 2..11, kpq for p, q = 1..5, bip1-6 for 2 <= q <= p <= 5 up to
# n = 15, gprime, g1 and g2 for n = 5..14
def family_grid():
    specs = [spec for family in ("infty", "theta") for s in range(2, 5) for n in range(s + 1, 16)
             for spec in list_compositions(family, n, s)]
    specs += [FamilySpec(kind, (n,)) for kind in ("cycle", "complete") for n in range(2, 12)]
    specs += [FamilySpec.kpq(p, q) for p in range(1, 6) for q in range(1, 6)]
    specs += [FamilySpec.bip(kind, n, p, q) for kind in range(1, 7) for p in range(2, 6) for q in range(2, p + 1)
              for n in range(p + q + 1, 16) if (n - p - q) % 2 == (kind <= 4)]
    specs += [FamilySpec(kind, (n,)) for kind in ("gprime", "g1", "g2") for n in range(5, 15)]
    return [generate(spec) for spec in specs]
sets = {
    "criterion1_grid": lambda: [generate(spec) for spec in criterion1_grid()],
    "lemma_fleet": lambda: [generate(spec) for spec in campaigns._lemma_fleet()],
    "kpq": lambda: [generate(FamilySpec.kpq(p, q)) for p in range(1, 6) for q in range(1, 6)],
    "families": family_grid,
}
for fn, args in json.load(sys.stdin):
    extra = {}
    if fn in solvers:
        text = "".join(f"{r.radius!r} {r.enclosure!r} {r.iterations} {r.perron.tobytes().hex()}\\n"
                       for r in solvers[fn](*args))
    elif fn in sieves:
        text = " ".join(map(str, sieves[fn](*args).tolist()))
    elif fn in kernels:
        text = "".join(f"{row!r}\\n" for row in kernels[fn](*args))
    elif fn == "enumerate_sc_digraphs":
        text = "".join(f"key {key.hex()}\\n{to_dgr1(d)}" for d, key in classes(*args))
    elif fn in sets:
        text = "".join(to_dgr1(d) for d in sets[fn](*args))
    elif fn == "oracle_roots":
        rows = oracle_roots(*args)
        text = "".join(f"{root!r} {scan!r}\\n" for root, scan, _, _ in rows)
        extra = {"roots": rows}
    elif fn == "lemma_derived":
        text = "".join(f"alpha {alpha!r}\\n{to_dgr1(d)}" for d, alpha in lemma_derived(*args))
    else:
        report = getattr(campaigns, fn)(*args)
        report.runtime_s = 0.0
        text = report.to_json()
        extra = {"csv": hashlib.sha256(report.to_csv().encode()).hexdigest(),
                 "verdicts": [[v.claim, v.status, v.detail] for v in report.verdicts],
                 "items": [[it.label, it.alpha, it.radius, it.lo, it.hi] for it in report.items]}
    print(json.dumps({"hash": hashlib.sha256(text.encode()).hexdigest(), **extra}))
"""

#: digraph sets compared by the DGR1 text of their members, in order
DIGRAPH_SETS = [("enumerate_sc_digraphs", [n]) for n in range(2, 6)] + [
    ("criterion1_grid", []), ("lemma_fleet", []), ("kpq", []), ("families", [])]

#: the transform-lemma fuzz's derived digraphs, with their alphas
LEMMA_SETS = [("lemma_derived", [100, seed]) for seed in range(8)] + [("lemma_derived", [500, 20240])]

#: solver results compared field by field, Perron vectors to the byte
SOLVER_SETS = [("spectral_radii_n5", [alpha]) for alpha in (0.0, 0.5, 0.9, 0.99)] + [
    ("spectral_radius_oracle_grid", [])] + [
    ("spectral_radii_cycle200_complete40", [alpha]) for alpha in (0.0, 0.99)] + [
    ("spectral_radii_lemma_fleet", [])]

#: both oracles' roots (``largest_root`` and ``det_scan_largest_real_root``)
#: over the criterion-1 grid at the oracle-grid alphas plus these, each
#: with the Noda enclosure of its own side
ORACLE_SETS = [("oracle_roots", [0.99])]

#: the canonical sieve's survivors: ``canonical_masks(n)``, and a seeded
#: n = 6 sample of (n, k, count, seed)
SIEVE_SETS = [("canonical_masks", [n]) for n in range(2, 6)] + [("sieve_sample", [6, 2, 400_000, 6])]

#: the strong-connectivity kernel: ``sc_filter`` flags of (n, count, seed)
#: seeded rows, and the deletable arcs of (trials, seed) seeded lemma bases
#: plus the lemma fleet
KERNEL_SETS = [("sc_filter_flags", [n, 2000, n]) for n in range(2, 13)] + [
    ("deletable_arcs", [300, seed]) for seed in range(4)]


def campaign_set() -> list[tuple[str, list]]:
    """(campaigns function, digraph set, lemma-derived set, solver set,
    oracle set, sieve set or kernel set, arguments) of everything
    compared."""
    runs = [("verify_transform_lemmas", [100, seed]) for seed in range(8)]
    runs.append(("verify_transform_lemmas", [500, 20240]))
    for alpha in ALPHAS:
        runs.append(("verify_global_minima", [5, alpha]))
        for family in ("infty", "theta", "combined"):
            runs += [("verify_family_extremes", [family, n, s, alpha]) for s in (2, 3) for n in range(s + 1, 9)]
        runs += [("verify_family_extremes", ["bicyclic", n, 2, alpha]) for n in range(5, 9)]
        runs += [("verify_bipartite_minimum", [n, 2, 2, alpha]) for n in (5, 7)]
    runs += [("verify_family_extremes", [family, n, 4, alpha])
             for family, n in (("theta", 40), ("infty", 35)) for alpha in (0.5, 0.95)]
    runs += [("verify_bipartite_minimum", [5, 2, 2, alpha]) for alpha in BIPARTITE_ALPHAS]
    return runs + DIGRAPH_SETS + LEMMA_SETS + SOLVER_SETS + ORACLE_SETS + SIEVE_SETS + KERNEL_SETS


def run_tree(tree: Path, runs: list[tuple[str, list]]) -> list[dict]:
    """Each run's sha256 (``hash``) as the tree under ``tree`` writes it,
    plus ``verdicts`` and ``items`` for a report."""
    env = {**os.environ, "PYTHONPATH": str(tree / "src")}
    proc = subprocess.run([sys.executable, "-c", CHILD], input=json.dumps(runs), cwd=tree, env=env,
                          capture_output=True, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"campaigns in {tree} exited with {proc.returncode}:\n{proc.stderr[-2000:]}")
    return [json.loads(line) for line in proc.stdout.splitlines()]


def _keyed(items: list[list]) -> dict:
    """(label, alpha, occurrence) -> (radius, lo, hi) of a report's items."""
    seen: dict = {}
    out = {}
    for label, alpha, radius, lo, hi in items:
        k = seen[label, alpha] = seen.get((label, alpha), -1) + 1
        out[label, alpha, k] = (radius, lo, hi)
    return out


def compare_verdicts(a: dict, b: dict) -> tuple[list[str], dict]:
    """The verdicts of two reports that differ in claim or status, one line
    each with both details, and counts over their items: ``items``
    compared, ``unmatched`` (on one side only), ``outside`` (radii outside
    the other side's enclosure), ``farthest`` (the largest such distance)
    and ``disjoint`` (pairs of enclosures that do not meet)."""
    lines = [f"    {ca!r}: {sa} ({da}) -> {sb} ({db})" if ca == cb else f"    {ca!r} ({sa}) -> {cb!r} ({sb})"
             for (ca, sa, da), (cb, sb, db) in zip(a["verdicts"], b["verdicts"]) if (ca, sa) != (cb, sb)]
    extra = len(b["verdicts"]) - len(a["verdicts"])
    if extra:
        lines.append(f"    {abs(extra)} verdicts only on the {'change' if extra > 0 else 'parent'} side")
    ka, kb = _keyed(a["items"]), _keyed(b["items"])
    counts = {"items": len(ka.keys() | kb.keys()), "unmatched": len(ka.keys() ^ kb.keys()),
              "outside": 0, "farthest": 0.0, "disjoint": 0}
    for key in ka.keys() & kb.keys():
        (ra, loa, hia), (rb, lob, hib) = ka[key], kb[key]
        for r, lo, hi in ((ra, lob, hib), (rb, loa, hia)):
            if not lo <= r <= hi:
                counts["outside"] += 1
                counts["farthest"] = max(counts["farthest"], lo - r, r - hi)
        counts["disjoint"] += hia < lob or hib < loa
    return lines, counts


def compare_roots(a: list[list], b: list[list], tol: float = 1e-12) -> tuple[str, int]:
    """Bit-identical roots of the two sides, their largest difference, and
    how many fall outside the other side's Noda enclosure widened by tol
    (the oracles' default), which must be none."""
    pairs = [(ra[k], rb[k], rb[2:], ra[2:]) for ra, rb in zip(a, b) for k in (0, 1)]
    same = sum(x == y for x, y, _, _ in pairs)
    gap = max(abs(x - y) for x, y, _, _ in pairs)
    outside = sum(not lo - tol <= r <= hi + tol for x, y, other_b, other_a in pairs
                  for r, (lo, hi) in ((x, other_b), (y, other_a)))
    return (f"{same} of {len(pairs)} roots bit-identical, largest difference {gap:.1e}, "
            f"{outside} outside the other side's enclosure widened by {tol:g}"), outside


def hashes_match(a: dict, b: dict) -> bool:
    """Whether two sides' hashes of one run match, a report's CSV included."""
    return a["hash"] == b["hash"] and a.get("csv") == b.get("csv")


def describe(counts: dict) -> str:
    return (f"{counts['outside']} radii of {counts['items']} items outside the other side's enclosure "
            f"(by at most {counts['farthest']:.1e}), {counts['disjoint']} disjoint enclosure pairs, "
            f"{counts['unmatched']} unmatched")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True)
    args = parser.parse_args(argv)

    sha = git("rev-parse", f"{args.parent}^{{commit}}")
    runs = campaign_set()
    with tempfile.TemporaryDirectory(prefix="report_parity_") as tmp:
        export(sha, Path(tmp))
        parent = run_tree(Path(tmp), runs)
    change = run_tree(Path.cwd(), runs)
    print(f"parent {sha} against the working tree, runtime_s zeroed")
    reports = same_verdicts = roots_outside = 0
    total = {"items": 0, "unmatched": 0, "outside": 0, "farthest": 0.0, "disjoint": 0}
    for (fn, call_args), a, b in zip(runs, parent, change):
        ha, hb = a["hash"], b["hash"]
        line = f"same {ha[:16]}" if ha == hb else f"DIFF {ha[:16]} -> {hb[:16]}"
        if "csv" in a:
            ca, cb = a["csv"], b["csv"]
            line += f"  csv same {ca[:16]}" if ca == cb else f"  csv DIFF {ca[:16]} -> {cb[:16]}"
        lines = []
        if "roots" in a:
            text, outside = compare_roots(a["roots"], b["roots"])
            roots_outside += outside
            line += f"  {text}"
        if "verdicts" in a:
            reports += 1
            lines, counts = compare_verdicts(a, b)
            same_verdicts += not lines
            for k, v in counts.items():
                total[k] = max(total[k], v) if k == "farthest" else total[k] + v
            if not hashes_match(a, b):
                line += f"  verdicts {'DIFF' if lines else 'same'}, {describe(counts)}"
        print(f"{line}  {fn}{tuple(call_args)}", *lines, sep="\n")
    same = sum(map(hashes_match, parent, change))
    print(f"{same} of {len(runs)} reports, digraph sets, lemma-derived sets, solver sets, oracle sets, sieve sets "
          "and kernel sets identical")
    print(f"{same_verdicts} of {reports} reports with the same verdicts; items: {describe(total)}")
    print(f"{roots_outside} oracle roots outside the other side's widened enclosure")
    same_or_enclosed = sum(hashes_match(a, b) or "roots" in a for a, b in zip(parent, change))
    return 0 if same_or_enclosed == len(runs) and roots_outside == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
