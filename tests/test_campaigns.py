import dataclasses
import hashlib
import itertools
import json
import re
from collections import deque

import numpy as np
import pytest

from alphaspectra import _backend, campaigns, digraph, families, spectral
from alphaspectra.campaigns import (
    claim_status,
    decide_order,
    enumerate_sc_digraphs,
    judge_claim,
    judge_rank,
    merge_reports,
    random_sc_digraph,
    verify_bipartite_minimum,
    verify_family_extremes,
    verify_global_minima,
    verify_transform_lemmas,
)
from alphaspectra.digraph import (
    CanonicalKey,
    canonical_key,
    delete_arc,
    digraphs_from_masks,
    is_strongly_connected,
    make_digraph,
    subdivide_arc,
)
from alphaspectra.errors import InfeasibleError, InvalidParamsError, MissingArcError, TooLargeError
from alphaspectra.families import FamilySpec, format_spec, generate, list_bicyclic
from alphaspectra.spectral import Interval, SpectralResult, spectral_radius
from oracles import SC_CLASS_COUNTS, SC_LABELED_COUNTS, is_strongly_connected_bfs, perron_order_per_pair


def decoded_classes(n):
    """(digraph, key) of every enumerated class, decoded from its mask."""
    masks = enumerate_sc_digraphs(n)
    return list(zip(digraphs_from_masks(masks, n), [CanonicalKey.from_mask(n, m) for m in masks.tolist()]))


def oracle_classes(n):
    """Labeled enumeration with BFS connectivity and permutation dedupe on
    arc tuples; shares nothing with the packed-mask kernel path."""
    pairs = [(i, j) for i in range(n) for j in range(n) if i != j]
    perms = list(itertools.permutations(range(n)))
    seen = set()
    labeled = 0
    for mask in range(1 << len(pairs)):
        arcs = [pairs[b] for b in range(len(pairs)) if (mask >> b) & 1]
        adj = [[] for _ in range(n)]
        for i, j in arcs:
            adj[i].append(j)
        ok = True
        for s in range(n):
            seen_v = 1 << s
            queue = deque([s])
            while queue:
                v = queue.popleft()
                for w in adj[v]:
                    if not (seen_v >> w) & 1:
                        seen_v |= 1 << w
                        queue.append(w)
            if seen_v != (1 << n) - 1:
                ok = False
                break
        if not ok:
            continue
        labeled += 1
        seen.add(min(tuple(sorted((p[i], p[j]) for i, j in arcs)) for p in perms))
    return labeled, len(seen)


class TestEnumeration:
    def test_counts_against_oracle(self):
        for n in (2, 3, 4):
            labeled, classes = oracle_classes(n)
            assert labeled == SC_LABELED_COUNTS[n]
            assert classes == SC_CLASS_COUNTS[n]
            assert len(enumerate_sc_digraphs(n)) == classes

    def test_n5_count_fixture(self):
        # the 5048 figure was produced once by the oracle above (120 s in
        # pure python) and frozen; the kernel must keep reproducing it
        assert len(enumerate_sc_digraphs(5)) == SC_CLASS_COUNTS[5]

    @pytest.mark.parametrize(
        "n, digest",
        [
            (2, "7cda2bbfc21088aa064300d7e3218c8f8ba50f2d0f069b0a02299800c0e4425b"),
            (3, "9c6aae335664eb43b39a2f864d961ff5488a6c175fddc0c7a0d2f1eb93d3b344"),
            (4, "1ebee1e6ba877f4f8929ae95f28620fe7ab348c0ceb70252634c4309762bea0e"),
            (5, "80a004bd7635cf9cd11716a9d8079a3a7b395a2e83fccde2066c7b93ca5cb467"),
        ],
    )
    def test_output_pinned(self, n, digest):
        # order, representatives and keys of every class, as first recorded;
        # the global-min reference pins class indices through this order
        text = "\n".join(f"{key.hex()} {d.arcs}" for d, key in decoded_classes(n))
        assert hashlib.sha256(text.encode()).hexdigest() == digest

    def test_all_strongly_connected_and_distinct(self):
        classes = decoded_classes(4)
        keys = {key for _, key in classes}
        assert len(keys) == len(classes)
        assert all(is_strongly_connected(d) for d, _ in classes)
        assert all(key == canonical_key(d) for d, key in classes)

    def test_bounds(self):
        with pytest.raises(TooLargeError):
            enumerate_sc_digraphs(6)
        with pytest.raises(InvalidParamsError):
            enumerate_sc_digraphs(1)

    def test_bicyclic_classes_match_enumeration(self):
        # the bicyclic generator must hit exactly the |E| = |V| + 1 classes
        for n in (4, 5):
            enumerated = {key for d, key in decoded_classes(n) if len(d.arcs) == n + 1}
            generated = {canonical_key(generate(s)) for s in list_bicyclic(n)}
            assert generated == enumerated


class TestFamilyExtremes:
    def test_infty_8_3(self):
        report = verify_family_extremes("infty", 8, 3, 0.5)
        assert report.passed()
        labels = [it.label for it in report.items]
        assert labels[-1] == "infty:1,1,5"
        assert labels[0] == "infty:2,2,3"

    def test_bicyclic_ranking(self):
        report = verify_family_extremes("bicyclic", 6, 2, 0.0)
        assert report.passed()
        assert [it.label for it in report.items[:3]] == [
            "theta:0,1;3",
            "theta:1,1;2",
            "theta:0,2;2",
        ]

    def test_theta_degenerate_domain(self):
        report = verify_family_extremes("theta", 4, 3, 0.25)
        assert report.passed()
        assert len(report.items) == 1

    def test_combined(self):
        report = verify_family_extremes("combined", 9, 3, 0.25)
        assert report.passed()
        assert report.items[-1].label == "infty:1,1,6"
        assert report.items[0].label == "theta:0,1,1;5"

    def test_theta_40_4_at_095_certifies_every_member(self):
        # 5766 members whose Perron entries span up to 63 decades; from the
        # flat start ten of them stalled and raised ConvergenceError.  The
        # minimum pair is left to deflated roots; no verdict may fail
        report = verify_family_extremes("theta", 40, 4, 0.95)
        status = {v.claim.split()[1]: v.status for v in report.verdicts}
        assert status["maximum"] == "pass"
        assert "fail" not in status.values()
        assert len(report.items) == 5766 and max(it.hi - it.lo for it in report.items) <= 1e-12

    def test_bicyclic_needs_n5(self):
        with pytest.raises(InfeasibleError):
            verify_family_extremes("bicyclic", 4, 2, 0.0)

    def test_unknown_family(self):
        with pytest.raises(InvalidParamsError, match="unknown family campaign 'foo'"):
            verify_family_extremes("foo", 5, 2, 0.0)

    @pytest.mark.parametrize("family", ["cycle", "complete", "kpq", "bip1", "gprime", "Theta", "infty ", ""])
    def test_other_names_rejected_before_any_claim_table(self, family, monkeypatch):
        # _expected_extremes reads every name but infty as theta, so the
        # campaign's own check must turn the rest away first
        def unreachable(*args):
            raise AssertionError(f"{family!r} got past the family-name check")

        monkeypatch.setattr(campaigns, "_expected_extremes", unreachable)
        monkeypatch.setattr(campaigns, "list_compositions", unreachable)
        with pytest.raises(InvalidParamsError, match=re.escape(f"unknown family campaign {family!r}")):
            verify_family_extremes(family, 8, 2, 0.0)


class TestGlobalMinima:
    def test_low_alpha_passes(self):
        for alpha in (0.0, 0.5):
            report = verify_global_minima(5, alpha)
            assert report.passed()
            assert all(v.status == "pass" for v in report.verdicts)

    def test_high_alpha_exploratory(self):
        report = verify_global_minima(5, 0.75)
        assert all(v.status == "exploratory" for v in report.verdicts)
        assert report.passed()

    def test_item_count_is_class_count(self):
        report = verify_global_minima(5, 0.0)
        assert len(report.items) == SC_CLASS_COUNTS[5]

    def test_rank_one_is_cycle_radius_one(self):
        report = verify_global_minima(5, 0.3)
        assert abs(report.items[0].radius - 1.0) <= 1e-9

    def test_rank_one_fails_when_enclosure_misses_one(self, monkeypatch):
        # every radius lifted by 1e-6: the ranks hold, but the cycle's
        # enclosure no longer contains 1
        real = campaigns.spectral_radii

        def lifted(digraphs, alphas, *args):
            return [
                SpectralResult(r.radius + 1e-6, Interval(r.enclosure.lo + 1e-6, r.enclosure.hi + 1e-6),
                               r.perron, r.iterations, r.residual)
                for r in real(digraphs, alphas, *args)
            ]

        monkeypatch.setattr(campaigns, "spectral_radii", lifted)
        v = verify_global_minima(5, 0.3).verdicts[0]
        assert v.status == "fail"
        assert v.detail.endswith("is not 1, gap 1.000e-06")

    def test_ranks_from_masks_without_decoding(self, monkeypatch):
        # no class becomes a Digraph: make_digraph builds only the four
        # claimed members (through generate, for their keys); the one
        # (5048, 5, 5) kernel call is pinned in test_spectral
        built = []
        for mod, name in ((campaigns, "digraphs_from_masks"), (digraph, "make_digraph"), (families, "make_digraph")):
            def counting(*args, fn=getattr(mod, name), name=name):
                built.append(name)
                return fn(*args)

            monkeypatch.setattr(mod, name, counting)
        report = verify_global_minima(5, 0.5)
        assert report.passed()
        assert built == ["make_digraph"] * 4
        want = sorted(CanonicalKey.from_mask(5, m).hex() for m in enumerate_sc_digraphs(5).tolist())
        assert sorted(it.label for it in report.items) == want

    def test_bad_params(self):
        with pytest.raises(TooLargeError):
            verify_global_minima(6, 0.0)
        with pytest.raises(InvalidParamsError):
            verify_global_minima(4, 0.0)


class TestBipartiteMinimum:
    def test_enumeration_branch(self):
        report = verify_bipartite_minimum(5, 2, 2, 0.3)
        assert report.passed()
        uniq = [v for v in report.verdicts if "unique bipartite minimum" in v.claim]
        assert len(uniq) == 1 and uniq[0].status == "pass"

    def test_even_tie_at_alpha_zero(self):
        report = verify_bipartite_minimum(8, 2, 2, 0.0)
        assert report.passed()
        tie = [v for v in report.verdicts if "B6 = B5" in v.claim]
        assert tie and tie[0].status == "pass"

    def test_odd_chain_with_cross_links(self):
        report = verify_bipartite_minimum(8, 3, 2, 0.5)
        assert report.passed()
        claims = " | ".join(v.claim for v in report.verdicts)
        assert "B5 at n-1 > B1 at n" in claims
        assert "B6 > B5 at n-1" in claims

    def test_invalid_params(self):
        with pytest.raises(InvalidParamsError):
            verify_bipartite_minimum(5, 2, 1, 0.0)
        with pytest.raises(InvalidParamsError):
            verify_bipartite_minimum(4, 2, 2, 0.0)


class TestTransformLemmas:
    def test_small_run_clean(self):
        report = verify_transform_lemmas(30, seed=11)
        assert report.passed()
        by_name = {v.claim: v for v in report.verdicts}
        assert set(by_name) == {
            "subdigraph lemma",
            "subdivision lemma",
            "retarget lemma",
            "perron-order lemma",
        }
        for v in report.verdicts:
            assert v.status == "pass"
            assert "instances checked" in v.detail

    def test_cycle_subdivision_skipped(self):
        report = verify_transform_lemmas(1, seed=1)
        sub = next(v for v in report.verdicts if v.claim == "subdivision lemma")
        assert "skipped" in sub.detail  # the fleet contains a pure cycle

    def test_seed_reproducible(self):
        a = verify_transform_lemmas(10, seed=5)
        b = verify_transform_lemmas(10, seed=5)
        assert [(i.label, i.radius) for i in a.items] == [(i.label, i.radius) for i in b.items]
        assert [(v.claim, v.status, v.detail) for v in a.verdicts] == [
            (v.claim, v.status, v.detail) for v in b.verdicts
        ]

    def test_bad_trials(self):
        with pytest.raises(InvalidParamsError):
            verify_transform_lemmas(0, seed=1)

    def test_negative_seed(self):
        with pytest.raises(InvalidParamsError, match="seed must be non-negative, got -1"):
            verify_transform_lemmas(1, seed=-1)

    def test_bases_drawn_first_and_solved_as_alone(self):
        # every random base comes from the stream before any transform draw,
        # and its batched result is bit-identical to a solve on its own
        trials, seed = 12, 4
        report = verify_transform_lemmas(trials, seed)
        rng = np.random.default_rng(seed)
        bases = []
        for t in range(trials):
            n = int(rng.integers(2, 9))
            alpha = float(rng.choice(campaigns.ALPHA_CHOICES))
            bases.append((f"random-n{n}-t{t}", alpha, random_sc_digraph(rng, n)))
        for spec in campaigns._lemma_fleet():
            bases += [(format_spec(spec), alpha, generate(spec)) for alpha in (0.0, 0.5)]
        assert len(report.items) == len(bases)
        for item, (label, alpha, d) in zip(report.items, bases):
            alone = spectral_radius(d, alpha)
            assert (item.label, item.alpha) == (label, alpha)
            assert (item.radius, item.lo, item.hi) == (alone.radius, *alone.enclosure)

    def test_two_batched_solves(self, monkeypatch):
        batches = []  # per spectral_radii call: (vertex counts, kernel stack shapes)
        real_radii, real_kernel = campaigns.spectral_radii, _backend.power_iteration

        def radii(digraphs, alphas, *args):
            batches.append(([d.n for d in digraphs], []))
            return real_radii(digraphs, alphas, *args)

        def kernel(m, x, tol, max_iter):
            batches[-1][1].append(m.shape)
            return real_kernel(m, x, tol, max_iter)

        def one_digraph(*args):
            raise AssertionError("one-digraph solve in the lemma fuzz")

        monkeypatch.setattr(campaigns, "spectral_radii", radii)
        monkeypatch.setattr(_backend, "power_iteration", kernel)
        monkeypatch.setattr(spectral, "spectral_radius", one_digraph)
        assert not hasattr(campaigns, "spectral_radius")
        report = verify_transform_lemmas(30, seed=11)
        assert report.passed()
        assert len(batches) == 2
        assert len(batches[0][0]) == len(report.items)
        for sizes, shapes in batches:
            kernel_ns = [shape[1] for shape in shapes]
            assert sorted(kernel_ns) == sorted(set(sizes))
            assert sum(shape[0] for shape in shapes) == len(sizes)

    def test_subdivision_violation_reported(self, monkeypatch):
        # Each subdivided digraph gets its base's result lifted by 5e-10:
        # the enclosures separate, so the claim base >= subdivided fails
        # under judge_claim however small the lift.
        # The derived digraphs are solved in one batch call, so that call
        # is patched.
        lift = 5e-10
        subdivided = {}  # id -> (subdivided, base, arc); keeps ids unique
        seen = []
        real_subdivide, real_radii = campaigns.subdivide_arc, campaigns.spectral_radii

        def subdivide(d, arc):
            out = real_subdivide(d, arc)
            subdivided[id(out)] = (out, d, arc)
            return out

        def lifted(d, alpha, *args):
            _, base, arc = subdivided[id(d)]
            seen.append((base, arc, alpha))
            r = real_radii([base], [alpha], *args)[0]
            lo, hi = r.enclosure
            return SpectralResult(r.radius + lift, Interval(lo + lift, hi + lift), r.perron, r.iterations, r.residual)

        def radii(digraphs, alphas, *args):
            real = real_radii(digraphs, alphas, *args)
            return [
                lifted(d, alpha, *args) if id(d) in subdivided else res
                for d, alpha, res in zip(digraphs, alphas, real)
            ]

        monkeypatch.setattr(campaigns, "subdivide_arc", subdivide)
        monkeypatch.setattr(campaigns, "spectral_radii", radii)
        report = verify_transform_lemmas(1, seed=3)
        by_name = {v.claim: v for v in report.verdicts}
        sub = by_name.pop("subdivision lemma")
        assert sub.status == "fail"
        base, arc, alpha = seen[0]
        assert f"; violations: random-n{base.n}-t0 arc {arc} alpha={alpha}; " in sub.detail
        assert all(v.status == "pass" for v in by_name.values())

    def test_perron_order_violation_reported(self, monkeypatch):
        # The bases' Perron vectors are replaced by one that falls by 1 per
        # out-arc and rises by 1e-3 per label: of a nested pair the larger
        # out-neighbourhood gets the smaller entry, and an equal pair is
        # split.  The bases are the first of the two batch calls.
        real_radii = campaigns.spectral_radii
        calls = []

        def radii(digraphs, alphas, *args):
            real = real_radii(digraphs, alphas, *args)
            calls.append(len(digraphs))
            if len(calls) > 1:
                return real
            return [
                dataclasses.replace(r, perron=np.array([1e-3 * v - m.bit_count() for v, m in enumerate(d.out_masks)]))
                for d, r in zip(digraphs, real)
            ]

        monkeypatch.setattr(campaigns, "spectral_radii", radii)
        report = verify_transform_lemmas(1, seed=3)
        order = next(v for v in report.verdicts if v.claim == "perron-order lemma")
        assert order.status == "fail"
        assert re.search(r"; violations: \S+ nested-nbhd \d+,\d+ alpha=0\.0; ", order.detail), order.detail
        assert re.search(r"; \S+ equal-nbhd \d+,\d+ alpha=0\.", order.detail), order.detail
        assert len(calls) == 2


def per_pair_sc_digraph(rng, n):
    """The sampler as one scalar draw per ordered pair: the oracle for the
    one-call draw of :func:`random_sc_digraph`."""
    for _ in range(100_000):
        arcs = [
            (i, j)
            for i in range(n)
            for j in range(n)
            if i != j and rng.random() < campaigns.ARC_DENSITY
        ]
        d = make_digraph(n, arcs)
        if is_strongly_connected(d):
            return d
    raise RuntimeError("rejection sampling failed to find a strongly connected digraph")


def toggle_deletable_arcs(d):
    """Per-arc oracle for ``campaigns._deletable_arcs``: delete one arc and
    run the reachability-from-every-vertex check."""
    return [arc for arc in d.arcs if is_strongly_connected_bfs(delete_arc(d, arc))]


def lemma_bases(seed, per_n=6):
    """Seeded random bases for n = 2..8, in a shuffled vertex-count order,
    then every fleet digraph."""
    rng = np.random.default_rng(seed)
    ns = rng.permutation(np.repeat(np.arange(2, 9), per_n)).tolist()
    return [random_sc_digraph(rng, n) for n in ns] + [generate(spec) for spec in campaigns._lemma_fleet()]


class TestDeletableArcs:
    def test_matches_per_arc_toggle_oracle(self):
        for seed in range(4):
            bases = lemma_bases(seed)
            # the same masks in fresh values, whose arcs were never read
            fresh = [digraph.Digraph(d.n, d.out_masks) for d in bases]
            assert not any("arcs" in vars(d) for d in fresh)
            got = campaigns._deletable_arcs(fresh)
            want = [toggle_deletable_arcs(d) for d in bases]
            assert got == want, seed
            assert campaigns._deletable_arcs(bases) == want, seed
            assert any(want) and not all(want)
            # violation texts format them as arc (i, j)
            assert all(type(arc) is tuple and [type(v) for v in arc] == [int, int] for arcs in got for arc in arcs)

    def test_cycles_keep_none_complete_digraphs_every_arc(self):
        cycles = [generate(FamilySpec.cycle(n)) for n in range(2, 9)]
        complete = [generate(FamilySpec.complete(n)) for n in range(3, 9)]
        got = campaigns._deletable_arcs(cycles + complete)
        assert got == [[] for _ in cycles] + [list(d.arcs) for d in complete]
        # one base per vertex count: groups where no row stays strong, the
        # arcless n = 1 digraph, and a group where every row does
        one = make_digraph(1, [])
        assert campaigns._deletable_arcs([*cycles, one]) == [[] for _ in range(len(cycles) + 1)]
        assert campaigns._deletable_arcs([complete[0]]) == [list(complete[0].arcs)]


def lemma_base_triples(seed):
    """``lemma_bases(seed)`` as ``(digraph, alpha, label)`` bases, alphas
    cycling through ``ALPHA_CHOICES``, and their results."""
    digraphs = lemma_bases(seed)
    alphas = [campaigns.ALPHA_CHOICES[k % len(campaigns.ALPHA_CHOICES)] for k in range(len(digraphs))]
    bases = [(d, alpha, f"base{k}") for k, (d, alpha) in enumerate(zip(digraphs, alphas))]
    return bases, spectral.spectral_radii(digraphs, alphas)


def forced_perron(bases, results):
    """The results with the Perron vectors of
    ``test_perron_order_violation_reported``: falling by 1 per out-arc and
    rising by 1e-3 per label."""
    return [dataclasses.replace(r, perron=np.array([1e-3 * v - m.bit_count() for v, m in enumerate(d.out_masks)]))
            for (d, _, _), r in zip(bases, results)]


class TestPerronOrder:
    def test_matches_per_pair_oracle(self):
        for seed in range(4):
            bases, results = lemma_base_triples(seed)
            want = perron_order_per_pair(bases, results)
            assert campaigns._perron_order(bases, results) == want, seed
            assert want[0] > 0

    def test_forced_violations_match_oracle_in_base_order(self):
        for seed in range(4):
            bases, results = lemma_base_triples(seed)
            forced = forced_perron(bases, results)
            count, texts = perron_order_per_pair(bases, forced)
            assert campaigns._perron_order(bases, forced) == (count, texts), seed
            assert any(" equal-nbhd " in t for t in texts) and any(" nested-nbhd " in t for t in texts)
            # the bases come in a shuffled vertex-count order and a later
            # base has an earlier pair, so neither a per-count concatenation
            # nor an (i, j) order matches
            keys = [tuple(map(int, re.search(r"^base(\d+) \S+ (\d+),(\d+) ", t).groups())) for t in texts]
            assert keys == sorted(keys)
            assert sorted(keys, key=lambda k: (k[1], k[2], k[0])) != keys
            assert [bases[k][0].n for k, _, _ in keys] != sorted(bases[k][0].n for k, _, _ in keys)


def assert_digraph_invariant(d):
    """d is what make_digraph builds from its own arcs, with Python ints."""
    assert d == make_digraph(d.n, d.arcs)
    assert all(type(v) is int for arc in d.arcs for v in arc)


class TestDirectlyBuiltDigraphs:
    """Digraphs built without make_digraph keep the Digraph invariant and
    equal the make_digraph build of the same arcs."""

    def test_subdivide_every_arc(self):
        for d in lemma_bases(5, per_n=3):
            w = d.n
            for i, j in d.arcs:
                grown = subdivide_arc(d, (i, j))
                assert_digraph_invariant(grown)
                rest = [a for a in d.arcs if a != (i, j)]
                assert grown == make_digraph(w + 1, rest + [(i, w), (w, j)])

    def test_delete_each_deletable_arc(self):
        bases = lemma_bases(6, per_n=3)
        for d, arcs in zip(bases, campaigns._deletable_arcs(bases)):
            for arc in arcs:
                sub = delete_arc(d, arc)
                assert_digraph_invariant(sub)
                assert sub == make_digraph(d.n, [a for a in d.arcs if a != arc])
                assert is_strongly_connected(sub)

    def test_delete_missing_arc(self):
        with pytest.raises(MissingArcError):
            delete_arc(generate(FamilySpec.cycle(4)), (0, 2))

    def test_random_sc_digraph(self):
        for seed in range(10):
            rng = np.random.default_rng(seed)
            for n in range(2, 9):
                assert_digraph_invariant(random_sc_digraph(rng, n))


class TestRetargetMoves:
    def test_queued_moves_equal_retarget_in_arcs(self, monkeypatch):
        """check_base builds each retarget move with retarget_in_arcs.  The
        moves that stay strongly connected, by the BFS oracle, are exactly
        the queued retarget digraphs, in order, and the verdict counts them
        as checked; the others are the verdict's skipped count."""
        solve, retarget = campaigns.spectral_radii, campaigns.retarget_in_arcs
        for seed in range(8):
            batches, moves = [], []

            def spy_solve(digraphs, alphas):
                batches.append(list(digraphs))
                return solve(digraphs, alphas)

            def spy_retarget(*args):
                moves.append(retarget(*args))
                return moves[-1]

            monkeypatch.setattr(campaigns, "spectral_radii", spy_solve)
            monkeypatch.setattr(campaigns, "retarget_in_arcs", spy_retarget)
            report = verify_transform_lemmas(100, seed)
            strong = [m for m in moves if is_strongly_connected_bfs(m)]
            queued = [d for d in batches[1] if any(d is m for m in moves)]
            assert [id(d) for d in queued] == [id(m) for m in strong], seed
            skipped = len(moves) - len(strong)
            detail = next(v.detail for v in report.verdicts if v.claim == "retarget lemma")
            want = f"{len(strong)} instances checked"
            if skipped:
                want += f"; {skipped} skipped (retarget-disconnected)"
            assert strong and detail.split("; violations")[0] == want, seed


class TestRandomScDigraph:
    def test_always_strongly_connected(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            d = random_sc_digraph(rng, int(rng.integers(2, 9)))
            assert is_strongly_connected(d)

    def test_same_stream_as_per_pair_draws(self):
        for seed in range(10):
            for n in range(2, 9):
                ours, oracle = np.random.default_rng(seed), np.random.default_rng(seed)
                assert random_sc_digraph(ours, n) == per_pair_sc_digraph(oracle, n), (seed, n)
                assert ours.bit_generator.state == oracle.bit_generator.state, (seed, n)


class TestReports:
    def test_json_shape(self):
        report = verify_family_extremes("infty", 6, 2, 0.25)
        data = json.loads(report.to_json())
        assert set(data) == {"campaign", "alpha_grid", "items", "verdicts", "runtime_s"}
        assert data["alpha_grid"] == [0.25]
        for item in data["items"]:
            assert set(item) == {"label", "alpha", "radius", "lo", "hi"}
            assert item["lo"] <= item["radius"] <= item["hi"]
        for verdict in data["verdicts"]:
            assert set(verdict) == {"claim", "status", "detail"}

    def test_csv_shape(self):
        report = verify_family_extremes("theta", 7, 2, 0.0)
        lines = report.to_csv().splitlines()
        assert lines[0] == "spec,alpha,radius,lo,hi"
        assert len(lines) == len(report.items) + 1

    def test_csv_quotes_spec_commas(self):
        import csv as csvmod
        import io

        report = verify_family_extremes("infty", 6, 3, 0.0)
        rows = list(csvmod.reader(io.StringIO(report.to_csv())))
        assert rows[1][0].startswith("infty:")
        assert len(rows[1]) == 5

    def test_to_json_matches_asdict(self):
        # the asdict serializer the report used to call is the oracle
        reports = [
            verify_family_extremes("infty", 6, 2, 0.5),
            verify_family_extremes("bicyclic", 6, 2, 0.9),
            verify_global_minima(5, 0.5),
            verify_bipartite_minimum(5, 2, 2, 0.5),
            verify_transform_lemmas(10, seed=2),
            merge_reports("family-extremes", [verify_family_extremes("theta", 6, 3, a) for a in (0.0, 0.5)]),
        ]
        for report in reports:
            assert report.to_json() == json.dumps(dataclasses.asdict(report), indent=2), report.campaign

    def test_merge(self):
        a = verify_family_extremes("infty", 6, 2, 0.0)
        b = verify_family_extremes("infty", 6, 2, 0.5)
        merged = merge_reports("family-extremes", [a, b])
        assert merged.alpha_grid == [0.0, 0.5]
        assert len(merged.items) == len(a.items) + len(b.items)

    def test_bitwise_reproducible(self):
        a = verify_family_extremes("bicyclic", 7, 2, 0.25)
        b = verify_family_extremes("bicyclic", 7, 2, 0.25)
        assert [i.radius for i in a.items] == [i.radius for i in b.items]
        assert [i.lo for i in a.items] == [i.lo for i in b.items]
        assert [(v.claim, v.status) for v in a.verdicts] == [
            (v.claim, v.status) for v in b.verdicts
        ]

    def test_rerun_from_serialized_specs(self):
        # a report rebuilt from its own item labels reproduces the verdicts
        from alphaspectra.families import parse_spec

        report = verify_family_extremes("infty", 8, 2, 0.5)
        labels = [it.label for it in report.items]
        radii = {}
        for label in labels:
            res = spectral_radius(generate(parse_spec(label)), 0.5)
            radii[label] = res.radius
        for item in report.items:
            assert radii[item.label] == item.radius


class TestDecideOrder:
    def test_certified_and_margin(self):
        a = spectral_radius(generate(FamilySpec.cycle(5)), 0.0)
        b = spectral_radius(generate(FamilySpec.complete(4)), 0.0)
        assert decide_order(a, b) == -1
        assert decide_order(b, a) == 1
        assert decide_order(a, a) is None

    def test_overlap_is_unordered_whatever_the_midpoints(self):
        # midpoints 2e-9 apart, but the enclosures overlap: no order
        a, b = fake(1.0, 2e-9), fake(1.0 + 2e-9, 2e-9)
        assert decide_order(a, b) is None
        assert decide_order(b, a) is None


def fake(radius, half=0.0):
    """Hand-built result with enclosure radius +- half."""
    return SpectralResult(radius, Interval(radius - half, radius + half), np.ones(1), 0, 0.0)


# (a, b) pairs: a certified above b, a certified below b, and a pair whose
# enclosures overlap
ABOVE = (fake(2.0), fake(1.0))
BELOW = (fake(1.0), fake(2.0))
CLOSE = (fake(1.0 + 5e-10, 1e-9), fake(1.0, 1e-9))


class TestJudgeClaim:
    @pytest.mark.parametrize(
        "relation, pair, status",
        [
            (">", ABOVE, "pass"),
            (">", BELOW, "fail"),
            (">", CLOSE, "indistinguishable"),
            (">=", ABOVE, "pass"),
            (">=", BELOW, "fail"),
            (">=", CLOSE, "pass"),
            ("=", (fake(1.5), fake(1.5)), "pass"),
            ("=", ABOVE, "fail"),
            ("=", CLOSE, "pass"),
        ],
    )
    def test_statuses(self, relation, pair, status):
        a, b = pair
        v = judge_claim("claim", a, relation, b)
        assert (v.claim, v.status) == ("claim", status)
        assert v.detail == f"gap {abs(a.radius - b.radius):.3e}"

    def test_disjoint_enclosures_refute_equality(self):
        # zero-width enclosures 5e-11 apart: a is certified below b
        a, b = fake(1.0), fake(1.0 + 5e-11)
        assert decide_order(a, b) == -1
        assert judge_claim("c", a, ">=", b).status == "fail"
        assert judge_claim("c", a, "=", b).status == "fail"
        assert judge_claim("c", a, ">", b).status == "fail"

    def test_unknown_relation(self):
        with pytest.raises(InvalidParamsError):
            judge_claim("c", fake(2.0), "<", fake(1.0))


class TestClaimStatus:
    @pytest.mark.parametrize("relation", [">", ">=", "="])
    @pytest.mark.parametrize("pair", [ABOVE, BELOW, CLOSE], ids=["above", "below", "close"])
    def test_is_judge_claim_status(self, relation, pair):
        a, b = pair
        assert claim_status(a, relation, b) == judge_claim("c", a, relation, b).status

    @pytest.mark.parametrize("relation", ["<", "<=", "==", ""])
    def test_unknown_relation(self, relation):
        with pytest.raises(InvalidParamsError, match=re.escape(f"unknown relation {relation!r}")):
            claim_status(fake(2.0), relation, fake(1.0))


class TestJudgeRank:
    RANKED = [("a", fake(1.0)), ("b", fake(1.5)), ("c", fake(1.5 + 5e-10, 1e-9))]

    def test_pass_against_next_rank(self):
        v = judge_rank("claim", self.RANKED, 0, "a", "A")
        assert (v.claim, v.status, v.detail) == ("claim", "pass", "A vs b gap 5.000e-01")

    def test_wrong_label(self):
        v = judge_rank("claim", self.RANKED, 0, "b", "B")
        assert (v.status, v.detail) == ("fail", "expected B, found a")

    def test_single_member(self):
        v = judge_rank("claim", self.RANKED[:1], 0, "a", "A")
        assert (v.status, v.detail) == ("pass", "single member, trivially extremal")

    def test_overlapping_neighbour(self):
        v = judge_rank("claim", self.RANKED, 1, "b", "B")
        assert v.status == "indistinguishable"
        assert v.detail == "B vs c gap 5.000e-10"

    def test_last_rank_uses_previous_neighbour(self):
        assert judge_rank("claim", self.RANKED, 2, "c", "C").status == "indistinguishable"
        assert judge_rank("claim", self.RANKED[:2], 1, "b", "B").detail == "B vs a gap 5.000e-01"

    # a and b overlap, c is certified above both
    TIED = [("a", fake(1.0, 1e-9)), ("b", fake(1.0 + 5e-10, 1e-9)), ("c", fake(2.0))]

    def test_overlap_only_misorder_is_indistinguishable(self):
        # the midpoints put a at rank 0, but nothing is certified below b
        v = judge_rank("claim", self.TIED, 0, "b", "B")
        assert (v.status, v.detail) == ("indistinguishable", "B vs a gap 5.000e-10")
        assert judge_rank("claim", self.TIED, 1, "a", "A").status == "indistinguishable"

    def test_certified_counter_member_fails(self):
        # two members certified below c, which cannot then be rank 0 or 1
        v = judge_rank("claim", self.TIED, 0, "c", "C")
        assert (v.status, v.detail) == ("fail", "expected C, found b")
        assert judge_rank("claim", self.TIED, 1, "c", "C").status == "fail"
        # c is certified above a, which cannot then be the maximum
        v = judge_rank("claim", self.TIED, 2, "a", "A")
        assert (v.status, v.detail) == ("fail", "expected A, found c")

    def test_unranked_label_fails(self):
        v = judge_rank("claim", self.TIED, 0, "d", "D")
        assert (v.status, v.detail) == ("fail", "expected D, not among the ranked members")
