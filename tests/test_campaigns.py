import hashlib
import itertools
import json
from collections import deque

import numpy as np
import pytest

from alphaspectra import campaigns
from alphaspectra.campaigns import (
    EQUALITY_TOL,
    SC_CLASS_COUNTS,
    SC_LABELED_COUNTS,
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
from alphaspectra.digraph import canonical_key, is_strongly_connected, make_digraph
from alphaspectra.errors import InfeasibleError, InvalidParamsError, TooLargeError
from alphaspectra.families import FamilySpec, generate, list_bicyclic
from alphaspectra.spectral import Interval, SpectralResult, spectral_radius


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
        text = "\n".join(f"{key.hex()} {d.arcs}" for d, key in enumerate_sc_digraphs(n))
        assert hashlib.sha256(text.encode()).hexdigest() == digest

    def test_all_strongly_connected_and_distinct(self):
        classes = enumerate_sc_digraphs(4)
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
            enumerated = {key for d, key in enumerate_sc_digraphs(n) if len(d.arcs) == n + 1}
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

    def test_bicyclic_needs_n5(self):
        with pytest.raises(InfeasibleError):
            verify_family_extremes("bicyclic", 4, 2, 0.0)


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

    def test_bad_trials(self):
        with pytest.raises(InvalidParamsError):
            verify_transform_lemmas(0, seed=1)

    def test_subdivision_violation_reported(self, monkeypatch):
        # Each subdivided digraph gets its base's result lifted by 5e-10:
        # the enclosures separate, so the claim base >= subdivided fails
        # under judge_claim although the lift is inside DECISION_MARGIN.
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


def fake(radius, half=0.0):
    """Hand-built result with enclosure radius +- half."""
    return SpectralResult(radius, Interval(radius - half, radius + half), np.ones(1), 0, 0.0)


# (a, b) pairs: a certified above b, a certified below b, and a pair whose
# enclosures overlap with a midpoint gap inside the decision margin
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
            (">=", CLOSE, "indistinguishable"),
            ("=", (fake(1.5), fake(1.5)), "pass"),
            ("=", ABOVE, "fail"),
            ("=", CLOSE, "indistinguishable"),
        ],
    )
    def test_statuses(self, relation, pair, status):
        a, b = pair
        v = judge_claim("claim", a, relation, b)
        assert (v.claim, v.status) == ("claim", status)
        assert v.detail == f"gap {abs(a.radius - b.radius):.3e}"

    def test_weak_and_equal_hold_within_equality_tol(self):
        # disjoint enclosures put a below b, but the gap is inside EQUALITY_TOL
        a, b = fake(1.0), fake(1.0 + EQUALITY_TOL / 2)
        assert decide_order(a, b) == -1
        assert judge_claim("c", a, ">=", b).status == "pass"
        assert judge_claim("c", a, "=", b).status == "pass"
        assert judge_claim("c", a, ">", b).status == "fail"

    def test_unknown_relation(self):
        with pytest.raises(InvalidParamsError):
            judge_claim("c", fake(2.0), "<", fake(1.0))


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
