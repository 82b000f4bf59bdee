import itertools
import time

import numpy as np
import pytest

from alphaspectra.campaigns import enumerate_sc_digraphs
from alphaspectra.digraph import (
    canonical_key,
    delete_arc,
    digraphs_from_masks,
    from_dgr1,
    is_strongly_connected,
    make_digraph,
    masks_bipartite_kpq,
    out_degrees,
    read_dgr1,
    retarget_in_arcs,
    subdivide_arc,
    to_dgr1,
)
from alphaspectra.errors import (
    DuplicateArcError,
    LoopArcError,
    MissingArcError,
    NotStronglyConnectedError,
    OutOfRangeError,
    ParseError,
    PreconditionError,
    TooLargeError,
)
from alphaspectra.families import FamilySpec, generate
from oracles import bipartition, contains_bidirected_kpq, is_strongly_connected_bfs


def cycle(n):
    return make_digraph(n, [(i, (i + 1) % n) for i in range(n)])


def random_digraph(rng, n, density=0.4):
    arcs = [(i, j) for i in range(n) for j in range(n) if i != j and rng.random() < density]
    return make_digraph(n, arcs)


def brute_force_key(d):
    """Least row-major adjacency bitstring over every relabeling, as the
    key's left-aligned bytes."""
    n, arcs = d.n, frozenset(d.arcs)
    bits = min(
        "".join("1" if (tau[a], tau[b]) in arcs else "0" for a in range(n) for b in range(n))
        for tau in itertools.permutations(range(n))
    )
    nbytes = (n * n + 7) // 8
    return int(bits.ljust(8 * nbytes, "0"), 2).to_bytes(nbytes, "big")


class TestMakeDigraph:
    def test_triangle(self):
        d = make_digraph(3, [(0, 1), (1, 2), (2, 0)])
        assert d.n == 3
        assert d.arcs == ((0, 1), (1, 2), (2, 0))

    def test_loop_rejected(self):
        with pytest.raises(LoopArcError):
            make_digraph(2, [(0, 0)])

    def test_duplicate_rejected(self):
        with pytest.raises(DuplicateArcError):
            make_digraph(3, [(0, 1), (0, 1)])

    def test_out_of_range(self):
        with pytest.raises(OutOfRangeError):
            make_digraph(3, [(0, 3)])
        with pytest.raises(OutOfRangeError):
            make_digraph(0, [])

    def test_arcs_sorted(self):
        d = make_digraph(3, [(2, 0), (0, 1), (1, 2)])
        assert d.arcs == ((0, 1), (1, 2), (2, 0))

    def test_numpy_endpoints_give_python_int_masks(self):
        # int64 endpoints would shift into int64 masks and overflow past 63
        arcs = [(i, (i + 1) % 70) for i in range(70)] + [(0, 65)]
        d = make_digraph(70, np.array(arcs, dtype=np.int64))
        assert d == make_digraph(70, arcs)
        assert all(type(m) is int for m in d.out_masks)


class TestStrongConnectivity:
    def test_cycles(self):
        for n in range(2, 9):
            assert is_strongly_connected(cycle(n))

    def test_path_not_sc(self):
        d = make_digraph(3, [(0, 1), (1, 2)])
        assert not is_strongly_connected(d)

    def test_single_vertex(self):
        assert is_strongly_connected(make_digraph(1, []))

    def test_b1_example(self):
        d = generate(FamilySpec.bip(1, 5, 2, 2))
        assert is_strongly_connected(d)
        assert is_strongly_connected_bfs(d)

    def test_zero_degree_vertex(self):
        # any vertex without in- or out-arcs kills strong connectivity
        d = make_digraph(3, [(0, 1), (1, 0)])
        assert not is_strongly_connected(d)

    def test_sink_source_and_disjoint_cycles(self):
        # a sink or a source ends the check before the sweeps; two disjoint
        # cycles, each vertex with an in- and an out-arc, need n >= 4 and
        # leave it to the sweeps, with or without an arc from one to the other
        for n in range(2, 10):
            complete = generate(FamilySpec.complete(n))
            for v in range(n):
                sink = make_digraph(n, [(i, j) for i, j in complete.arcs if i != v])
                source = make_digraph(n, [(i, j) for i, j in complete.arcs if j != v])
                for d in (sink, source):
                    assert not is_strongly_connected(d) and not is_strongly_connected_bfs(d)
            for k in range(2, n - 1):
                cycles = [(i, (i + 1) % k) for i in range(k)] + [(k + i, k + (i + 1) % (n - k)) for i in range(n - k)]
                for arcs in (cycles, cycles + [(0, k)], cycles + [(k, 0)]):
                    d = make_digraph(n, arcs)
                    assert not is_strongly_connected(d) and not is_strongly_connected_bfs(d)
                assert is_strongly_connected(make_digraph(n, cycles + [(0, k), (k, 0)]))

    def test_matches_bfs_oracle(self):
        rng = np.random.default_rng(42)
        for _ in range(300):
            n = int(rng.integers(2, 8))
            d = random_digraph(rng, n)
            assert is_strongly_connected(d) == is_strongly_connected_bfs(d)
        # every labeled digraph with n <= 4
        for n in range(1, 5):
            pairs = [(i, j) for i in range(n) for j in range(n) if i != j]
            for mask in range(1 << len(pairs)):
                d = make_digraph(n, [pairs[b] for b in range(len(pairs)) if (mask >> b) & 1])
                assert is_strongly_connected(d) == is_strongly_connected_bfs(d)
        # long cycles both ways round, whole and less one arc: on the
        # reversed one the sweep from vertex 0 grows one set by one vertex
        # per pass, and masks pass 64 bits
        for n in range(64, 72):
            for arcs in ([(i, (i + 1) % n) for i in range(n)], [((i + 1) % n, i) for i in range(n)]):
                d = make_digraph(n, arcs)
                assert is_strongly_connected(d) and is_strongly_connected_bfs(d)
                for arc in (arcs[0], arcs[n // 2], arcs[-1]):
                    less = delete_arc(d, arc)
                    assert not is_strongly_connected(less) and not is_strongly_connected_bfs(less)


class TestOutDegrees:
    def test_cycle(self):
        assert out_degrees(cycle(5)) == (1, 1, 1, 1, 1)

    def test_complete(self):
        assert out_degrees(generate(FamilySpec.complete(3))) == (2, 2, 2)

    def test_infty_hub(self):
        d = generate(FamilySpec.infty(1, 1, 1))
        assert out_degrees(d)[0] == 3
        assert sum(out_degrees(d)) == len(d.arcs)


class TestCanonicalKey:
    def test_relabeled_triangle(self):
        d = cycle(3)
        relabeled = make_digraph(3, [(1, 0), (0, 2), (2, 1)])
        assert canonical_key(d) == canonical_key(relabeled)

    def test_distinct_graphs(self):
        assert canonical_key(cycle(3)) != canonical_key(generate(FamilySpec.complete(3)))

    def test_swapped_cycles(self):
        # same hub digraph described with the cycles in either order
        a = make_digraph(4, [(0, 1), (1, 0), (0, 2), (2, 3), (3, 0)])
        b = make_digraph(4, [(0, 1), (1, 2), (2, 0), (0, 3), (3, 0)])
        assert canonical_key(a) == canonical_key(b)

    def test_too_large(self):
        with pytest.raises(TooLargeError):
            canonical_key(cycle(9))

    def test_key_length(self):
        key = canonical_key(cycle(5))
        assert key.n == 5
        assert len(key.bits) == (25 + 7) // 8

    def test_permutation_invariance(self):
        rng = np.random.default_rng(7)
        for _ in range(100):
            n = int(rng.integers(2, 7))
            d = random_digraph(rng, n)
            perm = list(rng.permutation(n))
            relabeled = make_digraph(n, [(perm[i], perm[j]) for i, j in d.arcs])
            assert canonical_key(d) == canonical_key(relabeled)

    def test_matches_brute_force(self):
        rng = np.random.default_rng(11)
        for n in (6, 6, 6, 7, 7, 8):
            d = random_digraph(rng, n, density=float(rng.uniform(0.2, 0.8)))
            assert canonical_key(d).bits == brute_force_key(d)

    def test_complete_8_sets_bit_62(self):
        d = generate(FamilySpec.complete(8))
        key = canonical_key(d)
        assert key.bits == brute_force_key(d)
        # every bit but the diagonal ones, 63 - 9i; the top one is bit 62
        assert int.from_bytes(key.bits, "big") == (1 << 63) - 1 - sum(1 << (63 - 9 * i) for i in range(1, 8))

    def test_second_n8_key_is_fast(self):
        rng = np.random.default_rng(12)
        canonical_key(random_digraph(rng, 8))
        d = random_digraph(rng, 8, density=0.6)
        start = time.perf_counter()
        canonical_key(d)
        assert time.perf_counter() - start < 0.1


class TestSubdivide:
    def test_cycle_grows(self):
        d = subdivide_arc(cycle(3), (0, 1))
        assert d.n == 4
        assert canonical_key(d) == canonical_key(cycle(4))

    def test_infty_lengthens(self):
        d = generate(FamilySpec.infty(1, 1))
        grown = subdivide_arc(d, (0, 2))
        assert canonical_key(grown) == canonical_key(generate(FamilySpec.infty(1, 2)))

    def test_missing_arc(self):
        with pytest.raises(MissingArcError):
            subdivide_arc(cycle(3), (0, 2))

    def test_preserves_connectivity_and_count(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            n = int(rng.integers(2, 7))
            d = random_digraph(rng, n)
            if not is_strongly_connected(d):
                continue
            arc = d.arcs[int(rng.integers(len(d.arcs)))]
            grown = subdivide_arc(d, arc)
            assert len(grown.arcs) == len(d.arcs) + 1
            assert is_strongly_connected(grown)


class TestRetarget:
    def test_cycle_example(self):
        d = cycle(4)
        moved = retarget_in_arcs(d, {3}, 0, 1)
        assert frozenset(moved.arcs) == frozenset([(0, 1), (1, 2), (2, 3), (3, 1)])
        assert not is_strongly_connected(moved)

    def test_empty_sources_identity(self):
        d = cycle(4)
        assert retarget_in_arcs(d, set(), 0, 1) is d

    def test_source_already_at_q(self):
        d = make_digraph(3, [(0, 1), (0, 2), (1, 0), (2, 0)])
        with pytest.raises(PreconditionError):
            retarget_in_arcs(d, {0}, 1, 2)

    def test_source_without_arc_to_p(self):
        with pytest.raises(PreconditionError):
            retarget_in_arcs(cycle(4), {1}, 0, 2)

    @pytest.mark.parametrize(
        "sources, p, q, error, message",
        [
            ({3}, 0, 0, PreconditionError, "p and q must differ"),
            ({3}, 0, 4, OutOfRangeError, "vertex 4 outside 0..3"),
            ({5}, 0, 1, OutOfRangeError, "source 5 outside 0..3"),
            ({1}, 2, 1, PreconditionError, "source 1 equals the new head q"),
        ],
    )
    def test_rejected_move(self, sources, p, q, error, message):
        with pytest.raises(error, match=f"^{message}$"):
            retarget_in_arcs(cycle(4), sources, p, q)

    def test_preserves_counts(self):
        d = generate(FamilySpec.infty(1, 3))
        moved = retarget_in_arcs(d, {1}, 0, 2)
        assert len(moved.arcs) == len(d.arcs)
        assert out_degrees(moved)[1] == out_degrees(d)[1]


class TestBipartition:
    def test_even_cycle(self):
        assert bipartition(cycle(4)) == (frozenset({0, 2}), frozenset({1, 3}))

    def test_odd_cycle(self):
        assert bipartition(cycle(3)) is None

    def test_needs_strong_connectivity(self):
        with pytest.raises(NotStronglyConnectedError):
            bipartition(make_digraph(2, [(0, 1)]))

    def test_b5_parts(self):
        parts = bipartition(generate(FamilySpec.bip(5, 6, 2, 2)))
        assert parts is not None
        assert sorted(map(len, parts)) == [3, 3]

    def test_against_bruteforce_two_coloring(self):
        # independent oracle: try every coloring of the undirected support
        rng = np.random.default_rng(3)
        for _ in range(60):
            n = int(rng.integers(2, 7))
            d = random_digraph(rng, n, density=0.5)
            if not is_strongly_connected(d):
                continue
            expected = False
            for colors in itertools.product((0, 1), repeat=n):
                if all(colors[i] != colors[j] for i, j in d.arcs):
                    expected = True
                    break
            assert (bipartition(d) is not None) == expected


class TestContainsKpq:
    def test_identity(self):
        assert contains_bidirected_kpq(generate(FamilySpec.kpq(2, 2)), 2, 2)

    def test_cycle_has_none(self):
        assert not contains_bidirected_kpq(cycle(6), 2, 2)

    def test_b1_contains(self):
        assert contains_bidirected_kpq(generate(FamilySpec.bip(1, 5, 2, 2)), 2, 2)

    def test_asymmetric_sizes(self):
        d = generate(FamilySpec.kpq(3, 2))
        assert contains_bidirected_kpq(d, 2, 3)
        assert contains_bidirected_kpq(d, 3, 2)
        assert not contains_bidirected_kpq(d, 3, 3)

    def test_non_bipartite(self):
        d = generate(FamilySpec.complete(5))
        assert contains_bidirected_kpq(d, 2, 3)
        assert not contains_bidirected_kpq(d, 3, 3)
        # K_{2,2} plus a one-way arc inside a part: odd cycle, no K_{1,3}
        k22 = generate(FamilySpec.kpq(2, 2))
        d = make_digraph(4, list(k22.arcs) + [(0, 1)])
        assert bipartition(d) is None
        assert contains_bidirected_kpq(d, 2, 2)
        assert not contains_bidirected_kpq(d, 1, 3)

    def test_too_large(self):
        with pytest.raises(TooLargeError):
            contains_bidirected_kpq(cycle(11), 2, 2)

    def test_part_sizes_at_least_one(self):
        for p, q in ((0, 2), (2, 0)):
            with pytest.raises(OutOfRangeError, match="part sizes must be at least 1"):
                contains_bidirected_kpq(cycle(4), p, q)


class TestMasksBipartiteKpq:
    def test_matches_oracles_on_every_class(self):
        # both directions of every cross cell, all of them, and the split
        # test: a filter missing any of the three disagrees somewhere here
        for n in range(2, 6):
            masks = enumerate_sc_digraphs(n)
            digraphs = digraphs_from_masks(masks, n)
            bipartite = [bipartition(d) is not None for d in digraphs]
            for p in range(1, n):
                for q in range(1, n - p + 1):
                    want = [b and contains_bidirected_kpq(d, p, q) for b, d in zip(bipartite, digraphs)]
                    assert masks_bipartite_kpq(masks, n, p, q).tolist() == want, (n, p, q)


class TestDgr1:
    def test_round_trip(self):
        rng = np.random.default_rng(5)
        for _ in range(40):
            n = int(rng.integers(1, 9))
            d = random_digraph(rng, n)
            assert from_dgr1(to_dgr1(d)) == d

    def test_format_exact(self):
        assert to_dgr1(cycle(3)) == "dgr1 3\n0 1\n1 2\n2 0\n"

    @pytest.mark.parametrize(
        "text",
        [
            "",
            "\n",
            "dgr2 3\n",
            "dgr1 x\n",
            "dgr1 3",  # missing newline
            "dgr1 3\n0 1 2\n",
            "dgr1 3\n0 -1\n",
            "dgr1 3\n0 1.5\n",
            "dgr1 0\n",
            "dgr1  3\n",
        ],
    )
    def test_rejects_malformed(self, text):
        with pytest.raises(ParseError):
            from_dgr1(text)

    def test_read_rejects_non_ascii_byte(self, tmp_path):
        path = tmp_path / "bad.dgr"
        path.write_bytes(b"dgr1 3\n0 1\n1 \xc32\n")
        with pytest.raises(ParseError) as err:
            read_dgr1(path)
        assert (err.value.pos, err.value.expected) == (13, "ASCII")

    def test_rejects_bad_arcs(self):
        with pytest.raises(LoopArcError):
            from_dgr1("dgr1 2\n1 1\n")
        with pytest.raises(DuplicateArcError):
            from_dgr1("dgr1 2\n0 1\n0 1\n")
        with pytest.raises(OutOfRangeError):
            from_dgr1("dgr1 2\n0 2\n")
