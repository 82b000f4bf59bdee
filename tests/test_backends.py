"""The numpy kernels against independent pure-Python oracles."""

import itertools
import time

import numpy as np

import alphaspectra as ap
from alphaspectra import _backend
from alphaspectra.campaigns import SC_LABELED_COUNTS, enumerate_sc_digraphs, random_sc_digraph
from alphaspectra.digraph import (
    CanonicalKey,
    _cell_bit,
    _perm_bit_table,
    adjacency_rows_from_masks,
    is_strongly_connected_bfs,
    loop_free_masks,
    make_digraph,
    min_relabeled_mask,
    pack_arcs,
    unpack_arcs,
)
from alphaspectra.families import FamilySpec, generate
from alphaspectra.spectral import build_alpha_matrix


def random_matrices(count, seed):
    rng = np.random.default_rng(seed)
    for _ in range(count):
        d = random_sc_digraph(rng, int(rng.integers(2, 9)))
        alpha = float(rng.uniform(0, 0.95))
        yield build_alpha_matrix(d, alpha)


def brute_min_mask(mask, n):
    """Smallest pack_arcs value over every relabeling of the packed digraph."""
    arcs = unpack_arcs(mask, n)
    return min(
        pack_arcs(make_digraph(n, [(sigma[i], sigma[j]) for i, j in arcs]))
        for sigma in itertools.permutations(range(n))
    )


def sampled_loop_free_masks(n, count, seed):
    """count random loop-free masks on n vertices plus the canonical mask
    of each, so the sample holds canonical masks at any n."""
    rng = np.random.default_rng(seed)
    off_diagonal = sum(1 << _cell_bit(n, i, j) for i in range(n) for j in range(n) if i != j)
    masks = rng.integers(0, 1 << (n * n - 1), size=count, dtype=np.int64) & off_diagonal
    masks = np.concatenate([masks, min_relabeled_mask(masks, n)])
    rng.shuffle(masks)
    return masks


class TestNumpyKernels:
    def test_power_iteration_certifies(self):
        # the same 20 matrices, each vertex count's as one stack
        stacks = {}
        for m in random_matrices(20, seed=0):
            stacks.setdefault(m.shape[0], []).append(m)
        for ms in stacks.values():
            stack = np.array(ms)
            x, lo, hi, iters = _backend.power_iteration(stack, np.full(len(ms), 1e-12), 100)
            assert x.shape == stack.shape[:2] and lo.shape == hi.shape == iters.shape == (len(ms),)
            for m, xk, lok, hik, itk in zip(ms, x, lo, hi, iters):
                assert hik - lok <= 1e-12
                assert (xk > 0).all()
                assert itk <= 40
                true = max(abs(np.linalg.eigvals(m)))
                assert lok - 1e-12 <= true <= hik + 1e-12

    def test_power_iteration_singular_member(self):
        # [[2, 0], [0, 1]] makes every shifted matrix 2I - M singular: the
        # stack falls back to one solve per member, the singular one takes
        # the retry shift 3 each round until the cap, and the irreducible
        # member is unaffected
        m = np.array([[0.25, 0.75], [0.75, 0.0]])
        stack = np.array([[[2.0, 0.0], [0.0, 1.0]], m])
        x, lo, hi, iters = _backend.power_iteration(stack, np.full(2, 1e-12), 100)
        alone = _backend.power_iteration(m[None], np.full(1, 1e-12), 100)
        assert (x[1] == alone[0][0]).all()
        assert (lo[1], hi[1], iters[1]) == (alone[1][0], alone[2][0], alone[3][0])
        assert hi[1] - lo[1] <= 1e-12
        assert iters[0] == 100 and (x[0] > 0).all() and x[0, 0] > 0.99

    def test_det_directed_cycle_closed_form(self):
        # det(xI - M) = (x - alpha)^n - (1 - alpha)^n on the directed n-cycle
        for n in range(2, 9):
            for alpha in (0.0, 0.25, 0.5, 0.9):
                m = build_alpha_matrix(generate(FamilySpec.cycle(n)), alpha)
                for x in (0.0, 0.5, 1.0, 1.75, 3.0):
                    want = (x - alpha) ** n - (1 - alpha) ** n
                    got = _backend.det_via_lu(x * np.eye(n) - m)
                    assert abs(got - want) <= 1e-12 * max(1.0, abs(want)), (n, alpha, x)

    def test_sc_filter_small(self):
        # n = 3: 64 labeled digraphs, 18 strongly connected
        masks = loop_free_masks(3)
        assert len(masks) == 64
        rows = adjacency_rows_from_masks(masks, 3)
        flags = _backend.sc_filter(rows, 3)
        assert int(flags.sum()) == 18

    def test_sc_filter_matches_bfs(self):
        for n in (2, 3, 4):
            masks = loop_free_masks(n)
            flags = _backend.sc_filter(adjacency_rows_from_masks(masks, n), n)
            expected = [is_strongly_connected_bfs(make_digraph(n, unpack_arcs(int(m), n))) for m in masks]
            assert flags.tolist() == expected

    def test_perm_min_matches_brute_force(self):
        rng = np.random.default_rng(4)
        for n in (3, 4):
            masks = rng.choice(loop_free_masks(n), size=100)
            canon = _backend.perm_min(masks, _perm_bit_table(n))
            assert (canon <= masks).all()
            assert canon.tolist() == [brute_min_mask(int(m), n) for m in masks]
            one = _backend.perm_min(masks[:1], _perm_bit_table(n))
            assert one.tolist() == [brute_min_mask(int(masks[0]), n)]

    def test_perm_sieve_matches_perm_min(self):
        samples = [(n, loop_free_masks(n)) for n in (2, 3, 4)]
        samples += [(5, sampled_loop_free_masks(5, 3000, seed=5)), (6, sampled_loop_free_masks(6, 500, seed=6))]
        for n, masks in samples:
            table = _perm_bit_table(n)
            want = masks[masks == _backend.perm_min(masks, table)]
            got = _backend.perm_sieve(masks, table)
            assert got.dtype == masks.dtype
            assert got.tolist() == want.tolist(), n

    def test_enumeration_matches_labeled_pipeline(self):
        # the pipeline before the sieve: filter every labeled digraph for
        # strong connectivity, minimize each survivor, dedupe
        for n in (2, 3, 4, 5):
            masks = loop_free_masks(n)
            sc_masks = masks[_backend.sc_filter(adjacency_rows_from_masks(masks, n), n)]
            assert len(sc_masks) == SC_LABELED_COUNTS[n]
            want = np.unique(min_relabeled_mask(sc_masks, n)).tolist()
            classes = enumerate_sc_digraphs(n)
            assert [pack_arcs(d) for d, _ in classes] == want, n
            assert [key for _, key in classes] == [CanonicalKey.from_mask(n, c) for c in want], n

    def test_enumeration_n5_cold_is_fast(self):
        enumerate_sc_digraphs.cache_clear()
        t0 = time.perf_counter()
        classes = enumerate_sc_digraphs(5)
        elapsed = time.perf_counter() - t0
        assert len(classes) == 5048
        assert elapsed < 2.0, elapsed


def test_single_numpy_backend():
    assert ap.BACKEND == "numpy"
    assert ap.HAVE_NUMBA is False
