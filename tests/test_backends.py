"""The numpy kernels against independent pure-Python oracles."""

import itertools

import numpy as np

import alphaspectra as ap
from alphaspectra import _backend
from alphaspectra.campaigns import random_sc_digraph
from alphaspectra.digraph import (
    _perm_bit_table,
    adjacency_rows_from_masks,
    is_strongly_connected_bfs,
    loop_free_masks,
    make_digraph,
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
        yield build_alpha_matrix(d, alpha).matrix


def brute_min_mask(mask, n):
    """Smallest pack_arcs value over every relabeling of the packed digraph."""
    arcs = unpack_arcs(mask, n)
    return min(
        pack_arcs(make_digraph(n, [(sigma[i], sigma[j]) for i, j in arcs]))
        for sigma in itertools.permutations(range(n))
    )


class TestNumpyKernels:
    def test_power_iteration_certifies(self):
        for m in random_matrices(20, seed=0):
            x, lo, hi, iters = _backend.power_iteration(m, 1e-12, 100)
            assert hi - lo <= 1e-12
            assert (x > 0).all()
            assert iters <= 40
            true = max(abs(np.linalg.eigvals(m)))
            assert lo - 1e-12 <= true <= hi + 1e-12

    def test_det_directed_cycle_closed_form(self):
        # det(xI - M) = (x - alpha)^n - (1 - alpha)^n on the directed n-cycle
        for n in range(2, 9):
            for alpha in (0.0, 0.25, 0.5, 0.9):
                m = build_alpha_matrix(generate(FamilySpec.cycle(n)), alpha).matrix
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


def test_single_numpy_backend():
    assert ap.BACKEND == "numpy"
    assert ap.HAVE_NUMBA is False
