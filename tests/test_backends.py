"""The numpy kernels against independent pure-Python oracles."""

import itertools
import time
import warnings

import numpy as np
import pytest

import alphaspectra as ap
from alphaspectra import _backend, campaigns, digraph
from alphaspectra.campaigns import enumerate_sc_digraphs, random_sc_digraph
from alphaspectra.digraph import (
    CanonicalKey,
    _cell_bit,
    _perm_bit_table,
    _swap_chain,
    adjacency_rows_from_masks,
    canonical_masks,
    digraphs_from_masks,
    make_digraph,
    min_relabeled_mask,
    pack_arcs,
    unpack_arcs,
)
from alphaspectra.errors import LoopArcError
from alphaspectra.families import FamilySpec, generate
from alphaspectra.spectral import build_alpha_matrix
from oracles import SC_CLASS_COUNTS, SC_LABELED_COUNTS, is_strongly_connected_bfs, loop_free_masks


def random_matrices(count, seed):
    rng = np.random.default_rng(seed)
    for _ in range(count):
        d = random_sc_digraph(rng, int(rng.integers(2, 9)))
        alpha = float(rng.uniform(0, 0.95))
        yield build_alpha_matrix(d, alpha)


def noda(stack, tol, max_iter):
    """The Noda kernel from the squared start, as spectral_radii runs it."""
    return _backend.power_iteration(stack, _backend._squared_start(stack)[0], tol, max_iter)


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
            x, lo, hi, iters = noda(stack, np.full(len(ms), 1e-12), 100)
            assert x.shape == stack.shape[:2] and lo.shape == hi.shape == iters.shape == (len(ms),)
            for m, xk, lok, hik, itk in zip(ms, x, lo, hi, iters):
                assert hik - lok <= 1e-12
                assert (xk > 0).all()
                assert itk <= 40
                true = max(abs(np.linalg.eigvals(m)))
                assert lok - 1e-12 <= true <= hik + 1e-12

    def test_power_iteration_singular_member(self):
        # [[2, 0], [0, 1]] makes every shifted matrix 2I - M singular: its
        # solve gives a NaN row, the singular member takes the retry shift 3
        # each round until the cap, and the irreducible member is unaffected
        m = np.array([[0.25, 0.75], [0.75, 0.0]])
        stack = np.array([[[2.0, 0.0], [0.0, 1.0]], m])
        x, lo, hi, iters = noda(stack, np.full(2, 1e-12), 100)
        alone = noda(m[None], np.full(1, 1e-12), 100)
        assert (x[1] == alone[0][0]).all()
        assert (lo[1], hi[1], iters[1]) == (alone[1][0], alone[2][0], alone[3][0])
        assert hi[1] - lo[1] <= 1e-12
        assert iters[0] == 100 and (x[0] > 0).all() and x[0, 0] > 0.99

    def test_retry_failure_stops_the_row(self, monkeypatch):
        # row 1's solve and its retry both come back sign-mixed in round 2:
        # that row stops there on its round-1 iterate, and the other rows
        # keep the bits each gets alone; from the flat start every row
        # iterates past round 2
        stack = np.array([m for m in random_matrices(40, seed=4) if m.shape[0] == 4][:3])

        def flat(m):
            return np.full(m.shape[:2], 0.5)

        tol = np.full(1, 1e-12)
        alone = [_backend.power_iteration(m[None], flat(m[None]), tol, 100) for m in stack]
        assert min(a[3][0] for a in alone) > 2
        round1 = _backend.power_iteration(stack[1:2], flat(stack[1:2]), tol, 1)
        solve = _backend._shifted_solve
        seen = []

        def mixed(m, x, sigma, eye):
            z = solve(m, x, sigma, eye)
            hit = (m == stack[1]).all(axis=(1, 2))
            if hit.any():
                seen.append(len(m))
                if len(seen) >= 2:
                    z[hit, -1] = -abs(z[hit, -1])
            return z

        monkeypatch.setattr(_backend, "_shifted_solve", mixed)
        got = _backend.power_iteration(stack, flat(stack), np.full(3, 1e-12), 100)
        # round 1's solve, round 2's solve and round 2's retry of row 1 alone
        assert seen == [3, 3, 1]
        assert all((a[1] == b[0]).all() for a, b in zip(got[:3], round1)) and got[3][1] == 2
        for k in (0, 2):
            assert all((a[k] == b[0]).all() for a, b in zip(got, alone[k])), k

    def test_underflowing_start_falls_back_to_flat(self):
        # radius sqrt(1e-3) against a largest row sum of 1000: B^128 of
        # (I + M) / 1001 underflows to 0, so that member starts from the
        # flat vector, bit for bit, and still certifies; its neighbour
        # keeps its squared start
        under = np.array([[0.0, 1000.0], [1e-6, 0.0]])
        fine = np.array([[0.25, 0.75], [0.75, 0.0]])
        stack = np.array([under, fine])
        with np.errstate(all="ignore"):
            start, strong = _backend._squared_start(stack)
        assert not (start[0] >= np.finfo(float).tiny).all() and (start[1] > 0).all()
        assert strong.tolist() == [True, True]
        x, lo, hi, iters = _backend.power_iteration(stack, start, np.full(2, 1e-12), 100)
        assert hi[0] - lo[0] <= 1e-12 and lo[0] - 1e-12 <= np.sqrt(1e-3) <= hi[0] + 1e-12
        assert (x[0] > 0).all() and iters[0] > 0
        alone = noda(fine[None], np.full(1, 1e-12), 100)
        assert all((a[1] == b[0]).all() for a, b in zip((x, lo, hi, iters), alone))
        flat = _backend.power_iteration(under[None], np.full((1, 2), 1.0 / np.sqrt(2)), np.full(1, 1e-12), 100)
        assert all((a[0] == b[0]).all() for a, b in zip((x, lo, hi, iters), flat))

    def test_start_not_positive_normal_falls_back_to_flat(self):
        # a start row with a zero, negative, NaN, infinite or subnormal entry
        # is replaced by the flat vector; a positive normal row is kept
        stack = np.array([m for m in random_matrices(40, seed=4) if m.shape[0] == 4][:6])
        tol = np.full(len(stack), 1e-12)
        start = _backend._squared_start(stack)[0]
        squared = _backend.power_iteration(stack, start.copy(), tol, 100)
        flat = _backend.power_iteration(stack, np.full(stack.shape[:2], 0.5), tol, 100)
        for k, value in enumerate((0.0, -0.1, np.nan, np.inf, 1e-310)):
            start[k, 1] = value
        got = _backend.power_iteration(stack, start, tol, 100)
        for k in range(len(stack)):
            want = flat if k < 5 else squared
            assert all((a[k] == b[k]).all() for a, b in zip(got, want)), k
        assert (got[2] - got[1] <= 1e-12).all()
        assert squared[3].sum() < flat[3].sum()

    def test_solve_matches_numpy_solve(self):
        # the stacked gufunc call gives np.linalg.solve's bits, stacked or
        # one member at a time
        rng = np.random.default_rng(7)
        for n in range(2, 13):
            a = rng.uniform(-1, 1, (6, n, n)) + n * np.eye(n)
            b = rng.uniform(0, 1, (6, n))
            got = _backend._solve(a, b)
            assert got.tobytes() == np.linalg.solve(a, b[:, :, None])[:, :, 0].tobytes(), n
            assert got.tobytes() == np.array([np.linalg.solve(ak, bk) for ak, bk in zip(a, b)]).tobytes(), n

    def test_solve_singular_member_is_a_nan_row(self):
        # a zero column gives LU an exact zero pivot; the other members keep
        # their bits.  _solve runs under the errstate power_iteration holds,
        # and the kernel on a stack with a singular member warns of nothing
        rng = np.random.default_rng(8)
        a = rng.uniform(-1, 1, (3, 5, 5)) + 5 * np.eye(5)
        a[1, :, 2] = 0.0
        b = rng.uniform(0, 1, (3, 5))
        with pytest.raises(np.linalg.LinAlgError):
            np.linalg.solve(a[1], b[1])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with np.errstate(all="ignore"):
                z = _backend._solve(a, b)
            stack = np.array([[[2.0, 0.0], [0.0, 1.0]], [[0.25, 0.75], [0.75, 0.0]]])
            noda(stack, np.full(2, 1e-12), 100)
        assert np.isnan(z[1]).all()
        for k in (0, 2):
            assert z[k].tobytes() == np.linalg.solve(a[k], b[k]).tobytes()

    def test_det_directed_cycle_closed_form(self):
        # det(xI - M) = (x - alpha)^n - (1 - alpha)^n on the directed n-cycle
        for n in range(2, 9):
            for alpha in (0.0, 0.25, 0.5, 0.9):
                m = build_alpha_matrix(generate(FamilySpec.cycle(n)), alpha)
                for x in (0.0, 0.5, 1.0, 1.75, 3.0):
                    want = (x - alpha) ** n - (1 - alpha) ** n
                    got = _backend.det_via_lu(x * np.eye(n) - m)
                    assert abs(got - want) <= 1e-12 * max(1.0, abs(want)), (n, alpha, x)

    def test_det_via_lu_bit_equal_to_numpy_det(self):
        # random, singular (a zero column) and zero matrices, with no warning
        rng = np.random.default_rng(23)
        for n in [*range(1, 13), 71]:
            a = rng.standard_normal((n, n))
            singular = a.copy()
            singular[:, -1] = 0.0
            for m in (a, singular, np.zeros((n, n))):
                with warnings.catch_warnings():
                    warnings.simplefilter("error")
                    got, want = _backend.det_via_lu(m), np.linalg.det(m)
                assert type(got) is float and np.float64(got).tobytes() == want.tobytes(), n

    def test_sc_filter_small(self):
        # n = 3: 64 labeled digraphs, 18 strongly connected
        masks = loop_free_masks(3)
        assert len(masks) == 64
        rows = adjacency_rows_from_masks(masks, 3)
        flags = _backend.sc_filter(rows)
        assert int(flags.sum()) == 18

    def test_sc_filter_matches_bfs(self):
        for n in (2, 3, 4):
            masks = loop_free_masks(n)
            flags = _backend.sc_filter(adjacency_rows_from_masks(masks, n))
            expected = [is_strongly_connected_bfs(make_digraph(n, unpack_arcs(int(m), n))) for m in masks]
            assert flags.tolist() == expected
        # seeded rows past the exhaustive sizes, over both word widths
        rng = np.random.default_rng(32)
        for n in range(5, 17):
            arcs = np.concatenate([rng.random((30, n, n)) < p for p in (0.1, 0.2, 0.3, 0.4, 0.5, 0.6)])
            arcs &= ~np.eye(n, dtype=bool)
            flags = _backend.sc_filter((arcs.astype(np.int64) << np.arange(n)).sum(axis=2))
            expected = [is_strongly_connected_bfs(make_digraph(n, zip(*np.nonzero(a)))) for a in arcs]
            assert flags.tolist() == expected, n
            assert 0 < sum(expected) < len(expected), n
        assert _backend.sc_filter(np.zeros((3, 1), dtype=np.int64)).tolist() == [True] * 3
        assert _backend.sc_filter(np.zeros((0, 5), dtype=np.int64)).shape == (0,)
        # the cycle i -> i-1 runs against the closure order, which needs all
        # n steps, each taking on what the step's vertex reaches so far;
        # without any one arc it is a path
        for n in range(2, 17):
            cycle = np.array([1 << (i - 1) % n for i in range(n)], dtype=np.int64)
            cut = np.where(np.eye(n, dtype=bool), 0, cycle)
            assert _backend.sc_filter(np.vstack([cycle, cut])).tolist() == [True] + [False] * n, n

    def test_perm_min_matches_brute_force(self):
        rng = np.random.default_rng(4)
        for n in (3, 4):
            masks = rng.choice(loop_free_masks(n), size=100)
            canon = _backend.perm_min(masks, _perm_bit_table(n))
            assert (canon <= masks).all()
            assert canon.tolist() == [brute_min_mask(int(m), n) for m in masks]
            one = _backend.perm_min(masks[:1], _perm_bit_table(n))
            assert one.tolist() == [brute_min_mask(int(masks[0]), n)]

    def test_swap_chain_matches_bit_table(self):
        # the chain's delta swaps, composed from the identity, reach every
        # relabeling of the bit table exactly once; each trades a group with
        # the disjoint bits shift places above it, and no group or shifted
        # group leaves the n*n bits, so int32 candidates cannot overflow at
        # n <= 5
        for n in (2, 3, 4, 5, 6):
            rng = np.random.default_rng(n)
            masks = rng.choice(loop_free_masks(n), size=200) if n < 6 else sampled_loop_free_masks(6, 100, seed=6)
            bits = (masks[:, None] >> np.arange(n * n)) & 1
            swaps, table = _swap_chain(n), _perm_bit_table(n)
            want = {(bits << row.astype(np.int64)).sum(axis=1).tobytes(): p for p, row in enumerate(table)}
            assert len(want) == len(table) == len(swaps) + 1, n
            image, reached = masks, [want[masks.tobytes()]]
            for swap in swaps:
                assert len(swap) == 2, n
                for shift, group in swap:
                    assert shift > 0 and group > 0 and group & group << shift == 0, (n, swap)
                    assert group << shift < 1 << (n * n), (n, swap)
                    t = (image >> shift ^ image) & group
                    image = image ^ t ^ t << shift
                reached.append(want.get(image.tobytes()))
            assert len(reached) == len(set(reached)) == len(table) and None not in reached, n

    def test_perm_sieve_matches_perm_min(self):
        samples = [(n, loop_free_masks(n)) for n in (2, 3, 4)]
        samples += [(5, sampled_loop_free_masks(5, 3000, seed=5)), (6, sampled_loop_free_masks(6, 500, seed=6))]
        for n, masks in samples:
            want = masks[masks == _backend.perm_min(masks, _perm_bit_table(n))]
            got = _backend.perm_sieve(masks, _swap_chain(n))
            assert got.dtype == masks.dtype
            assert got.tolist() == want.tolist(), n
            assert _backend.perm_sieve(masks[:0], _swap_chain(n)).shape == (0,), n

    def test_canonical_masks_match_sieved_loop_free_masks(self):
        # the candidates built by the min-outdegree rule sieve to the
        # canonical masks of every labeled digraph with no zero out-row, by
        # perm_min over the bit table, which shares nothing with the sieve:
        # all of them at n <= 4; at n = 5 every returned mask is minimal and
        # the minimum of each of 3000 sampled no-sink masks is returned
        for n in (2, 3, 4):
            masks = loop_free_masks(n)
            no_sink = masks[(adjacency_rows_from_masks(masks, n) != 0).all(axis=1)]
            want = no_sink[no_sink == _backend.perm_min(no_sink, _perm_bit_table(n))]
            got = canonical_masks(n)
            assert got.dtype == np.int64
            assert got.tolist() == want.tolist(), n
        got, rng = canonical_masks(5), np.random.default_rng(5)
        assert (got == _backend.perm_min(got, _perm_bit_table(5))).all()
        sample = np.zeros(3000, dtype=np.int64)
        for i in range(5):
            rows = np.arange(1, 1 << 5, dtype=np.int64)
            sample |= rng.choice(rows[(rows >> (4 - i)) & 1 == 0], size=3000) << _cell_bit(5, i, 4)
        assert np.isin(_backend.perm_min(sample, _perm_bit_table(5)), got).all()

    def test_digraphs_from_masks_matches_make_digraph(self):
        samples = [(n, loop_free_masks(n)) for n in (2, 3, 4)]
        samples += [(5, sampled_loop_free_masks(5, 3000, seed=5)), (6, sampled_loop_free_masks(6, 500, seed=6))]
        for n, masks in samples:
            got = digraphs_from_masks(masks, n)
            assert got == [make_digraph(n, unpack_arcs(int(m), n)) for m in masks], n
            for d in got:
                assert isinstance(d.arcs, tuple) and list(d.arcs) == sorted(d.arcs)
                assert all(type(v) is int for arc in d.arcs for v in arc)
        # the loop (i, i) of any vertex, beside the arc (0, 1)
        for i in range(3):
            with pytest.raises(LoopArcError):
                digraphs_from_masks(np.array([1 << _cell_bit(3, 0, 1) | 1 << _cell_bit(3, i, i)]), 3)

    def test_enumeration_matches_labeled_pipeline(self):
        # the pipeline before the sieve: filter every labeled digraph for
        # strong connectivity, minimize each survivor, dedupe
        for n in (2, 3, 4, 5):
            masks = loop_free_masks(n)
            sc_masks = masks[_backend.sc_filter(adjacency_rows_from_masks(masks, n))]
            assert len(sc_masks) == SC_LABELED_COUNTS[n]
            want = np.unique(min_relabeled_mask(sc_masks, n)).tolist()
            classes = enumerate_sc_digraphs(n)
            assert classes.tolist() == want, n
            assert [pack_arcs(d) for d in digraphs_from_masks(classes, n)] == want, n

    def test_enumeration_n5_cold_is_fast(self):
        enumerate_sc_digraphs.cache_clear()
        t0 = time.perf_counter()
        classes = enumerate_sc_digraphs(5)
        elapsed = time.perf_counter() - t0
        assert len(classes) == 5048
        assert elapsed < 2.0, elapsed

    def test_enumeration_n5_work_counts(self, monkeypatch):
        # the sieve gets only the candidates the min-outdegree rule builds,
        # 15^4 + 11^4 + 5^4 + 1^4 (row 0 with k = 1..4 ones, every other row
        # with at least k), and the classes are decoded from the filter's rows
        sieved = []
        perm_sieve = _backend.perm_sieve

        def counting_sieve(masks, swaps):
            sieved.append(len(masks))
            return perm_sieve(masks, swaps)

        monkeypatch.setattr(_backend, "perm_sieve", counting_sieve)
        decoded = []
        for fn in (digraph.make_digraph, digraph.unpack_arcs):
            def counting(*args, fn=fn):
                decoded.append(fn.__name__)
                return fn(*args)

            for mod in (digraph, campaigns):
                for name, value in list(vars(mod).items()):
                    if value is fn:
                        monkeypatch.setattr(mod, name, counting)
        enumerate_sc_digraphs.cache_clear()
        try:
            assert len(enumerate_sc_digraphs(5)) == 5048
        finally:
            enumerate_sc_digraphs.cache_clear()
        assert sieved == [65892]
        assert decoded == []

    def test_enumeration_returns_read_only_ascending_masks(self):
        for n in (2, 3, 4, 5):
            masks = enumerate_sc_digraphs(n)
            assert masks.dtype == np.int64 and len(masks) == SC_CLASS_COUNTS[n], n
            assert (np.diff(masks) > 0).all(), n
            assert [CanonicalKey.from_mask(n, m) for m in masks.tolist()] == [
                ap.canonical_key(d) for d in digraphs_from_masks(masks, n)], n
            with pytest.raises(ValueError):
                masks[0] = 0

    def test_int32_sieve_matches_int64(self, monkeypatch):
        # up to n = 5 the candidates are sieved in int32 words; the same
        # candidates in int64 words leave the same masks
        seen = []
        perm_sieve = _backend.perm_sieve

        def recording(masks, swaps):
            seen.append((masks, swaps))
            return perm_sieve(masks, swaps)

        monkeypatch.setattr(_backend, "perm_sieve", recording)
        for n in (2, 3, 4, 5):
            got = canonical_masks(n)
            masks, swaps = seen[-1]
            assert masks.dtype == np.int32 and got.dtype == np.int64, n
            assert np.array_equal(got, perm_sieve(masks.astype(np.int64), swaps)), n


def test_single_numpy_backend():
    assert ap.BACKEND == "numpy"
    assert ap.HAVE_NUMBA is False
