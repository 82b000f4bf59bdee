import math
import time
from fractions import Fraction

import numpy as np
import pytest

from alphaspectra.digraph import (
    adjacency_stack_from_masks,
    delete_arc,
    digraphs_from_masks,
    is_strongly_connected,
    make_digraph,
    out_degrees,
)
from alphaspectra.errors import (
    AlphaRangeError,
    ConvergenceError,
    LoopArcError,
    NonpositiveVectorError,
    NotStronglyConnectedError,
)
from alphaspectra.families import FamilySpec, generate, list_bicyclic
from alphaspectra.campaigns import enumerate_sc_digraphs, random_sc_digraph, verify_global_minima
from alphaspectra import _backend
from alphaspectra.chareq import char_equation_for, kpq_radius, largest_root
from alphaspectra.spectral import (
    _alpha_stack,
    _det_scan_matrix,
    _matrix_stack,
    _reach_strong,
    build_alpha_matrix,
    cw_enclosure,
    det_scan_largest_real_root,
    rounding_factor,
    rounding_safe,
    row_sum_bounds,
    spectral_radii,
    spectral_radius,
)
from oracles import is_strongly_connected_bfs, solve_one_by_one


def result_bits(r):
    return (repr(r.radius), repr(r.enclosure), r.iterations, repr(r.residual), r.perron.tobytes())


def cycle(n):
    return generate(FamilySpec.cycle(n))


class TestBuildMatrix:
    def test_alpha_zero_is_adjacency(self):
        d = cycle(3)
        m = build_alpha_matrix(d, 0.0)
        expected = np.zeros((3, 3))
        for i, j in d.arcs:
            expected[i, j] = 1.0
        assert np.array_equal(m, expected)

    def test_alpha_half(self):
        m = build_alpha_matrix(cycle(3), 0.5)
        assert np.allclose(np.diag(m), 0.5)
        assert m[0, 1] == 0.5

    def test_alpha_one_rejected(self):
        with pytest.raises(AlphaRangeError):
            build_alpha_matrix(cycle(3), 1.0)
        with pytest.raises(AlphaRangeError):
            build_alpha_matrix(cycle(3), -0.1)

    def test_row_sums_equal_out_degrees(self):
        rng = np.random.default_rng(0)
        for _ in range(25):
            d = random_sc_digraph(rng, int(rng.integers(2, 8)))
            alpha = float(rng.uniform(0, 0.99))
            m = build_alpha_matrix(d, alpha)
            degs = np.array(out_degrees(d), dtype=float)
            assert np.allclose(m.sum(axis=1), degs, rtol=1e-14, atol=1e-14)

    def test_stack_matches_one_at_a_time(self):
        rng = np.random.default_rng(11)
        for n in (1, 2, 5, 8):
            digraphs = [random_sc_digraph(rng, n) for _ in range(6)]
            alphas = [0.0, 0.1, 0.5, 0.75, 0.9, 0.95]
            stack, tops = _alpha_stack(digraphs, alphas)
            assert strong_flags(stack).tolist() == [True] * len(digraphs)
            for d, alpha, m, top in zip(digraphs, alphas, stack, tops):
                assert np.array_equal(m, build_alpha_matrix(d, alpha))
                assert top == max(out_degrees(d))

    def test_det_scan_build_matches_noda_build(self):
        # the two oracles fill their matrices by separate code, to the bit
        rng = np.random.default_rng(12)
        digraphs = [random_sc_digraph(rng, n) for n in range(2, 9) for _ in range(8)]
        # infty(30, 40) has 71 vertices: masks wider than 64 bits
        for d in digraphs + [generate(FamilySpec.infty(30, 40))]:
            for alpha in (0.0, 0.5, 0.95):
                want = build_alpha_matrix(d, alpha)
                got = _det_scan_matrix(d, alpha, out_degrees(d))
                assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), (d.arcs, alpha)


def random_digraph(rng, n, density):
    """Each of the n(n-1) possible arcs independently with probability density."""
    return make_digraph(n, [(i, j) for i in range(n) for j in range(n) if i != j and rng.random() < density])


def strong_flags(m):
    """spectral_radii's strong check, row by row: the squared start's flag,
    and the exact reach squaring where that certifies nothing."""
    strong = _backend._squared_start(m)[1]
    strong[~strong] = _reach_strong(m[~strong])
    return strong


class TestStackStrongFlag:
    """The strong flags of the squared start and of the reach squaring
    against the reachability oracle."""

    def test_random_digraphs_match_bfs(self):
        rng = np.random.default_rng(19)
        for n in range(1, 10):
            digraphs = [random_digraph(rng, n, density) for density in (0.2, 0.3, 0.4, 0.5) for _ in range(30)]
            want = [is_strongly_connected_bfs(d) for d in digraphs]
            assert True in want and (n == 1 or False in want), n
            for alpha in (0.0, 0.5, 0.99):
                m = _alpha_stack(digraphs, [alpha] * len(digraphs))[0]
                assert _backend._squared_start(m)[1].tolist() == want, (n, alpha)
                assert _reach_strong(m).tolist() == want, (n, alpha)

    def test_cycles_and_cycles_less_one_arc(self):
        # a cycle needs every path of up to n - 1 arcs: one squaring fewer
        # leaves a zero in (I + A)^(2^k) and calls it not strong
        for n in [*range(2, 13), 70]:
            d = cycle(n)
            broken = delete_arc(d, d.arcs[n // 2])
            assert is_strongly_connected_bfs(d) and not is_strongly_connected_bfs(broken)
            m = _alpha_stack([d, broken], [0.0, 0.9])[0]
            assert _backend._squared_start(m)[1].tolist() == [True, False], n
            assert _reach_strong(m).tolist() == [True, False], n

    def test_cycle_past_the_squarings_takes_the_reach_check(self, monkeypatch):
        # 2^SQUARINGS < 199 arcs: the squared start certifies nothing, the
        # reach squaring proves the cycle strong, and the cycle less one
        # arc raises before any solve, as a digraph and as a stack
        d = cycle(200)
        broken = delete_arc(d, d.arcs[100])
        for alpha in (0.0, 0.99):
            m = _alpha_stack([d, broken], [alpha, alpha])[0]
            assert _backend._squared_start(m)[1].tolist() == [False, False], alpha
            assert _reach_strong(m).tolist() == [True, False], alpha
            res = spectral_radius(d, alpha)
            assert res.enclosure.lo <= 1.0 <= res.enclosure.hi and res.enclosure.width <= 1e-12
        adj = np.zeros((2, 200, 200), dtype=np.uint8)
        for k, g in enumerate((d, broken)):
            for i, j in g.arcs:
                adj[k, i, j] = 1
        monkeypatch.setattr(_backend, "power_iteration", lambda *args: pytest.fail("solved before the check"))
        for alpha in (0.0, 0.99):
            with pytest.raises(NotStronglyConnectedError):
                spectral_radius(broken, alpha)
            with pytest.raises(NotStronglyConnectedError):
                spectral_radii(adj, alpha)

    def test_mixed_sizes_later_group_not_strong(self, monkeypatch):
        # the non-strong member sits in the last group, past 64 vertices,
        # after two strong groups; the call raises before any solve
        monkeypatch.setattr(_backend, "power_iteration", lambda *args: pytest.fail("solved before the check"))
        wide = generate(FamilySpec.infty(30, 40))
        broken = delete_arc(wide, wide.arcs[0])
        assert wide.n == 71 and not is_strongly_connected_bfs(broken)
        for digraphs in ([cycle(3), cycle(5), wide, broken], [cycle(3), broken, cycle(5), wide]):
            with pytest.raises(NotStronglyConnectedError):
                spectral_radii(digraphs, 0.5)


class TestMaskStack:
    """The adjacency stack of canonical masks against the out-mask route."""

    def test_matches_out_mask_adjacency(self):
        for n in (2, 3, 4, 5):
            masks = enumerate_sc_digraphs(n)
            digraphs = digraphs_from_masks(masks, n)
            adj = adjacency_stack_from_masks(masks, n)
            want = [[[(m >> j) & 1 for j in range(n)] for m in d.out_masks] for d in digraphs]
            assert adj.dtype == np.uint8 and adj.tolist() == want, n
            for alpha in (0.0, 0.5, 0.9):
                alphas = [alpha] * len(masks)
                (m, tops), (m0, tops0) = _matrix_stack(adj, alphas), _alpha_stack(digraphs, alphas)
                assert m.dtype == m0.dtype and m.tobytes() == m0.tobytes(), (n, alpha)
                assert tops == tops0 and strong_flags(m).all()

    def test_radii_of_stack_match_digraphs(self):
        masks = enumerate_sc_digraphs(4)
        digraphs = digraphs_from_masks(masks, 4)
        for alpha in (0.0, 0.9):
            got = spectral_radii(adjacency_stack_from_masks(masks, 4), alpha)
            for a, b in zip(got, spectral_radii(digraphs, alpha), strict=True):
                assert (a.radius, a.enclosure, a.iterations) == (b.radius, b.enclosure, b.iterations)
                assert a.perron.tobytes() == b.perron.tobytes()

    def test_stack_input_checks(self, monkeypatch):
        monkeypatch.setattr(_backend, "power_iteration", lambda *args: pytest.fail("solved before the check"))
        adj = np.array([[[0, 1, 0], [0, 0, 1], [1, 0, 0]], [[0, 1, 0], [0, 0, 1], [0, 0, 0]]], dtype=np.uint8)
        with pytest.raises(NotStronglyConnectedError):
            spectral_radii(adj, 0.5)
        with pytest.raises(ValueError):
            spectral_radii(adj, [0.5])
        assert list(spectral_radii(adj[:0], 0.5)) == []
        # a loop counts toward the outdegree and an entry 2 is not an arc:
        # both gave a radius, of another matrix, before the check
        with pytest.raises(LoopArcError):
            spectral_radii(np.array([[[1, 1], [1, 0]]]), 0.5)
        for bad in (np.array([[[0, 2], [1, 0]]]), np.array([[[0, 0.5], [1, 0]]]), np.zeros((1, 2, 3)), adj[0],
                    adj[:, :0, :0]):
            with pytest.raises(ValueError, match=r"must be \(N, n, n\) with 0/1 entries"):
                spectral_radii(bad, 0.5)


class TestRowSumBounds:
    def test_cycle(self):
        assert row_sum_bounds(cycle(6)) == (1.0, 1.0)

    def test_infty_111(self):
        assert row_sum_bounds(generate(FamilySpec.infty(1, 1, 1))) == (1.0, 3.0)

    def test_complete(self):
        assert row_sum_bounds(generate(FamilySpec.complete(4))) == (3.0, 3.0)

    def test_not_strongly_connected(self):
        d = make_digraph(3, [(0, 1), (1, 2)])
        with pytest.raises(NotStronglyConnectedError):
            row_sum_bounds(d)


class TestSpectralRadius:
    def test_cycle_is_one(self):
        res = spectral_radius(cycle(5), 0.5)
        assert abs(res.radius - 1.0) <= 1e-12

    def test_complete(self):
        res = spectral_radius(generate(FamilySpec.complete(4)), 0.3)
        assert abs(res.radius - 3.0) <= 1e-12

    def test_infty_sqrt2(self):
        res = spectral_radius(generate(FamilySpec.infty(1, 1)), 0.0)
        assert abs(res.radius - math.sqrt(2)) <= 1e-11

    def test_result_invariants(self):
        rng = np.random.default_rng(1)
        for _ in range(30):
            d = random_sc_digraph(rng, int(rng.integers(2, 8)))
            alpha = float(rng.choice([0.0, 0.25, 0.5, 0.75]))
            res = spectral_radius(d, alpha, tol=1e-12)
            assert res.enclosure.lo <= res.radius <= res.enclosure.hi
            assert res.enclosure.width <= 1e-12
            assert (res.perron > 0).all()
            assert abs(np.linalg.norm(res.perron) - 1.0) < 1e-12

    def test_rejects_not_strongly_connected(self):
        d = make_digraph(3, [(0, 1), (1, 2)])
        with pytest.raises(NotStronglyConnectedError):
            spectral_radius(d, 0.0)

    def test_rejects_bad_tol(self):
        for tol in (0.0, math.nan):
            with pytest.raises(ValueError):
                spectral_radius(generate(FamilySpec.infty(1, 2)), 0.5, tol=tol)

    def test_periodic_cycle_still_converges(self):
        # the adjacency of a cycle is periodic; plain power iteration on it
        # would never converge
        for n in (3, 7, 12):
            res = spectral_radius(cycle(n), 0.0)
            assert abs(res.radius - 1.0) <= 1e-12

    def test_single_vertex(self):
        res = spectral_radius(make_digraph(1, []), 0.4)
        assert res.radius == 0.0
        # the det scan's descent evaluates det([[0]]) = 0 at max outdegree 0
        assert det_scan_largest_real_root(make_digraph(1, []), 0.4) == 0.0

    def test_tol_below_rounding_width_fails_fast(self):
        t0 = time.perf_counter()
        with pytest.raises(ConvergenceError):
            spectral_radius(generate(FamilySpec.infty(1, 2)), 0.5, tol=1e-18)
        assert time.perf_counter() - t0 < 1.0


def exact_quotients(rows, x):
    """(Mx)_i / x_i in exact rationals, M given as rows of Fractions."""
    xs = [Fraction(v) for v in x]
    return [sum(a * b for a, b in zip(row, xs)) / xi for row, xi in zip(rows, xs)]


def exact_alpha_rows(d, alpha):
    """alpha*D + (1-alpha)*A in exact rationals for the float alpha."""
    a = Fraction(alpha)
    rows = [[Fraction(0)] * d.n for _ in range(d.n)]
    for i, j in d.arcs:
        rows[i][j] = 1 - a
    for i, deg in enumerate(out_degrees(d)):
        rows[i][i] = a * deg
    return rows


class TestRoundingSafety:
    def test_rounding_factor_covers_gamma(self):
        u = Fraction(1, 2**53)
        for n in range(1, 300):
            g = rounding_factor(n)
            assert Fraction(g) >= (n + 2) * u / (1 - (n + 2) * u)
            assert Fraction(1.0 - g) == 1 - Fraction(g)
            assert Fraction(1.0 + g) == 1 + Fraction(g)

    def test_rounding_safe_matches_numpy_nextafter(self):
        # math.nextafter and np.nextafter are both IEEE nextafter
        rng = np.random.default_rng(10)
        values = list(rng.uniform(0, 20, 500)) + list(10.0 ** rng.uniform(-300, 300, 500))
        values += [0.0, 5e-324, 1e-310, 2.2250738585072014e-308, np.nextafter(2.2250738585072014e-308, 0)]
        for v in values:
            v = float(v)
            assert math.nextafter(v, math.inf) == np.nextafter(v, np.inf)
            assert math.nextafter(v, -math.inf) == np.nextafter(v, -np.inf)
            for n in (1, 5, 12):
                g = rounding_factor(n)
                want = (np.nextafter(v * (1.0 - g), -np.inf), np.nextafter(v * (1.0 + g), np.inf))
                assert tuple(rounding_safe(v, v, n)) == want, (v, n)

    def test_enclosure_contains_exact_quotients(self):
        # the Collatz-Wielandt interval of the returned vector, computed
        # exactly, for the float matrix and for the matrix of the exact alpha
        rng = np.random.default_rng(8)
        digraphs = [random_sc_digraph(rng, int(rng.integers(2, 9))) for _ in range(40)]
        digraphs += digraphs_from_masks(enumerate_sc_digraphs(5)[::50], 5)
        for d in digraphs:
            for alpha in (0.0, 0.5, 0.75, 0.9, 0.95):
                res = spectral_radius(d, alpha)
                lo, hi = Fraction(res.enclosure.lo), Fraction(res.enclosure.hi)
                float_rows = [[Fraction(v) for v in row] for row in build_alpha_matrix(d, alpha)]
                for rows in (float_rows, exact_alpha_rows(d, alpha)):
                    q = exact_quotients(rows, res.perron)
                    assert lo <= min(q) and max(q) <= hi, (d.arcs, alpha)


def kpq_brackets(p, q, alpha, lo, hi):
    """Whether [lo, hi] contains the larger root of kpq_radius's quadratic
    x^2 - a(p+q)x - pq + 2a*pq for the exact a = alpha, decided in
    rationals: the root lies above the vertex a(p+q)/2, where the quadratic
    increases through its sign change."""
    a, lo, hi = Fraction(alpha), Fraction(lo), Fraction(hi)
    f = lambda x: x * x - a * (p + q) * x - p * q + 2 * a * p * q
    vertex = a * (p + q) / 2
    return (lo <= vertex or f(lo) <= 0) and hi >= vertex and f(hi) >= 0


class TestClosedFormEnclosures:
    """Enclosures against radii known in closed form, for n up to 40 and
    alpha up to 0.99: a widening too narrow for the rounding shows here."""

    ALPHAS = (0.0, 0.1, 0.25, 0.5, 0.75, 0.9, 0.95, 0.99)

    def test_cycle_and_complete(self):
        for family, radius in ((FamilySpec.cycle, lambda n: 1.0), (FamilySpec.complete, lambda n: n - 1.0)):
            digraphs = [generate(family(n)) for n in range(2, 41)]
            for alpha in self.ALPHAS:
                for d, res in zip(digraphs, spectral_radii(digraphs, alpha)):
                    assert res.enclosure.lo <= radius(d.n) <= res.enclosure.hi, (d.n, alpha)

    def test_bidirected_kpq_and_star(self):
        # the star K_{1,q} is kpq(1, q); the exact root's containment is
        # decided in rationals
        pairs = [(p, q) for p in range(1, 21) for q in range(p, 41 - p)]
        digraphs = [generate(FamilySpec.kpq(p, q)) for p, q in pairs]
        for alpha in self.ALPHAS:
            for (p, q), res in zip(pairs, spectral_radii(digraphs, alpha)):
                assert kpq_brackets(p, q, alpha, *res.enclosure), (p, q, alpha)
                assert abs(res.radius - kpq_radius(p, q, alpha)) <= 1e-12 * (p + q), (p, q, alpha)


def largest_real_eigenvalue(d, alpha):
    ev = np.linalg.eigvals(build_alpha_matrix(d, alpha))
    return float(ev.real[np.abs(ev.imag) <= 1e-9].max())


class TestHighAlpha:
    def test_slow_power_iteration_cases(self):
        cases = [(generate(FamilySpec.gprime(n)), 0.99) for n in range(6, 11)]
        cases += [(generate(FamilySpec.gprime(n)), 0.95) for n in (9, 10)]
        arcs = [(0, 4), (1, 3), (2, 1), (3, 0), (3, 1), (4, 0), (4, 2)]
        cases.append((make_digraph(5, arcs), 0.99))
        for d, alpha in cases:
            res = spectral_radius(d, alpha)
            assert abs(res.radius - largest_real_eigenvalue(d, alpha)) <= 1e-9, (d.arcs, alpha)

    def test_iteration_count_n5(self):
        worst = max(spectral_radius(d, 0.95).iterations for d in digraphs_from_masks(enumerate_sc_digraphs(5), 5))
        assert worst <= 40


class TestSpectralRadii:
    def test_n5_classes_match_one_at_a_time(self):
        digraphs = digraphs_from_masks(enumerate_sc_digraphs(5), 5)
        for alpha in (0.0, 0.5, 0.9, 0.95):
            for d, got in zip(digraphs, spectral_radii(digraphs, alpha)):
                want = spectral_radius(d, alpha)
                assert abs(got.radius - want.radius) <= 1e-12, (d.arcs, alpha)
                assert got.enclosure.lo <= want.enclosure.hi and want.enclosure.lo <= got.enclosure.hi
                assert got.iterations <= 40

    def test_mixed_sizes_and_alphas_in_input_order(self):
        specs = [FamilySpec.cycle(4), FamilySpec.infty(1, 2), FamilySpec.complete(4), FamilySpec.gprime(6),
                 FamilySpec.theta((0, 2), 3), FamilySpec.kpq(3, 2)]
        digraphs = [generate(spec) for spec in specs] + [make_digraph(1, [])]
        alphas = [0.0, 0.9, 0.3, 0.75, 0.5, 0.1, 0.2]
        got = spectral_radii(digraphs, alphas)
        assert len(got) == len(digraphs)
        for d, alpha, res in zip(digraphs, alphas, got):
            want = spectral_radius(d, alpha)
            assert res.radius == want.radius and res.enclosure == want.enclosure, (d.n, alpha)
            assert res.perron.shape == (d.n,)
        shared = spectral_radii(digraphs, 0.4)
        assert [r.radius for r in shared] == [spectral_radius(d, 0.4).radius for d in digraphs]

    def test_empty(self):
        assert list(spectral_radii([], 0.5)) == []
        assert list(spectral_radii([], [])) == []
        # a shared alpha is checked once, even with no digraph to solve
        with pytest.raises(AlphaRangeError):
            spectral_radii([], 1.0)

    def test_rejects_bad_members(self):
        good, bad = cycle(3), make_digraph(3, [(0, 1), (1, 2)])
        with pytest.raises(NotStronglyConnectedError):
            spectral_radii([good, bad, good], 0.5)
        with pytest.raises(AlphaRangeError):
            spectral_radii([good, good], [0.5, 1.0])
        with pytest.raises(ValueError):
            spectral_radii([good, good], [0.5])

    def test_rejects_bad_tol(self):
        for tol in (0.0, -1.0, math.nan):
            with pytest.raises(ValueError):
                spectral_radii([cycle(3), cycle(4)], 0.5, tol=tol)

    def test_slow_member_holds_up_no_other(self):
        for n in (9, 10):
            rng = np.random.default_rng(n)
            others = [random_sc_digraph(rng, n) for _ in range(12)]
            digraphs = others[:6] + [generate(FamilySpec.gprime(n))] + others[6:]
            got = spectral_radii(digraphs, 0.95)
            for d, res in zip(digraphs, got):
                want = spectral_radius(d, 0.95)
                assert res.enclosure.width <= 1e-12
                assert res.radius == want.radius and res.iterations == want.iterations
            assert got[6].iterations == max(r.iterations for r in got)

    def test_global_minima_one_kernel_call_per_vertex_count(self, monkeypatch):
        calls = []
        real = _backend.power_iteration

        def counted(m, x, tol, max_iter):
            calls.append(m.shape)
            return real(m, x, tol, max_iter)

        monkeypatch.setattr(_backend, "power_iteration", counted)
        verify_global_minima(5, 0.5)
        assert calls == [(5048, 5, 5)]

    def test_columns_and_members_match_per_member_oracle(self):
        # mixed vertex counts in a shuffled order, n = 1 among them, and an
        # adjacency stack: every column, and every member built from them,
        # has the bits of a solve and widening of that digraph alone
        rng = np.random.default_rng(36)
        mixed = [generate(FamilySpec.infty(1, 2)), make_digraph(1, []), generate(FamilySpec.gprime(6))]
        mixed += [random_sc_digraph(rng, int(n)) for n in rng.integers(2, 9, 30)] + [make_digraph(1, [])]
        masks = enumerate_sc_digraphs(4)
        cases = [(mixed, [0.1 * (k % 10) for k in range(len(mixed))]),
                 (adjacency_stack_from_masks(masks, 4), [0.95] * len(masks))]
        for digraphs, alphas in cases:
            got = spectral_radii(digraphs, alphas)
            members = digraphs if isinstance(digraphs, list) else digraphs_from_masks(masks, 4)
            want = [solve_one_by_one(d, alpha, 1e-12) for d, alpha in zip(members, alphas)]
            columns = (got.radius, got.lo, got.hi, got.iterations, got.residual)
            assert all(type(v) is (int if col is got.iterations else float) for col in columns for v in col)
            assert [list(map(repr, col)) for col in columns] == [
                [repr(w.radius) for w in want], [repr(w.enclosure.lo) for w in want],
                [repr(w.enclosure.hi) for w in want], [repr(w.iterations) for w in want],
                [repr(w.residual) for w in want]]
            assert [row.tobytes() for row in got.perron] == [w.perron.tobytes() for w in want]
            assert len(got) == len(want)
            for k, (a, w) in enumerate(zip(got, want, strict=True)):
                assert result_bits(a) == result_bits(w) == result_bits(got[k]), k
            assert [result_bits(a) for a in got[1:4]] == [result_bits(w) for w in want[1:4]]

    def test_convergence_error_message_matches_oracle(self):
        # at tol 3e-15 complete(5), infty(1, 2) and complete(6) miss, the
        # others certify; the error names the first miss of the first
        # vertex-count group in input order, complete(5), not infty(1, 2)
        specs = [FamilySpec.cycle(5), FamilySpec.infty(1, 2), FamilySpec.cycle(3), FamilySpec.complete(5),
                 FamilySpec.complete(6)]
        digraphs = [generate(spec) for spec in specs] + [make_digraph(1, [])]
        want = [solve_one_by_one(d, 0.5, 3e-15) for d in digraphs]
        misses = [k for k, w in enumerate(want) if isinstance(w, str)]
        assert misses == [1, 3, 4]
        with pytest.raises(ConvergenceError) as err:
            spectral_radii(digraphs, 0.5, tol=3e-15)
        assert str(err.value) == want[3]


class TestCwEnclosure:
    def test_all_ones_gives_row_sums(self):
        d = generate(FamilySpec.infty(1, 1, 1))
        enc = cw_enclosure(build_alpha_matrix(d, 0.2), np.ones(d.n))
        rs = row_sum_bounds(d)
        assert enc.lo <= rs.lo and rs.hi <= enc.hi
        g = rounding_factor(d.n)
        assert enc.width - rs.width <= 2 * g * rs.hi + 2 * np.spacing(rs.hi)

    def test_contains_exact_quotients(self):
        # the exact Collatz-Wielandt interval of a near-Perron vector lies
        # within a rounding of the float quotients, so only the widening
        # keeps it inside
        rng = np.random.default_rng(9)
        for _ in range(34):
            d = random_sc_digraph(rng, int(rng.integers(2, 9)))
            for alpha in (0.0, 0.5, 0.9):
                m = build_alpha_matrix(d, alpha)
                x = spectral_radius(d, alpha).perron
                enc = cw_enclosure(m, x)
                lo, hi = Fraction(enc.lo), Fraction(enc.hi)
                float_rows = [[Fraction(v) for v in row] for row in m]
                for rows in (float_rows, exact_alpha_rows(d, alpha)):
                    q = exact_quotients(rows, x)
                    assert lo <= min(q) and max(q) <= hi, (d.arcs, alpha)

    def test_perron_vector_degenerate(self):
        d = generate(FamilySpec.infty(2, 3))
        res = spectral_radius(d, 0.25)
        enc = cw_enclosure(build_alpha_matrix(d, 0.25), res.perron)
        assert enc.width <= 1e-10
        assert enc.lo <= res.radius <= enc.hi

    def test_random_vector_contains_radius(self):
        rng = np.random.default_rng(2)
        m = build_alpha_matrix(cycle(3), 0.0)
        for _ in range(20):
            x = rng.uniform(0.1, 2.0, size=3)
            enc = cw_enclosure(m, x)
            assert enc.lo <= 1.0 <= enc.hi

    def test_rejects_nonpositive(self):
        m = build_alpha_matrix(cycle(3), 0.0)
        with pytest.raises(NonpositiveVectorError):
            cw_enclosure(m, np.array([1.0, 0.0, 1.0]))


class TestDetScan:
    def test_cycle(self):
        assert abs(det_scan_largest_real_root(cycle(4), 0.25) - 1.0) <= 1e-11

    def test_infty_111(self):
        root = det_scan_largest_real_root(generate(FamilySpec.infty(1, 1, 1)), 0.0)
        assert abs(root - math.sqrt(3)) <= 1e-11

    def test_kpq_closed_form(self):
        root = det_scan_largest_real_root(generate(FamilySpec.kpq(3, 2)), 0.5)
        assert abs(root - 2.5) <= 1e-11

    def test_rejects_bad_tol(self):
        for tol in (0.0, -1.0, math.nan):
            with pytest.raises(ValueError):
                det_scan_largest_real_root(cycle(4), 0.5, tol=tol)

    def test_rejects_not_strongly_connected(self):
        with pytest.raises(NotStronglyConnectedError, match="determinant scan needs"):
            det_scan_largest_real_root(make_digraph(3, [(0, 1), (1, 2)]), 0.5)

    def test_tol_below_float_spacing_terminates(self):
        # descent steps of at least one ulp and a bisection that stops at
        # adjacent floats end instead of looping forever
        assert abs(det_scan_largest_real_root(cycle(4), 0.5, tol=1e-300) - 1.0) <= 1e-12

    def test_agrees_with_power_iteration(self):
        rng = np.random.default_rng(3)
        for _ in range(25):
            d = random_sc_digraph(rng, int(rng.integers(2, 8)))
            alpha = float(rng.choice([0.0, 0.25, 0.5, 0.75]))
            a = spectral_radius(d, alpha).radius
            b = det_scan_largest_real_root(d, alpha)
            assert abs(a - b) <= 1e-10

    def test_agrees_with_power_iteration_past_64_vertices(self):
        # masks wider than int64: arcs, outdegrees and the strong check read
        # Python ints.  At alpha 0.35-0.5 the descent on infty(30,40) takes
        # about 117 evaluations, so its step budget has to grow with n; there
        # the characteristic-equation route is checked too.
        for spec in (FamilySpec.cycle(70), FamilySpec.infty(30, 40)):
            d = generate(spec)
            assert max(d.out_masks).bit_length() > 64
            for alpha in (0.0, 0.25, 0.75, 0.9):
                assert abs(spectral_radius(d, alpha).radius - det_scan_largest_real_root(d, alpha)) <= 1e-10
        spec = FamilySpec.infty(30, 40)
        d = generate(spec)
        for alpha in (0.35, 0.4, 0.5):
            radius = spectral_radius(d, alpha).radius
            assert abs(radius - det_scan_largest_real_root(d, alpha)) <= 1e-9
            assert abs(radius - largest_root(char_equation_for(spec, alpha))) <= 1e-9

    def test_three_roots_in_one_coarse_bracket(self):
        # roots 2.926, 2.85 and 2.785 lie within 0.15 of each other; the
        # secant descent from above stops at the top one
        d = generate(FamilySpec.bip(1, 6, 3, 2))
        assert abs(det_scan_largest_real_root(d, 0.95) - spectral_radius(d, 0.95).radius) <= 1e-9

    @pytest.mark.parametrize("alpha", [0.5, 0.75, 0.9, 0.95, 0.99])
    def test_root_choice_on_n5_classes(self, monkeypatch, alpha):
        # every class returns its radius, also where other roots crowd
        # just below it, in at most 25 determinants; a regular class, whose
        # root is its outdegree, takes two
        original = _backend.det_via_lu
        calls = []

        def counted(a):
            calls[-1] += 1
            return original(a)

        monkeypatch.setattr(_backend, "det_via_lu", counted)
        digraphs = digraphs_from_masks(enumerate_sc_digraphs(5), 5)
        wrong = []
        for d, res in zip(digraphs, spectral_radii(digraphs, alpha)):
            calls.append(0)
            if abs(det_scan_largest_real_root(d, alpha) - res.radius) > 1e-9:
                wrong.append(d)
        assert wrong == []
        assert max(calls) <= 25


class TestRadiusBounds:
    def alphas(self):
        return [round(0.1 * k, 1) for k in range(10)]

    def test_radius_between_one_and_n_minus_one(self):
        rng = np.random.default_rng(4)
        digraphs = [random_sc_digraph(rng, int(rng.integers(2, 8))) for _ in range(10)]
        digraphs += [generate(s) for s in list_bicyclic(6)]
        for d in digraphs:
            for alpha in self.alphas():
                r = spectral_radius(d, alpha).radius
                assert 1.0 - 1e-10 <= r <= d.n - 1 + 1e-10

    def test_radius_above_alpha_max_outdegree(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            d = random_sc_digraph(rng, int(rng.integers(3, 8)))
            dmax = max(out_degrees(d))
            for alpha in self.alphas():
                assert spectral_radius(d, alpha).radius > alpha * dmax - 1e-10

    def test_strict_sandwich_for_nonconstant_degrees(self):
        d = generate(FamilySpec.infty(1, 2))
        bounds = row_sum_bounds(d)
        for alpha in self.alphas():
            res = spectral_radius(d, alpha)
            assert bounds.lo + 1e-9 < res.radius < bounds.hi - 1e-9


class TestMonotonicity:
    def test_arc_deletion_strictly_decreases(self):
        rng = np.random.default_rng(6)
        checked = 0
        trials = 0
        while checked < 200 and trials < 2000:
            trials += 1
            d = random_sc_digraph(rng, int(rng.integers(2, 8)))
            alpha = float(rng.choice([0.0, 0.3, 0.6]))
            arcs = list(d.arcs)
            rng.shuffle(arcs)
            for arc in arcs:
                rest = make_digraph(d.n, [a for a in d.arcs if a != arc])
                if is_strongly_connected(rest):
                    assert (
                        spectral_radius(rest, alpha).radius
                        < spectral_radius(d, alpha).radius - 1e-9
                    )
                    checked += 1
                    break
        assert checked == 200

    def test_subdivision_never_increases(self):
        from alphaspectra.digraph import subdivide_arc

        rng = np.random.default_rng(7)
        for spec in [FamilySpec.infty(1, 2), FamilySpec.theta((0, 2), 1), FamilySpec.complete(4)]:
            d = generate(spec)
            for alpha in [0.0, 0.4, 0.8]:
                base = spectral_radius(d, alpha).radius
                for arc in d.arcs:
                    grown = subdivide_arc(d, arc)
                    assert spectral_radius(grown, alpha).radius <= base + 1e-9

    def test_perron_entry_ordering(self):
        # nested out-neighbourhoods order the eigenvector entries
        d = generate(FamilySpec.bip(1, 5, 2, 2))
        res = spectral_radius(d, 0.35)
        x = res.perron
        # vertices 1..p-1 all see the q-side only; v1 additionally feeds the path
        assert abs(x[2] - x[3]) <= 1e-9  # equal neighbourhoods inside the q part
        assert x[0] > x[1] + 1e-9  # N+(v_p) strictly inside N+(v_1)
