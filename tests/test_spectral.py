import math
import time
from fractions import Fraction

import numpy as np
import pytest

from alphaspectra.digraph import is_strongly_connected, make_digraph, out_degrees
from alphaspectra.errors import (
    AlphaRangeError,
    ConvergenceError,
    NonpositiveVectorError,
    NotStronglyConnectedError,
)
from alphaspectra.families import FamilySpec, generate, list_bicyclic
from alphaspectra.campaigns import enumerate_sc_digraphs, random_sc_digraph
from alphaspectra.spectral import (
    build_alpha_matrix,
    cw_enclosure,
    det_scan_largest_real_root,
    rounding_factor,
    row_sum_bounds,
    spectral_radius,
)


def cycle(n):
    return generate(FamilySpec.cycle(n))


class TestBuildMatrix:
    def test_alpha_zero_is_adjacency(self):
        d = cycle(3)
        m = build_alpha_matrix(d, 0.0)
        expected = np.zeros((3, 3))
        for i, j in d.arcs:
            expected[i, j] = 1.0
        assert np.array_equal(m.matrix, expected)

    def test_alpha_half(self):
        m = build_alpha_matrix(cycle(3), 0.5)
        assert np.allclose(np.diag(m.matrix), 0.5)
        assert m.matrix[0, 1] == 0.5

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
            assert np.allclose(m.matrix.sum(axis=1), degs, rtol=1e-14, atol=1e-14)


class TestRowSumBounds:
    def test_cycle(self):
        assert row_sum_bounds(build_alpha_matrix(cycle(6), 0.3)) == (1.0, 1.0)

    def test_infty_111(self):
        m = build_alpha_matrix(generate(FamilySpec.infty(1, 1, 1)), 0.2)
        assert row_sum_bounds(m) == (1.0, 3.0)

    def test_complete(self):
        m = build_alpha_matrix(generate(FamilySpec.complete(4)), 0.6)
        assert row_sum_bounds(m) == (3.0, 3.0)

    def test_not_strongly_connected(self):
        d = make_digraph(3, [(0, 1), (1, 2)])
        with pytest.raises(NotStronglyConnectedError):
            row_sum_bounds(build_alpha_matrix(d, 0.0))


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
        with pytest.raises(ValueError):
            spectral_radius(cycle(3), 0.0, tol=0.0)

    def test_periodic_cycle_still_converges(self):
        # the adjacency of a cycle is periodic; plain power iteration on it
        # would never converge
        for n in (3, 7, 12):
            res = spectral_radius(cycle(n), 0.0)
            assert abs(res.radius - 1.0) <= 1e-12

    def test_single_vertex(self):
        res = spectral_radius(make_digraph(1, []), 0.4)
        assert res.radius == 0.0

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

    def test_enclosure_contains_exact_quotients(self):
        # the Collatz-Wielandt interval of the returned vector, computed
        # exactly, for the float matrix and for the matrix of the exact alpha
        rng = np.random.default_rng(8)
        digraphs = [random_sc_digraph(rng, int(rng.integers(2, 9))) for _ in range(40)]
        digraphs += [d for d, _ in enumerate_sc_digraphs(5)[::50]]
        for d in digraphs:
            for alpha in (0.0, 0.5, 0.75, 0.9, 0.95):
                res = spectral_radius(d, alpha)
                lo, hi = Fraction(res.enclosure.lo), Fraction(res.enclosure.hi)
                float_rows = [[Fraction(v) for v in row] for row in build_alpha_matrix(d, alpha).matrix]
                for rows in (float_rows, exact_alpha_rows(d, alpha)):
                    q = exact_quotients(rows, res.perron)
                    assert lo <= min(q) and max(q) <= hi, (d.arcs, alpha)


def largest_real_eigenvalue(d, alpha):
    ev = np.linalg.eigvals(build_alpha_matrix(d, alpha).matrix)
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
        worst = max(spectral_radius(d, 0.95).iterations for d, _ in enumerate_sc_digraphs(5))
        assert worst <= 40


class TestCwEnclosure:
    def test_all_ones_gives_row_sums(self):
        m = build_alpha_matrix(generate(FamilySpec.infty(1, 1, 1)), 0.2)
        enc = cw_enclosure(m, np.ones(m.digraph.n))
        rs = row_sum_bounds(m)
        assert enc.lo <= rs.lo and rs.hi <= enc.hi
        g = rounding_factor(m.digraph.n)
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
                float_rows = [[Fraction(v) for v in row] for row in m.matrix]
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
        for tol in (0.0, -1.0):
            with pytest.raises(ValueError):
                det_scan_largest_real_root(cycle(4), 0.5, tol=tol)

    def test_tol_below_float_spacing_terminates(self):
        # bisection stops at adjacent floats instead of looping forever
        assert abs(det_scan_largest_real_root(cycle(4), 0.5, tol=1e-300) - 1.0) <= 1e-12

    def test_agrees_with_power_iteration(self):
        rng = np.random.default_rng(3)
        for _ in range(25):
            d = random_sc_digraph(rng, int(rng.integers(2, 8)))
            alpha = float(rng.choice([0.0, 0.25, 0.5, 0.75]))
            a = spectral_radius(d, alpha).radius
            b = det_scan_largest_real_root(d, alpha)
            assert abs(a - b) <= 1e-10


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
        for alpha in self.alphas():
            res = spectral_radius(d, alpha)
            bounds = row_sum_bounds(build_alpha_matrix(d, alpha))
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
