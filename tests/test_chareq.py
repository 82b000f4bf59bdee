import math

import numpy as np
import pytest

from alphaspectra import _backend, chareq
from alphaspectra.chareq import (
    CharEquation,
    char_equation_for,
    eval_char,
    kpq_radius,
    largest_root,
)
from alphaspectra.errors import AlphaRangeError, InvalidSpecError, NoSignChangeError
from alphaspectra.families import FamilySpec, generate, list_compositions
from alphaspectra.spectral import build_alpha_matrix, det_scan_largest_real_root, spectral_radius

ALPHAS = [0.0, 0.25, 0.5, 0.75]
#: the alphas of the criterion-1 oracle grid
ORACLE_ALPHAS = (0.0, 0.25, 0.5, 0.75, 0.85, 0.9, 0.95)
#: a fixed sample of criterion-1 specs, every kind with a scalar function
COUNT_SPECS = [
    FamilySpec.infty(1, 1, 3),
    FamilySpec.infty(2, 3),
    FamilySpec.infty(1, 2, 2, 1),
    FamilySpec.theta((0, 1, 2), 1),
    FamilySpec.theta((1, 2), 2),
    FamilySpec.gprime(5),
    FamilySpec.bip(1, 8, 3, 2),
    FamilySpec.bip(2, 8, 3, 2),
    FamilySpec.bip(5, 9, 3, 2),
    FamilySpec.bip(6, 10, 4, 2),
]


def mean_evaluations(monkeypatch, module, name, solve, cases):
    """Average calls of module.name per solve(case), over every case."""
    calls = []
    original = getattr(module, name)

    def counted(*args):
        calls[-1] += 1
        return original(*args)

    monkeypatch.setattr(module, name, counted)
    for case in cases:
        calls.append(0)
        solve(*case)
    return sum(calls) / len(calls)


class TestEvalChar:
    def test_infty_11_at_sqrt2(self):
        eq = CharEquation(FamilySpec.infty(1, 1), 0.0)
        assert abs(eval_char(eq, math.sqrt(2))) < 1e-12

    def test_theta_010_at_one(self):
        eq = CharEquation(FamilySpec.theta((0, 1), 0), 0.0)
        assert eval_char(eq, 1.0) == -1.0  # x^3 - x - 1 at 1

    def test_gprime_5_at_one(self):
        eq = CharEquation(FamilySpec.gprime(5), 0.0)
        assert eval_char(eq, 1.0) == -2.0  # x^5 - 2x - 1 at 1

    def test_unsupported_kind(self):
        with pytest.raises(InvalidSpecError):
            CharEquation(FamilySpec.cycle(4), 0.0)

    def test_g1_g2_map_to_gprime(self):
        eq = char_equation_for(FamilySpec.g1(6), 0.3)
        assert eq.spec.kind == "gprime"
        eq2 = char_equation_for(FamilySpec.g2(6), 0.3)
        assert eq == eq2

    def test_theta_02_matches_quoted_form(self):
        # theta with parts (0, 2) and return length n - 4 must reduce to
        # ((x-2a)/(1-a)) y^(n-1) - y^2 - 1 identically
        for n in (5, 7, 10):
            for alpha in ALPHAS:
                eq = CharEquation(FamilySpec.theta((0, 2), n - 4), alpha)
                for x in np.linspace(1.0, 3.0, 17):
                    y = (x - alpha) / (1 - alpha)
                    direct = (x - 2 * alpha) / (1 - alpha) * y ** (n - 1) - y**2 - 1
                    assert abs(eval_char(eq, x) - direct) <= 1e-9 * max(1.0, abs(direct))


def det_factor(spec, alpha, x):
    """det(xI - M) / f(x) for the scalar function f of spec: (1-alpha)^n for
    the hub/theta/chord families; for the attached-path ones the factors
    that eliminating the eigen-equation on K_{p,q} divides out."""
    if not spec.kind.startswith("bip"):
        return (1 - alpha) ** spec.n_vertices
    n, p, q = spec.npq
    e_p, e_q = (p - 2, q - 1) if spec.kind in ("bip1", "bip5") else (p - 1, q - 2)
    return (1 - alpha) ** (n - p - q) * (x - alpha * q) ** e_p * (x - alpha * p) ** e_q


class TestDeterminantIdentity:
    """The scalar function times :func:`det_factor` equals det(xI - M)
    exactly, which pins every transcribed exponent and coefficient."""

    def check(self, spec, alpha):
        d = generate(spec)
        eq = char_equation_for(spec, alpha)
        m = build_alpha_matrix(d, alpha)
        for x in np.linspace(1.05, 3.7, 9):
            det = np.linalg.det(x * np.eye(d.n) - m)
            val = det_factor(spec, alpha, x) * eval_char(eq, x)
            assert abs(det - val) <= 1e-8 * max(1.0, abs(det)), (spec, alpha, x)

    def test_infty(self):
        for spec in list_compositions("infty", 7, 3) + list_compositions("infty", 6, 2):
            for alpha in ALPHAS:
                self.check(spec, alpha)

    def test_theta(self):
        for spec in list_compositions("theta", 7, 3) + list_compositions("theta", 6, 2):
            for alpha in ALPHAS:
                self.check(spec, alpha)

    def test_gprime_g1(self):
        for n in (5, 6, 8):
            for alpha in ALPHAS:
                self.check(FamilySpec.gprime(n), alpha)
                self.check(FamilySpec.g1(n), alpha)
                self.check(FamilySpec.g2(n), alpha)

    def test_bip(self):
        for p in range(2, 6):
            for q in range(2, p + 1):
                for n in range(p + q + 1, 13):
                    kinds = (1, 2) if (n - p - q) % 2 == 1 else (5, 6)
                    for kind in kinds:
                        for alpha in ALPHAS + [0.9]:
                            self.check(FamilySpec.bip(kind, n, p, q), alpha)


class TestLargestRoot:
    def test_infty_11(self):
        eq = CharEquation(FamilySpec.infty(1, 1), 0.0)
        assert abs(largest_root(eq) - math.sqrt(2)) <= 1e-11

    def test_theta_plastic(self):
        eq = CharEquation(FamilySpec.theta((0, 1), 0), 0.0)
        assert abs(largest_root(eq) - 1.3247179572447460) <= 1e-11

    def test_bip1_522(self):
        eq = CharEquation(FamilySpec.bip(1, 5, 2, 2), 0.0)
        assert abs(largest_root(eq) - math.sqrt(2 + math.sqrt(6))) <= 1e-11

    def test_residual_small(self):
        for spec in [FamilySpec.infty(2, 3), FamilySpec.theta((1, 2), 2), FamilySpec.gprime(7)]:
            for alpha in ALPHAS:
                eq = char_equation_for(spec, alpha)
                root = largest_root(eq)
                assert abs(eval_char(eq, root)) < 1e-9

    def test_exact_zero_returns_the_root(self):
        # the regular part puts the root exactly on 1.5, where f is exactly 0
        eq = CharEquation(FamilySpec.infty(1, 1), 0.5)
        assert eval_char(eq, 1.5) == 0.0
        assert largest_root(eq) == 1.5

    def test_rejects_bad_tol(self):
        eq = CharEquation(FamilySpec.infty(1, 2), 0.5)
        for tol in (0.0, -1.0, math.nan):
            with pytest.raises(ValueError):
                largest_root(eq, tol)

    def test_evaluation_count(self, monkeypatch):
        # secant descent from above plus the bisection of its last step,
        # which both oracles share: about 16 evaluations per root, and every
        # case returns one
        cases = [(char_equation_for(spec, alpha),) for spec in COUNT_SPECS for alpha in ORACLE_ALPHAS]
        assert mean_evaluations(monkeypatch, chareq, "eval_char", largest_root, cases) <= 18
        cases = [(generate(spec), alpha) for spec in COUNT_SPECS for alpha in ORACLE_ALPHAS]
        assert mean_evaluations(monkeypatch, _backend, "det_via_lu", det_scan_largest_real_root, cases) <= 18

    def test_root_is_radius(self):
        specs = [
            FamilySpec.infty(1, 1, 2),
            FamilySpec.theta((0, 1, 2), 1),
            FamilySpec.gprime(6),
            FamilySpec.bip(2, 8, 3, 2),
            FamilySpec.bip(6, 7, 3, 2),
        ]
        for spec in specs:
            for alpha in ALPHAS:
                root = largest_root(char_equation_for(spec, alpha))
                radius = spectral_radius(generate(spec), alpha).radius
                assert abs(root - radius) <= 1e-10


class TestDescent:
    """The three ways :func:`chareq.descend_to_largest_root` refuses a
    function that cannot be a characteristic function."""

    def test_not_positive_at_the_upper_bound(self):
        with pytest.raises(NoSignChangeError, match="upper bound"):
            chareq.descend_to_largest_root(lambda x: x - 5.0, 2, 1e-12, "f")

    def test_not_increasing_above_the_root(self):
        with pytest.raises(NoSignChangeError, match="does not increase"):
            chareq.descend_to_largest_root(lambda x: 5.0 - x, 2, 1e-12, "f")

    def test_no_root_hits_the_step_cap(self):
        # positive, increasing and convex everywhere: the descent never ends
        with pytest.raises(NoSignChangeError, match="secant steps"):
            chareq.descend_to_largest_root(math.exp, 2, 1e-12, "f")


class TestKpqRadius:
    def test_spot_values(self):
        assert abs(kpq_radius(2, 2, 0.0) - 2.0) <= 1e-12
        assert abs(kpq_radius(3, 2, 0.5) - 2.5) <= 1e-12
        assert abs(kpq_radius(4, 4, 0.0) - 4.0) <= 1e-12

    def test_satisfies_quadratic(self):
        rng = np.random.default_rng(1)
        for _ in range(100):
            p = int(rng.integers(1, 8))
            q = int(rng.integers(1, 8))
            a = float(rng.uniform(0, 0.99))
            x = kpq_radius(p, q, a)
            assert abs(x * x - a * (p + q) * x - p * q + 2 * a * p * q) <= 1e-9

    def test_alpha_range(self):
        with pytest.raises(AlphaRangeError):
            kpq_radius(2, 2, 1.0)


def root_of(spec, alpha, tol=1e-12):
    return largest_root(char_equation_for(spec, alpha), tol)


class TestOrderingLemmas:
    """Monotonicity claims, each swept over all compositions at n <= 12."""

    MARGIN = 1e-9

    def test_infty_relocation(self):
        for n in range(5, 13):
            for s in (2, 3, 4):
                if n < s + 1:
                    continue
                for spec in list_compositions("infty", n, s):
                    ks = spec.ks
                    for alpha in (0.0, 0.5):
                        base = root_of(spec, alpha)
                        for p_i in range(len(ks)):
                            for q_i in range(len(ks)):
                                if p_i == q_i or not (2 <= ks[p_i] <= ks[q_i]):
                                    continue
                                moved = list(ks)
                                moved[p_i] -= 1
                                moved[q_i] += 1
                                assert (
                                    root_of(FamilySpec.infty(*moved), alpha)
                                    > base + self.MARGIN
                                )

    def test_theta_relocation(self):
        for n in (6, 9, 12):
            for s in (2, 3):
                for spec in list_compositions("theta", n, s):
                    ks, l1 = spec.ks, spec.l1
                    for alpha in (0.0, 0.5):
                        base = root_of(spec, alpha)
                        for p_i in range(len(ks)):
                            for q_i in range(len(ks)):
                                if p_i == q_i or not (1 <= ks[p_i] <= ks[q_i]):
                                    continue
                                moved = list(ks)
                                moved[p_i] -= 1
                                moved[q_i] += 1
                                if moved.count(0) > 1:
                                    continue  # would duplicate the u->v arc
                                assert (
                                    root_of(FamilySpec.theta(tuple(moved), l1), alpha)
                                    > base + self.MARGIN
                                )

    def test_theta_return_shift(self):
        for n in (6, 9, 12):
            for s in (2, 3):
                for spec in list_compositions("theta", n, s):
                    if spec.l1 < 1:
                        continue
                    for alpha in (0.0, 0.5):
                        base = root_of(spec, alpha)
                        for p_i in range(len(spec.ks)):
                            moved = list(spec.ks)
                            moved[p_i] += 1
                            assert (
                                root_of(FamilySpec.theta(tuple(moved), spec.l1 - 1), alpha)
                                > base + self.MARGIN
                            )

    def test_theta_below_matching_infty(self):
        for n in (6, 9, 12):
            for s in (2, 3):
                for spec in list_compositions("theta", n, s):
                    ks, l1 = spec.ks, spec.l1
                    partner = tuple(ks[1:]) + (ks[0] + l1 + 1,)
                    for alpha in (0.0, 0.5):
                        assert (
                            root_of(spec, alpha) + self.MARGIN
                            < root_of(FamilySpec.infty(*partner), alpha)
                        )

    def test_infty_above_matching_theta(self):
        for n in (6, 9, 12):
            for s in (2, 3):
                for spec in list_compositions("infty", n, s):
                    ks = spec.ks
                    partner = tuple(ks[:-1]) + (ks[-1] - 1,)
                    if sorted(partner).count(0) > 1:
                        continue
                    for alpha in (0.0, 0.5):
                        assert (
                            root_of(FamilySpec.theta(partner, 0), alpha) + self.MARGIN
                            < root_of(spec, alpha)
                        )

    def test_b2_b1_order_and_equality(self):
        for n, p, q in [(6, 3, 2), (8, 3, 2), (7, 2, 2), (9, 4, 2)]:
            if (n - p - q) % 2 == 0:
                continue
            for alpha in ALPHAS:
                r1 = root_of(FamilySpec.bip(1, n, p, q), alpha)
                r2 = root_of(FamilySpec.bip(2, n, p, q), alpha)
                if p == q:
                    assert abs(r1 - r2) <= 1e-10
                else:
                    assert r2 > r1 + self.MARGIN

    def test_b6_b5_order_and_equality(self):
        for n, p, q in [(7, 3, 2), (9, 3, 2), (8, 2, 2), (10, 4, 2)]:
            if (n - p - q) % 2 == 1:
                continue
            for alpha in ALPHAS:
                r5 = root_of(FamilySpec.bip(5, n, p, q), alpha)
                r6 = root_of(FamilySpec.bip(6, n, p, q), alpha)
                if p == q or alpha == 0.0:
                    assert abs(r5 - r6) <= 1e-10
                else:
                    assert r6 > r5 + self.MARGIN

    def test_cross_size_links(self):
        for n, p, q in [(8, 3, 2), (10, 3, 3), (9, 2, 2)]:
            if (n - p - q) % 2 == 0:
                continue
            for alpha in ALPHAS:
                r1 = root_of(FamilySpec.bip(1, n, p, q), alpha)
                r5_prev = root_of(FamilySpec.bip(5, n - 1, p, q), alpha)
                assert r5_prev > r1 + self.MARGIN
        for n, p, q in [(7, 3, 2), (9, 3, 2), (8, 2, 2)]:
            if (n - p - q) % 2 == 1:
                continue
            for alpha in ALPHAS:
                r5 = root_of(FamilySpec.bip(5, n, p, q), alpha)
                r1_prev = root_of(FamilySpec.bip(1, n - 1, p, q), alpha)
                assert r1_prev >= r5 - 1e-10


class TestExtremalCompositions:
    def test_infty_extremes(self):
        for n, s in [(8, 2), (9, 3), (10, 4)]:
            for alpha in (0.0, 0.5):
                roots = {spec: root_of(spec, alpha) for spec in list_compositions("infty", n, s)}
                best = max(roots, key=roots.get)
                worst = min(roots, key=roots.get)
                assert best.ks == (1,) * (s - 1) + (n - s,)
                lo = (n - 1) // s
                r = n - 1 - s * lo
                assert worst.ks == (lo,) * (s - r) + (lo + 1,) * r

    def test_theta_extremes(self):
        for n, s in [(8, 2), (9, 3), (10, 4)]:
            for alpha in (0.0, 0.5):
                roots = {spec: root_of(spec, alpha) for spec in list_compositions("theta", n, s)}
                best = max(roots, key=roots.get)
                worst = min(roots, key=roots.get)
                assert best.ks == (0,) + (1,) * (s - 2) + (n - s,) and best.l1 == 0
                assert worst.ks == (0,) + (1,) * (s - 1) and worst.l1 == n - s - 1
