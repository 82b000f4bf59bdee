"""Acceptance suite: every criterion at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS line per
criterion (prints are captured otherwise and shown only on failure).
"""

import time

import pytest

from alphaspectra.campaigns import (
    enumerate_sc_digraphs,
    verify_bipartite_minimum,
    verify_family_extremes,
    verify_global_minima,
    verify_transform_lemmas,
)
from alphaspectra.chareq import char_equation_for, kpq_radius, largest_root
from alphaspectra.families import FamilySpec, format_spec, generate, list_compositions
from alphaspectra.spectral import det_scan_largest_real_root, spectral_radii, spectral_radius
from oracles import SC_CLASS_COUNTS

ALPHA_GRID = [0.0, 0.25, 0.5, 0.75]
#: criterion 1 also covers the alphas where roots crowd below the radius
ORACLE_ALPHAS = ALPHA_GRID + [0.85, 0.9, 0.95]


def _report(num, text):
    print(f"[PASS] criterion {num}: {text}")


def family_grid():
    """Every composition of the criterion-1 families."""
    specs = []
    for s in (2, 3, 4):
        for n in range(s + 1, 13):
            specs.extend(list_compositions("infty", n, s))
            specs.extend(list_compositions("theta", n, s))
    for p in (2, 3, 4):
        for q in range(2, p + 1):
            for n in range(p + q + 1, 13):
                rem = n - p - q
                if rem % 2 == 1:
                    specs.append(FamilySpec.bip(1, n, p, q))
                    specs.append(FamilySpec.bip(2, n, p, q))
                else:
                    specs.append(FamilySpec.bip(5, n, p, q))
                    specs.append(FamilySpec.bip(6, n, p, q))
    specs.extend(FamilySpec.gprime(n) for n in range(5, 11))
    return specs


def bip_grid():
    out = []
    for p in (2, 3, 4):
        for q in range(2, p + 1):
            for n in range(p + q + 1, 13):
                out.append((n, p, q))
    return out


def test_criterion_1_oracle_agreement():
    t0 = time.perf_counter()
    specs = family_grid()
    worst_root = worst_det = 0.0
    checked = 0
    for spec in specs:
        d = generate(spec)
        for alpha in ORACLE_ALPHAS:
            radius = spectral_radius(d, alpha, tol=1e-12).radius
            root = largest_root(char_equation_for(spec, alpha), tol=1e-12)
            det = det_scan_largest_real_root(d, alpha, tol=1e-12)
            worst_root = max(worst_root, abs(root - radius))
            worst_det = max(worst_det, abs(radius - det))
            assert abs(root - radius) <= 1e-9, (format_spec(spec), alpha)
            assert abs(radius - det) <= 1e-9, (format_spec(spec), alpha)
            checked += 1
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0, f"criterion 1 runtime {elapsed:.1f}s exceeds 60s"
    _report(
        1,
        f"{checked} (spec, alpha) triples agree; worst root gap {worst_root:.2e}, "
        f"worst det gap {worst_det:.2e}, {elapsed:.1f}s",
    )


def test_criterion_1_noda_rounds():
    # one stacked solve of the whole grid at the criterion-1 alphas: the
    # squared start leaves 1861 Noda rounds in all (the flat start took
    # 27 862), most radii certifying with none
    specs = family_grid()
    digraphs = [generate(spec) for spec in specs for _ in ORACLE_ALPHAS]
    alphas = ORACLE_ALPHAS * len(specs)
    results = spectral_radii(digraphs, alphas)
    total = sum(r.iterations for r in results)
    assert total <= 3000, total
    assert sum(r.iterations == 0 for r in results) > len(results) // 2
    assert max(r.enclosure.width for r in results) <= 1e-12


def test_oracles_above_criterion_1_alphas():
    # above 0.95 more real roots crowd below the radius; at the default
    # tolerances neither oracle may raise or return one of them
    for spec in family_grid():
        d = generate(spec)
        for alpha in (0.97, 0.99):
            radius = spectral_radius(d, alpha).radius
            root = largest_root(char_equation_for(spec, alpha))
            det = det_scan_largest_real_root(d, alpha)
            assert abs(root - radius) <= 1e-9, ("root", format_spec(spec), alpha)
            assert abs(det - radius) <= 1e-9, ("det", format_spec(spec), alpha)


def test_criterion_2_kpq_closed_form():
    worst = 0.0
    for p in range(2, 7):
        for q in range(2, p + 1):
            d = generate(FamilySpec.kpq(p, q))
            for k in range(10):
                alpha = round(0.1 * k, 1)
                gap = abs(kpq_radius(p, q, alpha) - spectral_radius(d, alpha).radius)
                worst = max(worst, gap)
                assert gap <= 1e-10, (p, q, alpha)
    assert abs(kpq_radius(2, 2, 0.0) - 2.0) <= 1e-10
    assert abs(kpq_radius(3, 2, 0.5) - 2.5) <= 1e-10
    _report(2, f"closed form matches iteration for q <= p <= 6, worst gap {worst:.2e}")


def test_criterion_3_family_extremes():
    t0 = time.perf_counter()
    campaigns_run = 0
    for s in (2, 3, 4):
        for n in range(s + 2, 13):
            for alpha in ALPHA_GRID:
                for family in ("infty", "theta", "combined"):
                    report = verify_family_extremes(family, n, s, alpha)
                    assert report.passed(), (family, n, s, alpha, report.verdicts)
                    campaigns_run += 1
    elapsed = time.perf_counter() - t0
    assert elapsed < 120.0, f"criterion 3 runtime {elapsed:.1f}s exceeds 2min"
    _report(3, f"{campaigns_run} extremal campaigns pass, {elapsed:.1f}s")


def test_criterion_4_bicyclic_ranking():
    for n in range(5, 13):
        for alpha in ALPHA_GRID:
            report = verify_family_extremes("bicyclic", n, 2, alpha)
            assert report.passed(), (n, alpha, report.verdicts)
            # ranks 1-3 must separate from everything above by > 1e-9
            items = report.items
            for k in range(3):
                gap = items[k + 1].lo - items[k].hi
                assert gap > 1e-9, (n, alpha, k, gap)
    _report(4, "theta(0,1,n-3) < theta(1,1,n-4) < theta(0,2,n-4) < rest for n = 5..12")


def test_criterion_5_global_minima():
    t0 = time.perf_counter()
    for n in (2, 3, 4):
        assert len(enumerate_sc_digraphs(n)) == SC_CLASS_COUNTS[n]
    assert len(enumerate_sc_digraphs(5)) == SC_CLASS_COUNTS[5]  # frozen oracle fixture
    for k in range(6):
        alpha = round(0.1 * k, 1)
        report = verify_global_minima(5, alpha)
        assert report.passed(), (alpha, report.verdicts)
        assert all(v.status == "pass" for v in report.verdicts), alpha
    elapsed = time.perf_counter() - t0
    assert elapsed < 300.0, f"criterion 5 runtime {elapsed:.1f}s exceeds 5min"
    _report(
        5,
        f"class counts (1, 5, 83, {SC_CLASS_COUNTS[5]}) and ranks 1-4 for "
        f"alpha in 0..0.5, {elapsed:.1f}s",
    )


def test_criterion_6_bipartite_minimum():
    for alpha in ALPHA_GRID:
        report = verify_bipartite_minimum(5, 2, 2, alpha)
        assert report.passed(), (alpha, report.verdicts)
        uniq = [v for v in report.verdicts if "unique bipartite minimum" in v.claim]
        assert uniq and uniq[0].status == "pass", alpha
    checked = 0
    for n, p, q in bip_grid():
        for alpha in ALPHA_GRID:
            report = verify_bipartite_minimum(n, p, q, alpha)
            assert report.passed(), (n, p, q, alpha, report.verdicts)
            checked += sum(v.status == "pass" for v in report.verdicts)
    _report(6, f"unique minimizer at (5,2,2) and {checked} chain inequalities hold")


def test_criterion_7_transform_lemmas():
    report = verify_transform_lemmas(500, seed=20240)
    assert report.passed(), report.verdicts
    for v in report.verdicts:
        assert v.status == "pass", (v.claim, v.detail)
    counts = "; ".join(v.detail.split(";")[0] for v in report.verdicts)
    _report(7, f"500 seeded trials, zero violations ({counts})")


def test_criterion_8_conjecture_sweep():
    observed = []
    for alpha in (0.55, 0.65, 0.75, 0.85, 0.95):
        report = verify_global_minima(5, alpha)
        assert all(v.status == "exploratory" for v in report.verdicts)
        agree = all("matches" in v.detail for v in report.verdicts)
        observed.append((alpha, agree))
    _report(8, f"exploratory sweep recorded: {observed}")
