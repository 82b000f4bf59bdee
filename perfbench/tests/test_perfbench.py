"""Tests of the benchmark itself.

    PYTHONPATH=src python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import json
import re
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
REPO = BENCH.parent
sys.path[:0] = [str(BENCH), str(REPO / "src")]

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def spec_file() -> dict:
    return json.loads((REPO / "BENCHMARK.json").read_text())


# ---------------------------------------------------------------------------
# span arithmetic


def test_self_times_on_nested_tree():
    # root [0, 10] -> a [1, 4] -> c [2, 3]
    #              -> b [5, 9] -> d [5, 7], e [6, 8] (overlapping)
    spans = [
        (3, 2, "x.c", 2.0, 3.0),
        (2, 1, "x.a", 1.0, 4.0),
        (4, 5, "x.d", 5.0, 7.0),
        (6, 5, "x.e", 6.0, 8.0),
        (5, 1, "x.b", 5.0, 9.0),
        (1, tracing.ROOT, "x.root", 0.0, 10.0),
    ]
    own = tracing.self_times(spans)
    assert own == pytest.approx({1: 3.0, 2: 2.0, 3: 1.0, 5: 1.0, 4: 2.0, 6: 2.0})


def test_self_times_subtract_count_mode_calls():
    spans = [(2, 1, "x.child", 1.0, 2.0), (1, tracing.ROOT, "x.root", 0.0, 4.0)]
    own = tracing.self_times(spans, {1: 0.5, 2: 0.25})
    assert own == pytest.approx({1: 2.5, 2: 0.75})


def test_union_length_clips_to_parent():
    assert tracing.union_length([(-1.0, 1.0), (0.5, 2.0), (3.0, 9.0)], 0.0, 4.0) == pytest.approx(3.0)
    assert tracing.union_length([], 0.0, 4.0) == 0.0


# ---------------------------------------------------------------------------
# the tracer against the package


def test_tracer_records_layers_and_restores_names():
    import alphaspectra as ap
    from alphaspectra import spectral

    original = spectral.spectral_radius
    tracer = tracing.Tracer()
    tracer.install()
    try:
        t0 = time.perf_counter()
        d = ap.generate(ap.FamilySpec.infty(1, 2))
        ap.spectral_radius(d, 0.5)
        ap.det_scan_largest_real_root(d, 0.5)
        wall = time.perf_counter() - t0
        metrics = tracing.summarize(tracer, wall)
    finally:
        tracer.uninstall()
    assert spectral.spectral_radius is original
    assert ap.spectral_radius is original
    assert metrics["spectral.spectral_radius_calls"] == 1
    assert metrics["backend.power_iteration_calls"] == 1
    assert metrics["spectral.det_scan_calls"] == 1
    assert metrics["backend.det_via_lu_calls"] > 0
    assert 0.9 <= metrics["trace.coverage"] <= 1.0 + 1e-9


def test_missing_boundary_fails_loudly(monkeypatch):
    monkeypatch.setattr(tracing, "TARGETS", tracing.TARGETS + (("spectral", "no_such_function", "span"),))
    tracer = tracing.Tracer()
    with pytest.raises(tracing.TraceError, match="alphaspectra.spectral.no_such_function"):
        tracer.install()
    assert not tracer.rebound


# ---------------------------------------------------------------------------
# names


def test_names_and_units_are_well_formed():
    spec = spec_file()
    for entry in spec["workloads"] + spec["end_to_end"] + spec["per_layer"]:
        assert NAME.match(entry["name"]), entry["name"]
    for entry in spec["end_to_end"] + spec["per_layer"]:
        assert UNIT.match(entry["unit"]), entry["unit"]
    names = [e["name"] for e in spec["workloads"] + spec["end_to_end"] + spec["per_layer"]]
    assert len(names) == len(set(names))


def test_declared_metrics_match_what_the_run_prints():
    import alphaspectra as ap

    spec = spec_file()
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS

    tracer = tracing.Tracer()
    tracer.install()
    try:
        ap.spectral_radius(ap.generate(ap.FamilySpec.cycle(3)), 0.5)
        printed = set(tracing.summarize(tracer, 1.0)) | {"trace.overhead_s"}
    finally:
        tracer.uninstall()
    declared = {m["name"]: m["unit"] for m in spec["per_layer"]}
    assert set(declared) == printed
    assert all(declared[name] == tracing.unit_of(name) for name in declared)


# ---------------------------------------------------------------------------
# inputs


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_inputs_repeat_for_a_seed(workload, tmp_path):
    assert workloads.make_inputs(workload, 7, str(tmp_path)) == workloads.make_inputs(workload, 7, str(tmp_path))


def test_seed_orders_the_oracle_grid_and_the_lemma_campaigns(tmp_path):
    a = workloads.make_inputs("oracle-grid", 7, str(tmp_path))["triples"]
    b = workloads.make_inputs("oracle-grid", 8, str(tmp_path))["triples"]
    assert a != b and sorted(map(repr, a)) == sorted(map(repr, b))
    argvs = workloads.make_inputs("lemma-fuzz", 7, str(tmp_path))["argvs"]
    campaign_seeds = [argv[argv.index("--seed") + 1] for argv in argvs]
    assert campaign_seeds[0] == str(7 % workloads.LEMMA_SEEDS)
    assert sorted(map(int, campaign_seeds)) == list(range(workloads.LEMMA_SEEDS))
    assert len({argv[argv.index("--json-out") + 1] for argv in argvs}) == workloads.LEMMA_SEEDS


def test_calibrated_clock_leaves_the_calibrations_out(monkeypatch):
    def slow_calibration():
        time.sleep(0.05)
        return 0.01

    monkeypatch.setattr(workloads, "calibrate", slow_calibration)
    monkeypatch.setattr(workloads, "CAL_EVERY_S", 0.0)
    clock = workloads.CalibratedClock(calibrated=True)
    t0 = time.perf_counter()
    clock.start()
    clock.checkpoint()
    out = clock.result()
    assert out["calibrations_s"] == [0.01, 0.01, 0.01]
    assert out["wall_s"] < 0.05 < time.perf_counter() - t0
    plain = workloads.CalibratedClock(calibrated=False)
    plain.start()
    plain.checkpoint()
    assert plain.result()["calibrations_s"] == []


def test_reference_speed_scales_by_the_mean_calibration():
    ref = workloads.REF_CAL_S
    assert workloads.at_reference_speed(3.0, [ref, 2 * ref, 3 * ref]) == pytest.approx(1.5)


def test_global_min_sample_keeps_the_reference_ranks(tmp_path):
    ref = workloads.load_reference("global-min")
    sample = workloads.make_inputs("global-min", 7, str(tmp_path))["sample"]
    assert len(sample) == workloads.GLOBAL_MIN_SAMPLE == len(set(sample))
    assert set(ref["pinned"]) <= set(sample)
    assert sample != workloads.make_inputs("global-min", 8, str(tmp_path))["sample"]


# ---------------------------------------------------------------------------
# checks


def test_oracle_check_separates_known_failures_from_deviations():
    ref = {
        "failing": [["gprime:5", 0.9, "root NoSignChangeError"]],
        "radius": [["gprime:5", 0.9, 1.8], ["cycle:3", 0.5, 1.0], ["cycle:4", 0.5, 1.0]],
    }
    rows = [
        ["gprime:5", 0.9, 1.8, "NoSignChangeError", 1.8],  # known failure
        ["cycle:3", 0.5, 1.0, 1.0, 1.0],  # pass
        ["cycle:4", 0.5, 1.0, 1.0, 1.5],  # new failure
    ]
    check = workloads.check_unit("oracle-grid", {"rows": rows}, ref)
    assert (check["attempted"], check["passed"], check["deviations"]) == (3, 1, 1)
    assert [f[0] for f in check["failing"]] == ["gprime:5", "cycle:4"]

    fixed = [["gprime:5", 0.9, 1.8, 1.8, 1.8]]
    assert workloads.check_unit("oracle-grid", {"rows": fixed}, ref)["deviations"] == 0
    wrong = [["cycle:3", 0.5, 1.1, 1.1, 1.1]]
    assert workloads.check_unit("oracle-grid", {"rows": wrong}, ref)["deviations"] == 1


def test_verdict_checks_count_anything_but_pass_as_failed():
    out = {"exit_code": 1, "verdicts": [["a", "pass"], ["b", "fail"]], "items": []}
    check = workloads.check_unit("lemma-fuzz", out, None)
    assert (check["attempted"], check["passed"]) == (2, 1)
    assert check["deviations"] == 2


def test_every_layer_metric_has_a_prediction():
    spec = spec_file()
    predictions = json.loads((BENCH / "predictions.json").read_text())["predictions"]
    layer = {m["name"] for m in spec["per_layer"] if not m["name"].startswith("trace.")}
    assert set(predictions) == layer
    end_to_end = {m["name"] for m in spec["end_to_end"]}
    for name, p in predictions.items():
        assert set(p["moves"]) <= end_to_end, name
        assert p["workloads"] and set(p["workloads"]) <= set(workloads.WORKLOADS), name
