"""The three benchmark workloads: inputs, one timed unit, and output checks.

A *unit* is one campaign run in a fresh interpreter (see ``child.py``).
Inputs come from the seed alone; checks compare a unit's outputs with the
references under ``perfbench/reference/`` recorded from the seed commit by
``record_reference.py``.

* ``global-min`` -- ``spectra verify --campaign global-min --n 5
  --alpha-grid 0.5,0.9`` through ``alphaspectra.cli.main``, writing JSON
  and CSV.  The full campaign takes about 85 s on the seed (65 s of it
  canonical keys for all 5048 classes), too long for one benchmark run, so
  the campaign's call to ``enumerate_sc_digraphs`` is rebound to a sampler
  that runs the real n = 5 enumeration and hands the campaign a seeded
  sample of ``GLOBAL_MIN_SAMPLE`` classes.  The sample always holds the
  reference ranks 1-6 at both alphas, so every verdict matches the full
  campaign's.
* ``oracle-grid`` -- the three radius routes on every (spec, alpha) triple
  of the criterion-1 family grid cut at ``ORACLE_MAX_N`` vertices, in a
  seeded order.  The full grid (n <= 12) takes about 80 s.
* ``lemma-fuzz`` -- ``spectra verify --campaign transform-lemmas --seed
  <campaign seed> --trials LEMMA_TRIALS`` through ``alphaspectra.cli.main``,
  once for each campaign seed of a fixed pool of ``LEMMA_SEEDS``, in an
  order rotated by the benchmark seed.  The campaign's work differs by
  about 15 % from one campaign seed to the next (slowly converging digraphs
  at high alpha), so every unit runs the whole pool and does the same work
  whatever the benchmark seed.  The campaign caches nothing between calls.

The host's speed drifts by up to half for tens of seconds at a time, and
by more in short bursts.  So an untraced unit also times a fixed
pure-Python loop at its natural boundaries (after an oracle triple, a lemma
campaign, global-min's enumeration), at least every ``CAL_EVERY_S``, and
leaves the loop's own time out of its wall time.  ``at_reference_speed``
turns a wall time into the time at the host's reference speed, where the
loop takes ``REF_CAL_S``.
"""

from __future__ import annotations

import json
import random
import statistics
import time
from pathlib import Path

WORKLOADS = ("global-min", "oracle-grid", "lemma-fuzz")

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"

GLOBAL_MIN_N = 5
GLOBAL_MIN_ALPHAS = (0.5, 0.9)
GLOBAL_MIN_SAMPLE = 150
GLOBAL_MIN_PINNED_RANKS = 6

ORACLE_ALPHAS = (0.0, 0.25, 0.5, 0.75, 0.85, 0.9, 0.95)
ORACLE_MAX_N = 7
ORACLE_TOL = 1e-12
AGREEMENT = 1e-9

LEMMA_TRIALS = 100
LEMMA_SEEDS = 8

#: iterations of the calibration loop, runs of it per calibration, and the
#: longest stretch of a unit between two calibrations
CAL_LOOP = 100_000
CAL_REPEATS = 5
CAL_EVERY_S = 0.3
#: the loop's median time on an idle host: an Intel Xeon VM with 2 vCPUs,
#: CPython 3.11
REF_CAL_S = 0.0055

#: verdict statuses that count as a passed operation
PASSING = ("pass", "exploratory", "skipped")


def load_reference(workload: str) -> dict:
    return json.loads((REFERENCE_DIR / f"{workload}.json").read_text())


# ---------------------------------------------------------------------------
# inputs


def criterion1_grid(max_n: int = 12):
    """Every spec of the criterion-1 family grid with at most max_n vertices,
    in the order of the acceptance suite."""
    from alphaspectra.families import FamilySpec, list_compositions

    specs = []
    for s in (2, 3, 4):
        for n in range(s + 1, 13):
            specs.extend(list_compositions("infty", n, s))
            specs.extend(list_compositions("theta", n, s))
    for p in (2, 3, 4):
        for q in range(2, p + 1):
            for n in range(p + q + 1, 13):
                kinds = (1, 2) if (n - p - q) % 2 == 1 else (5, 6)
                specs.extend(FamilySpec.bip(k, n, p, q) for k in kinds)
    specs.extend(FamilySpec.gprime(n) for n in range(5, 11))
    return [spec for spec in specs if spec.n_vertices <= max_n]


def make_inputs(workload: str, seed: int, out_dir: str) -> dict:
    """Everything a unit needs, derived from the seed alone.

    ``out_dir`` only names where the campaign reports go; it never changes
    what is computed.
    """
    if workload == "global-min":
        ref = load_reference("global-min")
        pinned = set(ref["pinned"])
        others = [i for i in range(ref["class_count"]) if i not in pinned]
        picked = random.Random(seed).sample(others, GLOBAL_MIN_SAMPLE - len(pinned))
        return {"argv": global_min_argv(out_dir), "sample": sorted(pinned.union(picked))}
    if workload == "oracle-grid":
        triples = [(spec, alpha) for spec in criterion1_grid(ORACLE_MAX_N) for alpha in ORACLE_ALPHAS]
        random.Random(seed).shuffle(triples)
        return {"triples": triples}
    if workload == "lemma-fuzz":
        return {"argvs": [lemma_argv(out_dir, (seed + k) % LEMMA_SEEDS) for k in range(LEMMA_SEEDS)]}
    raise ValueError(f"unknown workload {workload!r}")


def global_min_argv(out_dir: str) -> list[str]:
    grid = ",".join(str(a) for a in GLOBAL_MIN_ALPHAS)
    return _verify_argv(out_dir, ["--campaign", "global-min", "--n", str(GLOBAL_MIN_N), "--alpha-grid", grid])


def lemma_argv(out_dir: str, campaign_seed: int) -> list[str]:
    args = ["--campaign", "transform-lemmas", "--seed", str(campaign_seed), "--trials", str(LEMMA_TRIALS)]
    return _verify_argv(out_dir, args, f"-seed{campaign_seed}")


def _verify_argv(out_dir: str, args: list[str], tag: str = "") -> list[str]:
    out = Path(out_dir)
    return ["verify", *args, "--json-out", str(out / f"report{tag}.json"), "--csv-out", str(out / f"report{tag}.csv")]


# ---------------------------------------------------------------------------
# one unit


def calibrate() -> float:
    """Median time of CAL_REPEATS runs of a fixed pure-Python loop."""
    times = []
    for _ in range(CAL_REPEATS):
        t0 = time.perf_counter()
        acc = 0
        for i in range(CAL_LOOP):
            acc += i * i
        times.append(time.perf_counter() - t0)
    return sorted(times)[CAL_REPEATS // 2]


def at_reference_speed(seconds: float, calibrations: list[float]) -> float:
    """A time measured while the calibration loop took ``calibrations``,
    scaled to the host's reference speed."""
    return seconds * REF_CAL_S / statistics.mean(calibrations)


class CalibratedClock:
    """Times a unit.  When ``calibrated``, runs the calibration loop at the
    start, at a checkpoint whenever ``CAL_EVERY_S`` have passed since the
    last calibration, and at the end, keeping the loop's own time out of
    ``wall_s``."""

    def __init__(self, calibrated: bool):
        self.calibrated = calibrated
        self.wall_s = 0.0
        self.cals: list[float] = []

    def start(self) -> None:
        self._calibrate()
        self.last = time.perf_counter()

    def checkpoint(self, force: bool = False) -> None:
        now = time.perf_counter()
        self.wall_s += now - self.last
        if force or now - self.last_cal >= CAL_EVERY_S:
            self._calibrate()
        self.last = time.perf_counter()

    def _calibrate(self) -> None:
        if self.calibrated:
            self.cals.append(calibrate())
        self.last_cal = time.perf_counter()

    def result(self) -> dict:
        self.checkpoint(force=True)
        return {"wall_s": self.wall_s, "calibrations_s": self.cals}


def install_sampler(sample: list[int], clock: CalibratedClock) -> dict:
    """Rebind ``campaigns.enumerate_sc_digraphs`` to return the sampled
    classes of the real enumeration, with a checkpoint of ``clock`` when the
    enumeration is done; returns a dict that records the full class count
    the enumeration produced."""
    from alphaspectra import campaigns

    enumerate_all = campaigns.enumerate_sc_digraphs
    seen: dict = {}

    def sampled(n):
        classes = enumerate_all(n)
        clock.checkpoint()
        seen["class_count"] = len(classes)
        return tuple(classes[i] for i in sample)

    campaigns.enumerate_sc_digraphs = sampled
    return seen


def run_unit(workload: str, inputs: dict, calibrated: bool = True) -> dict:
    """Run one unit and return its wall time, the calibrations made during
    it (see ``CalibratedClock``) and the raw outputs to check.

    The clock starts at the first call into the package and stops once the
    last verdict is in and the report files are written.
    """
    import alphaspectra as ap
    from alphaspectra import cli

    clock = CalibratedClock(calibrated)
    if workload == "oracle-grid":
        return _run_oracle(ap, inputs["triples"], clock)
    if workload == "global-min":
        seen = install_sampler(inputs["sample"], clock)
        argvs = [inputs["argv"]]
    else:
        seen, argvs = {}, inputs["argvs"]
    clock.start()
    codes = []
    for argv in argvs:
        codes.append(cli.main(argv))
        clock.checkpoint()
    timing = clock.result()
    items, verdicts = [], []
    for argv in argvs:
        report = json.loads(Path(argv[argv.index("--json-out") + 1]).read_text())
        items += [[it["label"], it["alpha"], it["radius"]] for it in report["items"]]
        verdicts += [[v["claim"], v["status"]] for v in report["verdicts"]]
    return {
        **timing,
        "exit_code": max(codes),
        "class_count": seen.get("class_count"),
        "items": items,
        "verdicts": verdicts,
    }


def _run_oracle(ap, triples, clock: CalibratedClock) -> dict:
    from alphaspectra.errors import SpectraError

    def attempt(fn, *args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except SpectraError as exc:
            return type(exc).__name__

    digraphs = {}
    rows = []
    clock.start()
    for spec, alpha in triples:
        d = digraphs.get(spec)
        if d is None:
            d = digraphs[spec] = ap.generate(spec)
        res = attempt(ap.spectral_radius, d, alpha, tol=ORACLE_TOL)
        radius = res if isinstance(res, str) else res.radius
        root = attempt(lambda: ap.largest_root(ap.char_equation_for(spec, alpha), tol=ORACLE_TOL))
        scan = attempt(ap.det_scan_largest_real_root, d, alpha, tol=ORACLE_TOL)
        rows.append((spec, alpha, radius, root, scan))
        clock.checkpoint()
    return {
        **clock.result(),
        "rows": [[ap.format_spec(spec), alpha, radius, root, scan] for spec, alpha, radius, root, scan in rows],
    }


# ---------------------------------------------------------------------------
# checks


def triple_passes(radius, root, scan) -> bool:
    """One oracle triple passes iff no route raised and all three agree."""
    vals = (radius, root, scan)
    if not all(isinstance(v, float) for v in vals):
        return False
    return max(vals) - min(vals) <= AGREEMENT


def check_unit(workload: str, out: dict, ref: dict | None) -> dict:
    """Count operations, passes and deviations from the reference.

    ``passed`` counts operations whose outcome is a pass; ``deviations``
    counts outcomes that differ from the seed reference (a wrong radius, a
    changed verdict, a new failure) and are never allowed.  A reference
    failure that now passes is not a deviation.
    """
    if workload == "oracle-grid":
        known = {(spec, alpha) for spec, alpha, _ in ref["failing"]}
        radii = {(spec, alpha): r for spec, alpha, r in ref["radius"]}
        attempted = passed = deviations = 0
        failing = []
        for spec, alpha, radius, root, scan in out["rows"]:
            attempted += 1
            want = radii.get((spec, alpha))
            ok = triple_passes(radius, root, scan)
            passed += ok
            if not ok:
                failing.append([spec, alpha, failure_reason(radius, root, scan)])
            wrong_radius = (
                isinstance(radius, float) and isinstance(want, float) and abs(radius - want) > AGREEMENT
            )
            deviations += wrong_radius or (not ok and (spec, alpha) not in known)
        return {"attempted": attempted, "passed": passed, "deviations": deviations, "failing": failing}

    statuses = [status for _, status in out["verdicts"]]
    attempted = len(statuses)
    passed = sum(status in PASSING for status in statuses)
    deviations = 0 if out["exit_code"] == 0 else 1
    if workload == "global-min":
        attempted += 1 + len(out["items"])
        class_ok = out["class_count"] == ref["class_count"]
        passed += class_ok
        deviations += not class_ok
        want_verdicts = [tuple(v) for v in ref["verdicts"]]
        deviations += sum(tuple(v) != w for v, w in zip(out["verdicts"], want_verdicts))
        deviations += abs(len(out["verdicts"]) - len(want_verdicts))
        radii = {(label, alpha): r for label, alpha, r in ref["radius"]}
        for label, alpha, radius in out["items"]:
            want = radii.get((label, alpha))
            good = want is not None and abs(radius - want) <= AGREEMENT
            passed += good
            deviations += not good
    else:
        deviations += attempted - passed
    return {"attempted": attempted, "passed": passed, "deviations": deviations, "failing": []}


def failure_reason(radius, root, scan) -> str:
    errors = [f"{name} {v}" for name, v in (("radius", radius), ("root", root), ("scan", scan)) if isinstance(v, str)]
    if errors:
        return "; ".join(errors)
    return f"routes differ by {max(radius, root, scan) - min(radius, root, scan):.3e}"
