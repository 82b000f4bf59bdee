"""Campaign benchmark for alphaspectra: end-to-end metrics and per-layer traces.

    python3 perfbench/run.py --workload global-min|oracle-grid|lemma-fuzz \
        --seed N --seconds S --trace 0|1

Run from the root of a checkout; the package is imported from its ``src``.
Load model: closed loop, one client, one campaign at a time, every unit in
a fresh interpreter (``child.py``) because ``enumerate_sc_digraphs`` and
``canonical_key`` are cached for the life of a process and every ``spectra
verify`` invocation pays them cold.

``--trace 0`` runs untraced units until ``--seconds`` have passed, with
``SETUPS_PER_UNIT`` interpreters that only set up before each unit, and
reports

* ``setup_s``: median time from interpreter start through ``import
  alphaspectra`` and input generation, over every child of the run, at
  the host's reference speed (``workloads.at_reference_speed``, with a
  calibration the child runs right after setting up);
* ``wall_s``: median unit time from the first call into the package to
  the last verdict with the report written, each unit's at the host's
  reference speed (with the calibrations made during it).  Every unit of a
  run does the same work.  The host's speed drifts by up to half for tens
  of seconds at a time; the calibration takes out most of that drift;
* ``pass_rate``: passed operations / attempted operations over all units
  (1 - error rate; an error rate would read 0 on most workloads);
* ``peak_rss_mb``: median peak resident set of a unit's process.

``--trace 1`` alternates untraced and traced units for ``--seconds`` and
reports the per-layer metrics of ``tracing.summarize`` (medians over the
traced units) plus ``trace.overhead_s``, the traced minus the untraced
median wall time.

Every unit's outputs are checked against ``perfbench/reference``:
``failed`` counts deviations (wrong radius, changed verdict, a failure the
seed commit did not have) and ``correct`` is false if there is any.  The
last line of stdout is the result object; the line before it holds the
environment record and, for oracle-grid, the failing triples.  A fuller
record, including the spans of one traced unit, is left under
``.bench_out/``.
"""

from __future__ import annotations

import argparse
import itertools
import json
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import envinfo  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SETUPS_PER_UNIT = 1
CHILD_TIMEOUT_S = 150
#: stop starting units after this long, whatever --seconds says
RUN_CAP_S = 120

END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "pass_rate": "fraction", "peak_rss_mb": "MiB"}


class BenchError(Exception):
    """A child failed to run; the run reports no result."""


def spawn(root: Path, env: dict, args, mode: str, out_dir: Path) -> dict:
    """Run one child to completion and return its result record."""
    out_dir.mkdir(parents=True)
    with open(out_dir / "stdout.txt", "w") as log:
        cmd = [
            sys.executable, str(HERE / "child.py"), "--workload", args.workload, "--seed", str(args.seed),
            "--mode", mode, "--out-dir", str(out_dir), "--spawned-at", repr(time.perf_counter()),
        ]
        try:
            proc = subprocess.run(
                cmd, cwd=root, env=env, stdout=log, stderr=subprocess.PIPE, text=True, timeout=CHILD_TIMEOUT_S
            )
        except subprocess.TimeoutExpired:
            raise BenchError(f"{mode} child exceeded {CHILD_TIMEOUT_S} s")
    if proc.returncode != 0:
        raise BenchError(f"{mode} child exited with {proc.returncode}:\n{proc.stderr[-2000:]}")
    result = json.loads((out_dir / "result.json").read_text())
    src = (root / "src").resolve()
    if src not in Path(result["package_file"]).resolve().parents:
        raise BenchError(f"alphaspectra was imported from {result['package_file']}, not from {src}")
    result["mode"] = mode
    return result


def run_units(root, env, args, out_base: Path) -> tuple[list[float], list[dict]]:
    """Children until --seconds have passed, ending the run at the unit
    boundary nearest to the deadline; setup-only children are spread between
    the units so their median covers the same stretch of time."""
    modes = itertools.cycle(("run", "trace") if args.trace else ("run",))
    needed = {"run", "trace"} if args.trace else {"run"}
    setups: list[float] = []
    units: list[dict] = []
    start = time.perf_counter()
    while True:
        begun = time.perf_counter()
        for _ in range(0 if args.trace else SETUPS_PER_UNIT):
            child = spawn(root, env, args, "setup", out_base / f"setup{len(setups)}")
            setups.append(setup_time(child))
        units.append(spawn(root, env, args, next(modes), out_base / f"unit{len(units)}"))
        now = time.perf_counter()
        done = now - start + 0.5 * (now - begun) >= args.seconds and needed <= {u["mode"] for u in units}
        if done or now - start >= RUN_CAP_S:
            return setups, units


def setup_time(child: dict) -> float:
    return workloads.at_reference_speed(child["setup_s"], [child["setup_calibration_s"]])


def end_to_end(setups: list[float], units: list[dict], checks: list[dict]) -> dict:
    attempted = sum(c["attempted"] for c in checks)
    values = {
        "setup_s": statistics.median(setups + [setup_time(u) for u in units]),
        "wall_s": statistics.median(
            workloads.at_reference_speed(u["unit"]["wall_s"], u["unit"]["calibrations_s"]) for u in units
        ),
        "pass_rate": sum(c["passed"] for c in checks) / attempted,
        "peak_rss_mb": statistics.median(u["peak_rss_mb"] for u in units),
    }
    return {name: {"value": value, "unit": END_TO_END_UNITS[name]} for name, value in values.items()}


def per_layer(units: list[dict]) -> dict:
    traced = [u for u in units if u["mode"] == "trace"]
    plain = [u for u in units if u["mode"] == "run"]
    values = {name: statistics.median(u["layers"][name] for u in traced) for name in traced[0]["layers"]}
    values["trace.overhead_s"] = values["trace.wall_s"] - statistics.median(u["unit"]["wall_s"] for u in plain)
    return {name: {"value": value, "unit": tracing.unit_of(name)} for name, value in sorted(values.items())}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "alphaspectra" / "__init__.py").is_file():
        print(f"error: no alphaspectra package under {root / 'src'}; run from a checkout root", file=sys.stderr)
        return 2
    try:
        ref = workloads.load_reference(args.workload) if args.workload != "lemma-fuzz" else None
    except OSError as exc:
        print(f"error: reference missing: {exc}", file=sys.stderr)
        return 2

    env = envinfo.child_env(root)
    record = {
        **envinfo.host_record(root, env),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }
    out_base = root / ".bench_out" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(out_base, ignore_errors=True)
    try:
        setups, units = run_units(root, env, args, out_base)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    checks = [workloads.check_unit(args.workload, u["unit"], ref) for u in units]
    failed = sum(c["deviations"] for c in checks)
    metrics = per_layer(units) if args.trace else end_to_end(setups, units, checks)
    first = units[0]
    record.update(
        backend=first["backend"],
        have_numba=first["have_numba"],
        numpy=first["numpy"],
        child_python=first["python"],
        units=[
            {"mode": u["mode"], "wall_s": u["unit"]["wall_s"], "setup_s": u["setup_s"],
             "setup_calibration_s": u["setup_calibration_s"], "calibrations_s": u["unit"]["calibrations_s"]}
            for u in units
        ],
        setup_samples_s=setups,
        failing=checks[0]["failing"],
    )
    result = {
        "correct": failed == 0,
        "attempted": sum(c["attempted"] for c in checks),
        "failed": failed,
        "metrics": metrics,
    }

    traced = next((i for i, u in enumerate(units) if u["mode"] == "trace"), None)
    for path in sorted(out_base.iterdir()):
        if traced is not None and path.name == f"unit{traced}":
            shutil.move(str(path / "spans.json"), out_base / "spans.json")
        shutil.rmtree(path)
    (out_base / "result.json").write_text(json.dumps({"record": record, "result": result}, indent=1) + "\n")

    print(json.dumps({"record": record}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
