"""A/B runs of the campaign benchmark on two commits.

    python3 tools/bench_ab.py --parent REF [--change REF] --label NAME \
        --seed FIRST --workload global-min:10 [--workload oracle-grid:3 ...]

Run from the root of a checkout.  Each ref is exported with ``git archive``
into its own temporary directory, so neither side runs from the working
tree and the repository's ``.git`` is left untouched.  For every workload,
``WORKLOAD:PAIRS`` pairs run ``python3 perfbench/run.py --trace 0`` once in
each tree with one seed per pair, counting up from ``--seed``; the side that
runs first alternates with the seed.  Every run lasts the ``run_seconds``
of the change's ``BENCHMARK.json``, and runs with ``RUN_ENV`` set, so
every interpreter compiles the exported sources afresh as on a host that
writes no bytecode.

Writes ``BENCH_<label>.json``: per workload the seeds, every run's value of
every end-to-end metric, their median and quartiles (inclusive method), all
to 4 decimals, and how many pairs the change wins on ``wall_s``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tarfile
import tempfile
from importlib.metadata import version
from pathlib import Path

SIDES = ("parent", "change")
#: a run stops starting units after 120 s; this bounds the last one too
RUN_TIMEOUT_S = 600
#: set for every run: without it the first run writes ``__pycache__`` into
#: the export and later runs skip compiling, which lowers their setup_s and
#: peak_rss_mb below those of a fresh checkout
RUN_ENV = {"PYTHONDONTWRITEBYTECODE": "1"}


def git(*args: str) -> str:
    return subprocess.run(["git", *args], check=True, capture_output=True, text=True).stdout.strip()


def export(ref: str, dest: Path) -> None:
    """The tree of ref, as committed, extracted under dest."""
    proc = subprocess.Popen(["git", "archive", "--format=tar", ref], stdout=subprocess.PIPE)
    with tarfile.open(fileobj=proc.stdout, mode="r|") as tar:
        tar.extractall(dest, filter="data")
    if proc.wait() != 0:
        raise SystemExit(f"git archive {ref} failed")


def run_once(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    """The result object that perfbench/run.py prints last."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", repr(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=tree, env={**os.environ, **RUN_ENV}, capture_output=True, text=True,
                          timeout=RUN_TIMEOUT_S)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} in {tree} exited with {proc.returncode}:\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summary(runs: list[float]) -> dict:
    """Median, quartiles and runs, to 4 decimals."""
    q1, _, q3 = statistics.quantiles(runs, n=4, method="inclusive")
    return {k: round(v, 4) for k, v in (("median", statistics.median(runs)), ("q1", q1), ("q3", q3))} | {
        "runs": [round(v, 4) for v in runs]}


def compare(workload: str, pairs: int, seeds: list[int], seconds: float, trees: dict) -> dict:
    results = {side: [] for side in SIDES}
    for k, seed in enumerate(seeds):
        for side in SIDES if k % 2 == 0 else SIDES[::-1]:
            results[side].append(run_once(trees[side], workload, seed, seconds))
            print(f"{workload} seed {seed} {side}: wall_s {results[side][-1]['metrics']['wall_s']['value']:.4f}",
                  file=sys.stderr)
    row = {"pairs": pairs, "seconds": seconds, "seeds": seeds}
    for side in SIDES:
        row[f"{side}_all_correct"] = all(r["correct"] for r in results[side])
        row[f"{side}_failed"] = sum(r["failed"] for r in results[side])
    walls = [[r["metrics"]["wall_s"]["value"] for r in results[side]] for side in SIDES]
    row["wall_s_change_wins"] = f"{sum(c < p for p, c in zip(*walls))} of {pairs}"
    row["metrics"] = {
        name: {
            **{side: summary([r["metrics"][name]["value"] for r in results[side]]) for side in SIDES},
            "unit": metric["unit"],
        }
        for name, metric in results["parent"][0]["metrics"].items()
    }
    return row


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True)
    parser.add_argument("--change", default="HEAD")
    parser.add_argument("--label", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--workload", action="append", required=True, metavar="NAME:PAIRS")
    args = parser.parse_args(argv)

    plan = [(name, int(pairs)) for name, pairs in (w.split(":") for w in args.workload)]
    if any(pairs < 2 for _, pairs in plan):
        parser.error("quartiles need at least 2 pairs per workload")
    shas = {side: git("rev-parse", f"{ref}^{{commit}}") for side, ref in zip(SIDES, (args.parent, args.change))}
    seconds = json.loads(git("show", f"{shas['change']}:BENCHMARK.json"))["run_seconds"]
    record = {
        "what": f"perfbench/run.py --seconds {seconds:g} --trace 0, untraced; parent and change run alternately, "
                "the side that runs first alternating with the seed, each from its own copy of the tree "
                "(tools/bench_ab.py). Values are the metrics of the last line run.py prints; median and "
                "quartiles (inclusive method) over the runs.",
        "parent_sha": shas["parent"],
        "change_sha": shas["change"],
        "src_trees": {side: git("rev-parse", f"{sha}:src") for side, sha in shas.items()},
        "env": {"nproc": len(os.sched_getaffinity(0)), "python": platform.python_version(),
                "numpy": version("numpy"), "machine": platform.machine(), **RUN_ENV},
        "workloads": {},
    }
    seed = args.seed
    with tempfile.TemporaryDirectory(prefix="bench_ab_") as tmp:
        trees = {side: Path(tmp) / side for side in SIDES}
        for side in SIDES:
            export(shas[side], trees[side])
        for name, pairs in plan:
            seeds = list(range(seed, seed + pairs))
            seed += pairs
            record["workloads"][name] = compare(name, pairs, seeds, seconds, trees)
    out = Path(f"BENCH_{args.label}.json")
    out.write_text(json.dumps(record, indent=1) + "\n")
    print(out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
