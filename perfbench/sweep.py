"""Run the benchmark over several seeds and summarize each metric.

    python3 perfbench/sweep.py --seeds 1-10 --trace 0 --out perfbench/baseline/NAME.json \
        [--workloads global-min,oracle-grid,lemma-fuzz] [--seconds S]

Runs ``run.py`` once per (workload, seed), one at a time, from the current
directory, and writes every result line plus, per workload and metric,
the median, the quartiles (``statistics.quantiles(values, n=4)``) and the
spread (interquartile distance over the median).  The same file format
holds the before and after rows of a performance change.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def seed_list(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def summarize(values: list[float]) -> dict:
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med if med else None, "values": values}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=seed_list, required=True, help="e.g. 1-10 or 3,5,8")
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--workloads", default=",".join(w["name"] for w in SPEC["workloads"]))
    parser.add_argument("--seconds", type=float, default=SPEC["run_seconds"])
    parser.add_argument("--out", required=True)
    args = parser.parse_args()

    out: dict = {"trace": args.trace, "seconds": args.seconds, "workloads": {}}
    for workload in args.workloads.split(","):
        runs = []
        for seed in args.seeds:
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
                   "--seconds", str(args.seconds), "--trace", str(args.trace)]
            proc = subprocess.run(cmd, capture_output=True, text=True)
            if proc.returncode != 0:
                print(proc.stderr, file=sys.stderr)
                return proc.returncode
            record_line, result_line = proc.stdout.strip().splitlines()[-2:]
            runs.append({"seed": seed, "record": json.loads(record_line)["record"], "result": json.loads(result_line)})
            result = runs[-1]["result"]
            print(workload, seed, result["correct"], result["failed"],
                  {k: round(v["value"], 4) for k, v in result["metrics"].items() if k in ("setup_s", "wall_s")},
                  flush=True)
        names = runs[0]["result"]["metrics"]
        out["workloads"][workload] = {
            "runs": runs,
            "correct": all(r["result"]["correct"] for r in runs),
            "metrics": {
                name: {"unit": names[name]["unit"], **summarize([r["result"]["metrics"][name]["value"] for r in runs])}
                for name in names
            },
        }
    Path(args.out).parent.mkdir(parents=True, exist_ok=True)
    Path(args.out).write_text(json.dumps(out, indent=1) + "\n")
    for workload, entry in out["workloads"].items():
        for name, m in entry["metrics"].items():
            if args.trace == 0 or name in ("trace.overhead_s", "trace.coverage"):
                print(f"{workload:12s} {name:22s} median {m['median']:.6g} spread {m['spread']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
