"""Record the reference outputs the benchmark checks every unit against.

Run from the repository root on the commit whose outputs are the
reference (the benchmark's references come from its seed commit):

    SPECTRA_NO_NUMBA=1 PYTHONPATH=src python3 perfbench/record_reference.py global-min
    SPECTRA_NO_NUMBA=1 PYTHONPATH=src python3 perfbench/record_reference.py oracle-grid

``global-min`` runs the full n = 5 campaign at both alphas (about 85 s);
``oracle-grid`` runs the full criterion-1 grid up to n = 12 (about 80 s).
"""

from __future__ import annotations

import argparse
import json
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import workloads  # noqa: E402
from envinfo import git_sha  # noqa: E402


def record_global_min() -> dict:
    from alphaspectra import campaigns, cli
    from alphaspectra.digraph import canonical_key

    scratch = Path.cwd() / ".bench_out"
    scratch.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=scratch) as tmp:
        argv = workloads.global_min_argv(tmp)
        if cli.main(argv) != 0:
            raise SystemExit("the global-min campaign failed; no reference recorded")
        report = json.loads((Path(tmp) / "report.json").read_text())
    classes = campaigns.enumerate_sc_digraphs(workloads.GLOBAL_MIN_N)
    index = {canonical_key(d).hex(): i for i, d in enumerate(classes)}
    pinned = set()
    for alpha in workloads.GLOBAL_MIN_ALPHAS:
        ranked = [it["label"] for it in report["items"] if it["alpha"] == alpha]
        pinned.update(index[label] for label in ranked[: workloads.GLOBAL_MIN_PINNED_RANKS])
    return {
        "class_count": len(classes),
        "pinned": sorted(pinned),
        "verdicts": [[v["claim"], v["status"]] for v in report["verdicts"]],
        "radius": [[it["label"], it["alpha"], it["radius"]] for it in report["items"]],
    }


def record_oracle_grid() -> dict:
    triples = [(spec, alpha) for spec in workloads.criterion1_grid() for alpha in workloads.ORACLE_ALPHAS]
    out = workloads.run_unit("oracle-grid", {"triples": triples}, calibrated=False)
    rows = out["rows"]
    return {
        "max_n": 12,
        "failing": [
            [spec, alpha, workloads.failure_reason(radius, root, scan)]
            for spec, alpha, radius, root, scan in rows
            if not workloads.triple_passes(radius, root, scan)
        ],
        "radius": [[spec, alpha, radius] for spec, alpha, radius, _, _ in rows],
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workload", choices=["global-min", "oracle-grid"])
    args = parser.parse_args()
    record = record_global_min() if args.workload == "global-min" else record_oracle_grid()
    record = {"recorded_from": git_sha(Path.cwd()), **record}
    path = workloads.REFERENCE_DIR / f"{args.workload}.json"
    path.parent.mkdir(exist_ok=True)
    path.write_text(json.dumps(record, separators=(",", ":")) + "\n")
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
