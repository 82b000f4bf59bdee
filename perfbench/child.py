"""One fresh interpreter: set up a workload, then optionally run one unit.

    python3 perfbench/child.py --workload W --seed S \
        --mode setup|run|trace --out-dir DIR --spawned-at T

``--spawned-at`` is the parent's ``time.perf_counter()`` just before it
started this process; on Linux that clock is CLOCK_MONOTONIC and shared by
all processes, so ``setup_s`` spans interpreter start, ``import
alphaspectra`` and input generation.  The result goes to
``DIR/result.json``; traced units also write ``DIR/spans.json``.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from pathlib import Path


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", choices=["setup", "run", "trace"], required=True)
    parser.add_argument("--out-dir", required=True)
    parser.add_argument("--spawned-at", type=float, required=True)
    args = parser.parse_args()
    out_dir = Path(args.out_dir)

    import alphaspectra
    import numpy

    import workloads

    inputs = workloads.make_inputs(args.workload, args.seed, str(out_dir))
    setup_s = time.perf_counter() - args.spawned_at

    result = {
        "setup_s": setup_s,
        "setup_calibration_s": workloads.calibrate(),
        "backend": alphaspectra.BACKEND,
        "have_numba": alphaspectra.HAVE_NUMBA,
        "numpy": numpy.__version__,
        "python": sys.version.split()[0],
        "package_file": alphaspectra.__file__,
    }
    if args.mode != "setup":
        tracer = None
        if args.mode == "trace":
            from tracing import Tracer, dump_spans, summarize

            tracer = Tracer()
            tracer.install()
        out = workloads.run_unit(args.workload, inputs, calibrated=tracer is None)
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        result["unit"] = out
        if tracer is not None:
            result["layers"] = summarize(tracer, out["wall_s"])
            (out_dir / "spans.json").write_text(json.dumps(dump_spans(tracer)))
    (out_dir / "result.json").write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
