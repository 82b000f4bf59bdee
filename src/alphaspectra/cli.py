"""Command-line front end.

Verbs: ``radius``, ``family``, ``char-root``, ``enumerate``, ``verify``,
``sweep``.  Every verb is a thin shell over the library; identical inputs
through the API and the CLI produce identical numbers.  Exit codes: 0 on
success (for ``verify``: all non-exploratory verdicts pass), 1 on a
computation or verdict failure, 2 on usage errors, parsed values the
library rejects included (alpha outside [0, 1), campaign parameters out of
range or missing, no family member for the parameters, a size above a
documented bound).
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from collections.abc import Callable
from pathlib import Path

from . import campaigns
from .chareq import char_equation_for, eval_char, kpq_radius, largest_root
from .digraph import read_dgr1, to_dgr1, write_dgr1
from .errors import AlphaRangeError, InfeasibleError, InvalidParamsError, SpectraError, TooLargeError
from .families import FamilySpec, format_spec, generate, parse_spec
from .spectral import DEFAULT_TOL, spectral_radii, spectral_radius


def _parse_alpha_grid(text: str) -> list[float]:
    try:
        grid = [float(tok) for tok in text.split(",") if tok.strip() != ""]
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad alpha grid {text!r}")
    if not grid:
        raise argparse.ArgumentTypeError(f"empty alpha grid {text!r}")
    return grid


def _positive(kind: type) -> Callable[[str], float]:
    """argparse type: ``kind(text)``, rejected unless it is above zero."""

    def parse(text: str) -> float:
        try:
            value = kind(text)
        except ValueError:
            value = None
        if value is None or not value > 0:
            raise argparse.ArgumentTypeError(f"not a positive {kind.__name__}: {text!r}")
        return value

    return parse


def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(prog="spectra", description=__doc__)
    sub = top.add_subparsers(dest="verb", required=True)

    p = sub.add_parser("radius", help="spectral radius of one digraph")
    src = p.add_mutually_exclusive_group(required=True)
    src.add_argument("--graph", help="DGR1 file")
    src.add_argument("--spec", help="family spec, e.g. infty:1,2")
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--tol", type=_positive(float), default=DEFAULT_TOL)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_radius)

    p = sub.add_parser("family", help="write a family digraph as DGR1")
    p.add_argument("--spec", required=True)
    p.add_argument("--out", help="output file (default: stdout)")
    p.set_defaults(func=_cmd_family)

    p = sub.add_parser("char-root", help="largest root of a family's characteristic function")
    p.add_argument("--spec", required=True)
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--tol", type=_positive(float), default=DEFAULT_TOL)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_char_root)

    p = sub.add_parser("enumerate", help="all strongly connected digraphs up to isomorphism")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--out", help="directory for DGR1 files plus manifest")
    p.set_defaults(func=_cmd_enumerate)

    p = sub.add_parser("verify", help="run a verification campaign")
    p.add_argument(
        "--campaign",
        required=True,
        choices=["family-extremes", "global-min", "bipartite-min", "transform-lemmas"],
    )
    p.add_argument("--alpha-grid", type=_parse_alpha_grid, default=[0.0, 0.25, 0.5])
    p.add_argument("--family", choices=["infty", "theta", "bicyclic", "combined"])
    p.add_argument("--n", type=int)
    p.add_argument("--s", type=int)
    p.add_argument("--p", type=int)
    p.add_argument("--q", type=int)
    p.add_argument("--trials", type=_positive(int), default=500)
    p.add_argument("--seed", type=int, default=20240)
    p.add_argument("--json-out", help="write the report as JSON")
    p.add_argument("--csv-out", help="write the per-item table as CSV")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("sweep", help="radius over an alpha range for a spec list")
    p.add_argument("--spec-list", required=True, help="file with one family spec per line")
    p.add_argument("--alpha-from", type=float, required=True)
    p.add_argument("--alpha-to", type=float, required=True)
    p.add_argument("--steps", type=_positive(int), required=True)
    p.add_argument("--out", help="CSV output file (default: stdout)")
    p.set_defaults(func=_cmd_sweep)
    return top


def _load_digraph(args):
    if args.graph:
        return read_dgr1(args.graph)
    return generate(parse_spec(args.spec))


def _cmd_radius(args) -> int:
    d = _load_digraph(args)
    res = spectral_radius(d, args.alpha, args.tol)
    if args.json:
        print(
            json.dumps(
                {
                    "radius": res.radius,
                    "enclosure": [res.enclosure.lo, res.enclosure.hi],
                    "perron": [float(v) for v in res.perron],
                    "iterations": res.iterations,
                    "residual": res.residual,
                }
            )
        )
    else:
        print(f"radius {res.radius!r}")
        print(f"enclosure [{res.enclosure.lo!r}, {res.enclosure.hi!r}]")
        print("perron " + " ".join(repr(float(v)) for v in res.perron))
        print(f"iterations {res.iterations}")
    return 0


def _cmd_family(args) -> int:
    d = generate(parse_spec(args.spec))
    if args.out:
        write_dgr1(d, args.out)
    else:
        sys.stdout.write(to_dgr1(d))
    return 0


def _cmd_char_root(args) -> int:
    spec = parse_spec(args.spec)
    if spec.kind == "kpq":
        p, q = spec.params
        root = kpq_radius(p, q, args.alpha)
        a = args.alpha
        residual = abs(root * root - a * (p + q) * root - p * q + 2 * a * p * q)
    else:
        eq = char_equation_for(spec, args.alpha)
        root = largest_root(eq, args.tol)
        residual = abs(eval_char(eq, root))
    if args.json:
        print(json.dumps({"root": root, "residual": residual}))
    else:
        print(f"root {root!r}")
        print(f"residual {residual!r}")
    return 0


def _cmd_enumerate(args) -> int:
    classes = campaigns.enumerate_sc_digraphs(args.n)
    manifest = {"n": args.n, "count": len(classes), "classes": []}
    outdir = Path(args.out) if args.out else None
    if outdir is not None:
        outdir.mkdir(parents=True, exist_ok=True)
    for idx, (d, key) in enumerate(classes):
        name = f"sc_n{args.n}_{idx:05d}.dgr"
        manifest["classes"].append({"file": name, "arcs": len(d.arcs), "key": key.hex()})
        if outdir is not None:
            write_dgr1(d, outdir / name)
    text = json.dumps(manifest, indent=2)
    if outdir is not None:
        (outdir / "manifest.json").write_text(text + "\n")
        print(f"wrote {len(classes)} classes to {outdir}")
    else:
        print(text)
    return 0


def _require(args, parser_hint: str, **needed) -> None:
    missing = [k for k, v in needed.items() if v is None]
    if missing:
        raise InvalidParamsError(f"campaign {parser_hint} needs --" + ", --".join(missing))


def _cmd_verify(args) -> int:
    reports = []
    if args.campaign == "family-extremes":
        _require(args, "family-extremes", family=args.family, n=args.n)
        s = args.s if args.s is not None else 2
        for alpha in args.alpha_grid:
            reports.append(campaigns.verify_family_extremes(args.family, args.n, s, alpha))
    elif args.campaign == "global-min":
        n = args.n if args.n is not None else 5
        for alpha in args.alpha_grid:
            reports.append(campaigns.verify_global_minima(n, alpha))
    elif args.campaign == "bipartite-min":
        _require(args, "bipartite-min", n=args.n, p=args.p, q=args.q)
        for alpha in args.alpha_grid:
            reports.append(campaigns.verify_bipartite_minimum(args.n, args.p, args.q, alpha))
    else:  # transform-lemmas: seeded, alpha chosen internally
        reports.append(campaigns.verify_transform_lemmas(args.trials, args.seed))
    report = campaigns.merge_reports(args.campaign, reports)

    if args.json_out:
        Path(args.json_out).write_text(report.to_json() + "\n")
    if args.csv_out:
        Path(args.csv_out).write_text(report.to_csv())
    counts = {}
    for v in report.verdicts:
        counts[v.status] = counts.get(v.status, 0) + 1
    for v in report.verdicts:
        line = f"[{v.status}] {v.claim}"
        if v.detail:
            line += f" -- {v.detail}"
        print(line)
    print(
        f"campaign {args.campaign}: "
        + ", ".join(f"{k}={v}" for k, v in sorted(counts.items()))
        + f" (runtime {report.runtime_s:.2f}s)"
    )
    return 0 if report.passed() else 1


def _cmd_sweep(args) -> int:
    specs: list[FamilySpec] = []
    for line in Path(args.spec_list).read_text().splitlines():
        line = line.strip()
        if line and not line.startswith("#"):
            specs.append(parse_spec(line))
    lo, hi = args.alpha_from, args.alpha_to
    alphas = [lo + (hi - lo) * k / max(args.steps - 1, 1) for k in range(args.steps)]
    out = open(args.out, "w", newline="") if args.out else sys.stdout
    try:
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(["spec", "alpha", "radius"])
        rows = [(spec, d, alpha) for spec, d in zip(specs, map(generate, specs)) for alpha in alphas]
        results = spectral_radii([d for _, d, _ in rows], [alpha for _, _, alpha in rows])
        for (spec, _, alpha), res in zip(rows, results):
            writer.writerow([format_spec(spec), repr(alpha), repr(res.radius)])
    finally:
        if args.out:
            out.close()
    return 0


#: library rejections of a parsed value; like argparse's own, they exit 2
USAGE_ERRORS = (AlphaRangeError, InfeasibleError, InvalidParamsError, TooLargeError)


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (SpectraError, OSError) as exc:
        if getattr(args, "json", False):
            print(json.dumps({"error": type(exc).__name__, "message": str(exc)}))
        print(f"error: {exc}", file=sys.stderr)
        return 2 if isinstance(exc, USAGE_ERRORS) else 1


if __name__ == "__main__":
    sys.exit(main())
