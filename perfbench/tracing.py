"""Per-layer tracing from outside the package.

``Tracer.install`` rebinds the public names at each module boundary of
``alphaspectra`` (every module global, package re-export and class
attribute that refers to a traced function) to a wrapper that records a
span ``(id, parent, name, start, end)``.  Functions called hundreds of
thousands of times per unit are wrapped in *count* mode instead: they keep
a call count and summed time, and their time is charged as covered time
to the span that called them.  Spans stay in memory until the unit ends.

A name that no longer exists raises :class:`TraceError`, so a refactor that
renames or removes a boundary fails the traced run instead of silently
dropping a layer.

Layers are the package's modules; ``_backend`` is reported as ``backend``
because metric names must start with a letter or digit.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import sys
import time
from collections import Counter, defaultdict


class TraceError(RuntimeError):
    """A traced boundary is missing from the package."""


#: (module, attribute, mode); attribute may be ``Class.method``
TARGETS = (
    ("cli", "main", "span"),
    ("campaigns", "verify_global_minima", "span"),
    ("campaigns", "verify_transform_lemmas", "span"),
    ("campaigns", "enumerate_sc_digraphs", "span"),
    ("campaigns", "merge_reports", "span"),
    ("campaigns", "decide_order", "span"),
    ("campaigns", "VerificationReport.to_json", "span"),
    ("campaigns", "VerificationReport.to_csv", "span"),
    ("families", "generate", "span"),
    ("digraph", "canonical_key", "span"),
    ("digraph", "is_strongly_connected", "span"),
    ("digraph", "make_digraph", "span"),
    ("digraph", "min_relabeled_mask", "span"),
    ("digraph", "adjacency_rows_from_masks", "span"),
    ("digraph", "unpack_arcs", "count"),
    ("digraph", "subdivide_arc", "span"),
    ("digraph", "retarget_in_arcs", "span"),
    ("spectral", "spectral_radius", "span"),
    ("spectral", "build_alpha_matrix", "span"),
    ("spectral", "det_scan_largest_real_root", "span"),
    ("chareq", "char_equation_for", "span"),
    ("chareq", "largest_root", "span"),
    ("chareq", "eval_char", "count"),
    ("_backend", "power_iteration", "span"),
    ("_backend", "det_via_lu", "count"),
    ("_backend", "sc_filter", "span"),
    ("_backend", "perm_min", "span"),
)

LAYERS = ("cli", "campaigns", "families", "digraph", "spectral", "chareq", "backend")

ROOT = 0


def span_name(module: str, attr: str) -> str:
    return f"{module.lstrip('_')}.{attr.split('.')[-1]}"


def layer_of(name: str) -> str:
    return name.split(".", 1)[0]


def unit_of(metric: str) -> str:
    """Unit of a per-layer metric, from its name."""
    if metric.endswith("_s"):
        return "s"
    if metric.endswith("_ratio") or metric == "trace.coverage":
        return "fraction"
    if metric == "spectral.max_enclosure_width":
        return "1"
    return "count"


class Tracer:
    def __init__(self):
        self.spans: list[tuple[int, int, str, float, float]] = []
        self.stack = [ROOT]
        self.ids = itertools.count(ROOT + 1)
        self.errors: Counter = Counter()
        self.count_calls: Counter = Counter()
        self.count_time: defaultdict = defaultdict(float)
        self.covered: defaultdict = defaultdict(float)
        self.observed: Counter = Counter()
        self.maxima: dict[str, float] = defaultdict(float)
        self.originals: dict[str, object] = {}
        self.rebound: list[tuple[object, str, object]] = []

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        """Wrap every target; raise TraceError naming any missing one."""
        missing = []
        resolved = []
        for module, attr, mode in TARGETS:
            try:
                mod = importlib.import_module(f"alphaspectra.{module}")
                owner = mod
                *path, last = attr.split(".")
                for part in path:
                    owner = getattr(owner, part)
                original = getattr(owner, last)
            except (ImportError, AttributeError):
                missing.append(f"alphaspectra.{module}.{attr}")
                continue
            resolved.append((span_name(module, attr), owner, last, original, mode))
        if missing:
            raise TraceError("traced boundaries no longer exist: " + ", ".join(missing))
        modules = [m for key, m in sys.modules.items() if key == "alphaspectra" or key.startswith("alphaspectra.")]
        for name, owner, last, original, mode in resolved:
            self.originals[name] = original
            wrapper = self._wrap(name, original, mode)
            if isinstance(owner, type):
                sites = [(owner, last)]
            else:
                sites = [(mod, key) for mod in modules for key, value in vars(mod).items() if value is original]
            for site, key in sites:
                setattr(site, key, wrapper)
                self.rebound.append((site, key, original))

    def uninstall(self) -> None:
        """Restore every rebound name."""
        for site, key, original in reversed(self.rebound):
            setattr(site, key, original)
        self.rebound.clear()

    def _wrap(self, name, fn, mode):
        clock = time.perf_counter
        stack = self.stack
        if mode == "count":
            calls, spent, covered = self.count_calls, self.count_time, self.covered

            @functools.wraps(fn)
            def counted(*args, **kwargs):
                t0 = clock()
                try:
                    return fn(*args, **kwargs)
                finally:
                    dt = clock() - t0
                    calls[name] += 1
                    spent[name] += dt
                    covered[stack[-1]] += dt

            return counted

        spans, ids, errors = self.spans, self.ids, self.errors
        observe = OBSERVERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = next(ids)
            parent = stack[-1]
            stack.append(sid)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                errors[name, type(exc).__name__] += 1
                raise
            finally:
                t1 = clock()
                stack.pop()
                spans.append((sid, parent, name, t0, t1))
            if observe is not None:
                observe(self, args, result)
            return result

        return traced

    # -- observations --------------------------------------------------------

    def add(self, key: str, value: float = 1) -> None:
        self.observed[key] += value

    def peak(self, key: str, value: float) -> None:
        if value > self.maxima[key]:
            self.maxima[key] = value


def _observe_radius(tracer, args, result):
    tracer.add("spectral.iterations_total", result.iterations)
    tracer.peak("spectral.iterations_max", result.iterations)
    tracer.peak("spectral.max_enclosure_width", result.enclosure.hi - result.enclosure.lo)


OBSERVERS = {
    "campaigns.enumerate_sc_digraphs": lambda t, args, res: t.peak("campaigns.enumerate_classes", len(res)),
    "campaigns.to_json": lambda t, args, res: t.add("campaigns.report_items", len(args[0].items)),
    "backend.sc_filter": lambda t, args, res: t.add("backend.sc_filter_masks", len(args[0])),
    "backend.perm_min": lambda t, args, res: t.add("backend.perm_min_masks", len(args[0])),
    "spectral.spectral_radius": _observe_radius,
}


# ---------------------------------------------------------------------------
# span arithmetic


def union_length(intervals, lo: float, hi: float) -> float:
    """Length of the union of intervals, clipped to [lo, hi]."""
    total, reach = 0.0, lo
    for a, b in sorted(intervals):
        a, b = max(a, reach), min(b, hi)
        if b > a:
            total += b - a
            reach = b
    return total


def self_times(spans, covered=None) -> dict[int, float]:
    """Span id -> duration minus the part covered by its child spans and by
    count-mode calls charged to it."""
    covered = covered or {}
    children = defaultdict(list)
    for _, parent, _, t0, t1 in spans:
        children[parent].append((t0, t1))
    return {
        sid: (t1 - t0) - union_length(children.get(sid, ()), t0, t1) - covered.get(sid, 0.0)
        for sid, _, _, t0, t1 in spans
    }


def summarize(tracer: Tracer, wall_s: float) -> dict[str, float]:
    """Per-layer metrics of one traced unit whose wall time is wall_s."""
    spans = tracer.spans
    own = self_times(spans, tracer.covered)
    total, calls, self_by_name = Counter(), Counter(), Counter()
    name_of = {}
    for sid, _, name, t0, t1 in spans:
        total[name] += t1 - t0
        calls[name] += 1
        self_by_name[name] += own[sid]
        name_of[sid] = name
    for name, spent in tracer.count_time.items():
        total[name] += spent
        calls[name] += tracer.count_calls[name]
        self_by_name[name] += spent

    m: dict[str, float] = {}
    for layer in LAYERS:
        m[f"{layer}.self_s"] = sum(v for k, v in self_by_name.items() if layer_of(k) == layer)
    m["campaigns.enumerate_s"] = total["campaigns.enumerate_sc_digraphs"]
    m["campaigns.campaign_self_s"] = self_by_name["campaigns.verify_global_minima"] + self_by_name[
        "campaigns.verify_transform_lemmas"
    ]
    m["campaigns.report_write_s"] = total["campaigns.to_json"] + total["campaigns.to_csv"]
    for name in (
        "families.generate",
        "digraph.canonical_key",
        "digraph.is_strongly_connected",
        "digraph.make_digraph",
        "spectral.spectral_radius",
        "spectral.det_scan_largest_real_root",
        "chareq.largest_root",
        "backend.power_iteration",
        "backend.det_via_lu",
        "backend.perm_min",
    ):
        key = name.replace("_largest_real_root", "")
        m[f"{key}_s"] = total[name]
        m[f"{key}_calls"] = calls[name]
    m["backend.sc_filter_s"] = total["backend.sc_filter"]
    m["chareq.eval_char_calls"] = calls["chareq.eval_char"]

    iterating = sum(
        t1 - t0
        for _, parent, name, t0, t1 in spans
        if name == "backend.power_iteration" and name_of.get(parent) == "spectral.spectral_radius"
    )
    m["spectral.solve_overhead_s"] = total["spectral.spectral_radius"] - iterating
    m["spectral.convergence_failures"] = tracer.errors["spectral.spectral_radius", "ConvergenceError"]
    m["spectral.det_scan_failures"] = _errors_of(tracer, "spectral.det_scan_largest_real_root")
    m["chareq.largest_root_failures"] = _errors_of(tracer, "chareq.largest_root")

    for key in ("campaigns.report_items", "backend.sc_filter_masks", "backend.perm_min_masks",
                "spectral.iterations_total"):
        m[key] = tracer.observed[key]
    for key in ("campaigns.enumerate_classes", "spectral.iterations_max", "spectral.max_enclosure_width"):
        m[key] = tracer.maxima[key]

    info = tracer.originals["digraph.canonical_key"].cache_info()
    m["digraph.canonical_key_misses"] = info.misses
    lookups = info.hits + info.misses
    m["digraph.canonical_key_hit_ratio"] = info.hits / lookups if lookups else 0.0

    m["trace.wall_s"] = wall_s
    m["trace.coverage"] = sum(self_by_name.values()) / wall_s
    m["trace.spans"] = len(spans)
    return m


def _errors_of(tracer: Tracer, name: str) -> int:
    return sum(n for (span, _), n in tracer.errors.items() if span == name)


def dump_spans(tracer: Tracer) -> dict:
    """Spans in a compact form: a name table plus (id, parent, name index,
    start, end) rows, times relative to the first span's start."""
    names = sorted({name for _, _, name, _, _ in tracer.spans})
    index = {name: i for i, name in enumerate(names)}
    origin = min((t0 for _, _, _, t0, _ in tracer.spans), default=0.0)
    return {
        "names": names,
        "spans": [[sid, parent, index[name], t0 - origin, t1 - origin] for sid, parent, name, t0, t1 in tracer.spans],
        "count_calls": dict(tracer.count_calls),
        "count_time_s": dict(tracer.count_time),
    }
