"""Outside-in tracing of the bruhatcap layers.

The package itself has no tracing, so the benchmark records spans by
replacing public functions of `rootsystem`, `linalg`, `weyl`, `graphs`,
`capacity` and `cli` with timing wrappers.  A function that another module
imported by value (`capacity.build`, `cli.generate`, ...) is replaced under
every name that refers to it, so calls made inside `hz_bounds` or
`cli.main` become child spans.  The two hottest inner calls
(`RootSystem.pairing`, `linalg.dot`) are only counted: a span per call
would cost more than the call.

Spans stay in memory until `dump`.  A span's self time is its duration
minus the time covered by its child spans; spans nest strictly because
the package is single-threaded.
"""

from __future__ import annotations

import cProfile
import json
import pstats
import sys
from collections import Counter, defaultdict
from time import perf_counter


def _edge_count(graph) -> int:
    if hasattr(graph, "edges"):
        return len(graph.edges)
    return sum(len(out) for out in graph.out)


class Tracer:
    """Installs wrappers into the loaded bruhatcap modules and collects spans."""

    def __init__(self):
        self.spans: list[tuple[str, float, float, int, float]] = []  # name, start, end, parent, self
        self.counts: Counter = Counter()
        self.graph_keys: set = set()
        self._seen: set[int] = set()
        self._keep: list = []  # holds results whose identity was recorded
        self._stack: list[list] = []  # [span id, time covered by children]
        self._patches: list[tuple[object, str, object]] = []

    # -- wrappers ---------------------------------------------------------------

    def _span(self, name: str, fn, after=None):
        spans, stack = self.spans, self._stack

        def wrapper(*args, **kwargs):
            sid = len(spans)
            spans.append(None)
            parent = stack[-1][0] if stack else -1
            frame = [sid, 0.0]
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                duration = end - start
                if stack:
                    stack[-1][1] += duration
                spans[sid] = (name, start, end, parent, duration - frame[1])
            if after is not None:
                after(self, args, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _count(self, name: str, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    def _first_seen(self, obj) -> bool:
        """True the first time an object is returned; caches return the same one."""
        if id(obj) in self._seen:
            return False
        self._seen.add(id(obj))
        self._keep.append(obj)
        return True

    # -- span hooks (record sizes where the work happens) -----------------------

    def _after_build(self, args, rs):
        if self._first_seen(rs):
            self.counts["rootsystem.build.cold"] += 1

    def _after_generate(self, args, weyl):
        if self._first_seen(weyl):
            self.counts["weyl.generate.elements"] += len(weyl)

    def _after_parabolic(self, args, pd):
        self.counts["weyl.parabolic.cosets"] += pd.n_cosets

    def _after_graph(self, name, key):
        def hook(tracer, args, graph):
            tracer.counts[name + ".edges"] += _edge_count(graph)
            tracer.counts["graphs.constructions"] += 1
            tracer.graph_keys.add(key(graph))
        return hook

    def _after_export(self, args, text):
        self.counts["graphs.export.bytes"] += len(text.encode("utf-8"))

    def _after_hz_bounds(self, args, bounds):
        self.counts["capacity.hz_bounds.calls"] += 1
        if bounds.checks.get("dmin_consistent") is True:
            self.counts["capacity.hz_bounds.dmin_consistent"] += 1

    # -- install / uninstall ----------------------------------------------------

    def _plan(self):
        from bruhatcap import capacity, cli, graphs, linalg, rootsystem, weyl

        def rs_key(g):
            return (g.weyl.rs.family, g.weyl.rs.rank)

        spanned = [
            (rootsystem, "build", "rootsystem.build", Tracer._after_build),
            (linalg, "solve_columns", "linalg.solve_columns", None),
            (weyl, "generate", "weyl.generate", Tracer._after_generate),
            (graphs, "quantum_bruhat_graph", "graphs.quantum_bruhat_graph",
             self._after_graph("graphs.quantum_bruhat_graph", rs_key)),
            (graphs, "d_min", "graphs.d_min", None),
            (graphs, "bruhat_graph", "graphs.bruhat_graph",
             self._after_graph("graphs.bruhat_graph", lambda g: rs_key(g) + (g.parabolic.s_p,))),
            (graphs, "min_path_area", "graphs.min_path_area", None),
            (graphs, "cayley_graph", "graphs.cayley_graph",
             self._after_graph("graphs.cayley_graph", lambda g: ("S", g.n))),
            (graphs, "cayley_distances", "graphs.cayley_distances", None),
            (graphs, "cayley_diameter", "graphs.cayley_diameter", None),
            (graphs, "export", "graphs.export", Tracer._after_export),
            (capacity, "w0_decomposition", "capacity.w0_decomposition", None),
            (capacity, "upper_bound", "capacity.upper_bound", None),
            (capacity, "lower_bound", "capacity.lower_bound", None),
            (capacity, "closed_form_table", "capacity.closed_form_table", None),
            (capacity, "coweight_oscillation_bound", "capacity.coweight_oscillation_bound", None),
            (capacity, "hz_bounds", "capacity.hz_bounds", Tracer._after_hz_bounds),
            (cli, "cmd_capacity", "cli.capacity", None),
            (cli, "cmd_table", "cli.table", None),
            (cli, "cmd_graph", "cli.graph", None),
            (cli, "cmd_verify", "cli.verify", None),
            (cli, "cmd_roots", "cli.roots", None),
        ]
        methods = [
            (weyl.WeylGroup, "parabolic", self._span("weyl.parabolic", weyl.WeylGroup.parabolic,
                                                     Tracer._after_parabolic)),
            (rootsystem.RootSystem, "pairing",
             self._count("rootsystem.pairing.calls", rootsystem.RootSystem.pairing)),
        ]
        functions = [(getattr(mod, attr), self._span(name, getattr(mod, attr), after))
                     for mod, attr, name, after in spanned]
        functions.append((linalg.dot, self._count("linalg.dot.calls", linalg.dot)))
        return functions, methods

    def install(self) -> None:
        """Replace each wrapped function under every bruhatcap name bound to it."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        functions, methods = self._plan()
        replacement = {id(orig): wrapper for orig, wrapper in functions}
        for modname, mod in list(sys.modules.items()):
            if mod is None or not (modname == "bruhatcap" or modname.startswith("bruhatcap.")):
                continue
            for attr, value in list(vars(mod).items()):
                wrapper = replacement.get(id(value))
                if wrapper is not None:
                    self._patches.append((mod, attr, value))
                    setattr(mod, attr, wrapper)
        for owner, attr, wrapper in methods:
            self._patches.append((owner, attr, owner.__dict__[attr]))
            setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    # -- results ----------------------------------------------------------------

    def layer_totals(self) -> dict:
        """Per span name: calls, inclusive seconds, self seconds; plus the counters."""
        totals: dict[str, list] = defaultdict(lambda: [0, 0.0, 0.0])
        for name, start, end, _parent, self_s in self.spans:
            row = totals[name]
            row[0] += 1
            row[1] += end - start
            row[2] += self_s
        return {
            "spans": {k: {"calls": c, "s": s, "self_s": ss} for k, (c, s, ss) in sorted(totals.items())},
            "counts": dict(sorted(self.counts.items())),
            "graph_keys": sorted(repr(k) for k in self.graph_keys),
        }

    def dump(self, path) -> None:
        """Write the collected spans and totals as JSON."""
        payload = self.layer_totals()
        payload["span_fields"] = ["name", "start", "end", "parent", "self_s"]
        payload["span_list"] = self.spans
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh)


def merge_totals(parts: list[dict]) -> dict:
    """Sum the `layer_totals` of several traced processes."""
    spans: dict[str, dict] = {}
    counts: Counter = Counter()
    keys: set[str] = set()
    for part in parts:
        for name, row in part["spans"].items():
            acc = spans.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0})
            for field in acc:
                acc[field] += row[field]
        counts.update(part["counts"])
        # A graph built again in a later process is a rebuild, so keys are pooled.
        keys.update(part["graph_keys"])
    return {"spans": spans, "counts": dict(counts), "graph_keys": sorted(keys)}


def fraction_profile(fn):
    """Run fn under cProfile; return (its result, self seconds in fractions.py, all self seconds)."""
    prof = cProfile.Profile()
    prof.enable()
    try:
        result = fn()
    finally:
        prof.disable()
    stats = pstats.Stats(prof).stats
    total = sum(row[2] for row in stats.values())
    in_fractions = sum(row[2] for (filename, _line, _func), row in stats.items()
                       if filename.endswith("fractions.py"))
    return result, in_fractions, total
