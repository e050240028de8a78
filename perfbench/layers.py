"""Per-layer metrics of the traced run, and what each one should move.

Each entry: (name, unit, better, moves).  `moves` names the end-to-end
metric and workload a change to that layer should show up in, written
down before any change is measured.  BENCHMARK.json lists the same names,
units and directions under `per_layer`.

Seconds (scaled like every benchmark time, see workloads.SpeedProbe) and
counts are totals over one traced process: its set-up plus
one fixed op list (worker.TRACE_PASSES passes), so they repeat between
commits.  A layer that a workload never calls reads 0 on that workload.
"""

from __future__ import annotations

SETUP_MOVES = "setup_s on bounds; ops_per_s on cli (E8 capacity, table, verify); no change on unitary"
BOUNDS_MOVES = "ops_per_s, op_p50_ms, op_tail_ms on bounds"
CONFIRM_MOVES = "ops_per_s on confirm"
GENERATE_MOVES = "setup_s and peak_rss_mb on confirm; ops_per_s and peak_rss_mb on cli"
CAYLEY_MOVES = "ops_per_s, op_tail_ms on unitary"
CLI_MOVES = "ops_per_s and peak_rss_mb on cli"

LAYERS: tuple[tuple[str, str, str, str], ...] = (
    ("rootsystem.build.s", "s", "lower", SETUP_MOVES),
    ("rootsystem.build.cold", "count", "lower", SETUP_MOVES),
    ("linalg.solve_columns.s", "s", "lower", SETUP_MOVES),
    ("linalg.solve_columns.calls", "count", "lower", SETUP_MOVES),
    ("capacity.w0_decomposition.s", "s", "lower", SETUP_MOVES),
    ("rootsystem.pairing.calls", "count", "lower", BOUNDS_MOVES),
    ("linalg.dot.calls", "count", "lower", BOUNDS_MOVES),
    ("capacity.upper_bound.s", "s", "lower", BOUNDS_MOVES),
    ("capacity.lower_bound.s", "s", "lower", BOUNDS_MOVES),
    ("capacity.closed_form_table.s", "s", "lower", BOUNDS_MOVES),
    ("capacity.coweight_oscillation_bound.s", "s", "lower", BOUNDS_MOVES),
    ("kernel.fraction_share", "ratio", "lower", "ops_per_s on the workload where it drops"),
    ("weyl.generate.s", "s", "lower", GENERATE_MOVES),
    ("weyl.generate.elements", "count", "lower", GENERATE_MOVES),
    ("weyl.parabolic.s", "s", "lower", CONFIRM_MOVES),
    ("weyl.parabolic.calls", "count", "lower", CONFIRM_MOVES),
    ("weyl.parabolic.cosets", "count", "lower", CONFIRM_MOVES),
    ("graphs.quantum_bruhat_graph.s", "s", "lower", CONFIRM_MOVES),
    ("graphs.quantum_bruhat_graph.edges", "count", "lower", CONFIRM_MOVES),
    ("graphs.d_min.s", "s", "lower", CONFIRM_MOVES),
    ("graphs.bruhat_graph.s", "s", "lower", CONFIRM_MOVES),
    ("graphs.bruhat_graph.edges", "count", "lower", CONFIRM_MOVES),
    ("capacity.hz_bounds.self_s", "s", "lower", CONFIRM_MOVES),
    ("graphs.min_path_area.s", "s", "lower", "ops_per_s on confirm (most of an F4 op); no change on bounds"),
    ("graphs.min_path_area.calls", "count", "lower", "ops_per_s on confirm; no change on bounds"),
    ("graphs.rebuild_ratio", "ratio", "lower", "ops_per_s on confirm and unitary"),
    ("graphs.cayley_graph.s", "s", "lower", CAYLEY_MOVES),
    ("graphs.cayley_graph.edges", "count", "lower", CAYLEY_MOVES),
    ("graphs.cayley_distances.s", "s", "lower", CAYLEY_MOVES),
    ("graphs.export.s", "s", "lower", CLI_MOVES),
    ("graphs.export.bytes", "count", "lower", CLI_MOVES),
    ("cli.capacity.s", "s", "lower", CLI_MOVES),
    ("cli.table.s", "s", "lower", CLI_MOVES),
    ("cli.graph.s", "s", "lower", CLI_MOVES),
    ("cli.verify.s", "s", "lower", CLI_MOVES),
    ("capacity.hz_bounds.dmin_consistent", "ratio", "higher", "must stay at its seed value on confirm"),
    ("trace.overhead", "ratio", "higher", "none: how far the traced numbers can be trusted"),
)


def layer_values(totals: dict, fraction_share: float, overhead: float,
                 time_scale: float) -> dict[str, float]:
    """Turn merged tracer totals into the LAYERS metrics.

    Span seconds are multiplied by `time_scale`, the run's speed-probe
    factor, like every other time the benchmark reports.
    """
    spans, counts = totals["spans"], totals["counts"]

    def span(name: str, field: str):
        value = spans.get(name, {}).get(field, 0)
        return value * time_scale if field != "calls" else value

    hz_calls = counts.get("capacity.hz_bounds.calls", 0)
    distinct = len(totals["graph_keys"])
    derived = {
        "kernel.fraction_share": fraction_share,
        "trace.overhead": overhead,
        "graphs.rebuild_ratio": counts.get("graphs.constructions", 0) / distinct if distinct else 0.0,
        "capacity.hz_bounds.dmin_consistent":
            counts.get("capacity.hz_bounds.dmin_consistent", 0) / hz_calls if hz_calls else 0.0,
        "capacity.hz_bounds.self_s": span("capacity.hz_bounds", "self_s"),
    }
    out = {}
    for name, _unit, _better, _moves in LAYERS:
        if name in derived:
            out[name] = derived[name]
        elif name.endswith(".s"):
            out[name] = span(name[:-2], "s")
        elif name in counts:
            out[name] = counts[name]
        elif name.endswith(".calls"):
            out[name] = span(name[: -len(".calls")], "calls")
        else:
            out[name] = 0
    return out
