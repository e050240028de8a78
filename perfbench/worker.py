"""One benchmark process: set up cold, say `ready`, then measure.

Run by run.py, which times the process from spawn to the `ready` line
(the set-up time) and reads the JSON result from the last stdout line.

    python3 perfbench/worker.py --workload bounds --seed 1 --mode time --seconds 20

Modes:
  setup  set up and exit (extra set-up samples);
  time   the timed closed loop, tracing off;
  trace  a fixed op list, each op untraced and then traced, then the whole
         list again under cProfile.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
from pathlib import Path

import workloads
from tracer import Tracer, fraction_profile, merge_totals

OUT = workloads.HERE / "out"

# Passes in the fixed op list of a traced run.  Fixed, not timed, so layer
# counts repeat exactly between commits.
TRACE_PASSES = {"bounds": 4, "confirm": 1, "unitary": 2, "cli": 1}


def _rss_mb(who) -> float:
    return resource.getrusage(who).ru_maxrss / 1024.0


def _ready() -> None:
    print("ready", flush=True)


def time_mode(wl, seed: int, seconds: float) -> dict:
    wl.setup()
    _ready()
    probe = workloads.SpeedProbe()
    samples = workloads.timed_loop(wl, seed, seconds, probe)
    who = resource.RUSAGE_SELF if wl.in_process else resource.RUSAGE_CHILDREN
    return {"samples": samples, "probe": probe.samples, "peak_rss_mb": _rss_mb(who)}


def _cli_runs(wl, op, probe, report: Path | None = None, mode: str = "") -> list[dict]:
    """Run one CLI command; through the launcher when a report file is given."""
    wl.launcher_args = (f"--{mode}-out", str(report)) if report else ()
    try:
        return workloads.run_ops(wl, [op], probe)
    finally:
        wl.launcher_args = ()


def _load(paths) -> list[dict]:
    out = []
    for p in paths:
        with open(p, encoding="utf-8") as fh:
            out.append(json.load(fh))
    return out


def trace_mode(wl, seed: int) -> dict:
    n_ops = TRACE_PASSES[wl.name] * wl.pass_size
    run_dir = OUT / f"{wl.name}-seed{seed}"
    run_dir.mkdir(parents=True, exist_ok=True)

    # Each op runs untraced and then traced, back to back, so both see the
    # same warm state; the profiled pass follows.
    untraced: list[dict] = []
    traced: list[dict] = []
    probe = workloads.SpeedProbe()
    if wl.in_process:
        tracer = Tracer()
        with tracer:
            wl.setup()
        ops = workloads.op_list(wl, seed, n_ops)
        _ready()
        for op in ops:
            untraced += workloads.run_ops(wl, [op], probe)
            traced += workloads.run_ops(wl, [op], probe, tracer)
        profiled, in_fractions, total = fraction_profile(lambda: workloads.run_ops(wl, ops, None))
        tracer.dump(run_dir / "spans.json")
        totals = tracer.layer_totals()
    else:
        reports = [run_dir / "trace-setup.json"]
        _cli_runs(wl, workloads.SETUP_COMMAND, None, reports[0], "trace")
        ops = workloads.op_list(wl, seed, n_ops)
        _ready()
        for k, op in enumerate(ops):
            untraced += _cli_runs(wl, op, probe)
            reports.append(run_dir / f"trace-{k}.json")
            traced += _cli_runs(wl, op, probe, reports[-1], "trace")
        profiles = [run_dir / f"profile-{k}.json" for k in range(len(ops))]
        profiled = [row for op, path in zip(ops, profiles)
                    for row in _cli_runs(wl, op, None, path, "profile")]
        totals = merge_totals(_load(reports))
        sums = _load(profiles)
        in_fractions = sum(p["fractions_s"] for p in sums)
        total = sum(p["total_s"] for p in sums)

    return {
        "n_ops": len(ops),
        "passes": {"untraced": untraced, "traced": traced, "profiled": profiled},
        "probe": probe.samples,
        "totals": totals,
        "fraction_self_s": in_fractions,
        "profiled_self_s": total,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--mode", choices=["setup", "time", "trace"], required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    args = ap.parse_args(argv)

    if args.mode == "setup":
        # The probe samples the machine at start, between set-up steps and
        # at the end, so run.py can scale this set-up time like op times.
        probe = workloads.SpeedProbe()
        probe.refresh()
        workloads.ensure_package()
        wl = workloads.make(args.workload)
        wl.setup(probe)
        probe.refresh(force=True)
        _ready()
        print(json.dumps({"probe": probe.samples, "probe_spent_s": probe.spent_s}), flush=True)
        return 0
    workloads.ensure_package()
    wl = workloads.make(args.workload)
    if args.mode == "time":
        result = time_mode(wl, args.seed, args.seconds)
    else:
        result = trace_mode(wl, args.seed)
    result["package_defaults"] = workloads.package_defaults()
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
