"""The bruhatcap benchmark.

    python3 perfbench/run.py --workload bounds --seed 1 --seconds 20 --trace 0

Workloads (see workloads.py for why each exists):
  bounds   Fraction pairing path: upper/lower bound, closed form, coweights
  confirm  hz_bounds below the confirmation cap: Weyl group and graphs
  unitary  exact Cayley-graph diameter, n = 6 and n = 7
  cli      cold CLI processes: capacity, table, graph export, verify

With --trace 0 the run sets the workload up cold several times, then
measures a closed loop with tracing off and prints the end-to-end metrics.
With --trace 1 it runs a fixed op list untraced, traced and profiled and
prints the per-layer metrics (layers.py).  Either way the last stdout line
is one JSON object with `correct`, `attempted`, `failed` and `metrics`; the
line before it is a report with the metadata, per-class times, the error
rate and the raw, unscaled times.  Exits 2 without a result if the
checkout or a worker fails.

Every reported time is scaled by workloads.SpeedProbe to one reference
machine speed, because the speed of a shared machine drifts by more than
the bounds in BENCHMARK.json.  The cli workload runs a fixed script; its
seed changes nothing.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import threading
from time import perf_counter

import layers
import workloads

HERE = workloads.HERE
ROOT = workloads.ROOT
OUT = HERE / "out"
# Set-up samples per timed run: at least SETUP_MIN, more while they fit in
# SETUP_BUDGET_S, so a cheap set-up is sampled often enough that its
# median is steady.
SETUP_MIN = 3
SETUP_MAX = 15
SETUP_BUDGET_S = 2.0
RUN_LIMIT_S = 170.0


class BenchError(Exception):
    pass


def _worker(workload: str, seed: int, mode: str, seconds: float,
            deadline: float) -> tuple[float, dict | None]:
    """Spawn a worker; return (seconds from spawn to `ready`, its JSON result)."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload, "--seed", str(seed),
           "--mode", mode, "--seconds", str(seconds)]
    start = perf_counter()
    with subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True) as proc:
        watchdog = threading.Timer(max(1.0, deadline - perf_counter()), proc.kill)
        watchdog.start()
        try:
            first = proc.stdout.readline()
            setup_s = perf_counter() - start
            rest = proc.stdout.read()
            code = proc.wait()
        finally:
            watchdog.cancel()
    if first.strip() != "ready" or code != 0:
        raise BenchError(f"worker {mode} for {workload} failed with exit code {code}")
    lines = rest.strip().splitlines()
    if not lines:
        raise BenchError(f"worker {mode} for {workload} printed no result")
    return setup_s, json.loads(lines[-1])


def _setup_sample(args, deadline: float, in_process: bool) -> tuple[float, float]:
    """(raw, scaled) seconds of one cold set-up."""
    if in_process:
        raw, result = _worker(args.workload, args.seed, "setup", 0, deadline)
        probe = workloads.SpeedProbe()
        probe.samples, probe.spent_s = result["probe"], result["probe_spent_s"]
        return raw, probe.scaled_setup(raw)
    # The cli set-up is a cold trivial command; the probe runs either side.
    probe = workloads.SpeedProbe()
    probe.refresh(force=True)
    start = perf_counter()
    code, _ = workloads.run_cli(workloads.SETUP_COMMAND)
    raw = perf_counter() - start
    probe.refresh(force=True)
    if code != 0:
        raise BenchError(f"setup command exited {code}")
    return raw, workloads.SpeedProbe.scale(raw, statistics.median(v for _t, v in probe.samples))


def percentile(values: list[float], p: float) -> tuple[float, int]:
    """Nearest-rank percentile and the number of samples beyond it."""
    xs = sorted(values)
    rank = max(1, math.ceil(p / 100.0 * len(xs)))
    return xs[rank - 1], len(xs) - rank


def scaled(samples: list[dict], probe: list) -> list[dict]:
    """The rows with `t`: op seconds scaled to the reference machine speed."""
    ref = workloads.SpeedProbe.reference_at
    return [
        dict(row, t=workloads.SpeedProbe.scale(row["s"], ref(probe, row["start"], row["start"] + row["s"])))
        for row in samples
    ]


def class_medians(samples: list[dict]) -> dict[str, tuple[int, float]]:
    """Per size class: op count and median scaled op seconds."""
    groups: dict[str, list[float]] = {}
    for row in samples:
        groups.setdefault(row["label"], []).append(row["t"])
    return {k: (len(v), statistics.median(v)) for k, v in groups.items()}


def latency(wl: workloads.Workload, samples: list[dict],
            classes: dict[str, tuple[int, float]]) -> tuple[float, float, dict]:
    """(p50 ms, tail ms, how they were taken) from scaled rows."""
    if wl.percentile_basis == "op":
        ms = [row["t"] * 1000.0 for row in samples]
        tail, beyond = percentile(ms, wl.tail_percentile)
        return statistics.median(ms), tail, {
            "basis": "op", "samples": len(ms),
            "tail_percentile": wl.tail_percentile, "tail_samples_beyond": beyond,
        }
    # p50 is the mean of the per-class medians weighted by the mix; the tail
    # is the mean of the slowest quarter of the mix (expected shortfall at
    # 75%), with each op counted at its class median.
    n_ops = sum(n for n, _ in classes.values())
    need = n_ops / 4.0
    taken = 0.0
    total = 0.0
    used = []
    for name in sorted(classes, key=lambda k: -classes[k][1]):
        n, med = classes[name]
        take = min(n, need - taken)
        taken += take
        total += take * med
        used.append(name)
        if taken >= need:
            break
    p50 = sum(n * med for n, med in classes.values()) / n_ops
    return p50 * 1000.0, total / need * 1000.0, {
        "basis": "class: p50 = per-class medians weighted by the mix, "
                 "tail = mean of the slowest quarter of the mix at class medians",
        "tail_classes": used, "tail_samples": sum(classes[k][0] for k in used),
    }


def summarize(wl: workloads.Workload, samples: list[dict], probe: list, setups: list[float],
              peak_rss_mb: float) -> tuple[dict, dict, int]:
    """End-to-end metrics of a timed run, its report, and the failed op count.

    Each op time is scaled by the probe samples taken near it; `setups`
    are already scaled.
    """
    samples = scaled(samples, probe)
    values = [v for _t, v in probe]
    reference = statistics.median(values)
    ok = sum(1 for row in samples if row["ok"])
    failed = len(samples) - ok
    busy = sum(row["s"] for row in samples)
    scaled_busy = sum(row["t"] for row in samples)
    classes = class_medians(samples)
    p50, tail, how = latency(wl, samples, classes)
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "ops_per_s": (ok / scaled_busy, "1/s"),
        "op_p50_ms": (p50, "ms"),
        "op_tail_ms": (tail, "ms"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    report = {
        "error_rate": {"value": failed / len(samples), "unit": "ratio"},
        "setup_samples_s": setups,
        "ops": len(samples),
        "passes": len({row["pass"] for row in samples}),
        "raw_busy_s": busy,
        "raw_mean_ops_per_s": ok / busy,
        "reference_s": {"nominal": workloads.SpeedProbe.REFERENCE_S,
                        "median": reference,
                        "min": min(values), "max": max(values), "samples": len(values)},
        "latency": how,
        "classes": {k: {"ops": n, "median_ms": med * 1000.0} for k, (n, med) in classes.items()},
        "failures": [row for row in samples if not row["ok"]][:5],
    }
    return metrics, report, failed


def timed(args, deadline: float) -> tuple[dict, dict, int, int]:
    wl = workloads.make(args.workload)
    setups = [_setup_sample(args, deadline, wl.in_process) for _ in range(SETUP_MIN)]
    while len(setups) < SETUP_MAX and sum(raw for raw, _ in setups) < SETUP_BUDGET_S:
        setups.append(_setup_sample(args, deadline, wl.in_process))
    _, result = _worker(args.workload, args.seed, "time", args.seconds, deadline)
    metrics, report, failed = summarize(wl, result["samples"], result["probe"],
                                        [scaled_s for _, scaled_s in setups], result["peak_rss_mb"])
    report["raw_setup_samples_s"] = [raw for raw, _ in setups]
    report["package_defaults"] = result["package_defaults"]
    return metrics, report, len(result["samples"]), failed


def traced(args, deadline: float) -> tuple[dict, dict, int, int]:
    _, result = _worker(args.workload, args.seed, "trace", 0, deadline)
    passes = result["passes"]
    untraced, traced_rows, profiled = passes["untraced"], passes["traced"], passes["profiled"]
    digests = [row["digest"] for row in untraced]
    mismatched = sum(
        1 for k, d in enumerate(digests)
        if traced_rows[k]["digest"] != d or profiled[k]["digest"] != d
    )
    rows = untraced + traced_rows + profiled
    failed = sum(1 for row in rows if not row["ok"]) + mismatched
    probe = result["probe"]
    overhead = (sum(r["t"] for r in scaled(untraced, probe))
                / sum(r["t"] for r in scaled(traced_rows, probe)))
    share = result["fraction_self_s"] / result["profiled_self_s"]
    reference = statistics.median(v for _t, v in probe)
    values = layers.layer_values(result["totals"], share, overhead,
                                 workloads.SpeedProbe.REFERENCE_S / reference)
    metrics = {name: (values[name], unit) for name, unit, _b, _m in layers.LAYERS}
    report = {
        "trace_ops": result["n_ops"],
        "traced_equals_untraced": mismatched == 0,
        "reference_s": {"nominal": workloads.SpeedProbe.REFERENCE_S, "median": reference},
        "moves": {name: moves for name, _u, _b, moves in layers.LAYERS},
        "package_defaults": result["package_defaults"],
    }
    return metrics, report, len(rows), failed


def _git_revision() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                          capture_output=True, text=True, check=False)
    return proc.stdout.strip() or None


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args(argv)
    deadline = perf_counter() + RUN_LIMIT_S

    try:
        workloads.ensure_package()
        # Compile bytecode once, untimed, so no set-up sample pays for it.
        warm = subprocess.run([sys.executable, "-c", "import bruhatcap.cli"], cwd=ROOT,
                              env=workloads.cli_env(), check=False, timeout=60)
        if warm.returncode != 0:
            raise BenchError("cannot import bruhatcap from the checkout")
        run = traced if args.trace else timed
        metrics, report, attempted, failed = run(args, deadline)
    except (BenchError, RuntimeError, OSError, subprocess.SubprocessError, json.JSONDecodeError,
            KeyError) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 2

    report.update({
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_revision": _git_revision(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "pinned": workloads.pinned(),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    })
    OUT.mkdir(exist_ok=True)
    with open(OUT / f"report-{args.workload}-seed{args.seed}-trace{args.trace}.json", "w",
              encoding="utf-8") as fh:
        json.dump(report, fh, indent=1)
    print(json.dumps(report))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
