"""The benchmark's workloads: seeded inputs, the measured call and its oracle.

Every workload is a closed loop with one client: the next op starts when
the previous one has returned.  Ops are grouped in passes, one pass being
one full cycle of the workload's fixed mix of types or commands, and a
timed run always ends on a whole pass, so rates do not depend on where the
clock happened to stop inside a mix whose ops differ in size.

Work that later changes may move is pinned here instead of taken from the
package defaults: the confirmation cap, the Weyl-group cap and the Cayley
cap are passed explicitly on every `confirm` call and to every `cli`
command that takes them.  `table` enumerates no group, and `verify` takes
no cap: its postnikov check enumerates with weyl.DEFAULT_GROUP_CAP, which
the report records under `package_defaults`.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import statistics
import subprocess
import sys
from contextlib import nullcontext
from fractions import Fraction
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

CONFIRM_CAP = 2000
GROUP_CAP = 10_000_000
CAYLEY_CAP = 7
CLI_TIMEOUT_S = 120


def ensure_package():
    """Import bruhatcap from this checkout's src/, never from anywhere else."""
    if not (SRC / "bruhatcap" / "__init__.py").is_file():
        raise RuntimeError(f"no bruhatcap package under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import bruhatcap

    if Path(bruhatcap.__file__).resolve().parent != SRC / "bruhatcap":
        raise RuntimeError(f"bruhatcap imported from {bruhatcap.__file__}, not from {SRC}")


class Workload:
    """One named workload.  Subclasses fill in the hooks below."""

    name = ""
    pass_size = 1
    in_process = True
    # "op": percentiles over single ops.  "class": the ops of one pass differ
    # in size by 20x or more, so a percentile would only say which class it
    # landed on; p50 and tail come from per-class medians instead (run.latency).
    percentile_basis = "op"
    tail_percentile: float | None = None

    def setup(self, probe: SpeedProbe | None = None) -> None:
        """Cold work a process pays before its first op; samples the probe between steps."""

    def make_op(self, rng: random.Random, i: int):
        """Inputs of op number i; drawn from rng in op order."""
        raise NotImplementedError

    def run(self, op):
        """The timed call."""
        raise NotImplementedError

    def check(self, op, result) -> bool:
        """The per-op oracle."""
        raise NotImplementedError

    def label(self, op) -> str:
        """The op's size class."""
        raise NotImplementedError

    def digest(self, result) -> str:
        """A stable fingerprint of a result, to compare traced and untraced runs."""
        return repr(result)


# ---------------------------------------------------------------------------
# bounds: the Fraction pairing path behind `table` and the sandwich checks


class Bounds(Workload):
    name = "bounds"
    tail_percentile = 99.0

    def __init__(self):
        from bruhatcap import checks

        self.types = checks.TABLE_TYPES
        self.pass_size = len(self.types)
        self.systems = {}

    def setup(self, probe=None):
        from bruhatcap import capacity, rootsystem

        for fam, rank in self.types:
            if probe is not None:
                probe.refresh()
            rs = rootsystem.build(fam, rank)
            self.systems[fam, rank] = (rs, capacity.w0_decomposition(rs), rs.dual_basis())

    def make_op(self, rng, i):
        from bruhatcap import capacity

        fam, rank = self.types[i % len(self.types)]
        rs = self.systems[fam, rank][0]
        lam = capacity.random_dominant(rs, rng)
        xi = capacity.random_positive_coweight(rs, rng)
        return fam, rank, lam, xi

    def run(self, op):
        from bruhatcap import capacity

        fam, rank, lam, xi = op
        rs, dec, tau = self.systems[fam, rank]
        up = capacity.upper_bound(rs, lam, dec)
        low, witness = capacity.lower_bound(rs, lam, dec)
        closed = capacity.closed_form_table(rs, lam)
        vertex = capacity.coweight_oscillation_bound(rs, lam, tau[witness], dec)
        at_xi = capacity.coweight_oscillation_bound(rs, lam, xi, dec)
        return up, low, closed, vertex, at_xi

    def check(self, op, result):
        up, low, (closed_low, closed_up), vertex, at_xi = result
        return (closed_low == low and closed_up == up and vertex == low
                and at_xi <= low and 3 * low >= 2 * up)

    def label(self, op):
        return f"{op[0]}{op[1]}"


# ---------------------------------------------------------------------------
# confirm: `capacity` below the confirmation cap (Weyl group and graphs)


class Confirm(Workload):
    name = "confirm"
    types = (("A", 4), ("D", 4), ("B", 4), ("C", 4), ("A", 5), ("F", 4))
    # Types cycle with period 6 and op i is singular (one zero Dynkin label)
    # when i % 4 == 3, so the mix repeats every 12 ops: D4, C4 and F4 get one
    # singular and one regular weight per pass, A4, B4 and A5 two regular.
    pass_size = 12
    percentile_basis = "class"

    def setup(self, probe=None):
        from bruhatcap import capacity, rootsystem, weyl

        for fam, rank in self.types:
            if probe is not None:
                probe.refresh()
            rs = rootsystem.build(fam, rank)
            capacity.w0_decomposition(rs)
            weyl.generate(rs, cap=GROUP_CAP)

    def make_op(self, rng, i):
        from bruhatcap import capacity, rootsystem

        fam, rank = self.types[i % len(self.types)]
        rs = rootsystem.build(fam, rank)
        labels = [rng.randint(1, 9) for _ in range(rank)]
        regular = i % 4 != 3
        if not regular:
            labels[rng.randrange(rank)] = 0
        return fam, rank, capacity.dominant_from_pairings(rs, labels), regular

    def run(self, op):
        from bruhatcap import capacity

        fam, rank, lam, _regular = op
        return capacity.hz_bounds(fam, rank, lam, confirm_cap=CONFIRM_CAP, group_cap=GROUP_CAP)

    def check(self, op, result):
        from bruhatcap import capacity, rootsystem

        fam, rank, lam, regular = op
        expected = capacity.closed_form_table(rootsystem.build(fam, rank), lam)
        if (result.lower, result.upper) != expected:
            return False
        return not regular or result.checks["dmin_consistent"] is True

    def label(self, op):
        return f"{op[0]}{op[1]}" + ("" if op[3] else " singular")

    def digest(self, result):
        return repr(sorted(result.as_dict().items()))


# ---------------------------------------------------------------------------
# unitary: the exact Cayley-graph value


class Unitary(Workload):
    name = "unitary"
    # One op in three is n = 7, so the tail percentile (top 20% of ops)
    # falls inside the n = 7 class, not on the boundary with n = 6.
    sizes = (6, 6, 7)
    pass_size = 3
    tail_percentile = 80.0

    def make_op(self, rng, i):
        n = self.sizes[i % len(self.sizes)]
        return n, tuple(sorted((rng.randint(-20, 20) for _ in range(n)), reverse=True))

    def run(self, op):
        from bruhatcap import graphs

        n, lam = op
        return graphs.cayley_diameter(n, lam, cap=CAYLEY_CAP)

    def check(self, op, result):
        from bruhatcap import capacity

        return result == capacity.unitary_capacity(op[1])

    def label(self, op):
        return f"n={op[0]}"


# ---------------------------------------------------------------------------
# cli: cold `python -m bruhatcap.cli` processes, one at a time


E8_TABLE_LAMBDA = "1/2,13/2,23/2,31/2,37/2,41/2,43/2,219/2"
PINNED_GRAPH = ["--group-cap", str(GROUP_CAP)]
PINNED_CAPACITY = ["--confirm-cap", str(CONFIRM_CAP)] + PINNED_GRAPH
VERIFY_CHECKS = "decompositions,type-c-sharp,postnikov"

CLI_SCRIPT: tuple[tuple[str, ...], ...] = (
    ("capacity", "--type", "F", "--rank", "4", "--lambda", "8,3,2,1", *PINNED_CAPACITY),
    ("graph", "cayley", "--n", "6", "--lambda", "9,5,2,0,-3,-7", "--format", "json",
     "--cayley-cap", str(CAYLEY_CAP)),
    ("capacity", "--type", "E", "--rank", "8", "--lambda", E8_TABLE_LAMBDA, *PINNED_CAPACITY),
    ("graph", "quantum", "--type", "F", "--rank", "4", "--format", "json", *PINNED_GRAPH),
    ("table",),
    ("graph", "bruhat", "--type", "D", "--rank", "5", "--lambda", "5,4,3,2,1", "--format", "dot",
     *PINNED_GRAPH),
    ("verify", "--only", VERIFY_CHECKS),
)
SETUP_COMMAND = ("roots", "--type", "A", "--rank", "1")
DIGESTS_FILE = HERE / "cli_digests.json"


def cli_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    # The cap flags pin the group cap; an outside value must not reach the parser.
    env.pop("BC_GROUP_CAP", None)
    return env


def run_cli(argv, launcher_args=()) -> tuple[int, bytes]:
    """Run one cold CLI process; through the benchmark's launcher when given args."""
    if launcher_args:
        cmd = [sys.executable, str(HERE / "launcher.py"), *launcher_args, "--", *argv]
    else:
        cmd = [sys.executable, "-m", "bruhatcap.cli", *argv]
    proc = subprocess.run(cmd, cwd=ROOT, env=cli_env(), stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, timeout=CLI_TIMEOUT_S, check=False)
    return proc.returncode, proc.stdout


class Cli(Workload):
    name = "cli"
    in_process = False
    pass_size = len(CLI_SCRIPT)
    percentile_basis = "class"

    def __init__(self):
        with open(DIGESTS_FILE, encoding="utf-8") as fh:
            self.digests = json.load(fh)["sha256"]
        self.launcher_args: tuple[str, ...] = ()

    def make_op(self, rng, i):
        return CLI_SCRIPT[i % len(CLI_SCRIPT)]

    def run(self, op):
        return run_cli(op, self.launcher_args)

    def check(self, op, result):
        code, out = result
        if code != 0:
            return False
        if op[0] == "verify":
            k = len(VERIFY_CHECKS.split(","))
            return out.decode("utf-8", "replace").rstrip("\n").splitlines()[-1] == f"{k}/{k} checks passed"
        return hashlib.sha256(out).hexdigest() == self.digests[" ".join(op)]

    def label(self, op):
        if op[0] == "capacity":
            return f"capacity {op[2]}{op[4]}"
        return op[0] if op[0] != "graph" else f"graph {op[1]}"

    def digest(self, result):
        code, out = result
        text = out.decode("utf-8", "replace")
        if text.startswith("[PASS]") or text.startswith("[FAIL]"):
            # verify prints per-check timings; keep only the verdicts.
            text = "\n".join(line.split(" (")[0] for line in text.splitlines())
        return f"{code}:{hashlib.sha256(text.encode()).hexdigest()}"


WORKLOADS = {cls.name: cls for cls in (Bounds, Confirm, Unitary, Cli)}


def make(name: str) -> Workload:
    return WORKLOADS[name]()


def op_list(wl: Workload, seed: int, n_ops: int) -> list:
    """The first n_ops inputs of a seeded run, identical in every mode."""
    rng = random.Random(seed)
    return [wl.make_op(rng, i) for i in range(n_ops)]


class SpeedProbe:
    """Samples how fast the machine runs Python right now.

    Other tenants of a shared machine change its speed by up to 1.7x for
    minutes at a time, which no run length averages out.  Around each op,
    when the last sample is older than MAX_AGE_S, the probe times a fixed
    stdlib loop (Fraction arithmetic, like the package's own kernel; no
    bruhatcap code, so no change to the package moves it).  run.py scales
    every op time by REFERENCE_S over the median of the samples taken from
    WINDOW_S before the op to WINDOW_S after it: times are reported as they
    would read on a machine where the loop takes REFERENCE_S.  The speed
    flips within a second, so only samples close to the op are used.
    """

    REFERENCE_S = 0.002
    WINDOW_S = 0.25
    MAX_AGE_S = 0.1

    def __init__(self):
        self.samples: list[tuple[float, float]] = []  # (perf_counter, loop seconds)
        self.spent_s = 0.0  # time spent sampling, to take out of a set-up time

    @staticmethod
    def measure() -> float:
        """Fastest of three runs of the reference loop, in seconds."""
        best = float("inf")
        step = Fraction(3, 7)
        for _ in range(3):
            start = perf_counter()
            acc = Fraction(0)
            for i in range(1, 400):
                acc += Fraction(i, i + 1) * step
            best = min(best, perf_counter() - start)
        return best

    def refresh(self, force: bool = False) -> None:
        start = perf_counter()
        if force or not self.samples or start - self.samples[-1][0] >= self.MAX_AGE_S:
            self.samples.append((start, self.measure()))
            self.spent_s += perf_counter() - start

    def scaled_setup(self, raw_s: float) -> float:
        """A set-up time without the sampling, scaled by the samples taken during it."""
        return self.scale(raw_s - self.spent_s, statistics.median(v for _t, v in self.samples))

    @classmethod
    def reference_at(cls, samples: list, start: float, end: float) -> float:
        """Median sample from WINDOW_S before start to WINDOW_S after end."""
        near = [v for t, v in samples if start - cls.WINDOW_S <= t <= end + cls.WINDOW_S]
        if near:
            return statistics.median(near)
        return min(samples, key=lambda tv: abs(tv[0] - start))[1]

    @classmethod
    def scale(cls, seconds: float, reference: float) -> float:
        return seconds * cls.REFERENCE_S / reference


def run_ops(wl: Workload, ops, probe: SpeedProbe | None, tracer=None) -> list[dict]:
    """Run ops back to back; a failing op is recorded, not fatal.

    The probe is sampled around the ops.  The profiled pass runs without
    one, since the reference loop would count as Fraction time there.  A
    tracer, when given, is installed around the measured call only, so the
    oracle's work is not recorded as work of a layer, and the clock runs
    inside it, so installing the wrappers is not counted as traced op time.
    """
    out = []
    for op in ops:
        if probe is not None:
            probe.refresh()
        error = None
        result = None
        with tracer or nullcontext():
            start = perf_counter()
            try:
                result = wl.run(op)
            except Exception as exc:  # an op that raises is a failed op
                error = f"{type(exc).__name__}: {exc}"
            elapsed = perf_counter() - start
        ok = False
        if error is None:
            try:
                ok = bool(wl.check(op, result))
            except Exception as exc:  # a malformed result fails its oracle
                error = f"oracle {type(exc).__name__}: {exc}"
        out.append({
            "label": wl.label(op),
            "start": start,
            "s": elapsed,
            "ok": ok,
            "digest": wl.digest(result) if error is None else error,
        })
    if probe is not None:
        probe.refresh()
    return out


def timed_loop(wl: Workload, seed: int, seconds: float, probe: SpeedProbe,
               max_ops: int | None = None) -> list[dict]:
    """Whole passes until `seconds` of raw op time have been measured.

    Inputs of the next pass are drawn before the pass starts, outside the
    timed ops.  `max_ops` cuts a short run (self-tests) at that op count.
    """
    rng = random.Random(seed)
    samples: list[dict] = []
    busy = 0.0
    i = 0
    while busy < seconds and (max_ops is None or i < max_ops):
        n = wl.pass_size if max_ops is None else min(wl.pass_size, max_ops - i)
        ops = [wl.make_op(rng, i + k) for k in range(n)]
        done = run_ops(wl, ops, probe)
        for k, row in enumerate(done):
            row["pass"] = (i + k) // wl.pass_size
        samples.extend(done)
        busy += sum(row["s"] for row in done)
        i += n
    return samples


def package_defaults() -> dict:
    from bruhatcap import capacity, graphs, weyl

    return {
        "DEFAULT_CONFIRM_CAP": capacity.DEFAULT_CONFIRM_CAP,
        "DEFAULT_GROUP_CAP": weyl.DEFAULT_GROUP_CAP,
        "DEFAULT_CAYLEY_CAP": graphs.DEFAULT_CAYLEY_CAP,
    }


def pinned() -> dict:
    return {"confirm_cap": CONFIRM_CAP, "group_cap": GROUP_CAP, "cayley_cap": CAYLEY_CAP}

