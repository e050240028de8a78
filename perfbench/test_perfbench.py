"""Self-tests of the benchmark.

    python3 -m pytest -q perfbench

Tiny runs of every workload, traced results against untraced ones, and a
deliberately wrong expected value per oracle, which must be counted as a
failed op without stopping the run.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from fractions import Fraction

import pytest

import layers
import run
import workloads
from tracer import Tracer

workloads.ensure_package()
from bruhatcap import capacity  # noqa: E402

BENCHMARK = json.loads((workloads.ROOT / "BENCHMARK.json").read_text())
TINY_OPS = {"bounds": 24, "confirm": 2, "unitary": 2, "cli": 2}
SEED = 7


@pytest.fixture(scope="module")
def ready():
    """One set-up instance per workload, shared by the tests of this module."""
    made = {}
    for name in workloads.WORKLOADS:
        wl = workloads.make(name)
        wl.setup()
        made[name] = wl
    return made


def tiny(wl):
    """A short timed loop: its samples and probe samples."""
    probe = workloads.SpeedProbe()
    return workloads.timed_loop(wl, SEED, 1e9, probe, TINY_OPS[wl.name]), probe.samples


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_tiny_run_has_no_errors(ready, name):
    samples, probe = tiny(ready[name])
    assert len(samples) == TINY_OPS[name]
    _metrics, report, failed = run.summarize(ready[name], samples, probe, [0.1], 1.0)
    assert failed == 0, report["failures"]
    assert report["error_rate"]["value"] == 0


@pytest.mark.parametrize("name", ["bounds", "confirm", "unitary"])
def test_traced_results_equal_untraced(ready, name):
    wl = ready[name]
    ops = workloads.op_list(wl, SEED, TINY_OPS[name])
    plain = workloads.run_ops(wl, ops, workloads.SpeedProbe())
    tracer = Tracer()
    traced = workloads.run_ops(wl, ops, workloads.SpeedProbe(), tracer)
    assert [r["digest"] for r in traced] == [r["digest"] for r in plain]
    assert all(r["ok"] for r in traced)
    assert tracer.spans
    # Uninstalling restores every original function.
    assert not hasattr(capacity.upper_bound, "__wrapped__")


def test_cli_launcher_output_equals_plain_cli(ready, tmp_path):
    wl = ready["cli"]
    op = workloads.CLI_SCRIPT[0]
    plain = workloads.run_ops(wl, [op], workloads.SpeedProbe())
    wl.launcher_args = ("--trace-out", str(tmp_path / "t.json"))
    try:
        traced = workloads.run_ops(wl, [op], workloads.SpeedProbe())
    finally:
        wl.launcher_args = ()
    assert traced[0]["digest"] == plain[0]["digest"]
    assert traced[0]["ok"]
    spans = json.loads((tmp_path / "t.json").read_text())["spans"]
    assert "capacity.hz_bounds" in spans and "graphs.min_path_area" in spans


def _all_failed(wl):
    samples, probe = tiny(wl)
    _metrics, report, failed = run.summarize(wl, samples, probe, [0.1], 1.0)
    assert failed == len(samples) == TINY_OPS[wl.name]
    assert report["error_rate"]["value"] == 1.0


def test_wrong_closed_form_fails_bounds(ready, monkeypatch):
    real = capacity.closed_form_table
    monkeypatch.setattr(capacity, "closed_form_table",
                        lambda rs, lam: tuple(v + 1 for v in real(rs, lam)))
    _all_failed(ready["bounds"])


def test_wrong_expected_fails_confirm(ready, monkeypatch):
    # hz_bounds never calls closed_form_table, so only the oracle sees this.
    monkeypatch.setattr(capacity, "closed_form_table", lambda rs, lam: (Fraction(-1), Fraction(-1)))
    _all_failed(ready["confirm"])


def test_wrong_expected_fails_unitary(ready, monkeypatch):
    monkeypatch.setattr(capacity, "unitary_capacity", lambda lam: Fraction(-1))
    _all_failed(ready["unitary"])


def test_wrong_digest_fails_cli(ready, monkeypatch):
    wl = ready["cli"]
    monkeypatch.setattr(wl, "digests", {k: "0" * 64 for k in wl.digests})
    _all_failed(wl)


def test_raising_op_is_counted(ready, monkeypatch):
    wl = ready["unitary"]

    def boom(op):
        raise RuntimeError("injected")

    monkeypatch.setattr(wl, "run", boom)
    _all_failed(wl)


def test_percentile_keeps_ten_samples_beyond():
    value, beyond = run.percentile([float(x) for x in range(1, 1001)], 99.0)
    assert (value, beyond) == (990.0, 10)


def test_benchmark_json_lists_the_layer_table():
    listed = [(m["name"], m["unit"], m["better"]) for m in BENCHMARK["per_layer"]]
    assert listed == [(n, u, b) for n, u, b, _moves in layers.LAYERS]
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(workloads.WORKLOADS)


def _run(cwd, *args):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170, check=False)


@pytest.mark.parametrize("trace", ["0", "1"])
def test_run_prints_the_contract_line(trace):
    proc = _run(workloads.ROOT, "--workload", "unitary", "--seed", "3", "--seconds", "0.5",
                "--trace", trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    expected = BENCHMARK["per_layer" if trace == "1" else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in expected]
    for m in expected:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]


def test_run_fails_without_the_package(tmp_path):
    shutil.copy(workloads.ROOT / "BENCHMARK.json", tmp_path)
    (tmp_path / "perfbench").mkdir()
    for path in workloads.HERE.iterdir():
        if path.is_file():
            shutil.copy(path, tmp_path / "perfbench")
    proc = _run(tmp_path, "--workload", "bounds", "--seed", "1", "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
