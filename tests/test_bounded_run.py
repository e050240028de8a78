"""The CI wrapper that bounds a command's peak RSS and wall time."""

import subprocess
import sys
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parents[1] / ".github" / "bounded_run.py"


def _run(*args):
    return subprocess.run([sys.executable, str(SCRIPT), *args],
                          capture_output=True, text=True)


@pytest.mark.parametrize("bounds,code,expected", [
    (("600", "60"), "pass", 0),
    (("0", "60"), "pass", 1),                  # over the memory bound
    (("600", "0"), "pass", 1),                 # over the time bound
    (("600", "60"), "raise SystemExit(3)", 1),  # the command fails
])
def test_bounds_and_exit_code(bounds, code, expected):
    run = _run(*bounds, "--", sys.executable, "-c", code)
    assert run.returncode == expected
    assert "peak RSS" in run.stdout


def test_json_key():
    printer = [sys.executable, "-c", 'print(\'{"d_min_degree": [1]}\')']
    present = _run("600", "60", "--json-key", "d_min_degree", "--", *printer)
    assert present.returncode == 0
    assert "d_min_degree present" in present.stdout
    missing = _run("600", "60", "--json-key", "min_path_area", "--", *printer)
    assert missing.returncode == 1
    assert "min_path_area missing" in missing.stdout


@pytest.mark.parametrize("stdout", [
    '"no d_min_degree here"',  # a JSON string that contains the key
    '["d_min_degree"]',        # a JSON list that holds it
    "d_min_degree: [1]",       # not JSON at all
])
def test_json_key_needs_a_json_object(stdout):
    printer = [sys.executable, "-c", f"print({stdout!r})"]
    run = _run("600", "60", "--json-key", "d_min_degree", "--", *printer)
    assert run.returncode == 1
    assert "d_min_degree missing" in run.stdout
    assert "Traceback" not in run.stderr
