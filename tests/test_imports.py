"""Each CLI command imports only the modules it runs, and the package loads
its public names on first access.

Every case runs a fresh interpreter, since one test process has long since
imported everything.  The help texts in tests/golden/help/ were recorded
before the imports became lazy, at 80 columns.
"""

import json
import os
import subprocess
import sys
from importlib import import_module
from pathlib import Path

import pytest

import bruhatcap
from bruhatcap import checks, cli

SRC = Path(__file__).resolve().parents[1] / "src"
HELP = Path(__file__).resolve().parent / "golden" / "help"

_RUN_MAIN = """
import contextlib, io, json, sys
from bruhatcap import cli
with contextlib.redirect_stdout(io.StringIO()):
    code = cli.main(sys.argv[1:])
print(json.dumps([code, sorted(sys.modules)]))
"""


def _python(*args, **env):
    return subprocess.run([sys.executable, *args], capture_output=True, text=True, check=True,
                          env={**os.environ, "PYTHONPATH": str(SRC), **env})


def _modules_after(*argv) -> set[str]:
    code, modules = json.loads(_python("-c", _RUN_MAIN, *argv).stdout)
    assert code == 0
    return set(modules)


E8_LAMBDA = "1/2,13/2,23/2,31/2,37/2,41/2,43/2,219/2"


@pytest.mark.parametrize("argv", [
    ("roots", "-t", "B", "-r", "3"),
    ("table",),
    ("capacity", "-t", "E", "-r", "8", "--lambda", E8_LAMBDA),
])
def test_commands_without_a_group_load_no_group_graph_or_check_module(argv):
    heavy = {"bruhatcap.weyl", "bruhatcap.graphs", "bruhatcap.checks", "dataclasses", "inspect"}
    assert _modules_after(*argv) & heavy == set()


@pytest.mark.parametrize("argv", [
    ("graph", "quantum", "-t", "A", "-r", "2", "--format", "json"),
    ("graph", "bruhat", "-t", "A", "-r", "3", "--lambda", "2,2,0,0"),
    ("graph", "cayley", "--n", "4", "--lambda", "3,2,1,0"),
    ("capacity", "-t", "F", "-r", "4", "--lambda", "8,3,2,1"),
])
def test_graph_commands_load_no_check_module(argv):
    loaded = _modules_after(*argv)
    assert "bruhatcap.graphs" in loaded
    assert loaded & {"bruhatcap.checks", "dataclasses", "inspect"} == set()


def test_graph_cayley_loads_no_group_module():
    loaded = _modules_after("graph", "cayley", "--n", "4", "--lambda", "3,2,1,0", "--format", "json")
    assert "bruhatcap.weyl" not in loaded


@pytest.mark.parametrize("kind", ["bruhat", "quantum"])
def test_graph_with_a_weight_loads_no_capacity_module(kind):
    loaded = _modules_after("graph", kind, "-t", "A", "-r", "3", "--lambda", "2,2,0,0")
    assert "bruhatcap.weyl" in loaded
    assert "bruhatcap.capacity" not in loaded


@pytest.mark.parametrize("argv", [
    ("roots", "-t", "B", "-r", "3"),
    ("capacity", "-t", "F", "-r", "4", "--lambda", "8,3,2,1"),
])
def test_text_formats_load_no_csv_module(argv):
    assert "csv" not in _modules_after(*argv)


def test_checks_import_the_group_and_graph_modules_only_in_the_checks_that_run_them():
    script = "import json, sys, bruhatcap.checks; print(json.dumps(sorted(sys.modules)))"
    assert set(json.loads(_python("-c", script).stdout)) & {"bruhatcap.weyl", "bruhatcap.graphs"} == set()
    loaded = _modules_after("verify", "--only", "sandwich,coweight,table")
    assert "bruhatcap.checks" in loaded
    assert loaded & {"bruhatcap.weyl", "bruhatcap.graphs"} == set()


def test_package_import_loads_no_module_and_star_resolves_every_name():
    script = ("import sys, bruhatcap\n"
              "before = sorted(m for m in sys.modules if m.startswith('bruhatcap'))\n"
              "from bruhatcap import *\n"
              "print(before, [n for n in bruhatcap.__all__ if n not in globals()])")
    assert _python("-c", script).stdout == "['bruhatcap'] []\n"


def test_public_names_are_the_module_objects():
    for name in bruhatcap.__all__:
        module = import_module(f"bruhatcap.{bruhatcap._MODULE_OF[name]}")
        assert getattr(bruhatcap, name) is getattr(module, name)
    with pytest.raises(AttributeError, match="no attribute 'missing'"):
        bruhatcap.missing  # noqa: B018


def test_check_names_in_the_help_are_the_checks():
    assert cli.CHECK_NAMES == tuple(checks.ALL_CHECKS)


@pytest.mark.parametrize("command", ["", "roots", "graph", "capacity", "table", "verify"])
def test_help_is_unchanged(command):
    argv = ("-m", "bruhatcap.cli") + ((command,) if command else ()) + ("--help",)
    out = _python(*argv, COLUMNS="80").stdout
    assert out == (HELP / f"help_{command or 'main'}.txt").read_text(encoding="utf-8")
