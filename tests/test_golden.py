"""Golden CLI outputs: each case runs `cli.main` in-process and compares its
stdout byte for byte with a file recorded under tests/golden/.

A refactor must leave every file unchanged.  After an intended change of
output, re-record with `PYTHONPATH=src python tests/test_golden.py`.
"""

import io
import sys
from contextlib import redirect_stdout
from pathlib import Path

import pytest

from bruhatcap import build, checks, cli
from bruhatcap.rootsystem import vector_strs

GOLDEN = Path(__file__).resolve().parent / "golden"

DEFAULT_LAMBDA = "@default_table_lambda"


def _cases() -> dict[str, tuple[str, ...]]:
    cases = {}
    for fam, rank in checks.TABLE_TYPES:
        t = ("-t", fam, "-r", str(rank))
        cases[f"roots_{fam}{rank}.json"] = ("roots", *t, "--format", "json")
        cases[f"capacity_{fam}{rank}.json"] = (
            "capacity", *t, "--lambda", DEFAULT_LAMBDA, "--format", "json")
    # A singular weight, S_P = {1, 4}: the double-coset search of min_path_area.
    cases["capacity_F4_lambda_11h_5h_5h_1h.json"] = (
        "capacity", "-t", "F", "-r", "4", "--lambda", "11/2,5/2,5/2,1/2", "--format", "json")
    cases["table.csv"] = ("table",)
    cases["table_G2_lambda_3h_1t_0.csv"] = ("table", "-t", "G", "-r", "2", "--lambda", "3/2,1/3,0")
    for fam, rank in (("A", 2), ("B", 3), ("G", 2)):
        cases[f"roots_{fam}{rank}.csv"] = ("roots", "-t", fam, "-r", str(rank), "--format", "csv")
    for kind in ("bruhat", "quantum"):
        for fam, rank in (("A", 2), ("B", 2), ("G", 2)):
            for fmt in ("dot", "json"):
                cases[f"graph_{kind}_{fam}{rank}.{fmt}"] = (
                    "graph", kind, "-t", fam, "-r", str(rank), "--format", fmt)
    for fmt in ("dot", "json"):
        cases[f"graph_bruhat_A3_lambda_2200.{fmt}"] = (
            "graph", "bruhat", "-t", "A", "-r", "3", "--lambda", "2,2,0,0", "--format", fmt)
    # Non-integer weights: areas whose denominators differ.
    for fmt in ("dot", "json"):
        cases[f"graph_quantum_B2_lambda_3h_1h.{fmt}"] = (
            "graph", "quantum", "-t", "B", "-r", "2", "--lambda", "3/2,1/2", "--format", fmt)
    cases["graph_bruhat_G2_lambda_3h_1t_0.dot"] = (
        "graph", "bruhat", "-t", "G", "-r", "2", "--lambda", "3/2,1/3,0", "--format", "dot")
    cases["graph_quantum_G2_lambda_3h_1t_0.json"] = (
        "graph", "quantum", "-t", "G", "-r", "2", "--lambda", "3/2,1/3,0", "--format", "json")
    for fmt in ("dot", "json"):
        cases[f"graph_cayley_4_lambda_7h_1_1t_m2.{fmt}"] = (
            "graph", "cayley", "--n", "4", "--lambda", "7/2,1,1/3,-2", "--format", fmt)
    return cases


CASES = _cases()


def _argv(name: str) -> list[str]:
    argv = list(CASES[name])
    if DEFAULT_LAMBDA in argv:
        rs = build(argv[argv.index("-t") + 1], int(argv[argv.index("-r") + 1]))
        argv[argv.index(DEFAULT_LAMBDA)] = ",".join(vector_strs(cli.default_table_lambda(rs)))
    return argv


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_output(name, capsys):
    code = cli.main(_argv(name))
    out = capsys.readouterr().out
    assert code == 0
    assert out.encode("utf-8") == (GOLDEN / name).read_bytes()


def _record() -> None:
    GOLDEN.mkdir(exist_ok=True)
    for name in sorted(CASES):
        buf = io.StringIO()
        with redirect_stdout(buf):
            code = cli.main(_argv(name))
        if code != 0:
            sys.exit(f"{name}: exit code {code}")
        (GOLDEN / name).write_bytes(buf.getvalue().encode("utf-8"))


if __name__ == "__main__":
    _record()
