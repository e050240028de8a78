import contextlib
import csv
import hashlib
import io
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from bruhatcap import capacity, checks, cli, graphs
from bruhatcap.cli import main
from bruhatcap.errors import ConsistencyError, ValidationError
from bruhatcap.limits import MAX_DIGITS, MAX_RANK
from bruhatcap.linalg import vec
from bruhatcap.weyl import WeylGroup
from bruhatcap.rootsystem import build, vector_strs

SRC = Path(__file__).resolve().parents[1] / "src"


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_parse_lambda():
    # the commands read --lambda as vec(text.split(","), "lambda")
    from fractions import Fraction
    assert vec("3,2,1".split(","), "lambda") == (3, 2, 1)
    assert vec("3/2,-1,0".split(","), "lambda") == (Fraction(3, 2), -1, 0)
    for raw in (",", "3,,1,0", "3,1,", ",3,1", "3, ,1"):
        with pytest.raises(ValidationError, match=r"^cannot parse rational '\s*' in lambda$"):
            vec(raw.split(","), "lambda")
    digits = ",".join(["1" * 300] * 4)  # 1200 digits, each literal under the limit
    with pytest.raises(ValidationError, match="^lambda spells more than 1000 digits$"):
        vec(digits.split(","), "lambda")


@pytest.mark.parametrize("argv", [
    ("capacity", "-t", "A", "-r", "2", "--lambda", "3,,1,0"),
    ("capacity", "-t", "A", "-r", "1", "--lambda", "1e5000,0"),
    ("capacity", "-t", "A", "-r", "1", "--lambda", "1e100000000,0"),
    ("graph", "cayley", "--n", "2", "--lambda", "1e5000,0"),
    ("graph", "cayley", "--n", "2", "--lambda", "1e-100000000,0"),
])
def test_malformed_lambda_refused(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 1
    assert out == ""
    assert err.startswith("error: ")


@pytest.mark.parametrize("argv", [
    ("capacity", "-t", "A", "-r", "2"),
    ("graph", "bruhat", "-t", "A", "-r", "2", "--format", "json"),
    ("graph", "quantum", "-t", "A", "-r", "2", "--format", "json"),
    ("graph", "cayley", "--n", "3"),
    ("table", "-t", "A", "-r", "2"),
], ids=lambda argv: " ".join(argv[:2]))
def test_empty_lambda_refused(capsys, argv):
    # an empty --lambda is a weight with one empty entry, not a missing one
    code, out, err = run_cli(capsys, *argv, "--lambda", "")
    assert (code, out, err) == (1, "", "error: cannot parse rational '' in lambda\n")


@pytest.mark.parametrize("argv", [
    ("roots", "--type", "A", "--rank", "100000"),
    ("roots", "--type", "D", "--rank", "56", "--format", "json"),
    ("capacity", "--type", "B", "--rank", "100000", "--lambda", "1,0"),
    ("graph", "bruhat", "--type", "C", "--rank", "1000000000"),
])
def test_rank_over_the_limit_refused(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 1
    assert out == ""
    assert err.startswith("error: rank ") and "is over the limit 55" in err


def test_roots_g2_text(capsys):
    code, out, _ = run_cli(capsys, "roots", "--type", "G", "--rank", "2")
    assert code == 0
    assert "12 roots" in out
    assert "rho = (2,-1,-1)" in out


def test_roots_a1(capsys):
    code, out, _ = run_cli(capsys, "roots", "-t", "A", "-r", "1", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["n_roots"] == 2


def _roots_payload(rs):
    """The `roots --format json` payload, built whole: the reference of the stream."""
    rows = [{
        "root": vector_strs(rs.roots[i]),
        "coroot": vector_strs(rs.coroot(i)),
        "coroot_coefficients": list(rs.coroot_coefficients(i)),
        "height": rs.coroot_height(i),
        "simple": i in rs.simple,
        "highest": i == rs.highest,
    } for i in rs.positive]
    return {
        "type": rs.family,
        "rank": rs.rank,
        "ambient_dim": rs.ambient_dim,
        "n_roots": len(rs.roots),
        "n_positive": len(rs.positive),
        "weyl_order": rs.weyl_order,
        "highest_root": vector_strs(rs.rho),
        "simple_roots": [vector_strs(rs.roots[i]) for i in rs.simple],
        "positive_roots": rows,
    }


@pytest.mark.parametrize("fam,rank", [("A", 1), ("G", 2), ("E", 8), ("B", MAX_RANK)])
def test_streamed_roots_json_matches_json_dumps(capsys, fam, rank):
    code, out, _ = run_cli(capsys, "roots", "-t", fam, "-r", str(rank), "--format", "json")
    assert code == 0
    assert out == json.dumps(_roots_payload(build(fam, rank)), indent=2, sort_keys=True) + "\n"


def test_roots_b3_json_rationals(capsys):
    code, out, _ = run_cli(capsys, "roots", "-t", "B", "-r", "3", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["n_positive"] == 9
    for row in payload["positive_roots"]:
        for x in row["root"] + row["coroot"]:
            assert isinstance(x, str)
            assert "." not in x  # no float formatting anywhere


def test_roots_csv(capsys):
    code, out, _ = run_cli(capsys, "roots", "-t", "C", "-r", "2", "--format", "csv")
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    assert len(rows) == 4
    assert {r["height"] for r in rows} == {"1", "2", "3"}


def test_roots_invalid_type(capsys):
    code, _, err = run_cli(capsys, "roots", "-t", "H", "-r", "2")
    assert code == 1
    assert "unknown family" in err


def test_graph_bruhat_a2_counts(capsys):
    code, out, _ = run_cli(capsys, "graph", "bruhat", "-t", "A", "-r", "2",
                           "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert len(payload["vertices"]) == 6
    assert len(payload["edges"]) == 9


def test_graph_quantum_a2_dot(capsys):
    code, out, _ = run_cli(capsys, "graph", "quantum", "-t", "A", "-r", "2",
                           "--format", "dot")
    assert code == 0
    assert out.startswith("digraph")
    assert out.count("->") == 15


def test_graph_cayley(capsys):
    code, out, _ = run_cli(capsys, "graph", "cayley", "--n", "4",
                           "--lambda", "3,2,1,0", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert len(payload["vertices"]) == 24
    weights = {e["weight"] for e in payload["edges"]}
    assert weights == {"1", "2", "3"}


def test_graph_bruhat_with_lambda_induces_parabolic(capsys):
    code, out, _ = run_cli(capsys, "graph", "bruhat", "-t", "A", "-r", "3",
                           "--lambda", "2,2,0,0", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["s_p"] == [0, 2]
    assert len(payload["vertices"]) == 6
    assert len(payload["edges"]) == 12
    assert {e["area"] for e in payload["edges"]} == {"2"}


@pytest.mark.parametrize("kind", ["bruhat", "quantum"])
@pytest.mark.parametrize("lam,message", [
    ("0,1,2", "error: lambda is not dominant"),
    ("3,1", "error: lambda has 2 coordinates; A2 needs 3"),
])
def test_graph_weight_checked(capsys, kind, lam, message):
    code, out, err = run_cli(capsys, "graph", kind, "-t", "A", "-r", "2",
                             "--lambda", lam, "--format", "json")
    assert code == 1
    assert out == ""
    assert err.startswith(message)


def test_graph_e8_refused(capsys):
    code, _, err = run_cli(capsys, "graph", "bruhat", "-t", "E", "-r", "8")
    assert code == 1
    assert "E8" in err
    assert "696,729,600" in err


@pytest.mark.parametrize("kind", ["quantum", "bruhat"])
def test_graph_e7_refused_before_enumeration(capsys, monkeypatch, kind):
    from bruhatcap import weyl

    def enumerate_group(*args, **kwargs):
        raise AssertionError("the group was enumerated")

    monkeypatch.setattr(weyl.WeylGroup, "__init__", enumerate_group)
    code, out, err = run_cli(capsys, "graph", kind, "-t", "E", "-r", "7", "--format", "json")
    assert (code, out) == (1, "")
    assert err.count("\n") == 1 and err.startswith("error: E7: the Weyl group (2,903,040 elements)")
    assert err.endswith(" MB, over the memory budget of 1,024 MB\n")


def _refuse_every_cayley_build(monkeypatch):
    def build(*args):
        raise AssertionError("a Cayley frame or its permutations were built")

    for name in ("_cayley_frame", "_inverse_column"):
        monkeypatch.setattr(graphs, name, build)
    for name in ("perms", "edges"):
        monkeypatch.setattr(graphs.WeightedCayleyGraph, name, property(build))


@pytest.mark.parametrize("n", [10, 12])
def test_graph_cayley_over_the_memory_budget_refused_before_any_build(capsys, monkeypatch, n):
    _refuse_every_cayley_build(monkeypatch)
    lam = ",".join(map(str, range(n, 0, -1)))
    code, out, err = run_cli(capsys, "graph", "cayley", "--n", str(n), "--cayley-cap", str(n),
                             "--lambda", lam)
    assert (code, out) == (1, "")
    assert err.count("\n") == 1 and err.startswith(f"error: n = {n}: the Cayley search of S_{n} ")
    assert err.endswith(" MB, over the memory budget of 1,024 MB\n")


# The sha256 of the E6 quantum JSON as the edge-list exporter wrote it; the
# per-vertex export must write the same bytes.
E6_QUANTUM_JSON_SHA256 = "da06499672b8be0db337b420aee483e05d3086f24f57e4114dc1d767ef6bce7e"


def test_graph_e6_quantum_still_exports(tmp_path):
    out = tmp_path / "e6.json"
    subprocess.run([sys.executable, "-m", "bruhatcap.cli", "graph", "quantum", "-t", "E", "-r", "6",
                    "--format", "json", "-o", str(out)],
                   env={**os.environ, "PYTHONPATH": str(SRC)}, check=True, timeout=120)
    assert hashlib.sha256(out.read_bytes()).hexdigest() == E6_QUANTUM_JSON_SHA256


def test_graph_cap_override(capsys):
    code, _, err = run_cli(capsys, "graph", "bruhat", "-t", "B", "-r", "3", "--group-cap", "10")
    assert code == 1
    assert "48" in err


@pytest.mark.parametrize("value", ["10", "abc"])
def test_the_group_cap_is_set_by_its_flag_alone(capsys, monkeypatch, value):
    # No environment variable sets a cap: the outputs are those of the defaults.
    commands = (("capacity", "-t", "A", "-r", "3", "--lambda", "3,2,1,0", "--format", "json"),
                ("graph", "bruhat", "-t", "A", "-r", "3"))
    monkeypatch.delenv("BC_GROUP_CAP", raising=False)
    unset = [run_cli(capsys, *argv) for argv in commands]
    assert [code for code, _, _ in unset] == [0, 0]
    monkeypatch.setenv("BC_GROUP_CAP", value)
    assert [run_cli(capsys, *argv) for argv in commands] == unset


E8_LAMBDA = "1/2,13/2,23/2,31/2,37/2,41/2,43/2,219/2"


@pytest.mark.parametrize("argv,message", [
    (("capacity", "-t", "E", "-r", "8", "--lambda", E8_LAMBDA,
      "--group-cap", "-5", "--confirm-cap", "-3"), "--confirm-cap must be nonnegative, got -3"),
    (("capacity", "-t", "A", "-r", "2", "--lambda", "2,1,0", "--group-cap", "-1"),
     "--group-cap must be nonnegative, got -1"),
    (("graph", "bruhat", "-t", "A", "-r", "2", "--group-cap", "-2"),
     "--group-cap must be nonnegative, got -2"),
    (("graph", "cayley", "--n", "1", "--lambda", "0", "--cayley-cap", "-1"),
     "--cayley-cap must be nonnegative, got -1"),
])
def test_negative_cap_refused_before_any_build(capsys, monkeypatch, argv, message):
    def refuse(*args):
        raise AssertionError("a root system was built")

    monkeypatch.setattr(cli, "build", refuse)
    monkeypatch.setattr(capacity, "build", refuse)
    code, out, err = run_cli(capsys, *argv)
    assert (code, out, err) == (1, "", f"error: {message}\n")


def test_zero_caps_turn_the_confirmation_off(capsys):
    code, out, _ = run_cli(capsys, "capacity", "-t", "A", "-r", "2", "--lambda", "2,1,0",
                           "--confirm-cap", "0", "--group-cap", "0", "--format", "json")
    assert code == 0
    assert json.loads(out)["checks"]["dmin_consistent"] is None


def test_capacity_c3(capsys):
    code, out, _ = run_cli(capsys, "capacity", "-t", "C", "-r", "3",
                           "--lambda", "3,2,1", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["lower"] == "6"
    assert payload["upper"] == "6"
    assert payload["checks"]["sharp"] is True
    assert payload["checks"]["dmin_consistent"] is True


def test_capacity_a3_exact(capsys):
    code, out, _ = run_cli(capsys, "capacity", "-t", "A", "-r", "3",
                           "--lambda", "3,2,1,0")
    assert code == 0
    assert "exact value  = 4" in out


def test_capacity_f4_non_dominant_rejected(capsys):
    code, _, err = run_cli(capsys, "capacity", "-t", "F", "-r", "4",
                           "--lambda", "4,3,2,1")
    assert code == 1
    assert "alpha_4" in err


def test_capacity_g2_reports_projection(capsys):
    code, out, _ = run_cli(capsys, "capacity", "-t", "G", "-r", "2",
                           "--lambda", "4,0,-1")
    assert code == 0
    assert "projected onto the root plane: (3,-1,-2)" in out


def test_table_default(capsys):
    code, out, _ = run_cli(capsys, "table")
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    assert len(rows) == 24
    for row in rows:
        assert row["lower_match"] == "True"
        assert row["upper_match"] == "True"
    byfam = {(r["family"], r["rank"]): r for r in rows}
    assert byfam[("C", "3")]["sharp"] == "True"
    assert byfam[("A", "4")]["exact_value"] != ""
    assert byfam[("B", "3")]["group"].startswith("SO(7)")


def test_table_single_row_with_lambda(capsys):
    code, out, _ = run_cli(capsys, "table", "-t", "F", "-r", "4",
                           "--lambda", "8,3,2,1")
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    assert len(rows) == 1
    assert rows[0]["lower_closed_form"] == "16"
    assert rows[0]["upper_closed_form"] == "20"


@pytest.mark.parametrize("fam,rank,lam,needs", [
    ("A", 2, "1,2", 3), ("A", 2, "3,2,1,0", 3), ("G", 2, "1,2", 3), ("G", 2, "5,3,1,0", 3),
    ("F", 4, "8,3,2", 4),
])
@pytest.mark.parametrize("command", ["table", "capacity"])
def test_a_weight_of_the_wrong_length_is_refused_alike(capsys, command, fam, rank, lam, needs):
    # table used to answer "vector has dimension 2, ambient is 3" for A2.
    code, out, err = run_cli(capsys, command, "-t", fam, "-r", str(rank), "--lambda", lam)
    assert (code, out) == (1, "")
    assert err == f"error: lambda has {lam.count(',') + 1} coordinates; {fam}{rank} needs {needs}\n"


def test_verify_single_check(capsys):
    # a check named twice used to run twice, and count as two
    for only, name in (("decompositions", "decompositions"), ("table,table", "table")):
        code, out, _ = run_cli(capsys, "verify", "--only", only)
        assert code == 0
        assert [line.split(" (")[0] for line in out.splitlines()] == [f"[PASS] {name}", "1/1 checks passed"]


def test_verify_filtered_postnikov(capsys):
    code, out, _ = run_cli(capsys, "verify", "--only", "postnikov",
                           "--type", "G", "--rank", "2")
    assert code == 0
    assert "[PASS] postnikov" in out


def test_verify_unknown_check(capsys):
    code, _, err = run_cli(capsys, "verify", "--only", "nonsense")
    assert code == 1
    assert "unknown check" in err


def test_verify_empty_only_refused(capsys):
    # an empty --only names the one check '', as --only sandwich, names it last
    for only in ("", "sandwich,"):
        code, out, err = run_cli(capsys, "verify", "--only", only)
        assert (code, out) == (1, "")
        assert err.startswith("error: unknown check ''; available: ")


def test_verify_reports_an_internal_error_as_that_checks_fail(capsys, monkeypatch):
    upper_bound = capacity.upper_bound

    def planted(rs, lam, dec):
        if (rs.family, rs.rank) == ("F", 4):
            raise ConsistencyError("planted")
        return upper_bound(rs, lam, dec)

    monkeypatch.setattr(capacity, "upper_bound", planted)
    code, out, err = run_cli(capsys, "verify", "--only", "height-lemma,sandwich,decompositions")
    assert (code, err) == (2, "")
    lines = out.splitlines()
    assert [line.split(" (")[0] for line in lines] == [
        "[PASS] height-lemma", "[FAIL] sandwich", "[PASS] decompositions", "2/3 checks passed"]
    assert lines[1].endswith("s): planted")


@pytest.fixture
def cheap_checks(monkeypatch):
    """The registry without the three slow sampled checks; each filter below still
    leaves one of the remaining typed checks without a type."""
    slow = ("unitary-diameter", "sandwich", "coweight")
    monkeypatch.setattr(checks, "ALL_CHECKS",
                        {n: fn for n, fn in checks.ALL_CHECKS.items() if n not in slow})


@pytest.mark.parametrize("filters,skipped", [
    (("--type", "C"), {"postnikov"}),
    (("--type", "E", "--rank", "6"), {"type-c-sharp", "postnikov", "triangle"}),
    (("--rank", "4"), {"postnikov"}),
    (("--type", "A"), {"type-c-sharp"}),
])
def test_verify_filter_skips_the_checks_it_leaves_without_a_type(capsys, cheap_checks,
                                                                 filters, skipped):
    code, out, _ = run_cli(capsys, "verify", *filters)
    assert code == 0
    ran = [line.split()[1] for line in out.splitlines()[:-1]]
    assert ran == [n for n in checks.ALL_CHECKS if n not in skipped]
    assert out.endswith(f"{len(ran)}/{len(ran)} checks passed\n")


def test_verify_type_and_rank_narrow_type_c_sharp(capsys):
    code, out, _ = run_cli(capsys, "verify", "--only", "type-c-sharp", "--type", "c", "--rank", "3")
    assert code == 0
    assert "[PASS] type-c-sharp" in out
    assert (": sharp on the dominant cone of 1 type, from the fundamental weights and rho; "
            "5 sampled weights agree\n") in out


@pytest.mark.parametrize("argv,name", [
    (("--only", "postnikov", "--type", "C"), "postnikov"),
    (("--only", "decompositions,type-c-sharp", "--type", "A"), "type-c-sharp"),
    (("--type", "Z"), "type-c-sharp"),
])
def test_verify_filter_with_no_type_for_a_named_check_or_any_check_is_an_error(capsys, argv, name):
    code, out, err = run_cli(capsys, "verify", *argv)
    assert code == 1
    assert out == ""
    assert f"check {name!r}: no types match filter" in err


def test_verify_filter_that_matches_no_type_of_any_check_is_an_error(capsys):
    # unitary-diameter takes no types, so the filter must be refused before it runs.
    code, out, err = run_cli(capsys, "verify", "--only", "unitary-diameter",
                             "--type", "Z", "--rank", "2")
    assert code == 1
    assert out == ""
    assert err == "error: no types match filter Z/2\n"


@pytest.mark.parametrize("filters,detail", [
    (("--type", "A"), ": 5 types validated\n"),
    pytest.param(("--type", "E", "--rank", "8"), ": 1 type validated; E8 validated in ", id="E8"),
])
def test_verify_decompositions_names_e8_only_when_it_ran(capsys, filters, detail):
    code, out, _ = run_cli(capsys, "verify", "--only", "decompositions", *filters)
    assert code == 0
    assert detail in out
    assert "; \n" not in out


def test_deterministic_output(capsys):
    _, out1, _ = run_cli(capsys, "graph", "quantum", "-t", "B", "-r", "2",
                         "--format", "json")
    _, out2, _ = run_cli(capsys, "graph", "quantum", "-t", "B", "-r", "2",
                         "--format", "json")
    assert out1 == out2
    _, t1, _ = run_cli(capsys, "table", "-t", "G")
    _, t2, _ = run_cli(capsys, "table", "-t", "G")
    assert t1 == t2


def test_output_to_file(tmp_path, capsys):
    target = tmp_path / "roots.json"
    code, out, _ = run_cli(capsys, "roots", "-t", "A", "-r", "2",
                           "--format", "json", "--output", str(target))
    assert code == 0
    assert out == ""
    payload = json.loads(target.read_text())
    assert payload["n_positive"] == 3


def test_graph_output_to_file_matches_stdout(tmp_path, capsys):
    argv = ("graph", "bruhat", "-t", "B", "-r", "3", "--lambda", "3,1,0", "--format", "json")
    _, out, _ = run_cli(capsys, *argv)
    target = tmp_path / "b3.json"
    code, streamed, _ = run_cli(capsys, *argv, "--output", str(target))
    assert code == 0
    assert streamed == ""
    assert target.read_text(encoding="utf-8") == out


UNWRITABLE_COMMANDS = [
    ("roots", "-t", "A", "-r", "2"),
    ("graph", "quantum", "-t", "A", "-r", "2", "--format", "json"),
    ("graph", "cayley", "--n", "3", "--lambda", "2,1,0"),
    ("capacity", "-t", "A", "-r", "2", "--lambda", "2,1,0"),
    ("table", "-t", "G"),
    ("verify", "--only", "decompositions", "-t", "G"),
]


@pytest.mark.parametrize("argv", UNWRITABLE_COMMANDS, ids=lambda argv: " ".join(argv[:2]))
@pytest.mark.parametrize("where,reason", [
    ("missing/out.txt", "No such file or directory"),
    (".", "Is a directory"),
])
def test_unwritable_output_is_an_error(tmp_path, capsys, argv, where, reason):
    path = tmp_path / where
    code, out, err = run_cli(capsys, *argv, "--output", str(path))
    assert code == 1
    assert out == ""
    assert err == f"error: cannot write {path}: {reason}\n"


def test_refused_input_leaves_an_existing_output_file(tmp_path, capsys):
    target = tmp_path / "keep.json"
    target.write_text("kept\n", encoding="utf-8")
    for argv in (
        ("graph", "quantum", "-t", "A", "-r", "2", "--lambda", "1,2,3"),  # not dominant
        ("graph", "bruhat", "-t", "E", "-r", "8"),  # over the group cap
        ("graph", "cayley", "--n", "9", "--lambda", "8,7,6,5,4,3,2,1,0"),  # over the Cayley cap
    ):
        code, _, err = run_cli(capsys, *argv, "--output", str(target))
        assert code == 1
        assert err.startswith("error: ")
        assert target.read_text(encoding="utf-8") == "kept\n"


def test_closed_stdout_pipe_exits_without_a_traceback():
    env = dict(os.environ, PYTHONPATH=str(SRC))
    cmd = [sys.executable, "-m", "bruhatcap.cli", "graph", "quantum", "-t", "F", "-r", "4",
           "--format", "json"]
    with subprocess.Popen(cmd, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE) as proc:
        head = proc.stdout.read(100)
        proc.stdout.close()  # the 2 MB export is still being written
        err = proc.stderr.read()
        code = proc.wait(timeout=60)
    assert head.startswith(b'{\n  "directed": true,')
    assert code == 1
    assert err == b""


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@pytest.mark.parametrize("argv", [
    ("capacity", "-t", "A", "-r", "2", "--lambda", "2,1,0"),
    ("graph", "quantum", "-t", "A", "-r", "2"),
])
def test_full_stdout_is_a_clean_error(argv):
    # Every write to /dev/full fails with ENOSPC.
    env = dict(os.environ, PYTHONPATH=str(SRC))
    with open("/dev/full", "w") as full:
        proc = subprocess.run([sys.executable, "-m", "bruhatcap.cli", *argv], env=env,
                              stdout=full, stderr=subprocess.PIPE, timeout=60, check=False)
    assert proc.returncode == 1
    assert proc.stderr == b"error: cannot write <stdout>: No space left on device\n"


# Inputs that must be refused, each with a pattern its error line matches.
# Every --lambda is passed as --lambda=..., so that argparse never reads a
# leading minus sign as an option.

_RANKS = {"A": range(1, MAX_RANK + 1), "B": range(2, MAX_RANK + 1), "C": range(2, MAX_RANK + 1),
          "D": range(3, MAX_RANK + 1), "E": (6, 7, 8), "F": (4,), "G": (2,)}
_NO_FAMILY = st.text("HIJKLMNOPQRSTUVWXYZhz", min_size=1, max_size=3)
_MISSING = "<missing directory>"


@st.composite
def _malformed_lambdas(draw):
    good = draw(st.lists(st.integers(-9, 9).map(str), max_size=3))
    bad = draw(st.one_of(
        st.sampled_from(["", " ", "1/0", "2/-3", "nan", "inf", "0x1", "1.2.3", "--1"]),
        st.text("xyz!?#()[]", min_size=1, max_size=5),
        st.integers(MAX_DIGITS + 1, 3 * MAX_DIGITS).map(lambda k: "9" * k),
        st.integers(MAX_DIGITS + 1, 10**9).map(lambda k: f"1e{k}"),
    ))
    at = draw(st.integers(0, len(good)))
    command = draw(st.sampled_from([("capacity", "-t", "A", "-r", "2"),
                                    ("graph", "quantum", "-t", "A", "-r", "2"),
                                    ("graph", "cayley", "--n", "3"), ("table", "-t", "A", "-r", "2")]))
    return (*command, "--lambda=" + ",".join(good[:at] + [bad] + good[at:])), "lambda|rational"


@st.composite
def _unknown_types(draw):
    if draw(st.booleans()):
        fam, rank = draw(_NO_FAMILY), draw(st.integers(1, 8))
    else:
        fam = draw(st.sampled_from(sorted(_RANKS)))
        rank = draw(st.integers(-10**6, 10**6).filter(lambda r: r not in _RANKS[fam]))
    command = draw(st.sampled_from([("roots",), ("capacity", "--lambda=1,0"), ("graph", "quantum"),
                                    ("graph", "bruhat"), ("table",), ("verify",)]))
    return ((*command, "--type", fam, f"--rank={rank}"),
            "family|rank|no table rows match|no types match")


@st.composite
def _non_dominant_weights(draw):
    fam, rank = draw(st.sampled_from("ABCD")), draw(st.integers(3, 6))
    lam = draw(st.lists(st.integers(-20, 20), min_size=rank + (fam == "A"),
                        max_size=rank + (fam == "A")))
    lam[1] = lam[0] + draw(st.integers(1, 20))  # <lam, alpha_1> < 0
    command = draw(st.sampled_from([("capacity",), ("graph", "bruhat"), ("graph", "quantum"),
                                    ("table",)]))
    return (*command, "-t", fam, "-r", str(rank), "--lambda=" + ",".join(map(str, lam))), "not dominant"


@st.composite
def _unknown_checks(draw):
    names = draw(st.lists(st.sampled_from(cli.CHECK_NAMES), max_size=2))
    bad = draw(st.text("abcdefghijklmnopqrstuvwxyz-", max_size=12).filter(
        lambda name: name not in cli.CHECK_NAMES))
    names.insert(draw(st.integers(0, len(names))), bad)
    return ("verify", "--only=" + ",".join(names)), "unknown check"


@st.composite
def _unmatched_verify_filters(draw):
    only = draw(st.one_of(st.just(()), st.sampled_from(cli.CHECK_NAMES).map(lambda n: ("--only", n))))
    if draw(st.booleans()):
        narrow = ("--type", draw(_NO_FAMILY))
    else:  # no check runs over a rank above 8
        narrow = (f"--rank={draw(st.integers(-10**6, 0) | st.integers(9, 10**6))}",)
    return ("verify", *only, *narrow), "no types match"


@st.composite
def _negative_caps(draw):
    cap = f"=-{draw(st.integers(1, 10**6))}"
    return draw(st.sampled_from([
        ("graph", "cayley", "--n", "3", "--lambda=3,2,1", "--cayley-cap" + cap),
        ("capacity", "-t", "A", "-r", "2", "--lambda=2,1,0", "--confirm-cap" + cap),
        ("capacity", "-t", "A", "-r", "2", "--lambda=2,1,0", "--group-cap" + cap),
        ("graph", "quantum", "-t", "A", "-r", "2", "--group-cap" + cap),
    ])), "must be nonnegative"


@st.composite
def _outputs_into_a_missing_directory(draw):
    command = draw(st.sampled_from([("roots", "-t", "G", "-r", "2"),
                                    ("roots", "-t", "B", "-r", "3", "--format", "json"),
                                    ("roots", "-t", "E", "-r", "8", "--format", "csv"),
                                    ("table",), ("table", "-t", "F", "-r", "4")]))
    name = draw(st.text("abxyz019._-", min_size=1, max_size=8).filter(lambda s: s not in (".", "..")))
    return (*command, "--output", f"{_MISSING}/{name}"), "cannot write"


@st.composite
def _cayley_sizes_over_the_budget(draw):
    n = draw(st.integers(10, 10**6))
    lam = ",".join(map(str, range(n, 0, -1))) if n <= 40 else "0"
    cap = draw(st.integers(n, 10**7))
    return ("graph", "cayley", "--n", str(n), "--cayley-cap", str(cap), f"--lambda={lam}"), "memory budget"


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(case=st.one_of(_malformed_lambdas(), _unknown_types(), _non_dominant_weights(),
                      _unknown_checks(), _unmatched_verify_filters(), _negative_caps(),
                      _outputs_into_a_missing_directory(), _cayley_sizes_over_the_budget()))
def test_every_refused_input_is_one_error_line(tmp_path, case):
    # No Weyl group, Cayley frame or list of permutations may be built on the way
    # to a refusal.
    argv, pattern = case
    argv = [arg.replace(_MISSING, str(tmp_path / "missing")) for arg in argv]
    out, err = io.StringIO(), io.StringIO()
    with pytest.MonkeyPatch.context() as mp:
        def build(*args, **kwargs):
            raise AssertionError(f"built a group or frame for {argv}")

        mp.setattr(WeylGroup, "__init__", build)
        mp.setattr(graphs, "_cayley_frame", build)
        for name in ("perms", "edges"):
            mp.setattr(graphs.WeightedCayleyGraph, name, property(build))
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    err = err.getvalue()
    assert (code, out.getvalue()) == (1, ""), (argv, err)
    assert err.startswith("error: ") and err.count("\n") == 1 and err.endswith("\n"), (argv, err)
    assert re.search(pattern, err), (argv, err)
