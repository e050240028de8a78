"""Acceptance suite: one test per criterion, at the stated sample sizes.

Each test prints a single PASS/FAIL line (visible with `pytest -s` or in
failure output) and asserts the check outcome.
"""

import random
import time

import pytest

from bruhatcap import build, checks, degree_leq, generate, quantum_bruhat_graph
from bruhatcap.graphs import d_min_all
from reference_kernels import random_walk_degree

SEED = 20260809


def _report(number: int, title: str, res: checks.CheckResult) -> None:
    status = "PASS" if res.passed else "FAIL"
    print(f"[{status}] criterion {number} ({title}) in {res.seconds:.2f}s: {res.detail}")
    assert res.passed, f"criterion {number} ({title}): {res.detail}"


def test_criterion_1_unitary_exactness():
    # n in 2..6, >= 100 seeded integer weights each, Dijkstra vs closed form
    res = checks.check_unitary_diameter(seed=SEED, ns=range(2, 7), samples=100)
    _report(1, "U(n) exactness", res)
    assert res.seconds < 60


def test_criterion_2_type_c_sharpness():
    res = checks.check_type_c_sharp(seed=SEED, types=tuple(("C", n) for n in range(2, 7)),
                                     samples=50)
    _report(2, "type C sharpness", res)


def test_criterion_3_table_reproduction():
    res = checks.check_table(seed=SEED, samples=20)
    _report(3, "closed-form table reproduction", res)


def test_criterion_4_height_lemma():
    res = checks.check_height_lemma()
    _report(4, "height lemma", res)


def test_criterion_5_decomposition_validation():
    from bruhatcap import build, capacity, w0_decomposition

    build("E", 8)  # warm the cached root system; the criterion times the check,
    capacity._DECOMPOSITIONS.pop(("E", 8), None)  # not the per-type cache
    t0 = time.time()
    w0_decomposition(build("E", 8))
    e8_seconds = time.time() - t0
    res = checks.check_decompositions()
    _report(5, "w0 decomposition validation", res)
    assert e8_seconds < 1.0, f"E8 validation took {e8_seconds:.2f}s"


def test_criterion_6_postnikov():
    # The check proves that every path's degree dominates d_min by an edge
    # certificate; 1000 seeded random walks per type sample the bound again.
    res = checks.check_postnikov()
    _report(6, "shortest-path degree uniqueness/divisibility", res)
    assert res.seconds < 120
    rng = random.Random(SEED)
    for fam, rank in checks.check_postnikov.__wrapped__.__kwdefaults__["types"]:
        weyl = generate(build(fam, rank))
        q = quantum_bruhat_graph(weyl)
        dmins = [d_min_all(q, u)[1] for u in range(len(weyl))]
        for _ in range(1000):
            u = rng.randrange(len(weyl))
            v, walked = random_walk_degree(q, rng, u, rng.randint(1, len(weyl.rs.positive) + 4))
            assert degree_leq(dmins[u][v], walked), f"{fam}{rank}: walk {u}->{v} degree {walked}"


def test_criterion_7_upper_bound_triangle():
    res = checks.check_triangle(seed=SEED, samples=3)
    _report(7, "upper-bound triangle", res)


def test_criterion_8_bound_sandwich():
    res = checks.check_sandwich(seed=SEED, samples=200)
    _report(8, "two-thirds sandwich", res)


def test_criterion_9_coweight_optimality():
    res = checks.check_coweight(seed=SEED, samples=100)
    _report(9, "coweight vertex optimality", res)
