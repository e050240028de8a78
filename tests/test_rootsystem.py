import random
from fractions import Fraction
from itertools import permutations, product
from math import lcm

import pytest

from bruhatcap import SizeLimitError, ValidationError, build, positive_root_count
from bruhatcap.checks import TABLE_TYPES
from bruhatcap.linalg import dot, neg, solve_columns, vec
from bruhatcap.rootsystem import (MAX_RANK, RootSystem, rational_str, simple_root_vectors,
                                  weyl_group_order)
from rootsystem_oracle import reflect

ALL_TYPES = (
    [("A", r) for r in range(1, 7)]
    + [("B", r) for r in range(2, 7)]
    + [("C", r) for r in range(2, 7)]
    + [("D", r) for r in range(3, 7)]
    + [("E", 6), ("E", 7), ("E", 8), ("F", 4), ("G", 2)]
)

SMALL_TYPES = [("A", 2), ("A", 3), ("B", 2), ("B", 3), ("C", 3), ("D", 4), ("F", 4), ("G", 2)]


@pytest.mark.parametrize("fam,rank", ALL_TYPES)
def test_positive_root_counts(fam, rank):
    rs = build(fam, rank)
    assert len(rs.positive) == positive_root_count(fam, rank)
    assert len(rs.roots) == 2 * len(rs.positive)


@pytest.mark.parametrize("fam,rank", ALL_TYPES)
def test_closure_under_simple_reflections(fam, rank):
    rs = build(fam, rank)
    for s in rs.simple:
        for r in rs.roots:
            assert rs.find(reflect(rs, s, r)) is not None


@pytest.mark.parametrize("fam,rank", TABLE_TYPES)
def test_reflection_perm_matches_ambient_reflection(fam, rank):
    # the ambient Fraction reflection is the independent reference
    rs = build(fam, rank)
    for a in rs.positive:
        assert rs.reflection_perm(a) == tuple(rs.find(reflect(rs, a, r)) for r in rs.roots)


@pytest.mark.parametrize("fam,rank", ALL_TYPES)
def test_negation_closure(fam, rank):
    rs = build(fam, rank)
    for i, r in enumerate(rs.roots):
        assert rs.roots[rs.neg_of[i]] == neg(r)


@pytest.mark.parametrize("fam,rank", ALL_TYPES)
def test_cartan_integrality(fam, rank):
    rs = build(fam, rank)
    for i, j in product(range(len(rs.roots)), repeat=2):
        value = rs.pairing(rs.roots[i], j)
        assert value.denominator == 1


@pytest.mark.parametrize("fam,rank", ALL_TYPES)
def test_rho_dominates_all_positive_roots(fam, rank):
    rs = build(fam, rank)
    top = rs.root_coefficients(rs.highest)
    for i in rs.positive:
        assert all(a >= b for a, b in zip(top, rs.root_coefficients(i)))


def test_g2_examples(g2):
    # 12 roots, the stated simple roots, rho = 2e1-e2-e3 with coefficients (2,3)
    assert len(g2.roots) == 12
    simples = {g2.roots[i] for i in g2.simple}
    assert simples == {vec([1, -2, 1]), vec([0, 1, -1])}
    assert g2.rho == vec([2, -1, -1])
    assert g2.root_coefficients(g2.highest) == (2, 3)


def test_g2_rho_coefficients_brute_force(g2):
    # independent oracle: search small integer combinations of the simple roots
    a1, a2 = (g2.roots[i] for i in g2.simple)
    hits = [
        (m, n)
        for m in range(6)
        for n in range(6)
        if all(m * a + n * b == c for a, b, c in zip(a1, a2, g2.rho))
    ]
    assert hits == [(2, 3)]


def test_a1_trivial():
    rs = build("A", 1)
    assert len(rs.positive) == 1
    assert set(rs.roots) == {vec([1, -1]), vec([-1, 1])}


def test_f4_count():
    assert len(build("F", 4).positive) == 24


def test_coroot_examples(b2, g2):
    c3 = build("C", 3)
    two_e1 = vec([2, 0, 0])
    assert c3.coroot(c3.find(two_e1)) == vec([1, 0, 0])
    # simply-laced roots of squared length 2 are self-dual
    a2 = build("A", 2)
    for i in a2.positive:
        assert a2.coroot(i) == a2.roots[i]
    assert g2.coroot(g2.find(vec([0, 1, -1]))) == vec([0, 1, -1])


def test_pairing_examples(a2):
    for rs in (a2, build("B", 2), build("G", 2)):
        for i in range(len(rs.roots)):
            assert rs.pairing(rs.roots[i], i) == 2
    t = vec([1, 0, -1])
    assert a2.pairing(t, a2.find(vec([1, -1, 0]))) == 1
    # orthogonality kills the pairing
    assert a2.pairing(vec([1, 1, -2]), a2.find(vec([1, -1, 0]))) == 0


def test_pairing_dimension_mismatch(a2):
    with pytest.raises(ValidationError):
        a2.pairing(vec([1, 0]), 0)


def test_reflect_examples(a2):
    i12 = a2.find(vec([1, -1, 0]))
    assert reflect(a2, i12, vec([1, -1, 0])) == vec([-1, 1, 0])
    assert reflect(a2, i12, vec([0, 0, 5])) == vec([0, 0, 5])
    assert reflect(a2, i12, vec([0, 1, -1])) == vec([1, 0, -1])
    # involutive on a spread of vectors
    for t in [vec([1, 2, 3]), vec([0, 0, 1]), vec([Fraction(1, 2), 0, 1])]:
        assert reflect(a2, i12, reflect(a2, i12, t)) == t


def test_coroot_coefficients_simple_are_units(b3):
    for k, s in enumerate(b3.simple):
        expected = tuple(1 if j == k else 0 for j in range(b3.rank))
        assert b3.coroot_coefficients(s) == expected
        assert b3.coroot_height(s) == 1


def test_coroot_coefficients_a2(a2):
    i13 = a2.find(vec([1, 0, -1]))
    assert a2.coroot_coefficients(i13) == (1, 1)
    assert a2.coroot_height(i13) == 2


def test_coroot_coefficients_b2_short_root(b2):
    # coroot of e1 is 2e1; over the simple coroots {e1-e2, 2e2} the unique
    # expansion is 2*(e1-e2) + 1*(2e2), so coefficients (2,1), height 3
    i = b2.find(vec([1, 0]))
    assert b2.coroot(i) == vec([2, 0])
    assert b2.coroot_coefficients(i) == (2, 1)
    assert b2.coroot_height(i) == 3


def test_coroot_coefficients_b2_brute_force(b2):
    # independent oracle: exhaustive small search over integer combinations
    cor = [b2.coroot(s) for s in b2.simple]
    target = b2.coroot(b2.find(vec([1, 0])))
    hits = [
        (m, n)
        for m in range(8)
        for n in range(8)
        if all(m * a + n * b == c for a, b, c in zip(cor[0], cor[1], target))
    ]
    assert hits == [(2, 1)]


def test_root_coefficients_b2(b2):
    assert b2.root_coefficients(b2.highest) == (1, 2)
    assert b2.rho == vec([1, 1])


@pytest.mark.parametrize("fam,rank", ALL_TYPES)
def test_height_positivity(fam, rank):
    rs = build(fam, rank)
    for i in rs.positive:
        h = rs.coroot_height(i)
        assert h >= 1
        assert (h == 1) == (i in rs.simple)


def test_negative_root_rejected(a2):
    neg_idx = a2.neg_of[a2.simple[0]]
    with pytest.raises(ValidationError):
        a2.root_coefficients(neg_idx)
    with pytest.raises(ValidationError):
        a2.coroot_coefficients(neg_idx)


@pytest.mark.parametrize("fam,rank", [("A", 0), ("B", 1), ("C", 1), ("D", 2),
                                      ("E", 5), ("E", 9), ("F", 3), ("G", 3), ("H", 2),
                                      ("A", True), ("B", 2.0), ("A", "2"), ("A", None), ("E", 6.0)])
def test_invalid_types_rejected(fam, rank):
    # build("A", True) used to return a root system named ATrue, and 2.0 raised
    # TypeError; the two counts answered for A0 and True, or raised KeyError at E9.
    build("A", 1), build("B", 2), build("E", 6)  # cached: an equal rank must not be served them
    for entry in (build, RootSystem, simple_root_vectors, positive_root_count, weyl_group_order):
        with pytest.raises(ValidationError):
            entry(fam, rank)


def test_fundamental_weights(b3):
    fw = b3.fundamental_weights()
    for j, w in enumerate(fw):
        for i, s in enumerate(b3.simple):
            assert b3.pairing(w, s) == (1 if i == j else 0)


def test_dual_basis(g2):
    tau = g2.dual_basis()
    simples = [g2.roots[i] for i in g2.simple]
    for j, t in enumerate(tau):
        for i, s in enumerate(simples):
            assert dot(t, s) == (1 if i == j else 0)
        # dual vectors live in the root plane
        assert sum(t) == 0


def test_project_to_root_span(g2):
    lam = vec([3, -1, -2])
    assert g2.project_to_root_span(lam) == lam
    shifted = vec([4, 0, -1])
    assert g2.project_to_root_span(shifted) == lam


def _solved_projection(rs, t):
    """The orthogonal projection of t by an exact solve of the Gram system, as the reference."""
    simples = [rs.roots[s] for s in rs.simple]
    gram = [[dot(a, b) for b in simples] for a in simples]
    coords = solve_columns(gram, [dot(t, a) for a in simples])
    return tuple(sum((c * x for c, x in zip(coords, col)), Fraction(0)) for col in zip(*simples))


@pytest.mark.parametrize("fam,rank", TABLE_TYPES)
def test_projection_is_the_solved_projection_with_the_same_labels(fam, rank):
    rs = build(fam, rank)
    rng = random.Random(f"{fam}{rank}")
    for _ in range(50):
        t = tuple(Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(rs.ambient_dim))
        projected = rs.project_to_root_span(t)
        assert projected == _solved_projection(rs, t)
        assert rs.scaled_labels(projected) == rs.scaled_labels(t)


def test_rational_serialization_round_trip():
    # vec, the one reader of a rational argument, reads back what rational_str writes
    for x in [Fraction(3), Fraction(-1, 2), Fraction(22, 7)]:
        assert vec([rational_str(x)], "lambda") == (x,)
    with pytest.raises(ValidationError, match=r"^cannot parse rational '0\.5\.1' in lambda$"):
        vec(["0.5.1"], "lambda")
    with pytest.raises(ValidationError, match=r"^cannot parse rational '1/0' in lambda$"):
        vec(["1/0"], "lambda")


@pytest.mark.parametrize("literal", [
    "1e1001", "1e-1001", "1e100000000", "1E+9999999999999", "1/" + "7" * 1000, "2" * 1001,
])
def test_parse_rational_refuses_huge_literals(literal):
    # refused from the spelling, before a number of that size is built
    with pytest.raises(ValidationError, match="^xi spells more than 1000 digits$"):
        vec([literal], "xi")


def test_parse_rational_accepts_up_to_the_limit():
    assert vec(["1e999"]) == (10**999,)
    assert vec(["25e-1"]) == (Fraction(5, 2),)
    assert vec(["1e0000000000002"]) == (100,)


@pytest.mark.parametrize("fam,rank", SMALL_TYPES + [("E", 8)])
def test_scaled_labels_match_pairings(fam, rank):
    rs = build(fam, rank)
    t = vec([Fraction((-1) ** d * (d + 2), d % 4 + 1) for d in range(rs.ambient_dim)])
    labels, scale = rs.scaled_labels(t)
    assert [Fraction(x, scale) for x in labels] == [rs.pairing(t, s) for s in rs.simple]
    assert scale == lcm(*(rs.pairing(t, s).denominator for s in rs.simple))
    with pytest.raises(ValidationError):
        rs.scaled_labels(t + (Fraction(0),))


def _same_up_to_relabelling(a, b) -> bool:
    """True if the square matrix b is a, or its transpose, with the indices
    permuted simultaneously in rows and columns."""
    n = len(a)
    bt = [list(col) for col in zip(*b)]
    return any(
        all(m[p[i]][p[j]] == a[i][j] for i in range(n) for j in range(n))
        for p in permutations(range(n)) for m in (b, bt)
    )


@pytest.mark.parametrize("fam,rank", TABLE_TYPES)
def test_against_sympy_liealgebras(fam, rank):
    cartan_type = pytest.importorskip("sympy.liealgebras.cartan_type")
    weyl_group = pytest.importorskip("sympy.liealgebras.weyl_group")
    # sympy has no C2; it is B2 with its two simple roots swapped
    name = "B2" if (fam, rank) == ("C", 2) else f"{fam}{rank}"
    ct = cartan_type.CartanType(name)
    rs = build(fam, rank)
    assert len(ct.positive_roots()) == len(rs.positive)
    assert int(weyl_group.WeylGroup(name).group_order()) == rs.weyl_order
    assert _same_up_to_relabelling(rs.cartan_matrix(), ct.cartan_matrix().tolist())


@pytest.mark.parametrize("fam", "ABCD")
def test_build_at_the_rank_limit(fam):
    rs = RootSystem(fam, MAX_RANK)
    assert len(rs.positive) == positive_root_count(fam, MAX_RANK)
    with pytest.raises(SizeLimitError, match=f"rank {MAX_RANK + 1} is over the limit {MAX_RANK}"):
        RootSystem(fam, MAX_RANK + 1)


@pytest.mark.parametrize("fam,rank", ALL_TYPES)
def test_find_matches_the_root_index(fam, rank):
    rs = build(fam, rank)
    index = {r: i for i, r in enumerate(rs.roots)}
    for i, r in enumerate(rs.roots):
        assert rs.find(r) == i
        for not_a_root in (tuple(2 * x for x in r), tuple(x / 2 for x in r),
                           r[:-1] + (r[-1] + Fraction(1, 3),), r[:-1] + (r[-1] + 1,)):
            assert rs.find(not_a_root) == index.get(not_a_root)
    assert rs.find(vec([0] * rs.ambient_dim)) is None
    assert rs.find(rs.roots[0][:-1]) is None
