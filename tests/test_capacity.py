import random
from collections import Counter
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bruhatcap import capacity, checks, graphs, linalg
from bruhatcap import weyl as weyl_module
from bruhatcap import (
    ConsistencyError,
    SizeLimitError,
    ValidationError,
    build,
    cayley_diameter,
    closed_form_table,
    coweight_oscillation_bound,
    dominant_from_pairings,
    generate,
    hz_bounds,
    is_regular,
    lower_bound,
    parabolic_positions,
    random_dominant,
    random_positive_coweight,
    unitary_capacity,
    upper_bound,
    w0_decomposition,
)
from bruhatcap.capacity import confirm_upper, require_dominant, w0_degree
from bruhatcap.checks import TABLE_TYPES
from bruhatcap.graphs import d_min
from bruhatcap.linalg import dot, solve_columns, vec
from bruhatcap.rootsystem import RootSystem
from rootsystem_oracle import reflect
from weyl_ops import product_images, reflection, root_perms

RNG_SEED = 20260809


# -- weight helpers --------------------------------------------------------------


def test_dominance_and_regularity(b3):
    lam = dominant_from_pairings(b3, [1, 0, 2])
    assert require_dominant(b3, lam) == ((1, 0, 2), 1)
    assert not is_regular(b3, lam)
    assert parabolic_positions(b3, lam) == (1,)
    reg = dominant_from_pairings(b3, [1, 1, 1])
    assert is_regular(b3, reg)
    with pytest.raises(ValidationError, match=r"<lambda, coroot\(alpha_1\)> < 0"):
        require_dominant(b3, vec([0, 1, 0]))


def test_dominant_from_pairings_round_trip(g2):
    lam = dominant_from_pairings(g2, [3, 5])
    assert g2.pairing(lam, g2.simple[0]) == 3
    assert g2.pairing(lam, g2.simple[1]) == 5


# -- decompositions ---------------------------------------------------------------


@pytest.mark.parametrize("fam,rank", list(TABLE_TYPES) + [("A", 1), ("B", 7), ("C", 7), ("D", 7)])
def test_w0_decomposition_validates(fam, rank):
    dec = w0_decomposition(build(fam, rank))
    assert len(dec) >= 1


def _kostant_cascade(rs) -> set[int]:
    """Kostant's cascade of strongly orthogonal roots: the highest root of each
    irreducible component, then the cascade of the roots orthogonal to it."""
    out: set[int] = set()
    pending = [set(rs.positive)]
    while pending:
        # Irreducible components: connected under non-orthogonality.
        unseen = pending.pop()
        while unseen:
            component = [unseen.pop()]
            for a in component:
                linked = {b for b in unseen if dot(rs.roots[a], rs.roots[b]) != 0}
                unseen -= linked
                component += linked
            top = max(sum(rs.root_coefficients(a)) for a in component)
            (highest,) = [a for a in component if sum(rs.root_coefficients(a)) == top]
            out.add(highest)
            rest = {a for a in component if dot(rs.roots[a], rs.roots[highest]) == 0}
            if rest:
                pending.append(rest)
    return out


@pytest.mark.parametrize("fam,rank", list(TABLE_TYPES) + [("A", 1), ("B", 7), ("D", 7), ("D", 8)])
def test_w0_decomposition_is_kostant_cascade(fam, rank):
    # An independent oracle for the transcribed data, as a set: the printed
    # order differs from the cascade's for B, D, E and G.
    rs = build(fam, rank)
    assert set(w0_decomposition(rs).root_indices) == _kostant_cascade(rs)


def test_w0_decomposition_c3_example():
    rs = build("C", 3)
    dec = w0_decomposition(rs)
    assert set(dec.vectors) == {vec([2, 0, 0]), vec([0, 2, 0]), vec([0, 0, 2])}
    assert len(dec) == 3
    assert sum(2 * h - 1 for h in dec.coroot_heights) == 9


def test_w0_decomposition_b5_example():
    rs = build("B", 5)
    dec = w0_decomposition(rs)
    assert dec.vectors == (
        vec([1, -1, 0, 0, 0]), vec([1, 1, 0, 0, 0]),
        vec([0, 0, 1, -1, 0]), vec([0, 0, 1, 1, 0]),
        vec([0, 0, 0, 0, 1]),
    )
    assert len(dec) == 5
    assert sum(2 * h - 1 for h in dec.coroot_heights) == 25


def test_w0_decomposition_a1_trivial():
    dec = w0_decomposition(build("A", 1))
    assert dec.vectors == (vec([1, -1]),)


@pytest.mark.parametrize("fam,rank,vectors,match", [
    pytest.param("A", 2, [vec([-1, 0, 1])], "not a positive root", id="negative-root"),
    pytest.param("A", 2, [vec([1, 0, 0])], "not a positive root", id="not-a-root"),
    pytest.param("A", 2, [vec([1, -1, 0]), vec([0, 1, -1])], "not orthogonal",
                 id="non-orthogonal"),
    # B3's w0 is the product of three orthogonal reflections; two fix a root
    pytest.param("B", 3, [vec([1, -1, 0]), vec([1, 1, 0])], "product is not w0",
                 id="root-dropped"),
])
def test_tampered_decomposition_is_refused(monkeypatch, fam, rank, vectors, match):
    monkeypatch.setattr(capacity, "_DECOMPOSITIONS", {})
    monkeypatch.setattr(capacity, "_decomposition_vectors", lambda family, r: vectors)
    with pytest.raises(ConsistencyError, match=match):
        w0_decomposition(build(fam, rank))
    assert capacity._DECOMPOSITIONS == {}


@pytest.mark.parametrize("fam,rank", sorted(
    set(TABLE_TYPES) | {(f, r) for f in "BCD" for r in range(2 if f != "D" else 3, 21)}))
def test_simple_images_match_the_permutation_product(fam, rank):
    # The validation follows only the simple roots through the reflections;
    # the oracle composes whole root permutations.  Also on products that
    # are not w0: the decomposition without its first root, and the Coxeter
    # element s_1 ... s_n in both orders, whose reflections do not commute.
    rs = build(fam, rank)
    indices = w0_decomposition(rs).root_indices
    for word in (indices, indices[1:], rs.simple, rs.simple[::-1]):
        assert list(capacity._simple_images(rs, word)) == product_images(rs, word)


@pytest.mark.parametrize("fam,rank,lt", [
    ("A", 3, 2), ("A", 4, 2), ("B", 4, 4), ("B", 5, 5), ("C", 5, 5),
    ("D", 5, 4), ("D", 6, 6), ("E", 6, 4), ("E", 7, 7), ("E", 8, 8),
    ("F", 4, 4), ("G", 2, 2),
])
def test_decomposition_size_is_absolute_length(fam, rank, lt):
    assert len(w0_decomposition(build(fam, rank))) == lt


def test_decomposition_orthogonality(g2):
    dec = w0_decomposition(g2)
    for i in range(len(dec)):
        for j in range(i + 1, len(dec)):
            assert dot(dec.vectors[i], dec.vectors[j]) == 0


@pytest.mark.parametrize("fam,rank", TABLE_TYPES)
def test_height_lemma_equality_on_decomposition_roots(fam, rank):
    # the length criterion forces l(s_alpha) = 2 ht - 1 for every
    # decomposition root; lengths computed by root-level inversion count
    rs = build(fam, rank)
    dec = w0_decomposition(rs)
    for a, h in zip(dec.root_indices, dec.coroot_heights):
        refl = [rs.find(reflect(rs, a, r)) for r in rs.roots]
        length = sum(1 for b in rs.positive if not rs.is_positive[refl[b]])
        assert length == 2 * h - 1


# -- upper bound -------------------------------------------------------------------


def test_upper_bound_type_c():
    rs = build("C", 4)
    dec = w0_decomposition(rs)
    lam = vec([5, 3, 2, 1])
    assert upper_bound(rs, lam, dec) == 11


def test_upper_bound_zero_weight(b3):
    dec = w0_decomposition(b3)
    assert upper_bound(b3, vec([0, 0, 0]), dec) == 0


def test_upper_bound_g2_in_root_plane(g2):
    # on the plane x1+x2+x3 = 0 the upper bound is (2/3)(l1+l2-2*l3)
    dec = w0_decomposition(g2)
    lam = vec([3, -1, -2])
    expect = Fraction(2, 3) * (lam[0] + lam[1] - 2 * lam[2])
    assert upper_bound(g2, lam, dec) == expect == 4


def test_upper_bound_f4():
    rs = build("F", 4)
    dec = w0_decomposition(rs)
    lam = vec([8, 3, 2, 1])
    assert upper_bound(rs, lam, dec) == 2 * 8 + 2 * 2


def test_upper_bound_rejects_non_dominant(b3):
    dec = w0_decomposition(b3)
    with pytest.raises(ValidationError):
        upper_bound(b3, vec([0, 1, 0]), dec)


# -- lower bound -------------------------------------------------------------------


def test_lower_bound_type_c_sharp():
    rs = build("C", 3)
    dec = w0_decomposition(rs)
    lam = vec([3, 2, 1])
    low, witness = lower_bound(rs, lam, dec)
    assert low == 6
    assert witness == 2  # the long simple root 2e_n


def test_lower_bound_f4():
    rs = build("F", 4)
    dec = w0_decomposition(rs)
    lam = vec([8, 3, 2, 1])
    low, _ = lower_bound(rs, lam, dec)
    assert low == 16


def test_lower_bound_b4_max_form():
    rs = build("B", 4)
    dec = w0_decomposition(rs)
    for lam_raw in [(4, 3, 2, 1), (10, 1, 1, 1), (1, 1, 1, 1)]:
        lam = vec(lam_raw)
        low, _ = lower_bound(rs, lam, dec)
        assert low == max(2 * lam[0], sum(lam, Fraction(0)))


# -- coweight oscillation bound -----------------------------------------------------


def test_coweight_vertex_attains_lower_bound(b3):
    dec = w0_decomposition(b3)
    tau = b3.dual_basis()
    rng = random.Random(RNG_SEED)
    for _ in range(25):
        lam = random_dominant(b3, rng)
        low, witness = lower_bound(b3, lam, dec)
        assert coweight_oscillation_bound(b3, lam, tau[witness], dec) == low


@pytest.mark.parametrize("fam,rank", [("B", 3), ("D", 4), ("F", 4), ("G", 2), ("E", 6)])
def test_vertex_maximum_equals_lower_bound(fam, rank):
    # the optimization over the whole coweight cone is decided at the
    # dual-basis vertices, all of which are admissible
    rs = build(fam, rank)
    dec = w0_decomposition(rs)
    tau = rs.dual_basis()
    rng = random.Random(RNG_SEED)
    for _ in range(10):
        lam = random_dominant(rs, rng)
        low, _ = lower_bound(rs, lam, dec)
        values = [coweight_oscillation_bound(rs, lam, t, dec) for t in tau]
        assert max(values) == low


def test_coweight_zero_weight(b3):
    dec = w0_decomposition(b3)
    xi = random_positive_coweight(b3, random.Random(1))
    assert coweight_oscillation_bound(b3, vec([0, 0, 0]), xi, dec) == 0


def test_coweight_rejects_non_positive(b3):
    dec = w0_decomposition(b3)
    lam = vec([2, 1, 0])
    with pytest.raises(ValidationError):
        coweight_oscillation_bound(b3, lam, vec([-1, 0, 0]), dec)
    with pytest.raises(ValidationError):
        coweight_oscillation_bound(b3, lam, vec([0, 0, 0]), dec)


@settings(max_examples=40, deadline=None)
@given(st.lists(st.integers(1, 9), min_size=3, max_size=3),
       st.lists(st.integers(0, 9), min_size=3, max_size=3))
def test_coweight_never_beats_lower_bound_b3(xi_coeffs, lam_coeffs):
    rs = build("B", 3)
    dec = w0_decomposition(rs)
    tau = rs.dual_basis()
    lam = dominant_from_pairings(rs, lam_coeffs)
    xi = tuple(
        sum((Fraction(c) * t[i] for c, t in zip(xi_coeffs, tau)), Fraction(0))
        for i in range(rs.ambient_dim)
    )
    low, _ = lower_bound(rs, lam, dec)
    assert coweight_oscillation_bound(rs, lam, xi, dec) <= low


def _all_roots_coweight_bound(rs, lam, xi, dec):
    """The oscillation bound in ambient Fraction arithmetic, with its maximum
    taken over all 2|R+| roots: the oracle of the maximum over R+ alone."""
    xi = vec(xi)
    if any(dot(xi, rs.roots[s]) < 0 for s in rs.simple):
        raise ValidationError("xi must pair nonnegatively with every simple root")
    m = dot(xi, rs.rho)
    if m <= 0:
        raise ValidationError("xi must pair positively with the highest root")
    if max(abs(dot(xi, r)) for r in rs.roots) != m:
        raise ConsistencyError("max |(root, xi)| not attained at the highest root")
    return sum((rs.pairing(lam, i) * dot(rs.roots[i], xi) for i in dec.root_indices),
               Fraction(0)) / m


def _separate_dots_coweight_bound(rs, lam, xi, dec):
    """The oscillation bound with one dot product per check and per summand,
    rank + 1 + |R+| + |dec| of them: the oracle of the single pass over R+."""
    xi = vec(xi)
    pairings, scale = capacity._scaled_pairings(rs, lam, dec.root_indices)
    if any(dot(xi, rs.roots[s]) < 0 for s in rs.simple):
        raise ValidationError("xi must pair nonnegatively with every simple root")
    m = dot(xi, rs.rho)
    if m <= 0:
        raise ValidationError("xi must pair positively with the highest root")
    worst = max(abs(dot(xi, rs.roots[i])) for i in rs.positive)
    if worst != m:
        raise ConsistencyError("max |(root, xi)| not attained at the highest root")
    osc = sum((p * dot(rs.roots[i], xi) for i, p in zip(dec.root_indices, pairings)),
              Fraction(0))
    return osc / (scale * m)


def _outcome(bound, *args):
    """What a call returns, or the type and text of what it raises."""
    try:
        return "value", bound(*args)
    except (ValidationError, ConsistencyError) as exc:
        return type(exc), str(exc)


@pytest.mark.parametrize("fam,rank", TABLE_TYPES)
def test_one_pass_coweight_bound_matches_separate_dots(fam, rank):
    rs = build(fam, rank)
    dec = w0_decomposition(rs)
    tau = rs.dual_basis()
    rng = random.Random(RNG_SEED)
    # the interior of the cone, its vertices, and a face: xi orthogonal to alpha_1
    face = tuple(map(sum, zip(*tau[1:])))
    cone = tuple(random_positive_coweight(rs, rng) for _ in range(4))
    for xi in tau + cone + (face,):
        for lam in (random_dominant(rs, rng), random_dominant(rs, rng, regular=True)):
            got = coweight_oscillation_bound(rs, lam, xi, dec)
            assert type(got) is Fraction
            assert got == _separate_dots_coweight_bound(rs, lam, xi, dec)


@pytest.mark.parametrize("fam,rank", TABLE_TYPES)
def test_one_pass_coweight_bound_refuses_like_separate_dots(fam, rank):
    rs = build(fam, rank)
    dec = w0_decomposition(rs)
    tau = rs.dual_basis()
    rng = random.Random(RNG_SEED)
    lam = random_dominant(rs, rng)
    zero = vec([0] * rs.ambient_dim)
    # negative on alpha_1 only; xi = 0, which passes the cone check with m = 0
    negative = tuple(b - a for a, b in zip(tau[0], tau[1]))
    not_dominant = tuple(-x for x in random_dominant(rs, rng, regular=True))
    cases = [(lam, negative), (lam, zero), (not_dominant, negative), (not_dominant, tau[0])]
    texts = set()
    for weight, xi in cases:
        got = _outcome(coweight_oscillation_bound, rs, weight, xi, dec)
        assert got[0] != "value"
        assert got == _outcome(_separate_dots_coweight_bound, rs, weight, xi, dec)
        texts.add(got[1])
    assert "xi must pair nonnegatively with every simple root" in texts
    assert "xi must pair positively with the highest root" in texts


@pytest.mark.parametrize("fam,rank", TABLE_TYPES)
def test_coweight_maximum_over_positive_roots_is_over_all_roots(fam, rank):
    rs = build(fam, rank)
    dec = w0_decomposition(rs)
    rng = random.Random(RNG_SEED)
    for xi in rs.dual_basis() + tuple(random_positive_coweight(rs, rng) for _ in range(5)):
        over_positive = max(abs(dot(xi, rs.roots[i])) for i in rs.positive)
        assert over_positive == max(abs(dot(xi, r)) for r in rs.roots) == dot(xi, rs.rho)
        lam = random_dominant(rs, rng)
        assert coweight_oscillation_bound(rs, lam, xi, dec) == _all_roots_coweight_bound(rs, lam, xi, dec)


TAMPERED_HIGHEST = r"^max \|\(root, xi\)\| not attained at the highest root$"


@pytest.mark.parametrize("fam,rank", [("B", 3), ("G", 2), ("F", 4)])
def test_tampered_highest_root_is_refused(fam, rank):
    # A fresh system, so the cached one keeps its highest root.  An interior
    # coweight pairs less with any other positive root than with the highest.
    cached = build(fam, rank)
    dec = w0_decomposition(cached)
    rng = random.Random(RNG_SEED)
    for wrong in (i for i in cached.positive if i != cached.highest):
        rs = RootSystem(fam, rank)
        lam, xi = random_dominant(rs, rng), random_positive_coweight(rs, rng)
        rs.highest = wrong
        for bound in (coweight_oscillation_bound, _separate_dots_coweight_bound,
                      _all_roots_coweight_bound):
            with pytest.raises(ConsistencyError, match=TAMPERED_HIGHEST):
                bound(rs, lam, xi, dec)


def test_coweight_bound_pairs_xi_once_per_positive_root(monkeypatch):
    # one dot product per positive root: the cone check, theta, the maximum and
    # the oscillation sum all read that pass
    calls = Counter()
    real_dot = linalg.dot

    def counted(x, y):
        calls["dot"] += 1
        return real_dot(x, y)

    monkeypatch.setattr(linalg, "dot", counted)
    rng = random.Random(RNG_SEED)
    for fam, rank in TABLE_TYPES:
        rs = build(fam, rank)
        dec = w0_decomposition(rs)
        lam = random_dominant(rs, rng)
        for xi in rs.dual_basis() + (random_positive_coweight(rs, rng),):
            calls.clear()
            coweight_oscillation_bound(rs, lam, xi, dec)
            assert calls["dot"] == len(rs.positive)


def test_oscillation_identity_small_types():
    # <lam - w0(lam), xi> computed through the enumerated w0 equals the
    # decomposition form sum_k <lam, coroot_k>(alpha_k, xi)
    rng = random.Random(RNG_SEED)
    for fam, rank in [("A", 2), ("B", 2), ("C", 3), ("D", 3), ("G", 2)]:
        rs = build(fam, rank)
        weyl = generate(rs)
        dec = w0_decomposition(rs)
        # ambient action of w0 via a basis of simple roots + fixed complement
        for _ in range(10):
            lam = random_dominant(rs, rng)
            xi = random_positive_coweight(rs, rng)
            osc = sum(
                (rs.pairing(lam, i) * dot(rs.roots[i], xi) for i in dec.root_indices),
                Fraction(0),
            )
            # independent route: w0(lam) from the permutation action; lam lies
            # in the root span, where the action is determined by the roots
            simples = [rs.roots[s] for s in rs.simple]
            coords = solve_columns(simples, lam)
            p = root_perms(weyl)[weyl.longest_index]
            w0lam = [Fraction(0)] * rs.ambient_dim
            for c, s in zip(coords, rs.simple):
                img = rs.roots[p[s]]
                for k in range(rs.ambient_dim):
                    w0lam[k] += c * img[k]
            assert osc == dot(lam, xi) - dot(tuple(w0lam), xi)


# -- unitary capacity ---------------------------------------------------------------


def test_unitary_capacity_examples():
    lam1 = Fraction(7, 2)
    assert unitary_capacity([lam1, lam1, 0, 0]) == 2 * lam1
    assert unitary_capacity([3, 3, 3]) == 0
    assert unitary_capacity([3, 2, 1, 0]) == 4


def test_unitary_capacity_matches_cayley_oracle():
    rng = random.Random(RNG_SEED)
    for n in (2, 3, 4):
        for _ in range(10):
            lam = sorted((rng.randint(-6, 6) for _ in range(n)), reverse=True)
            assert unitary_capacity(lam) == cayley_diameter(n, lam)


def test_unitary_capacity_rejects_unsorted():
    with pytest.raises(ValidationError):
        unitary_capacity([1, 2, 3])


def test_unitary_diameter_check_counts_weights_with_a_repeated_entry(monkeypatch):
    # The check draws its sampled weights as below, and then one weight per
    # partition of each n (3 + 15 here), each tied but (1, 1, 1) and
    # (1, ..., 1), so that it searches every frame.  Its detail splits them
    # by the space cayley_diameter searched: S_n, or the double cosets
    # W_lambda\S_n/W_lambda for a tied weight.
    rng = random.Random(5)
    tied = 0
    for n in (3, 7):
        for _ in range(30):
            tied += len({rng.randint(-20, 20) for _ in range(n)}) < n
    assert 0 < tied < 60
    frame, searched = graphs._cayley_frame, set()

    def logged(n, blocks):
        searched.add(blocks)
        return frame(n, blocks)

    monkeypatch.setattr(graphs, "_cayley_frame", logged)
    res = checks.check_unitary_diameter(seed=5, ns=(3, 7), samples=30)
    assert res.passed
    assert res.detail == (f"78 weights across n=[3, 7] match exactly, 18 of them one per tie pattern: "
                          f"{62 - tied} with distinct entries, searched on S_n, and {tied + 16} with a "
                          f"repeated entry, on W_lambda\\S_n/W_lambda")
    assert searched == {*checks._partitions(3), *checks._partitions(7)}
    assert len(searched) == 18


# -- closed-form table ----------------------------------------------------------------


@pytest.mark.parametrize("fam,rank", TABLE_TYPES)
def test_closed_form_matches_first_principles(fam, rank):
    rs = build(fam, rank)
    dec = w0_decomposition(rs)
    rng = random.Random(RNG_SEED + rank)
    for _ in range(8):
        lam = random_dominant(rs, rng)
        closed_low, closed_up = closed_form_table(rs, lam)
        assert closed_up == upper_bound(rs, lam, dec)
        assert closed_low == lower_bound(rs, lam, dec)[0]


@pytest.mark.parametrize("fam,rank", TABLE_TYPES)
def test_bounds_with_fractional_dynkin_labels(fam, rank):
    # Labels over 2, 3 and 6 give the bounds a common denominator above 1;
    # each bound is checked against the table and against Fraction pairings.
    rs = build(fam, rank)
    dec = w0_decomposition(rs)
    tau = rs.dual_basis()
    n_rho = rs.root_coefficients(rs.highest)
    rng = random.Random(RNG_SEED + 7 * rank)
    for den in (2, 3, 6):
        for _ in range(3):
            labels = [Fraction(rng.randint(0, 3 * den), den) for _ in range(rank)]
            labels[rng.randrange(rank)] = Fraction(1, den)
            lam = dominant_from_pairings(rs, labels)
            pairings = [rs.pairing(lam, i) for i in dec.root_indices]
            upper = upper_bound(rs, lam, dec)
            lower, witness = lower_bound(rs, lam, dec)
            assert upper == sum(pairings, Fraction(0))
            assert lower == max(
                sum((Fraction(rs.root_coefficients(i)[j], n_rho[j]) * p
                     for i, p in zip(dec.root_indices, pairings)), Fraction(0))
                for j in range(rank)
            )
            assert closed_form_table(rs, lam) == (lower, upper)
            xi = tau[witness]
            vertex = coweight_oscillation_bound(rs, lam, xi, dec)
            osc = sum((p * dot(rs.roots[i], xi) for i, p in zip(dec.root_indices, pairings)),
                      Fraction(0))
            assert vertex == osc / dot(xi, rs.rho) == lower


def test_e_type_rows_are_invariant_under_complement_shift():
    # adding a vector orthogonal to the root span changes no pairing and no row
    for rank, shift in [(6, vec([0, 0, 0, 0, 0, 1, 0, 1])),
                        (6, vec([0, 0, 0, 0, 0, 0, 1, 1])),
                        (7, vec([0] * 6 + [1, 1]))]:
        rs = build("E", rank)
        rng = random.Random(RNG_SEED)
        for _ in range(10):
            lam = random_dominant(rs, rng)
            shifted = tuple(a + 3 * b for a, b in zip(lam, shift))
            require_dominant(rs, shifted)
            assert closed_form_table(rs, lam) == closed_form_table(rs, shifted)


def test_e7_eliminated_forms_on_root_span():
    # sampled weights lie in the root span (lam7 = -lam8), where the closed
    # forms collapse to the two-term eliminated expressions
    rs = build("E", 7)
    rng = random.Random(RNG_SEED)
    for _ in range(15):
        lam = random_dominant(rs, rng)
        assert lam[6] == -lam[7]
        low, up = closed_form_table(rs, lam)
        assert up == 2 * lam[1] + 2 * lam[3] + 2 * lam[5] - 2 * lam[6]
        assert low == max(
            2 * lam[5] - 2 * lam[6],
            Fraction(1, 2) * (sum(lam[:6], Fraction(0)) - 4 * lam[6]),
        )


def test_e6_eliminated_form_on_root_span():
    rs = build("E", 6)
    rng = random.Random(RNG_SEED)
    for _ in range(15):
        lam = random_dominant(rs, rng)
        assert lam[5] == lam[6] == -lam[7]
        low, up = closed_form_table(rs, lam)
        assert up == -lam[0] - lam[1] + lam[2] + lam[3] + lam[4] - 3 * lam[5]
        assert low == lam[4] - 3 * lam[5]


def test_g2_closed_form_projection_invariance(g2):
    lam = vec([5, -2, -3])
    shifted = vec([6, -1, -2])  # lam + (1,1,1)
    assert closed_form_table(g2, lam) == closed_form_table(g2, shifted)


# -- hz_bounds orchestration -------------------------------------------------------


def test_hz_bounds_a3_exact():
    b = hz_bounds("A", 3, [3, 2, 1, 0])
    assert b.lower == b.upper == b.exact == 4
    assert b.checks == {"sharp": True, "ratio_ok": True, "dmin_consistent": True}
    assert b.d_min_degree == (1, 2, 1)
    assert b.min_area == 4


def test_hz_bounds_c2_sharp():
    b = hz_bounds("C", 2, [2, 1])
    assert b.lower == b.upper == 3
    assert b.checks["sharp"] is True
    assert b.checks["dmin_consistent"] is True


def test_hz_bounds_g2_ratio():
    b = hz_bounds("G", 2, [3, -1, -2])
    assert (b.lower, b.upper) == (Fraction(10, 3), 4)
    assert 3 * b.lower >= 2 * b.upper
    assert b.checks["dmin_consistent"] is True
    assert b.lam == b.lam_input


def test_hz_bounds_g2_projects_off_plane_weight():
    b = hz_bounds("G", 2, [4, 0, -1])  # = (3,-1,-2) + (1,1,1)
    assert b.lam == vec([3, -1, -2])
    assert (b.lower, b.upper) == (Fraction(10, 3), 4)


def test_hz_bounds_degenerate_parabolic_consistency():
    c = Fraction(5)
    b = hz_bounds("A", 3, [c, c, 0, 0])
    assert not b.regular
    assert b.exact == 2 * c
    assert b.upper == 2 * c
    assert b.min_area == 2 * c
    assert b.checks["dmin_consistent"] is True


def test_hz_bounds_f4_rejects_non_dominant():
    with pytest.raises(ValidationError) as err:
        hz_bounds("F", 4, [4, 3, 2, 1])
    assert "alpha_4" in str(err.value)


def test_hz_bounds_f4_dominant():
    b = hz_bounds("F", 4, [8, 3, 2, 1])
    assert (b.lower, b.upper) == (16, 20)
    # F4 group (order 1152) is within the default confirm cap
    assert b.checks["dmin_consistent"] is True


def test_hz_bounds_wrong_length():
    with pytest.raises(ValidationError):
        hz_bounds("B", 3, [1, 2])


@pytest.mark.parametrize("cap", ["confirm_cap", "group_cap"])
def test_hz_bounds_negative_cap_refused_before_any_build(monkeypatch, cap):
    def unexpected(family, rank):
        raise AssertionError(f"{family}{rank} was built")

    with monkeypatch.context() as patched:
        patched.setattr(capacity, "build", unexpected)
        with pytest.raises(ValidationError, match=f"{cap} must be nonnegative, got -3"):
            hz_bounds("A", 2, [2, 1, 0], **{cap: -3})
        for value in (True, 2.0, "2", None):  # True and 2.0 used to pass, "2" and None TypeError
            with pytest.raises(ValidationError, match=f"^{cap} must be an int, got {value!r}$"):
                hz_bounds("A", 2, [2, 1, 0], **{cap: value})
    # a cap of 0 is valid: it skips the confirmation, or refuses |W| = 6 by size
    if cap == "confirm_cap":
        assert hz_bounds("A", 2, [2, 1, 0], confirm_cap=0).checks["dmin_consistent"] is None
    else:
        with pytest.raises(SizeLimitError):
            hz_bounds("A", 2, [2, 1, 0], group_cap=0)


def test_require_dominant_checks_s_p_before_dominance(b3):
    lam = vec([0, 1, 0])  # Dynkin labels (-1, 1, 0)
    with pytest.raises(ValidationError, match="S_P"):
        require_dominant(b3, lam, (1,))
    with pytest.raises(ValidationError, match="not dominant"):
        require_dominant(b3, lam, (2,))
    assert require_dominant(b3, vec([1, 1, 0]), (0, 2)) == ((0, 1, 0), 1)


def test_hz_bounds_big_group_skips_confirmation():
    assert build("B", 6).weyl_order > capacity.DEFAULT_CONFIRM_CAP
    b = hz_bounds("B", 6, [6, 5, 4, 3, 2, 1])
    assert b.checks["dmin_consistent"] is None
    assert b.d_min_degree is None


CONFIRMED_TYPES = [("A", 3), ("B", 3), ("C", 3), ("D", 4), ("G", 2), ("F", 4)]


def _counted(counts, name, fn):
    def wrapper(*args, **kwargs):
        counts[name] += 1
        return fn(*args, **kwargs)
    return wrapper


def test_hz_bounds_builds_weight_free_data_once_per_type(monkeypatch):
    # Fresh groups, so no reflection tables or coset data are kept from earlier tests.
    monkeypatch.setattr(weyl_module, "_GROUP_CACHE", {})
    counts = Counter()
    monkeypatch.setattr(graphs, "quantum_bruhat_graph",
                        _counted(counts, "quantum", graphs.quantum_bruhat_graph))
    monkeypatch.setattr(graphs, "d_min", _counted(counts, "d_min", graphs.d_min))
    monkeypatch.setattr(weyl_module, "ParabolicData",
                        _counted(counts, "cosets", weyl_module.ParabolicData))
    for module in (graphs, capacity):
        monkeypatch.setattr(module, "bruhat_graph",
                            _counted(counts, "bruhat", graphs.bruhat_graph), raising=False)
    for fam, rank in CONFIRMED_TYPES:
        rs = build(fam, rank)
        regular = dominant_from_pairings(rs, range(1, rank + 1))
        singular = dominant_from_pairings(rs, [0] + list(range(2, rank + 1)))
        first, second = hz_bounds(fam, rank, regular), hz_bounds(fam, rank, regular)
        assert first.as_dict() == second.as_dict()
        assert second.checks["dmin_consistent"] is True
        w = generate(rs)
        assert second.d_min_degree == w0_degree(w)
        assert hz_bounds(fam, rank, singular).as_dict() == hz_bounds(fam, rank, singular).as_dict()
        assert w.parabolic((0,)) is w.parabolic([0])
    n = len(CONFIRMED_TYPES)
    # The degree comes from a walk on the group's tables: no quantum Bruhat graph, no search.
    assert counts == {"cosets": 2 * n}


def test_confirm_upper_raises_on_wrong_upper(b3):
    w = generate(b3)
    lam = dominant_from_pairings(b3, [1, 2, 3])
    upper = upper_bound(b3, lam, w0_decomposition(b3))
    assert confirm_upper(w, lam, upper) == upper
    with pytest.raises(ConsistencyError, match="triangle"):
        confirm_upper(w, lam, upper + 1)
    assert confirm_upper(w, lam, upper) == upper
    # A singular weight's area is returned, not checked against upper.
    singular = dominant_from_pairings(b3, [0, 2, 3])
    area = confirm_upper(w, singular, upper_bound(b3, singular, w0_decomposition(b3)))
    assert confirm_upper(w, singular, area + 1) == area


CONFIRM_CAP_TYPES = [t for t in TABLE_TYPES if build(*t).weyl_order <= capacity.DEFAULT_CONFIRM_CAP]


@pytest.mark.parametrize("fam,rank", CONFIRM_CAP_TYPES)
def test_w0_degree_matches_quantum_bruhat_bfs(fam, rank):
    # The breadth-first search over the whole quantum Bruhat graph is the
    # independent oracle for the degree that `hz_bounds` reports.
    w = generate(build(fam, rank))
    degree, length = d_min(graphs.quantum_bruhat_graph(w), w.longest_index, w.identity_index)
    assert w0_degree(w) == degree
    assert length == len(w0_decomposition(w.rs))


def _walk(w):
    """The walk w0, w0 s_(a_1), w0 s_(a_1) s_(a_2), ... over the decomposition roots a_k."""
    roots = w0_decomposition(w.rs).root_indices
    path = [w.longest_index]
    for a in roots:
        path.append(w.reflection_table(a)[path[-1]])
    return path, roots


def _tamper_length(w):
    path, _roots = _walk(w)
    w.lengths = list(w.lengths)
    w.lengths[path[1]] -= 1  # the first step now lowers the length by one too many


def _tamper_table(w):
    _path, roots = _walk(w)
    w._reflection_tables[roots[0]] = tuple(range(len(w)))  # u s_alpha = u: no step at all


def _tamper_end(w):
    # The last step lands on s_1 instead of e, and s_1 is given length 0, so
    # every step still has the length drop of a quantum edge.
    path, roots = _walk(w)
    wrong = reflection(w, w.rs.simple[0])
    table = list(w.reflection_table(roots[-1]))
    table[path[-2]] = wrong
    w._reflection_tables[roots[-1]] = tuple(table)
    w.lengths = list(w.lengths)
    w.lengths[wrong] = 0


@pytest.mark.parametrize("tamper,match", [
    (_tamper_length, r"B3: the step by s_alpha, alpha = \(1,-1,0\), is not a quantum edge"),
    (_tamper_table, r"B3: the step by s_alpha, alpha = \(1,-1,0\), is not a quantum edge"),
    (_tamper_end, "B3: the w0 walk ends at s1$"),
])
def test_w0_degree_refuses_a_broken_walk(b3, tamper, match):
    tampered = weyl_module.WeylGroup(b3)
    tamper(tampered)
    with pytest.raises(ConsistencyError, match=match):
        w0_degree(tampered)
    w = generate(b3)
    degree, _length = d_min(graphs.quantum_bruhat_graph(w), w.longest_index, w.identity_index)
    assert w0_degree(w) == degree


def test_triangle_check_searches_once_per_type(monkeypatch):
    counts = Counter()
    monkeypatch.setattr(graphs, "quantum_bruhat_graph",
                        _counted(counts, "quantum", graphs.quantum_bruhat_graph))
    monkeypatch.setattr(graphs, "d_min", _counted(counts, "d_min", graphs.d_min))
    res = checks.check_triangle(samples=3, types=(("B", 3), ("G", 2)))
    assert res.passed, res.detail
    assert counts == {"quantum": 2, "d_min": 2}


def test_triangle_check_reports_both_degrees_on_a_mismatch(monkeypatch):
    monkeypatch.setattr(capacity, "w0_degree", lambda w: (0,) * w.rs.rank)
    res = checks.check_triangle(types=(("B", 3),))
    assert not res.passed
    assert res.detail.startswith("B3: w0_degree (0, 0, 0) but ")
    assert f"d_min(w0, e) = {w0_degree(generate(build('B', 3)))}" in res.detail


def test_decompositions_check_validates_after_another_check_filled_the_cache(monkeypatch):
    assert checks.check_table().passed  # decomposes every table type, filling the cache
    counts = Counter()
    monkeypatch.setattr(capacity, "_validated_decomposition",
                        _counted(counts, "validated", capacity._validated_decomposition))
    res = checks.check_decompositions()
    assert res.passed, res.detail
    assert counts["validated"] == len(TABLE_TYPES) == 24


def _plant_in_upper_bound(monkeypatch, family):
    upper_bound_ = capacity.upper_bound

    def planted(rs, lam, dec):
        if rs.family == family:
            raise ConsistencyError(f"planted: {rs.family}{rs.rank} lambda={lam}")
        return upper_bound_(rs, lam, dec)

    monkeypatch.setattr(capacity, "upper_bound", planted)


def test_an_internal_error_fails_its_check_and_the_later_checks_still_run(monkeypatch):
    _plant_in_upper_bound(monkeypatch, "F")
    # each named check runs once, in the order first named, and no name runs none
    assert checks.run_checks(names=[]) == []
    results = checks.run_checks(names=["height-lemma", "sandwich", "decompositions", "sandwich",
                                       "height-lemma"])
    assert [(r.name, r.passed) for r in results] == [
        ("height-lemma", True), ("sandwich", False), ("decompositions", True)]
    assert results[1].detail.startswith("planted: F4 lambda=")
    assert all(r.seconds >= 0 for r in results)


def test_a_direct_call_of_a_check_returns_its_fail(monkeypatch):
    # the triangle keeps the weight it adds to an error of the confirmation
    _plant_in_upper_bound(monkeypatch, "G")
    res = checks.check_triangle(samples=1, types=(("G", 2),))
    assert isinstance(res, checks.CheckResult)
    assert (res.name, res.passed) == ("triangle", False)
    assert res.detail.startswith("G2 lambda=(") and ": planted: G2 lambda=" in res.detail


def test_a_broken_decomposition_names_its_type_once(monkeypatch):
    vectors = capacity._decomposition_vectors

    def broken(family, rank):
        got = vectors(family, rank)
        return got[:1] * 2 + got[2:] if (family, rank) == ("E", 8) else got

    monkeypatch.setattr(capacity, "_decomposition_vectors", broken)
    res = checks.check_decompositions(types=(("A", 3), ("E", 8)))
    assert not res.passed
    assert res.detail.startswith("decomposition data for E8: roots ")
    assert res.detail.count("E8") == 1


# Planted faults, each run with no samples: only the check's certificate can catch them.

@pytest.mark.parametrize("fam,rank,source,target,coord", [
    ("A", 3, 0, 23, 0),
    ("B", 3, 5, 17, 2),
    ("G", 2, 7, 2, 1),
    ("G", 2, 3, 3, 0),  # d_min(v, v): the base case, which the edges out of v also catch
])
def test_postnikov_certificate_catches_a_raised_d_min(monkeypatch, fam, rank, source, target,
                                                       coord):
    d_min_all = graphs.d_min_all

    def raised(graph, u):
        dist, degs = d_min_all(graph, u)
        if u == source:
            degs = list(degs)
            degs[target] = tuple(d + (k == coord) for k, d in enumerate(degs[target]))
        return dist, degs

    types = ((fam, rank),)
    assert checks.check_postnikov(types=types).passed
    monkeypatch.setattr(graphs, "d_min_all", raised)
    res = checks.check_postnikov(types=types)
    assert not res.passed
    assert res.detail.startswith(f"{fam}{rank}: ")
    assert f"d_min({source},{target}) = " in res.detail


@pytest.mark.parametrize("shift", [1, Fraction(-1, 3)])
def test_type_c_sharp_certificate_catches_a_lower_bound_wrong_off_the_rays(monkeypatch, shift):
    lower_bound_ = capacity.lower_bound

    def wrong(rs, lam, dec):
        low, witness = lower_bound_(rs, lam, dec)
        if sum(1 for c in rs.scaled_labels(vec(lam))[0] if c) >= 2:
            low += shift
        return low, witness

    assert checks.check_type_c_sharp(samples=0).passed
    monkeypatch.setattr(capacity, "lower_bound", wrong)
    res = checks.check_type_c_sharp(samples=0)
    assert not res.passed
    assert res.detail.startswith("certificate: C2 lambda=")


@pytest.mark.parametrize("fam,rank,i,j", [("B", 3, 2, 1), ("E", 6, 4, 6), ("G", 2, 1, 2)])
def test_coweight_certificate_catches_one_wrong_vertex_value(monkeypatch, fam, rank, i, j):
    rs = build(fam, rank)
    omega, vertex = rs.fundamental_weights()[i - 1], rs.dual_basis()[j - 1]
    bound = capacity.coweight_oscillation_bound

    def off(rs_, lam, xi, dec=None):
        value = bound(rs_, lam, xi, dec)
        return value + Fraction(1, 5) if (rs_, lam, xi) == (rs, omega, vertex) else value

    types = ((fam, rank),)
    assert checks.check_coweight(samples=0, types=types).passed
    monkeypatch.setattr(capacity, "coweight_oscillation_bound", off)
    res = checks.check_coweight(samples=0, types=types)
    assert not res.passed
    assert res.detail.startswith(f"{fam}{rank} omega_{i}: vertex {j} value ")


def test_hz_bounds_as_dict_rationals_are_strings():
    b = hz_bounds("C", 2, [Fraction(5, 2), 1])
    d = b.as_dict()
    assert d["lower"] == "7/2"
    assert d["upper"] == "7/2"
    assert all(isinstance(x, str) for x in d["lambda"])
    assert d["checks"]["sharp"] is True


@pytest.mark.parametrize("fam,rank", [("A", 2), ("B", 2), ("C", 3), ("D", 4), ("G", 2)])
def test_hz_bounds_sandwich_random(fam, rank):
    rs = build(fam, rank)
    rng = random.Random(RNG_SEED)
    for _ in range(10):
        lam = random_dominant(rs, rng)
        if fam == "G":
            lam = rs.project_to_root_span(lam)
        b = hz_bounds(fam, rank, lam)
        assert 0 <= b.lower <= b.upper
        assert 3 * b.lower >= 2 * b.upper


def _a2_parabolic(s_p):
    return generate(build("A", 2)).parabolic(s_p)


@pytest.mark.parametrize("call,message", [
    (lambda: build(2, 2), "family must be a str, got 2"),
    (lambda: build(None, 2), "family must be a str, got None"),
    (lambda: RootSystem(["A"], 2), "family must be a str, got ['A']"),
    (lambda: _a2_parabolic(None), "S_P must be iterable, got None"),
    (lambda: _a2_parabolic(3), "S_P must be iterable, got 3"),
    (lambda: graphs.cayley_graph(3, None), "lambda must be iterable, got None"),
    (lambda: graphs.cayley_diameter(3, None), "lambda must be iterable, got None"),
    (lambda: hz_bounds("A", 2, None), "lambda must be iterable, got None"),
    (lambda: graphs.min_path_area(_a2_parabolic(()), None, 0, 1), "lambda must be iterable, got None"),
    (lambda: coweight_oscillation_bound(build("A", 2), (2, 1, 0), 5, w0_decomposition(build("A", 2))),
     "xi must be iterable, got 5"),
    (lambda: hz_bounds("A", 2, "321"), "lambda must be an iterable of rationals, got '321'"),
    (lambda: hz_bounds("A", 2, b"321"), "lambda must be an iterable of rationals, got b'321'"),
    (lambda: graphs.cayley_diameter(2, "75"), "lambda must be an iterable of rationals, got '75'"),
    (lambda: hz_bounds("A", 2, "3,2,1"), "lambda must be an iterable of rationals, got '3,2,1'"),
    (lambda: hz_bounds("A", 2, [None, 1, 0]), "lambda must be an iterable of rationals, got [None, 1, 0]"),
    (lambda: hz_bounds("A", 2, [0.1, 0, -0.1]), "lambda must hold exact rationals, got the float 0.1"),
    (lambda: hz_bounds("A", 2, [True, False, 0]), "lambda must hold exact rationals, got the bool True"),
    (lambda: hz_bounds("A", 2, ["1e10000000", 0, 0]), "lambda spells more than 1000 digits"),
    (lambda: hz_bounds("A", 2, ["9" * 1001, 0, 0]), "lambda spells more than 1000 digits"),
    (lambda: cayley_diameter(2, ["1e1000000", 0]), "lambda spells more than 1000 digits"),
    (lambda: dominant_from_pairings(build("A", 2), "12"),
     "chamber coordinates must be an iterable of rationals, got '12'"),
    (lambda: dominant_from_pairings(build("A", 2), None), "chamber coordinates must be iterable, got None"),
    (lambda: graphs.export(graphs.bruhat_graph(generate(build("A", 2))), "json", lam=[2.0, 1.0, 0.0]),
     "lambda must hold exact rationals, got the float 2.0"),
    (lambda: is_regular(build("A", 2), [2, 1, 0.0]), "lambda must hold exact rationals, got the float 0.0"),
    (lambda: parabolic_positions(build("A", 2), [2, 1, 0.0]),
     "lambda must hold exact rationals, got the float 0.0"),
    (lambda: coweight_oscillation_bound(build("B", 2), (2, 1), [1, 0, 0], w0_decomposition(build("B", 2))),
     "xi has 3 coordinates; B2 needs 2"),
    (lambda: graphs.transposition_distance_formula([2, 1], None), "perm must be iterable, got None"),
], ids=["build-int", "build-None", "RootSystem-list", "parabolic-None", "parabolic-int", "cayley_graph",
        "cayley_diameter", "hz_bounds", "min_path_area", "coweight-xi", "hz_bounds-str", "hz_bounds-bytes",
        "cayley_diameter-str", "hz_bounds-commas", "hz_bounds-None-entry", "hz_bounds-float", "hz_bounds-bool",
        "hz_bounds-huge-exponent", "hz_bounds-1001-digits", "cayley_diameter-huge-exponent",
        "dominant_from_pairings-str", "dominant_from_pairings-None", "export-float", "is_regular-float",
        "parabolic_positions-float", "coweight-xi-dimension", "transposition_distance_formula-perm-None"])
def test_an_argument_of_the_wrong_kind_is_refused_by_name(call, message):
    # Each raised AttributeError or TypeError from inside the package, raised
    # ValueError, answered for the characters of a str or bytes or for a
    # float's binary value, or built a number of millions of digits, before.
    with pytest.raises(ValidationError) as refused:
        call()
    assert str(refused.value) == message


def test_entries_that_fraction_reads_are_accepted():
    third = Fraction(2, 3)
    read = vec(["1/2", 3, third, "-4", Decimal("0.5"), " 3 "], "lambda")
    assert read == (Fraction(1, 2), 3, third, -4, Fraction(1, 2), 3)
    assert read[2] is third  # a Fraction is kept, not copied
    assert hz_bounds("A", 2, ["3/2", "1/2", 0]).upper == hz_bounds("A", 2, [Fraction(3, 2), Fraction(1, 2), 0]).upper
