import random
from collections import deque
from fractions import Fraction
from itertools import combinations

import pytest

from bruhatcap import ConsistencyError, SizeLimitError, ValidationError, WeylGroup, build, generate
from bruhatcap import capacity, graphs
from bruhatcap import weyl as weyl_module
from bruhatcap.capacity import TABLE_TYPES
from bruhatcap.linalg import dot, neg, vec
from bruhatcap.rootsystem import RootSystem, weyl_group_order
from reference_kernels import descent_lookup_enumeration, orbit_cosets, two_sided_orbits
from rootsystem_oracle import fraction_rank, reflect
from weyl_ops import compose, inverse, inversion_count, key_index, reflection, root_perms, simple_elements

ENUMERABLE = (
    [("A", r) for r in range(1, 5)]
    + [("B", r) for r in range(2, 5)]
    + [("C", r) for r in range(2, 5)]
    + [("D", 3), ("D", 4), ("F", 4), ("G", 2)]
)


@pytest.mark.parametrize("fam,rank,order", [
    ("A", 1, 2), ("A", 2, 6), ("A", 3, 24), ("B", 2, 8), ("B", 3, 48),
    ("C", 3, 48), ("D", 3, 24), ("D", 4, 192), ("G", 2, 12), ("F", 4, 1152),
])
def test_group_orders(fam, rank, order):
    assert len(generate(build(fam, rank))) == order


def test_cap_refusal():
    rs = build("E", 8)
    with pytest.raises(SizeLimitError) as err:
        generate(rs)
    assert "E8" in str(err.value)
    assert "696,729,600" in str(err.value)


@pytest.mark.parametrize("entry", [generate, WeylGroup])
def test_negative_cap_refused_before_enumeration(monkeypatch, entry):
    def unexpected(i):
        raise AssertionError("the group was enumerated")

    rs = build("A", 2)
    monkeypatch.setattr(rs, "reflection_perm", unexpected)
    with pytest.raises(ValidationError, match="cap must be nonnegative, got -1"):
        entry(rs, cap=-1)
    for cap in (True, 2.0, "2", None):  # True and 2.0 used to pass as caps, "2" and None TypeError
        with pytest.raises(ValidationError, match=f"^cap must be an int, got {cap!r}$"):
            entry(rs, cap=cap)
    with pytest.raises(SizeLimitError):  # a cap of 0 is valid, and refuses |W| = 6 by size
        entry(rs, cap=0)


@pytest.mark.parametrize("entry", [generate, WeylGroup])
def test_group_over_memory_budget_refused_before_enumeration(monkeypatch, entry):
    def unexpected(i):
        raise AssertionError("the group was enumerated")

    rs = build("E", 7)
    monkeypatch.setattr(rs, "reflection_perm", unexpected)
    # The budget holds whatever the caller's cap: raising the cap cannot force E7.
    with pytest.raises(SizeLimitError, match=r"^E7: the Weyl group \(2,903,040 elements\) would need "
                                             r"about 3,361 MB, over the memory budget of 1,024 MB$"):
        entry(rs, cap=10**9)


def test_memory_estimate_counts_every_reflection_table():
    from bruhatcap.limits import GROUP_MEMORY_BUDGET

    e6, e7 = build("E", 6), build("E", 7)
    assert weyl_module.enumeration_bytes(e6) == 51_840 * (56 + 8 * 6 + 96 + 72 + 16 * 6 + 8 * 36 + 192 + 2 * 36)
    assert weyl_module.enumeration_bytes(e6) < GROUP_MEMORY_BUDGET < weyl_module.enumeration_bytes(e7)
    for fam, rank in [("A", 8), ("B", 7), ("C", 7), ("D", 7)]:
        assert weyl_module.enumeration_bytes(build(fam, rank)) < GROUP_MEMORY_BUDGET
    # Over the measured peak RSS of `graph bruhat --format json`: A8 308 MB, B7 603 MB.
    assert weyl_module.enumeration_bytes(build("A", 8)) > 308 << 20
    assert weyl_module.enumeration_bytes(build("B", 7)) > 603 << 20
    # Every group over the default cap is over the budget too.
    assert weyl_module.enumeration_bytes(build("B", 8)) > GROUP_MEMORY_BUDGET


@pytest.mark.parametrize("position", [-1, 3, True, 2.0, "2", None])
def test_parabolic_refuses_a_position_that_is_no_simple_root(monkeypatch, w_a3, position):
    # True used to be read as position 1, and 2.0 indexed the right tables with a float.
    def unexpected(*args):
        raise AssertionError("cosets were built")

    monkeypatch.setattr(weyl_module, "cosets", unexpected)
    with pytest.raises(ValidationError, match=rf"^S_P position must be (an int|in range\(0, 3\)), "
                                              rf"got {position!r}$"):
        w_a3.parabolic((0, position))


def test_cached_group_refused_under_smaller_cap(b2):
    assert len(generate(b2)) == 8
    with pytest.raises(SizeLimitError) as err:
        generate(b2, cap=4)
    assert "B2" in str(err.value)


@pytest.mark.parametrize("fam,rank", [t for t in TABLE_TYPES if weyl_group_order(*t) <= 51_840])
def test_enumeration_matches_the_descent_lookup(fam, rank):
    # The reference computes u * s_g for every g, descents included; the group
    # computes it for ascents only and fills each table at both ends of an edge.
    w = WeylGroup(build(fam, rank))
    assert (w.keys, w.lengths, w.parents, w.right) == descent_lookup_enumeration(w.rs)


@pytest.mark.parametrize("order", [0, 1, 23, 25, 48])
def test_wrong_group_order_refused(order):
    # |W(A3)| = 24; the tables are sized by the stated order, so one too small
    # must end in the refusal, not in an IndexError.
    rs = RootSystem("A", 3)
    rs.weyl_order = order
    with pytest.raises(ConsistencyError, match=rf"^A3: enumerated (over )?\d+ elements, expected {order}$"):
        WeylGroup(rs)


@pytest.mark.parametrize("fam,rank", ENUMERABLE)
def test_length_equals_inversion_count(fam, rank):
    w = generate(build(fam, rank))
    for i in range(len(w)):
        assert w.lengths[i] == inversion_count(w, i)


@pytest.mark.parametrize("fam,rank", ENUMERABLE)
def test_longest_element_length(fam, rank):
    rs = build(fam, rank)
    w = generate(rs)
    assert w.lengths[w.longest_index] == len(rs.positive)


def test_longest_element_stated_maps(w_b3, w_a2):
    # B3: w0 = -id on R^3
    rs = w_b3.rs
    p = root_perms(w_b3)[w_b3.longest_index]
    for j, r in enumerate(rs.roots):
        assert rs.roots[p[j]] == tuple(-x for x in r)
    # D3 (odd): w0 fixes the sign of the last coordinate
    d3 = build("D", 3)
    wd3 = generate(d3)
    p = root_perms(wd3)[wd3.longest_index]
    for j, r in enumerate(d3.roots):
        assert d3.roots[p[j]] == tuple(-x for x in r[:-1]) + (r[-1],)
    # D4 (even): w0 = -id
    d4 = build("D", 4)
    wd4 = generate(d4)
    p = root_perms(wd4)[wd4.longest_index]
    for j, r in enumerate(d4.roots):
        assert d4.roots[p[j]] == tuple(-x for x in r)
    # A2: w0 reverses coordinates
    rs = w_a2.rs
    p = root_perms(w_a2)[w_a2.longest_index]
    for j, r in enumerate(rs.roots):
        assert rs.roots[p[j]] == tuple(reversed(r))


@pytest.mark.parametrize("fam,rank,wrong", [
    pytest.param("B", 3, lambda v: v, id="B3-identity"),  # w0 is -id
    pytest.param("A", 2, neg, id="A2-negation"),  # w0 reverses the coordinates
])
def test_wrong_stated_longest_map_is_refused(monkeypatch, fam, rank, wrong):
    monkeypatch.setattr(weyl_module, "stated_longest_map", lambda family, r: wrong)
    with pytest.raises(ConsistencyError, match="stated ambient map"):
        WeylGroup(build(fam, rank))


def test_a1_longest_is_the_reflection():
    rs = build("A", 1)
    w = generate(rs)
    assert len(w) == 2
    assert w.longest_index == reflection(w, rs.positive[0])


def test_compose_inverse_identity(w_b2):
    for i in range(len(w_b2)):
        assert compose(w_b2, i, inverse(w_b2, i)) == w_b2.identity_index
        assert compose(w_b2, w_b2.identity_index, i) == i


def test_perm_commutes_with_negation(w_b3):
    rs = w_b3.rs
    for p in root_perms(w_b3):
        for j in range(len(rs.roots)):
            assert p[rs.neg_of[j]] == rs.neg_of[p[j]]


def test_words_are_reduced(w_b3):
    for i in range(len(w_b3)):
        word = w_b3.word(i)
        assert len(word) == w_b3.lengths[i]
        acc = w_b3.identity_index
        for g in word:
            acc = compose(w_b3, acc, simple_elements(w_b3)[g])
        assert acc == i


@pytest.mark.parametrize("fam,rank", [("A", 3), ("B", 3), ("G", 2)])
def test_deletion_property(fam, rank):
    w = generate(build(fam, rank))
    for i in range(len(w)):
        for g in simple_elements(w):
            j = compose(w, i, g)
            assert abs(w.lengths[j] - w.lengths[i]) == 1


# -- absolute length ---------------------------------------------------------


def _fraction_absolute_length(rs, key):
    """The codimension of the fixed space, in the root span, of the element that
    sends the simple roots to the roots of index key: the rank of M - I, where
    the columns of M are the simple-root coefficients of those images."""
    cols = [rs._coeffs[k] for k in key]
    return fraction_rank([[Fraction(cols[j][k] - (j == k)) for j in range(rs.rank)]
                          for k in range(rs.rank)])


def _absolute_length_bfs(weyl):
    """Independent oracle: BFS over the generating set of ALL reflections."""
    gens = [reflection(weyl, a) for a in weyl.rs.positive]
    dist = {weyl.identity_index: 0}
    queue = deque([weyl.identity_index])
    while queue:
        x = queue.popleft()
        for g in gens:
            y = compose(weyl, x, g)
            if y not in dist:
                dist[y] = dist[x] + 1
                queue.append(y)
    return dist


@pytest.mark.parametrize("fam,rank", [("A", 2), ("A", 3), ("B", 2), ("B", 3), ("G", 2)])
def test_absolute_length_against_reflection_bfs(fam, rank):
    # The fixed-space codimension is the least number of reflections (Carter).
    w = generate(build(fam, rank))
    oracle = _absolute_length_bfs(w)
    for i, key in enumerate(w.keys):
        assert _fraction_absolute_length(w.rs, key) == oracle[i]


@pytest.mark.parametrize("fam,rank,lt", [
    ("A", 3, 2), ("B", 3, 3), ("C", 4, 4), ("D", 4, 4), ("D", 5, 4), ("F", 4, 4), ("G", 2, 2),
])
def test_absolute_length_of_w0(fam, rank, lt):
    w = generate(build(fam, rank))
    assert _fraction_absolute_length(w.rs, w.keys[w.longest_index]) == lt


@pytest.mark.parametrize("fam,rank", TABLE_TYPES)
def test_integer_absolute_length_of_the_w0_key(fam, rank):
    rs = build(fam, rank)
    key = capacity._simple_images(rs, capacity.w0_decomposition(rs).root_indices)
    assert _fraction_absolute_length(rs, key) == len(capacity.w0_decomposition(rs))


@pytest.mark.parametrize("fam,rank", TABLE_TYPES)
def test_orthogonal_reflections_have_their_count_as_absolute_length(fam, rank):
    # The lemma that makes the count of a validated w0 decomposition its
    # absolute length: m pairwise orthogonal roots are independent, so the
    # product of their reflections fixes a space of codimension m.
    rs = build(fam, rank)
    rng = random.Random(f"{fam}{rank}")
    for _ in range(10):
        chosen = []
        for a in rng.sample(rs.positive, len(rs.positive)):
            if all(dot(rs.roots[a], rs.roots[b]) == 0 for b in chosen):
                chosen.append(a)
                key = capacity._simple_images(rs, chosen)
                assert _fraction_absolute_length(rs, key) == len(chosen)


# -- parabolic quotients -------------------------------------------------------


def test_parabolic_trivial(w_a2):
    pd = w_a2.parabolic(())
    assert pd.n_cosets == len(w_a2)
    assert pd.coset_reps == tuple(range(len(w_a2)))
    assert pd.free_roots == w_a2.rs.positive


def test_parabolic_a3_grassmannian(w_a3):
    pd = w_a3.parabolic((0, 2))
    assert pd.n_cosets == 6
    assert pd.coset_of.count(0) == 4  # |W_P|
    assert set(w_a3.rs.positive) - set(pd.free_roots) == {
        w_a3.rs.find(vec([1, -1, 0, 0])),
        w_a3.rs.find(vec([0, 0, 1, -1])),
    }


def test_parabolic_a2(w_a2):
    pd = w_a2.parabolic((0,))
    assert pd.n_cosets == 3
    assert pd.coset_of.count(0) == 2  # |W_P|


def test_parabolic_reps_are_unique_minima(w_b2):
    pd = w_b2.parabolic((1,))
    for cid, rep in enumerate(pd.coset_reps):
        members = [i for i in range(len(w_b2)) if pd.coset_of[i] == cid]
        lengths = sorted(w_b2.lengths[i] for i in members)
        assert w_b2.lengths[rep] == lengths[0]
        assert lengths[0] < lengths[1]  # the minimum is unique
        assert rep in members


def test_parabolic_counts_multiply(w_b3):
    for sp in [(), (0,), (1,), (2,), (0, 1), (0, 2), (1, 2)]:
        pd = w_b3.parabolic(sp)
        assert all(pd.coset_of.count(c) * pd.n_cosets == len(w_b3) for c in range(pd.n_cosets))


SMALL_TABLE_TYPES = [(f, r) for f, r in TABLE_TYPES if weyl_group_order(f, r) <= 5040]


@pytest.mark.parametrize("fam,rank", SMALL_TABLE_TYPES + [("E", 6)])
def test_parabolic_matches_the_orbit_cosets(fam, rank):
    # every S_P of each table type with |W| <= 5040; four of E6, one of them
    # the S_P (1, 4) of the weight with Dynkin labels (1,0,2,1,0,1)
    w = WeylGroup(build(fam, rank)) if fam != "E" else generate(build(fam, rank))
    if fam == "E":
        subsets = [(1, 4), (0,), (0, 2, 3, 4), (1, 2, 3, 4, 5)]
    else:
        subsets = [sp for size in range(rank + 1) for sp in combinations(range(rank), size)]
    for sp in subsets:
        pd = w.parabolic(sp)
        assert (pd.coset_of, pd.coset_reps) == orbit_cosets(w, sp)


@pytest.mark.parametrize("fam,rank", SMALL_TABLE_TYPES + [("E", 6)])
def test_double_cosets_match_the_two_sided_orbits(fam, rank):
    # every proper S_P of each table type with |W| <= 5040, and four of E6,
    # (1, 4) with 12,960 cosets and 3,612 double cosets among them
    w = generate(build(fam, rank))
    if fam == "E":
        subsets = [(1, 4), (0,), (0, 2, 3, 4), (1, 2, 3, 4, 5)]
    else:
        subsets = [sp for size in range(rank) for sp in combinations(range(rank), size)]
    for sp in subsets:
        assert w.double_cosets(w.parabolic(sp)) == two_sided_orbits(w, sp)
    if fam == "E":
        assert len(w.double_cosets(w.parabolic((1, 4)))[1]) == 3612


@pytest.mark.parametrize("fam,rank", SMALL_TABLE_TYPES)
def test_left_table_is_left_multiplication_on_the_keys(fam, rank):
    # s_k * u sends alpha_j to s_k(u(alpha_j)): its key is the reflection in
    # alpha_k applied to u's key, looked up among the keys of the enumeration.
    w = generate(build(fam, rank))
    index = key_index(w)
    for k, simple in enumerate(w.rs.simple):
        perm = w.rs.reflection_perm(simple)
        assert w.left_table(k) == tuple(index[tuple(map(perm.__getitem__, key))] for key in w.keys)


@pytest.mark.parametrize("fam,rank,sp", [("B", 3, (0, 2)), ("G", 2, (1,)), ("A", 3, (1,))])
def test_double_cosets_refuse_every_swapped_left_product(monkeypatch, fam, rank, sp):
    # A planted fault in the left action: two entries u, v of one table
    # u -> s_k * u are swapped as it is built.  Every such swap is refused by
    # name, before a search could read the frame.
    w = WeylGroup(build(fam, rank))
    pd = w.parabolic(sp)
    lam = capacity.dominant_from_pairings(w.rs, [0 if k in sp else 2 for k in range(rank)])
    for k in sp:
        true_table = WeylGroup._left_pass(w, k)
        for u, v in combinations(range(len(w)), 2):
            table = list(true_table)
            table[u], table[v] = table[v], table[u]
            monkeypatch.setattr(w, "_left_pass", lambda j, k=k, planted=tuple(table):
                                planted if j == k else WeylGroup._left_pass(w, j))
            w._left_tables.clear()
            w._double_cosets.clear()
            with pytest.raises(ConsistencyError, match=rf"^{fam}{rank}: the left table of s{k + 1} is broken$"):
                graphs.min_path_area(pd, lam, 0, pd.n_cosets - 1)


@pytest.mark.parametrize("fam,rank", [("A", 3), ("B", 3), ("G", 2)])
def test_parabolic_refuses_a_table_swapped_across_cosets(fam, rank):
    # Swap two entries u, v of one S_P table: when u and v lie in distinct
    # cosets the table no longer permutes each coset, and every such swap is
    # refused; a swap inside one coset is refused or gives the true cosets.
    w = WeylGroup(build(fam, rank))
    right = w.right
    for size in range(1, rank):
        for sp in combinations(range(rank), size):
            expected = w.parabolic(sp)
            for k in sp:
                for u, v in combinations(range(len(w)), 2):
                    table = list(right[k])
                    table[u], table[v] = table[v], table[u]
                    w.right = right[:k] + (tuple(table),) + right[k + 1:]
                    w._parabolics.clear()
                    try:
                        got = w.parabolic(sp)
                    except ConsistencyError as err:
                        assert "data broken" in str(err)
                        got = None
                    assert got is None if expected.coset_of[u] != expected.coset_of[v] else got in (None, expected)
            w.right = right


@pytest.mark.parametrize("fam,rank,sp,cosets_wp", [
    ("A", 2, (0,), "3 cosets x |W_P|=1 != |W|=6"),
    ("B", 3, (0, 2), "12 cosets x |W_P|=3 != |W|=48"),
])
def test_parabolic_refuses_an_identity_coset_of_the_wrong_size(monkeypatch, fam, rank, sp, cosets_wp):
    # A planted fault in the coset pass: one element of the identity's coset
    # is filed under coset 1, so the count |cosets| x |W_P| = |W| fails.
    cosets = weyl_module.cosets

    def shrunk(n, generators):
        coset_of, reps = cosets(n, generators)
        moved = coset_of.index(0, 1)  # a member of the identity's coset other than e
        return coset_of[:moved] + (1,) + coset_of[moved + 1:], reps

    monkeypatch.setattr(weyl_module, "cosets", shrunk)
    with pytest.raises(ConsistencyError, match=r"parabolic data broken: " + cosets_wp.replace("|", r"\|")):
        WeylGroup(build(fam, rank)).parabolic(sp)


def test_cosets_refuse_an_end_that_is_no_orbit_minimum():
    # 0 -- 2 and 1 -- 2 join one orbit, and 1 has no image below itself, so
    # the pass ends at both 0 and 1: refused, as no coset numbering
    with pytest.raises(ConsistencyError, match="coset data broken"):
        weyl_module.cosets(3, [(2, 1, 0), (0, 2, 1)])
    assert weyl_module.cosets(3, [(2, 1, 0)]) == ((0, 1, 0), (0, 1))
    assert weyl_module.cosets(2, []) == ((0, 1), (0, 1))


def _image(weyl, w, mu):
    """w(mu) in ambient coordinates, reflecting along a reduced word of w."""
    rs = weyl.rs
    for g in reversed(weyl.word(w)):
        mu = reflect(rs, rs.simple[g], mu)
    return mu


@pytest.mark.parametrize("fam,rank", [("A", 3), ("B", 3), ("C", 3), ("G", 2)])
def test_parabolic_membership_oracle(fam, rank):
    # Two elements share a coset of W_P iff they send a weight whose
    # stabilizer is exactly W_P to the same vector.
    rs = build(fam, rank)
    w = generate(rs)
    fundamental = rs.fundamental_weights()
    for size in range(rank + 1):
        for sp in combinations(range(rank), size):
            pd = w.parabolic(sp)
            mu = tuple(
                sum((fundamental[k][d] for k in range(rank) if k not in sp), Fraction(0))
                for d in range(rs.ambient_dim)
            )
            coset_of_image: dict = {}
            for i in range(len(w)):
                cid = coset_of_image.setdefault(_image(w, i, mu), pd.coset_of[i])
                assert cid == pd.coset_of[i]
            assert len(coset_of_image) == pd.n_cosets
            for cid, rep in enumerate(pd.coset_reps):
                assert pd.coset_of[rep] == cid
                assert all(w.lengths[rep] < w.lengths[i]
                           for i in range(len(w)) if pd.coset_of[i] == cid and i != rep)


# -- multiplication oracle -------------------------------------------------------


@pytest.mark.parametrize("fam,rank", [
    ("A", 3), ("B", 3), ("C", 3), ("D", 4), ("G", 2), ("F", 4),
])
def test_right_multiplication_matches_root_permutations(fam, rank):
    # u * s_alpha, as the group looks it up, acts on the roots as the root
    # permutation of u composed with that of s_alpha (s_alpha applied first)
    # and the multiplication tables name the same products
    rs = build(fam, rank)
    w = generate(rs)
    perms = root_perms(w)
    for a in rs.positive:
        s = reflection(w, a)
        refl = rs.reflection_perm(a)
        table = w.reflection_table(a)
        assert len(table) == len(w)
        for u, p in enumerate(perms):
            assert perms[compose(w, u, s)] == tuple(p[k] for k in refl)
            assert table[u] == compose(w, u, s)
    for g, row in enumerate(w.right):
        assert row == w.reflection_table(rs.simple[g])
        assert list(row) == [compose(w, u, simple_elements(w)[g]) for u in range(len(w))]


@pytest.mark.parametrize("fam,rank", [
    ("A", 3), ("B", 3), ("C", 3), ("D", 4), ("G", 2), ("F", 4),
])
def test_keys_are_the_simple_root_images_of_the_root_permutations(fam, rank):
    rs = build(fam, rank)
    w = generate(rs)
    perms = root_perms(w)
    assert len(w.keys) == len(perms) == len(w)
    for i, (key, p) in enumerate(zip(w.keys, perms)):
        assert key == tuple(p[s] for s in rs.simple)
    assert len(set(w.keys)) == len(w)


def test_reflection_table_refuses_a_negative_root(w_b2):
    rs = w_b2.rs
    with pytest.raises(ValidationError):
        w_b2.reflection_table(rs.neg_of[rs.highest])
