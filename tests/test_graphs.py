import json
import random
from fractions import Fraction
from itertools import accumulate, combinations, permutations
from types import SimpleNamespace

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bruhatcap import (
    ConsistencyError,
    SizeLimitError,
    ValidationError,
    bruhat_graph,
    build,
    cayley_diameter,
    cayley_distances,
    cayley_graph,
    d_min,
    degree_leq,
    dominant_from_pairings,
    export,
    generate,
    graphs,
    min_path_area,
    parabolic_positions,
    quantum_bruhat_graph,
    transposition_distance_formula,
    unitary_capacity,
)
from bruhatcap.checks import _partitions
from bruhatcap.weyl import WeylGroup
from bruhatcap.graphs import d_min_all
from bruhatcap.linalg import vec
from reference_kernels import coset_min_path_area, random_walk_degree, set_propagation_d_min_all
from weyl_ops import compose, reflection, root_perms

# -- Bruhat graph ---------------------------------------------------------------


def test_bruhat_a2_full_flag(w_a2):
    g = bruhat_graph(w_a2)
    assert g.n_vertices == 6
    assert len(g.edges) == 9  # |W| * |R+| / 2


def test_bruhat_a1():
    w = generate(build("A", 1))
    g = bruhat_graph(w)
    assert g.n_vertices == 2
    assert len(g.edges) == 1


@pytest.mark.parametrize("fam,rank", [("A", 3), ("B", 2), ("B", 3), ("G", 2)])
def test_bruhat_full_flag_edge_count(fam, rank):
    rs = build(fam, rank)
    w = generate(rs)
    g = bruhat_graph(w)
    assert len(g.edges) == len(w) * len(rs.positive) // 2


def _composed(weyl):
    """u * s_alpha for every element u and positive root alpha, by composing
    root permutations and looking the product up by its whole permutation."""
    rs = weyl.rs
    perms = root_perms(weyl)
    index = {p: i for i, p in enumerate(perms)}
    refl = {a: rs.reflection_perm(a) for a in rs.positive}
    return {(u, a): index[tuple(p[k] for k in refl[a])]
            for u, p in enumerate(perms) for a in rs.positive}


def _composed_bruhat_edges(weyl, pd, product):
    rs = weyl.rs
    edges = []
    for cu, rep in enumerate(pd.coset_reps):
        for a in rs.positive:
            if not any(rs.signed_coefficients(a)[k] for k in pd.free_simple):
                continue  # a root of R+_P
            cv = pd.coset_of[product[rep, a]]
            if cv > cu:
                cocoeff = rs.signed_cocoefficients(a)
                edges.append((cu, cv, a, tuple(cocoeff[k] for k in pd.free_simple)))
    edges.sort()
    return edges


def _composed_quantum_out(weyl, product):
    rs = weyl.rs
    zero = (0,) * rs.rank
    out = []
    for u in range(len(weyl)):
        row = []
        for a in rs.positive:
            v = product[u, a]
            lu, lv = weyl.lengths[u], weyl.lengths[v]
            if lv == lu + 1:
                row.append((v, a, zero))
            elif lv == lu + 1 - 2 * rs.coroot_height(a):
                row.append((v, a, rs.coroot_coefficients(a)))
        out.append(row)
    return out


@pytest.mark.parametrize("fam,rank,full_flag_only", [
    ("A", 3, False), ("B", 3, False), ("G", 2, False), ("F", 4, True),
])
def test_bruhat_edges_match_permutation_composition(fam, rank, full_flag_only):
    w = generate(build(fam, rank))
    product = _composed(w)
    sizes = [0] if full_flag_only else range(rank + 1)
    for size in sizes:
        for sp in combinations(range(rank), size):
            pd = w.parabolic(sp)
            assert bruhat_graph(w, pd).edges == _composed_bruhat_edges(w, pd, product)


def test_quantum_edges_match_permutation_composition():
    w = generate(build("F", 4))
    assert quantum_bruhat_graph(w).out == _composed_quantum_out(w, _composed(w))


def test_bruhat_edges_symmetric_relation(w_b2):
    # (u,v,alpha) is an edge iff u*s_alpha lands in v's coset and vice versa
    g = bruhat_graph(w_b2)
    pd = g.parabolic
    for u, v, a, _deg in g.edges:
        ru, rv = pd.coset_reps[u], pd.coset_reps[v]
        s = reflection(w_b2, a)
        assert pd.coset_of[compose(w_b2, ru, s)] == v
        assert pd.coset_of[compose(w_b2, rv, s)] == u


def test_bruhat_grassmannian_figure(w_a3):
    # H_{(c,c,0,0)}: Gr(2,4), 6 vertices, 12 edges, every area equal to c
    rs = w_a3.rs
    c = Fraction(5)
    lam = vec([c, c, 0, 0])
    pd = w_a3.parabolic((0, 2))
    g = bruhat_graph(w_a3, pd)
    assert g.n_vertices == 6
    assert len(g.edges) == 12
    areas = {rs.pairing(lam, a) for _u, _v, a, _d in g.edges}
    assert areas == {c}
    src = pd.coset_of[w_a3.identity_index]
    dst = pd.coset_of[w_a3.longest_index]
    assert min_path_area(pd, lam, src, dst) == 2 * c


def test_bruhat_zero_area_roots_are_not_edges(w_a3):
    # roots pairing to zero with lambda lie in R_P and never appear as edges
    rs = w_a3.rs
    lam = vec([2, 2, 0, 0])
    pd = w_a3.parabolic((0, 2))
    g = bruhat_graph(w_a3, pd)
    for _u, _v, a, _deg in g.edges:
        assert rs.pairing(lam, a) > 0


def test_min_path_area_a2_regular(w_a2):
    rs = w_a2.rs
    lam = vec([4, 1, -2])
    pd = w_a2.parabolic(())
    g = bruhat_graph(w_a2, pd)
    src = pd.coset_of[w_a2.identity_index]
    dst = pd.coset_of[w_a2.longest_index]
    assert min_path_area(pd, lam, src, dst) == lam[0] - lam[2]
    assert min_path_area(pd, lam, src, src) == 0


def _all_simple_path_areas(g, lam, src, dst):
    """Oracle: enumerate every simple path and its total area by DFS."""
    rs = g.weyl.rs
    adj = {}
    for u, v, a, _deg in g.edges:
        w = rs.pairing(lam, a)
        adj.setdefault(u, []).append((v, w))
        adj.setdefault(v, []).append((u, w))
    areas = []

    def walk(node, seen, total):
        if node == dst:
            areas.append(total)
            return
        for nxt, w in adj.get(node, ()):
            if nxt not in seen:
                walk(nxt, seen | {nxt}, total + w)

    walk(src, {src}, Fraction(0))
    return areas


@pytest.mark.parametrize("fam,rank,lam", [
    ("A", 2, (4, 1, -2)), ("B", 2, (3, 1)), ("A", 2, (2, 1, 0)),
])
def test_min_path_area_matches_exhaustive_enumeration(fam, rank, lam):
    rs = build(fam, rank)
    w = generate(rs)
    pd = w.parabolic(())
    g = bruhat_graph(w, pd)
    src = pd.coset_of[w.identity_index]
    dst = pd.coset_of[w.longest_index]
    got = min_path_area(pd, vec(lam), src, dst)
    areas = _all_simple_path_areas(g, vec(lam), src, dst)
    assert got == min(areas)
    assert all(got <= a for a in areas)


def _bounded_simple_path_areas(g, lam, src, dst, max_edges):
    """Oracle: every simple path of at most max_edges edges, with its area."""
    rs = g.weyl.rs
    adj = {}
    for u, v, a, _deg in g.edges:
        w = rs.pairing(lam, a)
        adj.setdefault(u, []).append((v, w))
        adj.setdefault(v, []).append((u, w))
    areas = []

    def walk(node, seen, total, depth):
        if node == dst:
            areas.append(total)
            return
        if depth == max_edges:
            return
        for nxt, w in adj.get(node, ()):
            if nxt not in seen:
                walk(nxt, seen | {nxt}, total + w, depth + 1)

    walk(src, {src}, Fraction(0), 0)
    return areas


@pytest.mark.parametrize("fam,rank,lam,cap", [
    ("A", 3, (5, 2, 1, -1), 4),
    ("B", 3, (5, 2, 1), 4),
])
def test_min_path_area_rank3_bounded_enumeration(fam, rank, lam, cap):
    # at rank 3 the full simple-path set is unmanageable; every path of at
    # most `cap` edges still contains the optimum (the shortest minimal-degree
    # path has l_T(w0) <= 4 edges) and bounds Dijkstra from above
    rs = build(fam, rank)
    w = generate(rs)
    pd = w.parabolic(())
    g = bruhat_graph(w, pd)
    src = pd.coset_of[w.identity_index]
    dst = pd.coset_of[w.longest_index]
    got = min_path_area(pd, vec(lam), src, dst)
    areas = _bounded_simple_path_areas(g, vec(lam), src, dst, cap)
    assert areas
    assert got == min(areas)
    assert all(got <= a for a in areas)


def _labels_for(rank: int, s_p: tuple[int, ...]) -> tuple:
    """Dynkin labels zero on S_P and, elsewhere, with denominators 2 and 3."""
    free = (Fraction(1, 2), Fraction(1, 3), Fraction(5, 2), Fraction(4, 3))
    return tuple(0 if k in s_p else free[k % len(free)] for k in range(rank))


@pytest.mark.parametrize("fam,rank,labels", [
    ("A", 3, (Fraction(1, 2), Fraction(1, 3), 2)),
    ("A", 3, (Fraction(1, 2), 0, Fraction(4, 3))),
    ("B", 2, (Fraction(1, 2), Fraction(1, 3))),
    ("B", 2, (0, Fraction(5, 3))),
    ("G", 2, (Fraction(1, 3), Fraction(1, 2))),
    ("G", 2, (Fraction(3, 2), 0)),
] + [
    # every S_P of these types
    (fam, rank, _labels_for(rank, s_p))
    for fam, rank in (("A", 3), ("B", 3), ("C", 3), ("G", 2))
    for size in range(rank + 1)
    for s_p in combinations(range(rank), size)
])
def test_min_path_area_matches_networkx_for_every_coset_pair(fam, rank, labels):
    # Dynkin labels with denominators 2 and 3; zero labels give a parabolic
    # graph.  The oracle runs on the materialised edge list, min_path_area
    # on the reflection tables.
    nx = pytest.importorskip("networkx")
    rs = build(fam, rank)
    w = generate(rs)
    lam = dominant_from_pairings(rs, labels)
    pd = w.parabolic(parabolic_positions(rs, lam))
    g = bruhat_graph(w, pd)
    oracle = nx.MultiGraph()
    oracle.add_nodes_from(range(g.n_vertices))
    for u, v, a, _deg in g.edges:
        oracle.add_edge(u, v, weight=rs.pairing(lam, a))
    for src, expected in nx.all_pairs_dijkstra_path_length(oracle):
        for dst in range(g.n_vertices):
            assert min_path_area(pd, lam, src, dst) == expected[dst]


def test_min_path_area_rejects_non_dominant_weight(w_a2):
    pd = w_a2.parabolic(())
    with pytest.raises(ValidationError, match="not dominant"):
        min_path_area(pd, vec([0, 1, 2]), 0, pd.n_cosets - 1)


def test_min_path_area_rejects_weight_nonzero_on_s_p(w_a3):
    # On W/W_P an edge's area is well defined only for lam fixed by W_P.
    pd = w_a3.parabolic((0, 2))
    with pytest.raises(ValidationError, match="S_P"):
        min_path_area(pd, vec([3, 2, 1, 0]), 0, pd.n_cosets - 1)
    assert min_path_area(pd, vec([2, 2, 0, 0]), 0, pd.n_cosets - 1) == 4


@pytest.mark.parametrize("src,dst", [(-1, 0), (8, 0), (0, -1), (0, 8), (True, 0), (0, 1.0),
                                     (2.0, 0), (0, "2"), (None, 0), (0, True)])
def test_min_path_area_refuses_a_coset_index_out_of_range(monkeypatch, w_b2, src, dst):
    # B2 has 8 cosets of the empty S_P.  A negative index used to be read from
    # the end (src = -1 gave 4, the area from coset 7), and 8 raised IndexError.
    pd = w_b2.parabolic(())
    lam = vec([2, 1])
    with monkeypatch.context() as patched:
        patched.setattr(w_b2, "reflection_table", _unexpected_table)
        with pytest.raises(ValidationError, match=r"^(src|dst) must be (an int|in range\(0, 8\)), got "):
            min_path_area(pd, lam, src, dst)
    assert min_path_area(pd, lam, 0, 7) == min_path_area(pd, lam, 7, 0) == 4


def _unexpected_table(*args):
    raise AssertionError("a reflection table was built")


@pytest.mark.parametrize("src,dst", [(-1, 0), (0, 4), (None, 0), (0, 2.0)])
def test_min_path_area_reads_its_vertices_before_any_frame(monkeypatch, src, dst):
    # A3 has 4 cosets of S_P (0, 1): no reflection table, product or double
    # coset frame is built for a vertex that is refused.
    w = WeylGroup(build("A", 3))
    pd = w.parabolic((0, 1))
    for name in ("reflection_table", "left_multiply", "double_cosets", "_left_products"):
        monkeypatch.setattr(w, name, _unexpected_table)
    with pytest.raises(ValidationError, match=r"^(src|dst) must be (an int|in range\(0, 4\)), got "):
        min_path_area(pd, vec([1, 1, 1, 0]), src, dst)


CONFIRM_TYPES = [("A", 4), ("D", 4), ("B", 4), ("C", 4), ("A", 5), ("F", 4)]


@pytest.mark.parametrize("fam,rank", CONFIRM_TYPES)
def test_min_path_area_matches_the_coset_search_on_singular_weights(fam, rank):
    # 600 seeded singular weights per type of the confirm benchmark, from e
    # to w0 as capacity confirms them: each has 1 to rank - 1 zero labels.
    rs = build(fam, rank)
    w = generate(rs)
    rng = random.Random(f"{fam}{rank}")
    for _ in range(600):
        labels = [rng.randint(1, 9) for _ in range(rank)]
        for k in rng.sample(range(rank), rng.randint(1, rank - 1)):
            labels[k] = 0
        lam = dominant_from_pairings(rs, labels)
        pd = w.parabolic(parabolic_positions(rs, lam))
        src, dst = pd.coset_of[w.identity_index], pd.coset_of[w.longest_index]
        assert min_path_area(pd, lam, src, dst) == coset_min_path_area(pd, lam, src, dst)


@pytest.mark.parametrize("fam,rank", [("A", 3), ("A", 4), ("B", 2), ("B", 3), ("C", 3), ("D", 4), ("G", 2)])
def test_min_path_area_matches_the_coset_search_on_coset_pairs(fam, rank):
    # Every proper S_P: every (src, dst) where there are at most 60 cosets,
    # 400 seeded pairs otherwise.  A src other than e W_P is moved there by
    # x = rep(src)^-1 rep(dst), one left factor at a time.
    rs = build(fam, rank)
    w = generate(rs)
    rng = random.Random(f"{fam}{rank} pairs")
    for size in range(rank):
        for s_p in combinations(range(rank), size):
            lam = dominant_from_pairings(rs, _labels_for(rank, s_p))
            pd = w.parabolic(s_p)
            n = pd.n_cosets
            pairs = ([(u, v) for u in range(n) for v in range(n)] if n <= 60 else
                     [(rng.randrange(n), rng.randrange(n)) for _ in range(400)])
            for src, dst in pairs:
                assert min_path_area(pd, lam, src, dst) == coset_min_path_area(pd, lam, src, dst)


def test_min_path_area_disconnected_graph(monkeypatch):
    # Cut what the Dijkstra reads: with every reflection table the identity,
    # no coset has a neighbour.
    rs = build("A", 2)
    w = WeylGroup(rs)
    identity = tuple(range(len(w)))
    monkeypatch.setattr(w, "reflection_table", lambda a: identity)
    for s_p in ((), (0,)):
        pd = w.parabolic(s_p)
        lam = vec([2, 2, 0]) if s_p else vec([2, 1, 0])
        with pytest.raises(ConsistencyError, match="disconnected"):
            min_path_area(pd, lam, 0, pd.n_cosets - 1)


# -- quantum Bruhat graph --------------------------------------------------------


def test_quantum_a1():
    w = generate(build("A", 1))
    q = quantum_bruhat_graph(w)
    e, s = w.identity_index, w.longest_index
    assert q.out[e] == [(s, w.rs.positive[0], (0,))]
    assert q.out[s] == [(e, w.rs.positive[0], (1,))]


def test_quantum_a2_structure(w_a2):
    q = quantum_bruhat_graph(w_a2)
    edges = [(u, v, a, d) for u in range(6) for (v, a, d) in q.out[u]]
    ups = [e for e in edges if e[3] == (0, 0)]
    downs = [e for e in edges if e[3] != (0, 0)]
    # 8 covering ascents; 6 simple descents plus the single long descent w0 -> e
    assert len(ups) == 8
    assert len(downs) == 7
    long_downs = [e for e in downs if e[3] == (1, 1)]
    assert long_downs == [(w_a2.longest_index, w_a2.identity_index,
                           w_a2.rs.highest, (1, 1))]
    for u, v, _a, _d in ups:
        assert w_a2.lengths[v] == w_a2.lengths[u] + 1


def test_quantum_up_edges_reach_all_at_length_depth(w_b3):
    q = quantum_bruhat_graph(w_b3)
    dist = {w_b3.identity_index: 0}
    frontier = [w_b3.identity_index]
    while frontier:
        nxt = []
        for u in frontier:
            for v, _a, deg in q.out[u]:
                if deg == q.zero and v not in dist:
                    dist[v] = dist[u] + 1
                    nxt.append(v)
        frontier = nxt
    assert len(dist) == len(w_b3)
    for i in range(len(w_b3)):
        assert dist[i] == w_b3.lengths[i]


def test_quantum_down_edge_criterion_g2(w_g2):
    # a down-edge labelled alpha exists somewhere iff l(s_alpha) = 2 ht - 1
    rs = w_g2.rs
    q = quantum_bruhat_graph(w_g2)
    labels_with_down_edge = {
        a for u in range(len(w_g2)) for (_v, a, d) in q.out[u] if d != q.zero
    }
    for a in rs.positive:
        ls = w_g2.lengths[reflection(w_g2, a)]
        criterion = ls == 2 * rs.coroot_height(a) - 1
        assert (a in labels_with_down_edge) == criterion


def test_d_min_trivial_and_ascent(w_a2):
    q = quantum_bruhat_graph(w_a2)
    for u in range(len(w_a2)):
        assert d_min(q, u, u) == ((0, 0), 0)
        deg, length = d_min(q, w_a2.identity_index, u)
        assert deg == (0, 0)
        assert length == w_a2.lengths[u]


def _dfs_shortest_path_degrees(q, u, v, max_len):
    """Oracle: enumerate all directed paths up to max_len, keep the shortest."""
    best: dict[int, list] = {}

    def walk(node, length, degree):
        if length > max_len:
            return
        if node == v:
            best.setdefault(length, []).append(degree)
        for nxt, _a, dd in q.out[node]:
            walk(nxt, length + 1, tuple(x + y for x, y in zip(degree, dd)))

    walk(u, 0, q.zero)
    shortest = min(best)
    return shortest, set(best[shortest])


def test_d_min_a2_w0_to_e_exhaustive(w_a2):
    q = quantum_bruhat_graph(w_a2)
    deg, length = d_min(q, w_a2.longest_index, w_a2.identity_index)
    assert (deg, length) == ((1, 1), 1)
    oracle_len, oracle_degs = _dfs_shortest_path_degrees(
        q, w_a2.longest_index, w_a2.identity_index, 3)
    assert oracle_len == 1
    assert oracle_degs == {(1, 1)}


def test_d_min_uniqueness_all_pairs_b2(w_b2):
    q = quantum_bruhat_graph(w_b2)
    for u in range(len(w_b2)):
        d_min_all(q, u)  # raises on any uniqueness violation


def test_d_min_uniqueness_violation_detected():
    # synthetic strongly connected graph: two 2-step routes 0 -> 3 with different
    # degrees must trip the checked-theorem guard
    out = [[] for _ in range(4)]
    out[0] = [(1, 0, (1, 0)), (2, 0, (0, 1))]
    out[1] = [(3, 0, (0, 0))]
    out[2] = [(3, 0, (0, 0))]
    out[3] = [(0, 0, (0, 0))]
    fake = SimpleNamespace(n_vertices=4, out=out, zero=(0, 0))
    with pytest.raises(ConsistencyError, match="distinct degrees"):
        d_min_all(fake, 0)


@pytest.mark.parametrize("fam,rank", [("A", 3), ("B", 3), ("G", 2), ("F", 4)])
def test_d_min_all_matches_set_propagation_from_every_source(fam, rank):
    q = quantum_bruhat_graph(generate(build(fam, rank)))
    for u in range(q.n_vertices):
        assert d_min_all(q, u) == set_propagation_d_min_all(q, u)


_ZERO = (0, 0)
# The graph's own zero, as every up-edge of a quantum Bruhat graph carries it, an
# equal tuple that is not that object, and three nonzero degrees.
_DEGREES = st.sampled_from([_ZERO, tuple([0, 0]), (1, 0), (0, 1), (1, 1)])


@st.composite
def _degree_digraphs(draw):
    """A small digraph with degrees on its edges, and a source.  With the cycle
    through every vertex it is strongly connected; the random edges plant
    shortcuts, and with them routes of one length whose degrees may differ."""
    n = draw(st.integers(1, 7))
    out = [[] for _ in range(n)]
    if draw(st.booleans()):
        for x in range(n):
            out[x].append(((x + 1) % n, 0, draw(_DEGREES)))
    vertex = st.integers(0, n - 1)
    for x, y, dd in draw(st.lists(st.tuples(vertex, vertex, _DEGREES), max_size=14)):
        out[x].append((y, 0, dd))
    return SimpleNamespace(n_vertices=n, out=out, zero=_ZERO), draw(vertex)


def _conflict_graph(second):
    out = [[(1, 0, (1, 0)), (2, 0, second)], [(3, 0, _ZERO)], [(3, 0, _ZERO)], [(0, 0, _ZERO)]]
    return SimpleNamespace(n_vertices=4, out=out, zero=_ZERO), 0


@settings(max_examples=400, deadline=None)
@given(_degree_digraphs())
@example(_conflict_graph((0, 1)))  # two routes 0 -> 3 of length 2 with distinct degrees
@example(_conflict_graph((1, 0)))  # the same routes, one degree
def test_d_min_all_refuses_exactly_when_set_propagation_does(case):
    graph, u = case
    try:
        expected = set_propagation_d_min_all(graph, u)
    except ConsistencyError:
        with pytest.raises(ConsistencyError):
            d_min_all(graph, u)
    else:
        assert d_min_all(graph, u) == expected


def test_random_walk_degrees_dominate_d_min(w_b3):
    q = quantum_bruhat_graph(w_b3)
    rng = random.Random(7)
    dmins = {}
    for u in range(len(w_b3)):
        _dist, degs = d_min_all(q, u)
        dmins[u] = degs
    for _ in range(300):
        u = rng.randrange(len(w_b3))
        steps = rng.randint(1, 12)
        v, walked = random_walk_degree(q, rng, u, steps)
        assert degree_leq(dmins[u][v], walked)


# -- weighted Cayley graph -------------------------------------------------------


@st.composite
def _step_graphs(draw):
    """A vertex count, steps (column, weight) and a source.  Columns are
    arbitrary maps, so they hold self-loops and leave vertices unreachable;
    weights in 0..3 repeat and include zero."""
    n = draw(st.integers(1, 10))
    column = st.lists(st.integers(0, n - 1), min_size=n, max_size=n)
    steps = draw(st.lists(st.tuples(column, st.integers(0, 3)), max_size=5))
    return n, steps, draw(st.integers(0, n - 1))


@settings(max_examples=300, deadline=None)
@given(_step_graphs())
@example((1, [], 0))  # no steps: the vertex count cannot be read off a column
@example((3, [([1, 2, 2], 1)], 0))  # every level a single vertex
@example((4, [([1, 0, 3, 2], 0), ([2, 3, 0, 1], 2)], 0))  # a zero-weight step
def test_step_dijkstra_matches_heap_dijkstra(graph):
    # the distances read off the settled levels, None where no level reaches
    n, steps, src = graph
    adj = [[(column[u], w) for column, w in steps] for u in range(n)]
    dist = [None] * n
    for d, level in graphs._settled_levels(n, steps, src):
        for u in level:
            dist[u] = d
    assert dist == graphs._dijkstra(len(adj), adj.__getitem__, src)


class _LoggedColumn(list):
    """A column that logs each vertex it is read at."""

    def __init__(self, entries, log):
        super().__init__(entries)
        self.log = log

    def __getitem__(self, u):
        self.log.append(u)
        return super().__getitem__(u)


@settings(max_examples=300, deadline=None)
@given(_step_graphs())
@example((1, [], 0))
@example((3, [([1, 2, 2], 1)], 0))
@example((4, [([1, 0, 3, 2], 0), ([2, 3, 0, 1], 2)], 0))
@example((4, [([1, 2, 3, 3], 0), ([0, 0, 0, 0], 1)], 0))  # a zero step that is no involution
def test_settled_levels_partition_the_reachable_set(graph):
    # d never decreases, and strictly increases when no step weighs 0: a
    # zero-weight step settles its images as a later level at the same d
    n, steps, src = graph
    adj = [[(column[u], w) for column, w in steps] for u in range(n)]
    dist = graphs._dijkstra(len(adj), adj.__getitem__, src)
    logs = [[] for _ in steps]
    levels = graphs._settled_levels(n, [(_LoggedColumn(column, log), w)
                                        for (column, w), log in zip(steps, logs)], src)
    strict = all(w for _column, w in steps)
    settled, last = set(), -1
    for d, level in levels:
        assert (d > last if strict else d >= last) and level and settled.isdisjoint(level)
        assert all(dist[u] == d for u in level)
        settled |= level
        last = d
        if len(settled) == n:  # the last vertex: the search returns without relaxing
            reads = list(map(len, logs))
            assert next(levels, None) is None and list(map(len, logs)) == reads
    assert settled == {u for u, d in enumerate(dist) if d is not None}
    assert all(len(log) == len(set(log)) for log in logs)  # each vertex's images read once


def test_cayley_n2():
    assert cayley_diameter(2, [Fraction(7, 2), 1]) == Fraction(5, 2)


def test_cayley_degenerate_example():
    lam = [3, 3, 0, 0]
    assert cayley_diameter(4, lam) == 6


def test_cayley_unsorted_rejected():
    with pytest.raises(ValidationError):
        cayley_diameter(3, [1, 2, 0])


def _refuse_every_frame_build(monkeypatch):
    def unexpected(n, blocks):
        raise AssertionError(f"the S_{n} structure was built")

    monkeypatch.setattr(graphs, "_cayley_frame", unexpected)


def test_cayley_cap(monkeypatch):
    # the cap refuses before any structure is built (or cached), S_n or quotient
    _refuse_every_frame_build(monkeypatch)
    for lam in (list(range(8, 0, -1)), [8, 8, 6, 5, 4, 3, 3, 3]):
        with pytest.raises(SizeLimitError):
            cayley_diameter(8, lam)
        with pytest.raises(SizeLimitError):
            cayley_graph(8, lam)


def _refuse_every_permutation_build(monkeypatch):
    _refuse_every_frame_build(monkeypatch)

    def unexpected(*args):
        raise AssertionError("permutations were built")

    monkeypatch.setattr(graphs, "_inverse_column", unexpected)
    monkeypatch.setattr(graphs.WeightedCayleyGraph, "__init__", unexpected)


@pytest.mark.parametrize("entry", [cayley_graph, cayley_diameter])
@pytest.mark.parametrize("n,mb", [(10, "2,685"), (12, "431,230")])
def test_cayley_size_over_the_memory_budget_refused_at_an_equal_cap(monkeypatch, entry, n, mb):
    _refuse_every_permutation_build(monkeypatch)
    for lam in (list(range(n, 0, -1)), [n, n] + list(range(n - 2, 0, -1))):
        with pytest.raises(SizeLimitError, match=rf"^n = {n}: the Cayley search of S_{n} "
                           rf"\({n}! vertices\) would need about {mb} MB, over the memory "
                           r"budget of 1,024 MB$"):
            entry(n, lam, cap=n)


def test_cayley_size_far_over_the_budget_is_refused_without_its_factorial(monkeypatch):
    _refuse_every_permutation_build(monkeypatch)
    with pytest.raises(SizeLimitError, match=r"^n = 100000: the Cayley search of S_100000 needs more "
                                             r"than that of S_20, which would need about [\d,]+ MB"):
        cayley_diameter(100_000, [0], cap=100_000)


def test_cayley_bytes_leave_n_up_to_9_within_the_budget():
    from bruhatcap.limits import GROUP_MEMORY_BUDGET

    assert graphs.cayley_bytes(9) <= GROUP_MEMORY_BUDGET < graphs.cayley_bytes(10)
    lam = [8, 8, 6, 5, 4, 3, 3, 3]
    assert cayley_diameter(8, lam, cap=8) == unitary_capacity(lam)
    assert len(cayley_graph(8, lam, cap=8).perms) == 40320


@pytest.mark.parametrize("entry", [cayley_graph, cayley_diameter])
def test_cayley_negative_cap_refused_before_any_build(monkeypatch, entry):
    _refuse_every_frame_build(monkeypatch)
    for lam in ([0], [0, 0]):  # the S_1 frame, and the quotient frame of S_2 by one tie
        with pytest.raises(ValidationError, match="cap must be nonnegative, got -1"):
            entry(len(lam), lam, cap=-1)
        for cap in (True, 2.0, "2", None):  # True and 2.0 used to pass as caps, "2" and None TypeError
            with pytest.raises(ValidationError, match=f"^cap must be an int, got {cap!r}$"):
                entry(len(lam), lam, cap=cap)
        with pytest.raises(SizeLimitError):  # a cap below n is valid, and refuses by size
            entry(len(lam), lam, cap=len(lam) - 1)


@pytest.mark.parametrize("entry", [cayley_graph, cayley_diameter])
@pytest.mark.parametrize("n,lam", [(2.0, [1, 0]), (True, [1]), (False, []), ("2", [1, 0]), (None, [1]),
                                  (0, []), (-1, [])])
def test_cayley_size_that_is_no_int_refused_before_any_build(monkeypatch, entry, n, lam):
    # 2.0 used to raise a bare TypeError from range, and True to answer as n = 1.
    _refuse_every_frame_build(monkeypatch)
    with pytest.raises(ValidationError, match=f"^n must be (an int|at least 1), got {n!r}$"):
        entry(n, lam)


def test_cayley_diameter_interleaved_sizes():
    # the cached S_n structure of one n never serves another
    for n, lam in [
        (3, [5, Fraction(1, 2), -1]),
        (5, [Fraction(9, 2), 3, Fraction(1, 3), 0, -2]),
        (3, [Fraction(2, 3), 0, 0]),
        (7, [5, 5, 2, 2, 2, -3, -3]),
        (6, [5, 5, 2, 2, 2, -3]),
    ]:
        assert cayley_diameter(n, lam) == unitary_capacity(lam)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6, 7])
def test_cayley_frame_columns_match_swapping_positions(n):
    # Each column directly: u * (i j) is u with its entries at i and j exchanged.
    perms = list(permutations(range(n)))
    index = {p: i for i, p in enumerate(perms)}
    swaps = tuple(combinations(range(n), 2))
    columns = tuple(tuple(index[p[:i] + (p[j],) + p[i + 1:j] + (p[i],) + p[j + 1:]] for p in perms)
                    for i, j in swaps)
    assert graphs._cayley_frame(n, (1,) * n) == (len(perms), swaps, columns)


def test_cayley_distances_disconnected(monkeypatch):
    g = cayley_graph(3, [2, 1, 0])
    n_vertices, swaps, _columns = graphs._cayley_frame(3, (1, 1, 1))
    # Every swap fixes every vertex, so nothing but the source is reachable.
    loops = tuple(range(n_vertices))
    monkeypatch.setattr(graphs, "_cayley_frame", lambda n, blocks: (n_vertices, swaps, (loops,) * len(swaps)))
    with pytest.raises(ConsistencyError, match="disconnected"):
        cayley_distances(g, 0)
    with pytest.raises(ConsistencyError, match="disconnected"):
        cayley_diameter(3, [2, 1, 0])


@pytest.mark.parametrize("src", [-1, 6, True, 0.0, 2.0, "2", None])
def test_cayley_distances_refuses_a_source_out_of_range(monkeypatch, src):
    # S_3 has 6 vertices; 6 used to raise the false "disconnected" error.
    g = cayley_graph(3, [2, 1, 0])
    with monkeypatch.context() as patched:
        _refuse_every_frame_build(patched)
        with pytest.raises(ValidationError, match=rf"^src must be (an int|in range\(0, 6\)), got {src!r}$"):
            cayley_distances(g, src)
    assert cayley_distances(g, 5) == [2, 2, 2, 1, 1, 0]


@pytest.mark.parametrize("vertex", [-1, 6, True, 0.0, 2.0, "2", None])
def test_quantum_searches_refuse_a_vertex_out_of_range(w_a2, vertex):
    # A2 has 6 elements; -1 and True used to answer for the vertices 5 and 1.
    q = quantum_bruhat_graph(w_a2)
    refused = rf"^[uv] must be (an int|in range\(0, 6\)), got {vertex!r}$"
    for search in (lambda: d_min(q, vertex, 0), lambda: d_min(q, 0, vertex), lambda: d_min_all(q, vertex)):
        with pytest.raises(ValidationError, match=refused):
            search()
    assert "out" not in vars(q)  # the edge lists were not built
    assert d_min(q, 5, 5) == ((0, 0), 0)


_DISTINCT = (Fraction(7, 2), Fraction(-4, 3), 1, Fraction(1, 2), Fraction(5, 3))
# Tied entries give zero-weight swaps, and the search runs on S_n / W_lam.
_TIED = {
    "one-tie": (4, 4, 2, Fraction(1, 2), 0),
    "block-of-three": (5, 2, 2, 2, -1),
    "two-blocks": (3, 3, 1, 1, Fraction(-2, 3)),
    "unsorted-apart": (Fraction(1, 3), 4, Fraction(1, 3), 0, 4),
    "all-equal": (2, 2, 2, 2, 2),
}


@pytest.mark.parametrize("n,lam", [
    *(pytest.param(n, (_DISTINCT if n <= 5 else (5, 5, 2, 2, 2, -3, -3))[:n], id=str(n))
      for n in range(1, 8)),
    *(pytest.param(len(lam), lam, id=name) for name, lam in _TIED.items()),
])
def test_cayley_distances_match_networkx_from_every_source(n, lam):
    # At n = 6 and 7 only the identity is a source: by left-invariance its
    # distances determine every source's.
    nx = pytest.importorskip("networkx")
    g = cayley_graph(n, lam)
    oracle = nx.Graph()
    oracle.add_nodes_from(range(len(g.perms)))
    oracle.add_weighted_edges_from((u, v, w) for u, v, _i, _j, w in g.edges)
    sources = range(len(g.perms)) if n <= 5 else [0]  # vertex 0 is the identity
    for src in sources:
        expected = nx.single_source_dijkstra_path_length(oracle, src)
        assert cayley_distances(g, src) == [expected[v] for v in range(len(g.perms))]


@pytest.mark.parametrize("lam", [
    pytest.param((Fraction(5, 2),), id="n-1"),
    pytest.param((3, 3, 3, 3, 3), id="all-equal"),
    pytest.param((9, 4, 4, 1, -2, -6), id="one-tie"),
    pytest.param((9, 9, 1, -2, -2, -6), id="two-ties"),
    pytest.param((8, 3, 3, 3, 0, -1, -5), id="block-of-three"),
    pytest.param((10**40, 3 * 10**35 + 1, 12345678901234567890123456789012, 7,
                  -(10**31) - 9, -(10**38), -(10**40)), id="30-plus-digits"),
    pytest.param((Fraction(7, 1000003), Fraction(1, 1000033), 0, Fraction(-5, 2000003),
                  Fraction(-9, 1999993)), id="denominators-above-1e6"),
])
def test_cayley_readers_agree_with_the_unitary_capacity(lam):
    n = len(lam)
    g = cayley_graph(n, lam)
    assert cayley_diameter(n, lam) == max(cayley_distances(g, 0)) == unitary_capacity(lam)


def _set_partitions(items):
    """Every partition of the list items into blocks, each block a list."""
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for blocks in _set_partitions(rest):
        yield [[first], *blocks]
        for k in range(len(blocks)):
            yield [*blocks[:k], [first, *blocks[k]], *blocks[k + 1:]]


def _tie_patterns(n):
    """Tie patterns of n positions: every set partition for n <= 5 (adjacent
    or not), and for n = 6, 7 every partition of n laid out in blocks of
    increasing length, the reverse of the frame's order."""
    if n <= 5:
        return list(_set_partitions(list(range(n))))
    starts = [list(accumulate(reversed(p), initial=0)) for p in _partitions(n)]
    return [[list(range(a, b)) for a, b in zip(s, s[1:])] for s in starts]


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6, 7])
def test_quotient_eccentricity_is_the_sn_eccentricity_on_every_tie_pattern(n):
    # Each pattern's lam, sorted, has the diameter (a search on its quotient
    # frame, lam relabelled onto it) that the search over all of S_n, with
    # zero-weight swaps, finds from e for lam as it stands.  Block values are
    # spaced to give distinct weights, then equal nonzero weights.
    patterns = _tie_patterns(n)
    assert len(patterns) == [1, 2, 5, 15, 52, 11, 15][n - 1]  # Bell numbers, then partition numbers
    for blocks in patterns:
        for spacing in (lambda b: 3 ** b, lambda b: b):
            lam = [0] * n
            for b, block in enumerate(blocks):
                for k in block:
                    lam[k] = spacing(b)
            full = cayley_distances(cayley_graph(n, lam), 0)
            assert cayley_diameter(n, sorted(lam, reverse=True)) == max(full)


def _swap_positions(p, i, j):
    """The permutation p * (i j): p with its entries at positions i and j exchanged."""
    q = list(p)
    q[i], q[j] = q[j], q[i]
    return tuple(q)


def _swap_values(p, a, b):
    """The permutation (a b) * p: p with its values a and b exchanged."""
    return tuple(b if x == a else a if x == b else x for x in p)


def _block_swaps(blocks):
    """Every transposition (i j), i < j, of two members of one block of blocks."""
    return [pair for block in blocks for pair in combinations(sorted(block), 2)]


def _double_cosets(perms, blocks):
    """The double cosets W p W of the permutations perms of range(n), W
    permuting each block of blocks (as positions on the right, as values on
    the left), as (reps, of): reps lists each double coset's least element,
    in lexicographic order, and of[p] is the position in reps of p's double
    coset.  Each orbit of W x W is closed under every swap inside a block,
    from its first permutation in lexicographic order, its least."""
    swaps = _block_swaps(blocks)
    reps, of = [], {}
    for p in sorted(perms):
        if p in of:
            continue
        of[p] = len(reps)
        orbit = [p]
        for q in orbit:  # the orbit grows while it is read
            for i, j in swaps:
                for r in (_swap_positions(q, i, j), _swap_values(q, i, j)):
                    if r not in of:
                        of[r] = len(reps)
                        orbit.append(r)
        reps.append(p)
    return reps, of


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6, 7])
def test_quotient_frame_matches_sorting_each_block(n):
    # Against the brute-force orbits of W_lam x W_lam, whose least elements
    # are sorted on each block of positions and of values: the frame's
    # vertices are the double cosets, numbered in the order of their least
    # elements, and each column takes the double coset of r to that of
    # r * (i j).
    perms = list(permutations(range(n)))
    for blocks in _partitions(n):  # (1, ..., 1) is S_n itself: every permutation a vertex
        cuts = list(accumulate(blocks, initial=0))
        reps, of = _double_cosets(perms, [range(a, b) for a, b in zip(cuts, cuts[1:])])
        block_of = [b for b, size in enumerate(blocks) for _ in range(size)]
        swaps = tuple((i, j) for i, j in combinations(range(n), 2) if block_of[i] != block_of[j])
        columns = tuple(tuple(of[_swap_positions(r, i, j)] for r in reps) for i, j in swaps)
        assert graphs._cayley_frame(n, blocks) == (len(reps), swaps, columns)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_cayley_distance_is_constant_on_each_double_coset(n):
    # The lemma under the double-coset frame: d(e, p u q) = d(e, u) for p, q
    # in W_lam, on every tie pattern, blocks apart or not.  The swaps inside
    # the blocks generate W_lam, so it is enough that each, as a swap of
    # positions (u -> u * t) or of values (u -> t * u), keeps every distance.
    g = cayley_graph(n, [0] * n)
    pairs = list(combinations(range(1, n + 1), 2))
    index = {p: i for i, p in enumerate(g.perms)}
    by_positions = {(a, b): [index[_swap_positions(p, a - 1, b - 1)] for p in g.perms] for a, b in pairs}
    by_values = {(a, b): [index[_swap_values(p, a, b)] for p in g.perms] for a, b in pairs}
    patterns = list(_set_partitions(list(range(1, n + 1))))
    assert len(patterns) == [1, 2, 5, 15, 52, 203][n - 1]  # Bell numbers
    for blocks in patterns:
        lam = [0] * n
        for b, block in enumerate(blocks):
            for k in block:
                lam[k - 1] = 3 ** b
        dist = cayley_distances(cayley_graph(n, lam), 0)
        for t in _block_swaps(blocks):
            assert [dist[v] for v in by_positions[t]] == dist
            assert [dist[v] for v in by_values[t]] == dist


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6, 7])
def test_distinct_entries_search_the_sn_frame_itself(monkeypatch, n):
    # The partition (1, ..., 1) builds no frame but S_n's own.
    lam = sorted(_DISTINCT[:n] if n <= 5 else range(n), reverse=True)
    frame, built = graphs._cayley_frame, []

    def logged(n, blocks):
        built.append((n, blocks))
        return frame(n, blocks)

    monkeypatch.setattr(graphs, "_cayley_frame", logged)
    assert cayley_diameter(n, lam) == unitary_capacity(lam)
    assert built == [(n, (1,) * n)]


def _floyd_warshall_oracle(n, lam):
    """Independent all-pairs oracle for small n."""
    g = cayley_graph(n, lam)
    size = len(g.perms)
    inf = Fraction(10**9)
    dist = [[inf] * size for _ in range(size)]
    for i in range(size):
        dist[i][i] = Fraction(0)
    for u, v, _i, _j, w in g.edges:
        if w < dist[u][v]:
            dist[u][v] = dist[v][u] = w
    for k in range(size):
        dk = dist[k]
        for i in range(size):
            dik = dist[i][k]
            di = dist[i]
            for j in range(size):
                alt = dik + dk[j]
                if alt < di[j]:
                    di[j] = alt
    return g, dist


def test_cayley_diameter_n4_against_floyd_warshall():
    lam = [3, 2, 1, 0]
    g, dist = _floyd_warshall_oracle(4, lam)
    e = 0  # the identity
    assert max(dist[e]) == 4
    assert cayley_diameter(4, lam) == 4
    # all-pairs diameter equals the single-source diameter (left-invariance)
    assert max(max(row) for row in dist) == 4
    got = cayley_distances(g, e)
    assert got == dist[e]


def test_cayley_distance_formula_strictly_decreasing():
    for n in range(2, 6):
        lam = [Fraction(3 * (n - k), 2) for k in range(n)]  # strictly decreasing
        g = cayley_graph(n, lam)
        dist = cayley_distances(g, 0)
        for idx, p in enumerate(g.perms):
            assert dist[idx] == transposition_distance_formula(lam, p)


@pytest.mark.parametrize("perm", [(0, 1, 2), (1, 1, 1), (2, 1), (1, 2, 3, 4), (1, 2, 4), (True, 2, 3),
                                  (1.0, 2, 3), ()])
def test_transposition_distance_formula_refuses_a_perm_of_the_wrong_set(perm):
    # With lam = (5, 3, 0), (0, 1, 2) used to read lam[-1] and answer 5,
    # (1, 1, 1) answered 7/2 and (2, 1) answered 2.
    with pytest.raises(ValidationError, match=r"perm must be a permutation of 1\.\.3, got "):
        transposition_distance_formula((5, 3, 0), perm)
    assert transposition_distance_formula((5, 3, 0), (3, 2, 1)) == 5


@settings(max_examples=60, deadline=None)
@given(st.lists(st.sampled_from([Fraction(k, 3) for k in range(-4, 7)]), min_size=2, max_size=5))
def test_cayley_distance_is_the_formula_with_ties(values):
    # d(e, u) <= the formula along a path of swaps; >=, since one swap (i j)
    # moves (1/2) sum_k |lam_k - lam_u(k)| by at most |lam_i - lam_j| (the
    # triangle inequality).  Relabelling carries both sides to unsorted lam.
    n = len(values)
    rev = tuple(range(n, 0, -1))
    for lam in (sorted(values, reverse=True), values):
        g = cayley_graph(n, lam)
        formula = [transposition_distance_formula(lam, p) for p in g.perms]
        assert cayley_distances(g, 0) == formula
    lam = sorted(values, reverse=True)
    for p in g.perms:  # rearrangement bound
        assert transposition_distance_formula(lam, p) <= transposition_distance_formula(lam, rev)


def test_cayley_left_invariance():
    lam = [4, 2, 1]
    g = cayley_graph(3, lam)
    index = {p: i for i, p in enumerate(g.perms)}
    assert index[1, 2, 3] == 0  # the identity
    base = cayley_distances(g, 0)
    for gamma in permutations(range(1, 4)):
        src = index[gamma]
        dist = cayley_distances(g, src)
        for p in g.perms:
            q = tuple(gamma[p[k] - 1] for k in range(3))  # left translate gamma o p
            assert dist[index[q]] == base[index[p]]


# -- exports ----------------------------------------------------------------------


def test_export_dot_a1():
    w = generate(build("A", 1))
    text = export(bruhat_graph(w), "dot")
    assert text.startswith("graph bruhat")
    assert text.count('";') == 2  # two nodes
    assert text.count("--") == 1


def test_export_quantum_dot_is_digraph(w_a2):
    text = export(quantum_bruhat_graph(w_a2), "dot")
    assert text.startswith("digraph")
    assert text.count("->") == 15


def test_export_json_round_trip(w_b2):
    rs = w_b2.rs
    lam = vec([3, 1])
    g = bruhat_graph(w_b2)
    payload = json.loads(export(g, "json", lam=lam))
    assert payload["kind"] == "bruhat"
    assert len(payload["vertices"]) == g.n_vertices
    assert len(payload["edges"]) == len(g.edges)
    # multiset of (root, degree, area) matches the in-memory graph
    exported = sorted(
        (tuple(e["root"]), tuple(e["degree"]), e["area"]) for e in payload["edges"]
    )
    original = sorted(
        (
            tuple(str(x) for x in rs.roots[a]),
            deg,
            str(rs.pairing(lam, a)),
        )
        for _u, _v, a, deg in g.edges
    )
    assert exported == original


def test_export_deterministic(w_a2):
    g1 = export(bruhat_graph(w_a2), "json")
    g2 = export(bruhat_graph(w_a2), "json")
    assert g1 == g2
    assert export(quantum_bruhat_graph(w_a2), "dot") == export(quantum_bruhat_graph(w_a2), "dot")


def test_export_quantum_with_weight_areas(w_a2):
    rs = w_a2.rs
    lam = vec([3, 1, 0])
    payload = json.loads(export(quantum_bruhat_graph(w_a2), "json", lam=lam))
    for e in payload["edges"]:
        deg = e["degree"]
        expected = sum(
            deg[k] * rs.pairing(lam, rs.simple[k]) for k in range(rs.rank)
        )
        assert e["area"] == str(expected)
        if deg == [0, 0]:
            assert e["area"] == "0"


def test_export_cayley_json():
    g = cayley_graph(3, [2, 1, 0])
    payload = json.loads(export(g, "json"))
    assert payload["kind"] == "cayley"
    assert len(payload["vertices"]) == 6
    assert len(payload["edges"]) == 6 * 3 // 2


def test_export_unknown_format(w_a2):
    with pytest.raises(ValidationError):
        export(bruhat_graph(w_a2), "xml")
