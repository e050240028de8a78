"""Earlier, plainer forms of three construction kernels, kept as references,
and the random walks that sample Postnikov's bound.

`set_propagation_d_min_all` finds the distances from u by breadth-first
search, then carries to every vertex the set of the degrees of all its
shortest paths, and refuses a vertex whose set has more than one element.
`descent_lookup_enumeration` enumerates a Weyl group breadth-first and
computes u * s_g for every element u and every simple reflection s_g,
descents included, looking each product up by its key.  `orbit_cosets`
numbers the cosets w W_P as the orbits under the right tables of S_P, each
opened, in the breadth-first order, by its minimal-length element.
`two_sided_orbits` numbers the double cosets W_P u W_P as the orbits of
W_P x W_P, each step composed from whole root permutations
(`weyl_ops.compose`).  `coset_min_path_area` is the Dijkstra on W/W_P itself,
a vertex per coset, that `graphs.min_path_area` ran before it searched the
double cosets.  The package's kernels compute the same results with less
work; the tests compare them.
`random_walk_degree` follows random quantum Bruhat edges: the degree of every
path dominates d_min, which `verify postnikov` proves by an edge certificate
and the tests sample again.
"""

from fractions import Fraction
from functools import cache
from operator import itemgetter, mul

from bruhatcap import ConsistencyError
from bruhatcap.graphs import _dijkstra, degree_add
from bruhatcap.rootsystem import require_dominant
from weyl_ops import compose, simple_elements


def set_propagation_d_min_all(graph, u):
    """(dist, degs) from u, or ConsistencyError if the graph is not strongly
    connected from u or two shortest paths to a vertex carry distinct degrees."""
    n, out = graph.n_vertices, graph.out
    dist = [-1] * n
    dist[u] = 0
    order = [u]
    head = 0
    while head < len(order):
        x = order[head]
        head += 1
        for y, _a, _d in out[x]:
            if dist[y] < 0:
                dist[y] = dist[x] + 1
                order.append(y)
    if len(order) != n:
        raise ConsistencyError("quantum Bruhat graph is not strongly connected from u")
    degs = [None] * n
    degs[u] = {graph.zero}
    for x in order:
        dx = degs[x]
        for y, _a, dd in out[x]:
            if dist[y] == dist[x] + 1:
                acc = degs[y]
                if acc is None:
                    acc = degs[y] = set()
                for base in dx:
                    acc.add(degree_add(base, dd))
    final = [graph.zero] * n
    for x in order:
        dx = degs[x]
        if len(dx) != 1:
            raise ConsistencyError(f"shortest paths {u} -> {x} carry {len(dx)} distinct degrees {sorted(dx)}")
        final[x] = next(iter(dx))
    return dist, final


def descent_lookup_enumeration(rs):
    """(keys, lengths, parents, right) of the Weyl group of rs, each right[g] a tuple."""
    perms = [rs.reflection_perm(r) if rs.is_positive[r] else rs.reflection_perm(rs.neg_of[r])
             for r in range(len(rs.roots))]
    keys = [rs.simple]
    index = {rs.simple: 0}
    lengths = [0]
    parents = [(-1, -1)]
    right = [[] for _ in rs.simple]
    for wi, key in enumerate(keys):
        at_key = itemgetter(*key) if len(key) > 1 else lambda perm, k=key[0]: (perm[k],)
        for g, row in enumerate(right):
            child = at_key(perms[key[g]])
            j = index.get(child)
            if j is None:
                j = index[child] = len(keys)
                keys.append(child)
                lengths.append(lengths[wi] + 1)
                parents.append((wi, g))
            row.append(j)
    return keys, lengths, parents, tuple(map(tuple, right))


def orbit_cosets(weyl, s_p):
    """(coset_of, coset_reps) of W/W_P, S_P given by simple positions,
    or ConsistencyError if two orbits overlap or the cosets do not number |W| / |W_P|."""
    gens = [weyl.right[k] for k in s_p]
    coset_of = [-1] * len(weyl)
    coset_reps = []
    for w in range(len(weyl)):
        if coset_of[w] >= 0:
            continue
        cid = len(coset_reps)
        coset_reps.append(w)
        coset_of[w] = cid
        orbit = [w]
        for x in orbit:
            for t in gens:
                y = t[x]
                if coset_of[y] < 0:
                    coset_of[y] = cid
                    orbit.append(y)
                elif coset_of[y] != cid:
                    raise ConsistencyError(f"parabolic data broken: cosets {coset_of[y]} and {cid} overlap")
        if cid == 0:
            wp = orbit
    if len(coset_reps) * len(wp) != len(weyl):
        raise ConsistencyError(
            f"parabolic data broken: {len(coset_reps)} cosets x |W_P|={len(wp)} != |W|={len(weyl)}")
    return tuple(coset_of), tuple(coset_reps)


@cache
def _times_simple(weyl, k: int, left: bool) -> tuple[int, ...]:
    """Per element u, the index of s_k * u (left) or u * s_k, by composition."""
    s = simple_elements(weyl)[k]
    return tuple(compose(weyl, s, u) if left else compose(weyl, u, s) for u in range(len(weyl)))


def two_sided_orbits(weyl, s_p):
    """(double_of, double_reps) of W_P \\ W / W_P: the orbits of u -> p u q^-1,
    p and q in W_P, each numbered by its least element, which in the
    breadth-first order is its minimal-length element."""
    steps = [_times_simple(weyl, k, left) for k in s_p for left in (True, False)]
    double_of = [-1] * len(weyl)
    double_reps = []
    for w in range(len(weyl)):
        if double_of[w] >= 0:
            continue
        double_of[w] = len(double_reps)
        orbit = [w]
        for x in orbit:
            for step in steps:
                y = step[x]
                if double_of[y] < 0:
                    double_of[y] = double_of[w]
                    orbit.append(y)
        double_reps.append(w)
    return tuple(double_of), tuple(double_reps)


def coset_min_path_area(parabolic, lam, src, dst):
    """The least area of a path from coset src to coset dst by Dijkstra on
    W/W_P, stepping from coset u to the coset of rep(u) * s_alpha for each
    alpha in R+ - R+_P."""
    weyl = parabolic.weyl
    rs = weyl.rs
    labels, scale = require_dominant(rs, lam, parabolic.s_p)
    steps = [(weyl.reflection_table(a), sum(map(mul, rs.signed_cocoefficients(a), labels)))
             for a in parabolic.free_roots]
    coset_of, reps = parabolic.coset_of, parabolic.coset_reps

    def neighbours(u):
        rep = reps[u]
        return [(coset_of[t[rep]], w) for t, w in steps]

    d = _dijkstra(len(reps), neighbours, src, dst)
    if d is None:
        raise ConsistencyError("Bruhat graph is disconnected")
    return Fraction(d, scale)


def random_walk_degree(graph, rng, u: int, steps: int):
    """Follow `steps` random directed edges of a quantum Bruhat graph from u;
    return the endpoint and the path's degree."""
    x, out = u, graph.out
    total = graph.zero
    for _ in range(steps):
        x, _a, dd = rng.choice(out[x])
        total = degree_add(total, dd)
    return x, total
