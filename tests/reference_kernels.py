"""Earlier, plainer forms of three construction kernels, kept as references,
and the random walks that sample Postnikov's bound.

`set_propagation_d_min_all` finds the distances from u by breadth-first
search, then carries to every vertex the set of the degrees of all its
shortest paths, and refuses a vertex whose set has more than one element.
`descent_lookup_enumeration` enumerates a Weyl group breadth-first and
computes u * s_g for every element u and every simple reflection s_g,
descents included, looking each product up by its key.  `orbit_cosets`
numbers the cosets w W_P as the orbits under the right tables of S_P, each
opened, in the breadth-first order, by its minimal-length element.  The package's
kernels compute the same results with less work; the tests compare them.
`random_walk_degree` follows random quantum Bruhat edges: the degree of every
path dominates d_min, which `verify postnikov` proves by an edge certificate
and the tests sample again.
"""

from operator import itemgetter

from bruhatcap import ConsistencyError
from bruhatcap.graphs import degree_add


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


def random_walk_degree(graph, rng, u: int, steps: int):
    """Follow `steps` random directed edges of a quantum Bruhat graph from u;
    return the endpoint and the path's degree."""
    x, out = u, graph.out
    total = graph.zero
    for _ in range(steps):
        x, _a, dd = rng.choice(out[x])
        total = degree_add(total, dd)
    return x, total
