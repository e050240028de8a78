"""Bruhat, quantum Bruhat and weighted Cayley graphs, with exact shortest paths.

Degrees are integer tuples over the simple coroots (over S - S_P for the
parabolic Bruhat graph); path areas pair a dominant weight with a degree.
Areas and Cayley weights are exact: the weight is scaled by the least common
denominator of its Dynkin labels (of its entries, for S_n), every edge then
carries an integer, and a result is divided back into a Fraction once.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from heapq import heappop, heappush
from operator import mul
from types import MappingProxyType
from typing import Mapping

from .errors import ConsistencyError, SizeLimitError, ValidationError
from .linalg import Vector, vec
from .rootsystem import RootSystem, rational_str, scaled, vector_strs
from .weyl import ParabolicData, WeylGroup

DEFAULT_CAYLEY_CAP = 7

Degree = tuple[int, ...]


def degree_leq(c: Degree, d: Degree) -> bool:
    """Componentwise partial order on degrees."""
    return all(a <= b for a, b in zip(c, d))


def degree_add(c: Degree, d: Degree) -> Degree:
    return tuple(a + b for a, b in zip(c, d))


def degree_pairing(rs: RootSystem, lam: Vector, degree: Degree) -> Fraction:
    """sum_k degree[k] * <lam, coroot(alpha_k)>: the area of a path of that degree."""
    labels, scale = rs.scaled_labels(lam)
    return Fraction(sum(map(mul, degree, labels)), scale)


def _dijkstra(adj, src: int, dst: int | None = None):
    """Shortest paths; adj[u] yields (v, w) for each edge u -- v, w a nonnegative integer.

    adj[u] is iterated at most once.  Returns the distance to dst or, with dst
    None, all distances; None marks an unreachable vertex."""
    dist: list[int | None] = [None] * len(adj)
    dist[src] = 0
    heap = [(0, src)]
    while heap:
        d, u = heappop(heap)
        if d > dist[u]:
            continue  # stale entry: u was reached more cheaply
        if u == dst:
            return d
        for v, w in adj[u]:
            nd = d + w
            old = dist[v]
            if old is None or nd < old:
                dist[v] = nd
                heappush(heap, (nd, v))
    return dist if dst is None else None


# ---------------------------------------------------------------------------
# Bruhat graph on W/W_P


@dataclass
class BruhatGraph:
    """Undirected multigraph on W/W_P; edges carry the reflecting root."""

    parabolic: ParabolicData
    # (u, v, root index, degree over S - S_P), with u < v
    edges: list[tuple[int, int, int, Degree]]

    @property
    def weyl(self) -> WeylGroup:
        return self.parabolic.weyl

    @property
    def n_vertices(self) -> int:
        return self.parabolic.n_cosets


def bruhat_graph(weyl: WeylGroup, parabolic: ParabolicData | None = None) -> BruhatGraph:
    """All edges u -- u*s_alpha mod W_P for alpha in R+ - R+_P.

    Each torus-invariant curve is emitted once, from its smaller endpoint;
    distinct roots joining the same coset pair stay as distinct edges.
    """
    pd = parabolic if parabolic is not None else weyl.parabolic(())
    rs = weyl.rs
    rp = set(pd.rp_plus)
    coset_of = pd.coset_of
    edges = []
    for a in rs.positive:
        if a in rp:
            continue
        cocoeff = rs.signed_cocoefficients(a)
        degree = tuple(cocoeff[k] for k in pd.free_simple)
        table = weyl.reflection_table(a)
        for cu, rep in enumerate(pd.coset_reps):
            cv = coset_of[table[rep]]
            if cv > cu:
                edges.append((cu, cv, a, degree))
    edges.sort()
    return BruhatGraph(parabolic=pd, edges=edges)


def min_path_area(graph: BruhatGraph, lam: Vector, src: int, dst: int) -> Fraction:
    """Dijkstra over edge areas <lam, coroot(alpha)>; exact minimal total area."""
    rs = graph.weyl.rs
    labels, scale = rs.scaled_labels(lam)
    areas: dict[int, int] = {}
    adj: list[list[tuple[int, int]]] = [[] for _ in range(graph.n_vertices)]
    for u, v, a, _deg in graph.edges:
        w = areas.get(a)
        if w is None:
            w = areas[a] = sum(map(mul, rs.signed_cocoefficients(a), labels))
            if w < 0:
                raise ValidationError("negative edge area; lambda is not dominant")
        adj[u].append((v, w))
        adj[v].append((u, w))
    d = _dijkstra(adj, src, dst)
    if d is None:
        raise ConsistencyError("Bruhat graph is disconnected; this cannot happen for valid input")
    return Fraction(d, scale)


# ---------------------------------------------------------------------------
# Quantum Bruhat graph on W


@dataclass
class QuantumBruhatGraph:
    """Directed graph on W; up-edges carry degree 0, down-edges the coroot."""

    weyl: WeylGroup
    out: list[list[tuple[int, int, Degree]]]  # per u: (v, root index, degree)
    zero: Degree

    @property
    def n_vertices(self) -> int:
        return len(self.weyl)


def quantum_bruhat_graph(weyl: WeylGroup) -> QuantumBruhatGraph:
    rs = weyl.rs
    zero = (0,) * rs.rank
    lengths = weyl.lengths
    out: list[list[tuple[int, int, Degree]]] = [[] for _ in range(len(weyl))]
    # Root by root, so each out[u] lists its edges in root order.
    for a in rs.positive:
        down = 1 - 2 * rs.coroot_height(a)
        degree = rs.coroot_coefficients(a)
        for v, lu, row in zip(weyl.reflection_table(a), lengths, out):
            step = lengths[v] - lu
            if step == 1:
                row.append((v, a, zero))
            elif step == down:
                row.append((v, a, degree))
    return QuantumBruhatGraph(weyl=weyl, out=out, zero=zero)


def d_min_all(graph: QuantumBruhatGraph, u: int) -> tuple[list[int], list[Degree]]:
    """Shortest directed distances from u, and the common shortest-path degrees.

    The uniqueness of the shortest-path degree is a checked theorem: if two
    shortest paths to any vertex disagree, ConsistencyError is raised.
    """
    n = graph.n_vertices
    dist = [-1] * n
    dist[u] = 0
    order = [u]
    head = 0
    while head < len(order):
        x = order[head]
        head += 1
        for y, _a, _d in graph.out[x]:
            if dist[y] < 0:
                dist[y] = dist[x] + 1
                order.append(y)
    if len(order) != n:
        raise ConsistencyError("quantum Bruhat graph is not strongly connected from u")
    degs: list[set[Degree] | None] = [None] * n
    degs[u] = {graph.zero}
    for x in order:
        dx = degs[x]
        assert dx is not None
        for y, _a, dd in graph.out[x]:
            if dist[y] == dist[x] + 1:
                acc = degs[y]
                if acc is None:
                    acc = degs[y] = set()
                for base in dx:
                    acc.add(degree_add(base, dd))
    final: list[Degree] = [graph.zero] * n
    for x in order:
        dx = degs[x]
        assert dx is not None
        if len(dx) != 1:
            raise ConsistencyError(
                f"shortest paths {u} -> {x} carry {len(dx)} distinct degrees {sorted(dx)}; "
                "the shortest-path degree must be unique"
            )
        final[x] = next(iter(dx))
    return dist, final


def d_min(graph: QuantumBruhatGraph, u: int, v: int) -> tuple[Degree, int]:
    """The common degree and length of all shortest directed paths u -> v."""
    dist, degs = d_min_all(graph, u)
    return degs[v], dist[v]


def random_walk_degree(graph: QuantumBruhatGraph, rng, u: int, steps: int) -> tuple[int, Degree]:
    """Follow `steps` random directed edges from u; return endpoint and path degree."""
    x = u
    total = graph.zero
    for _ in range(steps):
        v, _a, dd = rng.choice(graph.out[x])
        total = degree_add(total, dd)
        x = v
    return x, total


# ---------------------------------------------------------------------------
# Weighted Cayley graph of S_n


@lru_cache(maxsize=None)
def _cayley_frame(n: int) -> tuple:
    """The sorted permutations of S_n (the identity first), their index, the swaps
    i < j of positions, and per vertex its neighbour under each swap, in swap order.
    Built once per n: callers check n against their cap first."""
    perms = tuple(sorted(itertools.permutations(range(1, n + 1))))
    index = {p: i for i, p in enumerate(perms)}
    swaps = tuple(itertools.combinations(range(n), 2))
    neighbours = tuple(
        tuple(index[p[:i] + (p[j],) + p[i + 1:j] + (p[i],) + p[j + 1:]] for i, j in swaps)
        for p in perms
    )
    return perms, MappingProxyType(index), swaps, neighbours


def _checked_cayley_frame(n: int, lam: Vector, cap: int) -> tuple:
    if n < 1:
        raise ValidationError("n must be positive")
    if n > cap:
        raise SizeLimitError(f"n = {n} exceeds the Cayley cap {cap} ({n}! vertices)")
    if len(lam) != n:
        raise ValidationError(f"lambda has {len(lam)} entries, expected {n}")
    return _cayley_frame(n)


def _scaled_cayley_distances(frame: tuple, lam: Vector, src: int) -> tuple[list[int], int]:
    """Distances from src under the weights |lam_i - lam_j|, scaled to integers; and the scale."""
    _perms, _index, swaps, neighbours = frame
    scaled_lam, scale = scaled(lam)
    swap_weights = tuple(abs(scaled_lam[i] - scaled_lam[j]) for i, j in swaps)
    dist = _dijkstra([zip(row, swap_weights) for row in neighbours], src)
    if None in dist:
        raise ConsistencyError("Cayley graph is disconnected; this cannot happen for valid input")
    return dist, scale


@dataclass
class WeightedCayleyGraph:
    n: int
    lam: Vector
    perms: tuple[tuple[int, ...], ...]
    index: Mapping[tuple[int, ...], int]  # shared by every graph on S_n, so read-only
    # (u, v, i, j, |lam_i - lam_j|) for a swap of positions i < j, u < v
    edges: list[tuple[int, int, int, int, Fraction]] = field(repr=False)

    @property
    def identity_index(self) -> int:
        return self.index[tuple(range(1, self.n + 1))]


def cayley_graph(n: int, lam, cap: int = DEFAULT_CAYLEY_CAP) -> WeightedCayleyGraph:
    """The Cayley graph of S_n on all transpositions, weighted by |lam_i - lam_j|."""
    lam = vec(lam)
    perms, index, swaps, neighbours = _checked_cayley_frame(n, lam, cap)
    swap_weights = [abs(lam[i] - lam[j]) for i, j in swaps]
    edges = [
        (u, v, i, j, w)
        for u, row in enumerate(neighbours)
        for v, (i, j), w in zip(row, swaps, swap_weights)
        if v > u
    ]
    return WeightedCayleyGraph(n=n, lam=lam, perms=perms, index=index, edges=edges)


def cayley_distances(graph: WeightedCayleyGraph, src: int) -> list[Fraction]:
    """Single-source Dijkstra over the weighted Cayley graph."""
    dist, scale = _scaled_cayley_distances(_cayley_frame(graph.n), graph.lam, src)
    return [Fraction(d, scale) for d in dist]


def transposition_distance_formula(lam, perm: tuple[int, ...]) -> Fraction:
    """The closed-form candidate (1/2) sum_i |lam_i - lam_{perm(i)}|."""
    lam = vec(lam)
    return Fraction(1, 2) * sum(
        (abs(lam[i] - lam[perm[i] - 1]) for i in range(len(perm))), Fraction(0)
    )


def cayley_diameter(n: int, lam, cap: int = DEFAULT_CAYLEY_CAP) -> Fraction:
    """max_sigma d(e, sigma); equals the graph diameter by left-invariance."""
    lam = vec(lam)
    if any(lam[i] < lam[i + 1] for i in range(len(lam) - 1)):
        raise ValidationError("lambda must be sorted in nonincreasing order")
    frame = _checked_cayley_frame(n, lam, cap)
    dist, scale = _scaled_cayley_distances(frame, lam, 0)  # the identity comes first
    return Fraction(max(dist), scale)


# ---------------------------------------------------------------------------
# Exports


def _weyl_payload(weyl: WeylGroup, reps, edges, lam: Vector | None, **head) -> dict:
    """The export of a graph whose vertex c is labelled by the element reps[c].

    Vertices are ordered by (length, element).  Edges are (u, v, root index,
    degree, coroot coefficients of the edge area), the area being exported
    when lam is given.
    """
    rs = weyl.rs
    order = sorted(range(len(reps)), key=lambda c: (weyl.lengths[reps[c]], reps[c]))
    pos = {c: i for i, c in enumerate(order)}
    vertices = [
        {"id": i, "label": weyl.word_label(reps[c]), "length": weyl.lengths[reps[c]]}
        for i, c in enumerate(order)
    ]
    if lam is not None:
        labels, scale = rs.scaled_labels(lam)
    rows = []
    for u, v, a, deg, area_deg in edges:
        e = {"u": pos[u], "v": pos[v], "root": vector_strs(rs.roots[a]), "degree": list(deg)}
        if lam is not None:
            e["area"] = rational_str(Fraction(sum(map(mul, area_deg, labels)), scale))
        rows.append(e)
    rows.sort(key=lambda e: (e["u"], e["v"], e["root"], e["degree"]))
    return {"family": rs.family, "rank": rs.rank, **head, "vertices": vertices, "edges": rows}


def _cayley_payload(graph: WeightedCayleyGraph) -> dict:
    vertices = [{"id": i, "label": "".join(map(str, p))} for i, p in enumerate(graph.perms)]
    edges = [
        {"u": u, "v": v, "swap": [i + 1, j + 1], "weight": rational_str(w)}
        for u, v, i, j, w in sorted(graph.edges)
    ]
    return {
        "kind": "cayley",
        "n": graph.n,
        "lambda": vector_strs(graph.lam),
        "directed": False,
        "vertices": vertices,
        "edges": edges,
    }


def _payload_to_dot(payload: dict) -> str:
    directed = payload["directed"]
    name = payload["kind"]
    arrow = "->" if directed else "--"
    lines = [("digraph " if directed else "graph ") + name + " {"]
    labels = {v["id"]: v["label"] for v in payload["vertices"]}
    for v in payload["vertices"]:
        lines.append(f'  "{v["label"]}";')
    for e in payload["edges"]:
        if "root" in e:
            parts = ["(" + ",".join(e["root"]) + ")",
                     "(" + ",".join(map(str, e["degree"])) + ")"]
            if "area" in e:
                parts.append(e["area"])
        else:
            parts = ["(" + ",".join(map(str, e["swap"])) + ")", e["weight"]]
        label = " / ".join(parts)
        lines.append(f'  "{labels[e["u"]]}" {arrow} "{labels[e["v"]]}" [label="{label}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"


def export(graph, fmt: str, lam: Vector | None = None) -> str:
    """Serialize a graph as 'json' or 'dot'; output is deterministic."""
    if isinstance(graph, BruhatGraph):
        co = graph.weyl.rs.signed_cocoefficients
        edges = ((u, v, a, deg, co(a)) for u, v, a, deg in graph.edges)
        payload = _weyl_payload(graph.weyl, graph.parabolic.coset_reps, edges, lam,
                                kind="bruhat", s_p=list(graph.parabolic.s_p), directed=False)
    elif isinstance(graph, QuantumBruhatGraph):
        edges = ((u, v, a, deg, deg) for u, out in enumerate(graph.out) for v, a, deg in out)
        payload = _weyl_payload(graph.weyl, range(len(graph.weyl)), edges, lam,
                                kind="quantum", directed=True)
    elif isinstance(graph, WeightedCayleyGraph):
        payload = _cayley_payload(graph)
    else:
        raise ValidationError(f"cannot export object of type {type(graph).__name__}")
    if fmt == "json":
        return json.dumps(payload, indent=2, sort_keys=True) + "\n"
    if fmt == "dot":
        return _payload_to_dot(payload)
    raise ValidationError(f"unknown export format {fmt!r}; expected 'json' or 'dot'")
