"""Bruhat, quantum Bruhat and weighted Cayley graphs, with exact shortest paths.

Degrees are integer tuples over the simple coroots (over S - S_P for the
parabolic Bruhat graph); path areas pair a dominant weight with a degree.
Areas and Cayley weights are exact: the weight is scaled by the least common
denominator of its Dynkin labels (of its entries, for S_n), every edge then
carries an integer, and a result is divided back into a Fraction once.

A graph is a view over tables it does not copy: the Bruhat and quantum
Bruhat graphs over the Weyl group's reflection tables, the Cayley graph of
S_n over the columns of its frame.  Each graph has one per-vertex edge
reader (its `_edge_rows`), and the export reads each vertex's edges from it
as it writes that vertex, so no edge list is built for an export.  One edge
loop writes JSON and DOT, and the JSON text comes from the one JSON writer,
rootsystem.json_chunks, which `roots --format json` shares (see Exports
below): json.dumps lays out all of it.  The edge
lists `BruhatGraph.edges`, `QuantumBruhatGraph.out` and
`WeightedCayleyGraph.edges` come from the same reader, built on first read
for the searches and tests that walk them (d_min_all).  The Weyl
group module is imported only to type the Bruhat graphs and, for tied
entries, by _cayley_frame for its coset pass, so `graph cayley` loads none.

Cayley distances come from _settled_levels, a level-by-level search over a
frame's columns that yields the settled levels (d, level) and returns after
the level that settles the last vertex.  _cayley_frame(n, blocks), cached,
is W \\ S_n / W for W permuting each block of consecutive positions: S_n
itself when every block has size 1, else its double cosets (weyl.cosets, the
pass that WeylGroup.parabolic runs for W/W_P, under the swaps inside a block
of positions and of values); _cayley_levels weighs its swaps and searches it.
cayley_distances searches S_n, tied entries giving zero-weight swaps whose
images settle at the same d; cayley_diameter searches W_lam \\ S_n / W_lam,
lam relabelled so that its tie blocks sit where the frame puts them: W_lam
acting on both sides is a group of automorphisms of the weighted graph that
maps e's coset onto itself, so the distance from e is constant on each
double coset (the proof is in cayley_diameter).  min_path_area searches
W_P \\ W / W_P, the same pass over S_P's tables on both sides
(WeylGroup.double_cosets, over the right tables and left_table; the proof is
in min_path_area), with the heap _dijkstra.  Vertex arguments, n and
the Cayley cap are read and refused through limits, as README's guarantees
state, before any frame is built.
"""

from __future__ import annotations

import itertools
import math
from bisect import bisect_right
from fractions import Fraction
from functools import cached_property, lru_cache
from heapq import heappop, heappush
from operator import add, ge, itemgetter, mul, not_
from typing import TYPE_CHECKING, Iterator

from .errors import ConsistencyError, ValidationError
from .limits import DEFAULT_CAYLEY_CAP, read_count, require_size
from .linalg import Vector, vec
from .rootsystem import json_chunks, json_item, rational_str, require_dominant, scaled, vector_strs

if TYPE_CHECKING:  # a Cayley graph needs no Weyl group
    from .weyl import ParabolicData, Table, WeylGroup

Degree = tuple[int, ...]


def degree_leq(c: Degree, d: Degree) -> bool:
    """Componentwise partial order on degrees."""
    return all(a <= b for a, b in zip(c, d))


def degree_add(c: Degree, d: Degree) -> Degree:
    return tuple(map(add, c, d))


def _dijkstra(n_vertices: int, neighbours, src: int, dst: int | None = None):
    """Shortest paths on range(n_vertices); neighbours(u) yields (v, w) for each
    edge u -- v, w a nonnegative integer.

    neighbours(u) is called at most once per u.  Returns the distance to dst or,
    with dst None, all distances; None marks an unreachable vertex."""
    dist: list[int | None] = [None] * n_vertices
    dist[src] = 0
    heap = [(0, src)]
    while heap:
        d, u = heappop(heap)
        if d > dist[u]:
            continue  # stale entry: u was reached more cheaply
        if u == dst:
            return d
        for v, w in neighbours(u):
            nd = d + w
            old = dist[v]
            if old is None or nd < old:
                dist[v] = nd
                heappush(heap, (nd, v))
    return dist if dst is None else None


def _images(vertices, columns) -> Iterator[tuple[int, ...]]:
    """Per column, its entries at the vertices (a nonempty set), in one fixed order."""
    get = itemgetter(*vertices)
    if len(vertices) == 1:  # itemgetter with one key returns the entry, not a tuple
        return ((get(column),) for column in columns)
    return map(get, columns)


def _settled_levels(n_vertices: int, steps, src: int) -> Iterator[tuple[int, set[int]]]:
    """The shortest distances from src in a step graph on range(n_vertices), as
    levels (d, level) in nondecreasing d, strictly increasing when no step
    weighs 0: level is a set of vertices at distance d.

    Each step (column, w) joins every vertex u to column[u] at the same
    nonnegative integer weight w.  Distances are settled one level at a time
    (Dial's order, with a heap of the pending distances, so that weights of
    any size cost no array as long as the largest): every vertex pending at
    the least distance d is settled at once, and each step adds the level's
    images to the vertices pending at d + w.  A zero-weight step files them at
    d again, which the heap pops next, as a level of its own.  The per-edge
    work is done by itemgetter, list.extend and set.intersection, not by a
    Python loop, and each vertex's images are gathered once.  The levels are
    disjoint, their union is the set of the vertices reachable from src, and
    the search returns right after the level that settles the last vertex of
    range(n_vertices), without relaxing it.
    """
    columns = [column for column, _w in steps]
    weights = [w for _column, w in steps]
    unsettled = set(range(n_vertices))
    pending: dict[int, list[int]] = {0: [src]}
    heap = [0]
    while heap:
        d = heappop(heap)
        level = unsettled.intersection(pending.pop(d))
        if not level:
            continue  # every vertex pending at d was settled more cheaply
        unsettled -= level
        yield d, level
        if not unsettled:
            return
        for images, w in zip(_images(level, columns), weights):
            bucket = pending.get(d + w)
            if bucket is None:
                bucket = pending[d + w] = []
                heappush(heap, d + w)
            bucket.extend(images)


def _upper_rows(columns) -> Iterator[tuple[int, list[tuple[int, int]]]]:
    """Per vertex u in order, the pairs (v, k) with v = columns[k][u] > u, sorted:
    each edge of an undirected graph whose edges join u to columns[k][u], once."""
    top = len(columns)
    ks = range(top)
    for u, row in enumerate(zip(*columns)):
        pairs = sorted(zip(row, ks))
        yield u, pairs[bisect_right(pairs, (u, top)):]


# ---------------------------------------------------------------------------
# Bruhat graph on W/W_P


def _coset_columns(columns, coset_of, reps) -> list[Table]:
    """Per column c over the vertices, the column u -> the coset of c[reps[u]]
    over the cosets u (the columns themselves when each vertex is a coset).  A
    single coset comes with no column (S_P = S leaves no root of R+ - R+_P, one
    block no swap between blocks), so itemgetter always returns a tuple."""
    if len(reps) == len(coset_of):
        return list(columns)
    at_reps = itemgetter(*reps)
    return [itemgetter(*at_reps(c))(coset_of) for c in columns]


class BruhatGraph:
    """Undirected multigraph on W/W_P; edges carry the reflecting root.

    A view over the group's reflection tables: the coset u is joined to the
    coset of rep(u) * s_alpha for each alpha in R+ - R+_P.  The edge list is
    built on first read."""

    def __init__(self, parabolic: ParabolicData):
        self.parabolic = parabolic

    @property
    def weyl(self) -> WeylGroup:
        return self.parabolic.weyl

    @property
    def n_vertices(self) -> int:
        return self.parabolic.n_cosets

    def _edge_rows(self, roots):
        """The one reader of the edges: (keys, rows), where keys[k] is (roots[k], its
        degree over S - S_P) and rows yields per coset u the edges u -- v, v > u, as
        sorted pairs (v, k).  Distinct roots joining the same cosets stay distinct edges."""
        p = self.parabolic
        cocoeffs = map(self.weyl.rs._cocoeffs.__getitem__, roots)
        keys = [(a, tuple(co[k] for k in p.free_simple)) for a, co in zip(roots, cocoeffs)]
        columns = _coset_columns(map(self.weyl._reflection_table, roots), p.coset_of, p.coset_reps)
        return keys, _upper_rows(columns)

    @cached_property
    def edges(self) -> list[tuple[int, int, int, Degree]]:
        """(u, v, root index, degree over S - S_P) with u < v, sorted."""
        keys, rows = self._edge_rows(self.parabolic.free_roots)
        return [(u, v, *keys[k]) for u, row in rows for v, k in row]


def bruhat_graph(weyl: WeylGroup, parabolic: ParabolicData | None = None) -> BruhatGraph:
    """The Bruhat graph on W/W_P: each torus-invariant curve u -- u*s_alpha mod W_P,
    alpha in R+ - R+_P, once, read from the group's reflection tables."""
    return BruhatGraph(parabolic if parabolic is not None else weyl.parabolic(()))


def min_path_area(parabolic: ParabolicData, lam: Vector, src: int, dst: int) -> Fraction:
    """The exact minimal total area <lam, coroot(alpha)> of a path from coset
    src to coset dst in the Bruhat graph on W/W_P.

    The edges are not materialised: Dijkstra steps from a vertex to the coset
    of rep * s_alpha for each alpha in R+ - R+_P, read from the group's
    reflection tables.  That area is the same from every element of the coset
    only when lam pairs to zero with S_P; any other or non-dominant lam is
    refused, and so is a src or dst that is not a coset index.

    The search runs on the double cosets W_P \\ W / W_P (WeylGroup.double_cosets).
    Left multiplication by any w in W is an automorphism of the weighted graph:
    it takes the edge u W_P -- u s_alpha W_P to w u W_P -- (w u) s_alpha W_P,
    by the same root at the same area.  So the distance from src to dst is
    the distance from e W_P to x W_P, x = rep(src)^-1 rep(dst), walked from e
    through the right tables: rep(src)'s reduced word reversed, then
    rep(dst)'s, and no walk for src = e W_P (x = rep(dst)).  W_P
    fixes e W_P, so the distance from e W_P is constant on each orbit of W_P,
    a double coset W_P x W_P, and every coset of an orbit has, through W_P,
    the edges of the orbit's least coset to the same orbits at the same areas
    (W_P permutes R+ - R+_P and fixes lam).  So a shortest path projects onto
    the orbits, and each path of orbits lifts at its area: the search from e
    W_P's double coset to x's steps from each double coset's minimal-length
    element.  With S_P empty the double cosets are the elements of W."""
    read_count("src", src, 0, parabolic.n_cosets)
    read_count("dst", dst, 0, parabolic.n_cosets)
    weyl = parabolic.weyl
    rs = weyl.rs
    labels, scale = require_dominant(rs, lam, parabolic.s_p)
    steps = [(weyl._reflection_table(a), sum(map(mul, rs._cocoeffs[a], labels)))
             for a in parabolic.free_roots]
    reps = parabolic.coset_reps
    x = reps[dst]
    if src:  # coset 0 is e W_P
        x = weyl.identity_index
        for g in (*reversed(weyl._word(reps[src])), *weyl._word(reps[dst])):
            x = weyl.right[g][x]
    double_of, double_reps = weyl.double_cosets(parabolic)

    def neighbours(u: int) -> list[tuple[int, int]]:
        rep = double_reps[u]
        return [(double_of[t[rep]], w) for t, w in steps]

    d = _dijkstra(len(double_reps), neighbours, double_of[weyl.identity_index], double_of[x])
    if d is None:
        raise ConsistencyError("Bruhat graph is disconnected; this cannot happen for valid input")
    return Fraction(d, scale)


# ---------------------------------------------------------------------------
# Quantum Bruhat graph on W


class QuantumBruhatGraph:
    """Directed graph on W; up-edges carry degree 0, down-edges the coroot.

    A view over the group's reflection tables: u -> u * s_alpha is an edge
    when the length goes up by 1 or down by 2 ht(coroot(alpha)) - 1.  The
    out-lists are built on first read."""

    def __init__(self, weyl: WeylGroup):
        self.weyl = weyl
        self.zero: Degree = (0,) * weyl.rs.rank

    @property
    def n_vertices(self) -> int:
        return len(self.weyl)

    def _edge_rows(self, roots):
        """The one reader of the edges: (keys, rows), where rows yields per element u
        in order its out-edges as pairs (v, code) in the order of roots, and keys[code]
        is the edge's (root, degree): code 2k for the up-edge by roots[k], 2k + 1 for
        its down-edge."""
        weyl = self.weyl
        rs, lengths = weyl.rs, weyl.lengths
        keys = [key for a in roots for key in ((a, self.zero), (a, rs._cocoeffs[a]))]
        tables = [weyl._reflection_table(a) for a in roots]
        steps = list(zip(range(0, 2 * len(roots), 2), [1 - 2 * sum(rs._cocoeffs[a]) for a in roots]))

        def rows():
            for u, (row, lu) in enumerate(zip(zip(*tables), lengths)):
                out = []
                for v, (code, down) in zip(row, steps):
                    step = lengths[v] - lu
                    if step == 1:
                        out.append((v, code))
                    elif step == down:
                        out.append((v, code + 1))
                yield u, out

        return keys, rows()

    @cached_property
    def out(self) -> list[list[tuple[int, int, Degree]]]:
        """Per u, its out-edges (v, root index, degree) in root order."""
        keys, rows = self._edge_rows(self.weyl.rs.positive)
        return [[(v, *keys[c]) for v, c in row] for _u, row in rows]


def quantum_bruhat_graph(weyl: WeylGroup) -> QuantumBruhatGraph:
    return QuantumBruhatGraph(weyl)


def d_min_all(graph: QuantumBruhatGraph, u: int) -> tuple[list[int], list[Degree]]:
    """Shortest directed distances from u, and the common shortest-path degrees.

    The uniqueness of the shortest-path degree is a checked theorem: if two
    shortest paths to any vertex disagree, ConsistencyError is raised.  One
    breadth-first pass checks it: a vertex takes its degree from the edge it is
    first reached by, and every later edge x -> y with dist[y] = dist[x] + 1
    must carry x's degree to the same one.  That is the check of the sets of
    all shortest-path degrees: by induction on the distance, while every
    vertex nearer u has one degree, y's set is the degrees its shortest-path
    edges carry, and it has one element exactly when they all agree.
    """
    read_count("u", u, 0, graph.n_vertices)  # before out, a cached attribute, is built
    n, out, zero = graph.n_vertices, graph.out, graph.zero
    dist = [-1] * n
    dist[u] = 0
    degs: list[Degree] = [zero] * n
    order = [u]
    for x in order:  # the queue grows while it is read
        dy, base = dist[x] + 1, degs[x]
        for y, _a, dd in out[x]:  # an up-edge's degree is the graph's zero itself
            if dist[y] < 0:
                dist[y] = dy
                degs[y] = base if dd is zero else degree_add(base, dd)
                order.append(y)
            elif dist[y] == dy and degs[y] != (base if dd is zero else degree_add(base, dd)):
                raise ConsistencyError(
                    f"shortest paths {u} -> {y} carry distinct degrees {degs[y]} and {degree_add(base, dd)}; "
                    "the shortest-path degree must be unique"
                )
    if len(order) != n:
        raise ConsistencyError("quantum Bruhat graph is not strongly connected from u")
    return dist, degs


def d_min(graph: QuantumBruhatGraph, u: int, v: int) -> tuple[Degree, int]:
    """The common degree and length of all shortest directed paths u -> v."""
    read_count("v", v, 0, graph.n_vertices)
    dist, degs = d_min_all(graph, u)
    return degs[v], dist[v]


# ---------------------------------------------------------------------------
# Weighted Cayley graph of S_n


@lru_cache(maxsize=None)
def _cayley_frame(n: int, blocks: tuple[int, ...]) -> tuple:
    """The frame of W \\ S_n / W, W = S_b1 x ... x S_bk permuting each block of
    consecutive positions, blocks = (b1, ..., bk): the vertex count, the swaps
    (i j) of positions i < j in distinct blocks, and per swap its column, for
    each vertex u the vertex of u * (i j).

    With every block of size 1, W is trivial: the vertices are the
    permutations of S_n in lexicographic order, as itertools emits them (the
    identity first), and every swap has a column.  The permutations
    themselves are not kept; WeightedCayleyGraph.perms lists them again for export.
    Otherwise the vertices are the double cosets W u W, weyl.cosets under the
    S_n columns of the adjacent swaps inside a block, of positions (u -> u *
    (a a+1), which generate the right action of W) and of values (u -> (a a+1)
    * u, the left action; the blocks of values are those of positions).  A
    vertex that is not increasing on a block, or that puts two values of a
    block out of order, has a lexicographically lower image, so a double
    coset's rep is its least vertex, the one with neither descent, which is
    its minimal-length element (Bjorner-Brenti, Combinatorics of Coxeter
    Groups, ch. 2), and the double cosets are numbered in the order of their
    reps, the identity's first.  Built once per (n, blocks): callers check n
    against their cap first."""
    swaps = tuple(itertools.combinations(range(n), 2))
    if max(blocks) == 1:
        perms = list(itertools.permutations(range(n)))
        index = {p: i for i, p in enumerate(perms)}
        # u * (i j) = u * (i i+1) * (i+1 j) * (i i+1): only the adjacent swaps are
        # read off the permutations, each other column is composed from (i+1 j)'s.
        column = {}
        for i in reversed(range(n - 1)):
            a = column[i, i + 1] = tuple(index[p[:i] + (p[i + 1], p[i]) + p[i + 2:]] for p in perms)
            for j in range(i + 2, n):
                column[i, j] = tuple(map(a.__getitem__, map(column[i + 1, j].__getitem__, a)))
        return len(perms), swaps, tuple(column[s] for s in swaps)
    from .weyl import cosets

    n_perms, _swaps, columns = _cayley_frame(n, (1,) * n)
    block_of = [b for b, size in enumerate(blocks) for _ in range(size)]
    inside = [block_of[i] == block_of[j] for i, j in swaps]
    adjacent = [b and j == i + 1 for b, (i, j) in zip(inside, swaps)]
    outside = list(map(not_, inside))
    by_positions = list(itertools.compress(columns, adjacent))
    # (a a+1) * u = (u^-1 * (a a+1))^-1: a value swap's column is its position
    # swap's, read between two inversions.
    inverse = _inverse_column(n)
    at_inverses = itemgetter(*inverse)
    by_values = [itemgetter(*at_inverses(column))(inverse) for column in by_positions]
    coset_of, reps = cosets(n_perms, by_positions + by_values)
    return (len(reps), tuple(itertools.compress(swaps, outside)),
            tuple(_coset_columns(itertools.compress(columns, outside), coset_of, reps)))


@lru_cache(maxsize=None)
def _inverse_column(n: int) -> tuple[int, ...]:
    """Per vertex u of the S_n frame, the vertex of u^-1."""
    perms = list(itertools.permutations(range(n)))
    index = {p: i for i, p in enumerate(perms)}
    positions = range(n)
    return tuple(index[tuple(map(p.index, positions))] for p in perms)


def cayley_bytes(n: int) -> int:
    """An estimate, from n alone, of the peak bytes of a Cayley search of S_n:
    per permutation, 8 for its entry in each of the C(n, 2) swap columns of
    _cayley_frame, and 416 for the rest (the permutation tuples and their
    index while the frame is built, the search's levels, the export's
    tuples).  Peak RSS over the imported package (2-vCPU machine, Python
    3.11) of the largest reader, cayley_distances of cayley_graph: 20.1 MB
    against 24.6 estimated at n = 8, and 209.8 MB against 243.6 at n = 9.
    At n = 9 cayley_diameter peaks at 196-207 MB, with the heap's layout,
    and the JSON export at 202.1 MB.  n = 10 estimates 2,685 MB."""
    return math.factorial(n) * (8 * (n * (n - 1) // 2) + 416)


def _require_cayley_size(n: int, lam: Vector, cap: int) -> None:
    """The checks of n, lam and the cap (limits.read_count, limits.require_size),
    made before any frame is built."""
    n = read_count("n", n, 1)
    # 20! alone is over 2^61, and no factorial of a larger n is taken.
    require_size(f"n = {n}: the Cayley search of S_{n} ({n}! vertices)" if n <= 20 else
                 f"n = {n}: the Cayley search of S_{n} needs more than that of S_20, which",
                 n, cap, cayley_bytes(min(n, 20)))
    if len(lam) != n:
        raise ValidationError(f"lambda has {len(lam)} entries, expected {n}")


def _cayley_levels(n: int, blocks: tuple[int, ...], ints, src: int) -> tuple[int, Iterator]:
    """The vertex count of _cayley_frame(n, blocks) and the settled levels from
    src of its swaps (i j), each weighing |ints_i - ints_j|."""
    n_vertices, swaps, columns = _cayley_frame(n, blocks)
    steps = [(column, abs(ints[i] - ints[j])) for column, (i, j) in zip(columns, swaps)]
    return n_vertices, _settled_levels(n_vertices, steps, src)


_DISCONNECTED = "Cayley graph is disconnected; this cannot happen for valid input"


class WeightedCayleyGraph:
    """The Cayley graph of S_n on all transpositions, a view over the columns of
    _cayley_frame(n, (1,) * n); vertex 0 is the identity.  n, lam and the cap are refused
    before anything is built; the edges and the permutations are built on first read."""

    def __init__(self, n: int, lam, cap: int = DEFAULT_CAYLEY_CAP):
        self.lam = vec(lam, "lambda")
        _require_cayley_size(n, self.lam, cap)
        self.n = n

    @cached_property
    def perms(self) -> tuple[tuple[int, ...], ...]:
        """The vertices as permutations of 1..n in one-line notation, in the frame's order."""
        return tuple(itertools.permutations(range(1, self.n + 1)))

    def _edge_rows(self):
        """The one reader of the edges: (keys, rows), keys[k] being (i, j, |lam_i - lam_j|)
        for the k-th swap of positions i < j, and rows yielding per vertex u the edges
        u -- v, v > u, as sorted pairs (v, k)."""
        _n_vertices, swaps, columns = _cayley_frame(self.n, (1,) * self.n)
        lam = self.lam
        keys = [(i, j, abs(lam[i] - lam[j])) for i, j in swaps]
        return keys, _upper_rows(columns)

    @cached_property
    def edges(self) -> list[tuple[int, int, int, int, Fraction]]:
        """(u, v, i, j, |lam_i - lam_j|) for a swap of positions i < j, u < v, sorted."""
        keys, rows = self._edge_rows()
        return [(u, v, *keys[k]) for u, row in rows for v, k in row]


def cayley_graph(n: int, lam, cap: int = DEFAULT_CAYLEY_CAP) -> WeightedCayleyGraph:
    """The Cayley graph of S_n on all transpositions, weighted by |lam_i - lam_j|."""
    return WeightedCayleyGraph(n, lam, cap)


def cayley_distances(graph: WeightedCayleyGraph, src: int) -> list[Fraction]:
    """Single-source Dijkstra over the weighted Cayley graph; src is a vertex index."""
    n = graph.n
    read_count("src", src, 0, math.factorial(n))
    ints, scale = scaled(graph.lam)
    n_vertices, levels = _cayley_levels(n, (1,) * n, ints, src)
    dist: list = [None] * n_vertices
    for d, level in levels:
        at = Fraction(d, scale)
        for u in level:
            dist[u] = at
    if None in dist:
        raise ConsistencyError(_DISCONNECTED)
    return dist


def cayley_diameter(n: int, lam, cap: int = DEFAULT_CAYLEY_CAP) -> Fraction:
    """max_sigma d(e, sigma); equals the graph diameter by left-invariance.

    The search runs on W_lam \\ S_n / W_lam.  lam's tie blocks are
    consecutive, and lam is relabelled with them by decreasing length, to
    lam' = lam o sigma for a permutation sigma of the positions, so that one
    frame serves each partition of n.  Then u -> sigma^-1 u sigma takes u t
    to (sigma^-1 u sigma)(sigma^-1 t sigma), and sigma^-1 (i j) sigma =
    (sigma^-1(i) sigma^-1(j)) weighs |lam_i - lam_j| under lam': an
    isomorphism of the weighted graphs that fixes e, so the eccentricity of
    e does not change.

    The group W_lam x W_lam acts on S_n by u -> p u q^-1, and each (p, q) is
    an automorphism of the weighted graph: it takes the edge u -- u t to
    p u q^-1 -- (p u q^-1)(q t q^-1), and the swap q t q^-1 weighs what t
    weighs, since q fixes lam'.  It maps the source W_lam, the vertices
    that zero-weight swaps join to e, onto itself.  The orbit graph of an
    automorphism group that fixes the source keeps the source's distances:
    an automorphism g gives d(W_lam, g u) = d(g^-1 W_lam, u) = d(W_lam, u),
    and every vertex of an orbit has, through g, the edges of its orbit's
    rep r to the same orbits at the same weights, so a shortest path
    projects onto the orbits and the orbit graph's paths lift, each at its
    weight.  The orbits are the double cosets W_lam r W_lam, and r's edges
    are its swaps (i j) between blocks: a swap inside a block weighs 0 and
    stays in r's orbit.  Distinct entries give the blocks (1, ..., 1),
    whose frame is S_n itself."""
    lam = vec(lam, "lambda")
    if any(lam[i] < lam[i + 1] for i in range(len(lam) - 1)):
        raise ValidationError("lambda must be sorted in nonincreasing order")
    _require_cayley_size(n, lam, cap)
    ints, scale = scaled(lam)
    runs = sorted((list(run) for _v, run in itertools.groupby(ints)), key=len, reverse=True)
    blocks = tuple(map(len, runs))
    n_vertices, levels = _cayley_levels(n, blocks, list(itertools.chain.from_iterable(runs)), 0)
    settled = 0
    for d, level in levels:  # the identity's coset comes first
        settled += len(level)
    if settled < n_vertices:
        raise ConsistencyError(_DISCONNECTED)
    return Fraction(d, scale)  # the last level's distance


# ---------------------------------------------------------------------------
# Exports
#
# An export is a stream of text chunks, about one per vertex, so the whole
# text is never held at once.  A graph is exported as the payload
#   {"kind", "directed", ..., "vertices": [{"id", "label", ...}, ...],
#    "edges": [{"u", "v", ...}, ...]}
# with edges sorted by u, then v, then their other fields.  The JSON text is
# rootsystem.json_chunks of that payload, byte-identical to
# json.dumps(payload, indent=2, sort_keys=True) + "\n": the vertex text and
# the text of each kind of edge (a root with its degree and area, or a swap
# with its weight) are cut from json.dumps templates (json_item) once per
# export.  The DOT text lists the vertices, then the edges in the same order,
# each labelled with its field values.  One edge loop (_edge_texts) writes
# both formats.


def _dot_value(value) -> str:
    return "(" + ",".join(map(str, value)) + ")" if isinstance(value, list) else str(value)


def _edge_texts(rows, ends: list[str], middle: str, pres: list[str], posts: list[str]):
    """Per row of rows, the texts of its edges, for either format: the edge
    u -- v with key k is pres[k] + left + ends[v] + posts[k], where
    left = ends[u] + middle is built once per row."""
    for u, row in rows:
        left = ends[u] + middle
        yield [pres[key] + left + ends[v] + posts[key] for v, key in row]


def _text_chunks(fmt: str, head: dict, labels: list[str], lengths: list[int] | None,
                 rows, edge_fields: list[dict]) -> Iterator[str]:
    """The export text of a graph whose vertex i has the label labels[i].

    head holds the payload's other members; lengths, when given, is exported
    per vertex.  rows yields (u, [(v, key), ...]) in order of u, each list in
    edge order; edge_fields[key] holds an edge's fields besides u and v, and
    none of them sorts between "u" and "v".
    """
    if fmt == "dot":
        directed = head["directed"]
        posts = ['" [label="' + " / ".join(map(_dot_value, fields.values())) + '"];\n'
                 for fields in edge_fields]
        yield ("digraph " if directed else "graph ") + head["kind"] + " {\n"
        yield "".join(f'  "{label}";\n' for label in labels)
        middle = '" -> "' if directed else '" -- "'
        yield from map("".join, _edge_texts(rows, labels, middle, ['  "'] * len(posts), posts))
        yield "}\n"
        return

    import json

    ids = [str(i) for i in range(len(labels))]
    cut = [json_item(fields, ("u", "v")) for fields in edge_fields]
    edges = _edge_texts(rows, ids, json_item({}, ("u", "v"))[1],
                        [c[0] for c in cut], [c[-1] for c in cut])
    holes = ("id", "label") if lengths is None else ("id", "label", "length")
    first, *parts = json_item({}, holes)
    columns = [ids, map(json.dumps, labels)] + ([] if lengths is None else [map(str, lengths)])
    vertices = ([first + "".join(map(add, values, parts))] for values in zip(*columns))
    yield from json_chunks(head, {"edges": edges, "vertices": vertices})


def _weyl_chunks(graph, fmt: str, lam: Vector | None) -> Iterator[str]:
    """A Bruhat or quantum Bruhat graph, vertex c being the coset or element c.

    Vertices are exported in order of (length, element), which is their own
    order: the enumeration is breadth-first and cosets are numbered by their
    minimal representatives.  Each vertex's edges are read from the tables as
    the export reaches it and sorted within its row.  An edge's key is its
    root and its degree over S - S_P, S_P being empty for the quantum graph.
    Its area, in both graphs, pairs lam's labels on S - S_P with the degree.
    lam pairs to zero with S_P, so a Bruhat edge's area is lam paired with the
    root's coroot.  A lam is refused as min_path_area refuses it.
    """
    weyl = graph.weyl
    rs = weyl.rs
    bruhat = isinstance(graph, BruhatGraph)
    if bruhat:
        p = graph.parabolic
        s_p, free, roots, reps = p.s_p, p.free_simple, p.free_roots, p.coset_reps
        head = {"kind": "bruhat", "s_p": list(s_p), "directed": False}
    else:
        s_p, free, roots, reps = (), range(rs.rank), rs.positive, range(len(weyl))
        head = {"kind": "quantum", "directed": True}
    head.update(family=rs.family, rank=rs.rank)
    if lam is not None:
        dynkin, scale = require_dominant(rs, lam, s_p)
        free_labels = [dynkin[k] for k in free]
    # The edges leaving a vertex sort by v, then by the root's coordinate
    # strings; (u, v, root) never repeats.  So the reader takes the roots in
    # that order, and sorting a row's pairs (v, key) sorts its edges.
    keys, rows = graph._edge_rows(sorted(roots, key=lambda a: vector_strs(rs.roots[a])))
    if not bruhat:
        rows = ((u, sorted(row)) for u, row in rows)
    lengths = [weyl.lengths[w] for w in reps]
    if any(map(ge, zip(lengths, reps), zip(lengths[1:], reps[1:]))):
        raise ConsistencyError("graph vertices are not in order of (length, element)")

    edge_fields = []
    for a, deg in keys:
        fields = {"root": vector_strs(rs.roots[a]), "degree": list(deg)}
        if lam is not None:
            fields["area"] = rational_str(Fraction(sum(map(mul, deg, free_labels)), scale))
        edge_fields.append(fields)

    # Every element is a vertex unless S_P is nonempty; then only the representatives are.
    labels = weyl.word_labels() if len(reps) == len(weyl) else list(map(weyl._word_label, reps))
    return _text_chunks(fmt, head, labels, lengths, rows, edge_fields)


def _cayley_chunks(graph: WeightedCayleyGraph, fmt: str) -> Iterator[str]:
    keys, rows = graph._edge_rows()
    head = {"kind": "cayley", "n": graph.n, "lambda": vector_strs(graph.lam), "directed": False}
    return _text_chunks(
        fmt, head, ["".join(map(str, p)) for p in graph.perms], None, rows,
        [{"swap": [i + 1, j + 1], "weight": rational_str(w)} for i, j, w in keys],
    )


def export_chunks(graph, fmt: str, lam: Vector | None = None) -> Iterator[str]:
    """Serialize a graph as 'json' or 'dot', as a stream of text chunks.

    The arguments are checked before this returns.  The output is
    deterministic, and its chunks joined are export(graph, fmt, lam).
    """
    if not isinstance(graph, (BruhatGraph, QuantumBruhatGraph, WeightedCayleyGraph)):
        raise ValidationError(f"cannot export object of type {type(graph).__name__}")
    if fmt not in ("json", "dot"):
        raise ValidationError(f"unknown export format {fmt!r}; expected 'json' or 'dot'")
    if isinstance(graph, WeightedCayleyGraph):
        if lam is not None:
            raise ValidationError("a Cayley graph is exported with its own lambda; lam must be None")
        return _cayley_chunks(graph, fmt)
    return _weyl_chunks(graph, fmt, lam)


def export(graph, fmt: str, lam: Vector | None = None) -> str:
    """Serialize a graph as 'json' or 'dot'; output is deterministic."""
    return "".join(export_chunks(graph, fmt, lam))
