"""Weyl groups, enumerated once, with right-multiplication tables.

Each element is encoded only by its key, the root indices of the images of
the `rank` simple roots, which determine it.  The breadth-first enumeration
derives the key of u * s_i from that of u for the ascents only, the s_i with
u(alpha_i) > 0, and keeps u * s_i for every element u and simple reflection
s_i as the table right[i] (Casselman, Computation in Coxeter groups I, EJC 9,
2002): s_i is an involution, so each ascent u -- u * s_i fills right[i] at
both ends, and no descent is looked up.  The table u -> u * s_alpha of any
positive root follows in one pass over W.  No element keeps a root
permutation: only the |R+| reflections do, each conjugated from one of
lower height.  The graphs are views over these tables: each reads a
vertex's edges from them when it is needed, and none copies them into an
edge list for an export.  The cosets of W/W_P come from cosets(), the one
coset pass, which graphs also runs for the double cosets W_lambda \\ S_n /
W_lambda: each element steps down the tables of S_P until it has no descent
there, which in the breadth-first order ends at its coset's minimal-length
element.  The double cosets W_P \\ W / W_P, which min_path_area searches,
come from the same pass over S_P's right tables and its left tables
u -> s_k * u, one per k in S_P: each is one pass along the breadth-first
parents, certified against the right tables when it is built.  Tables, cosets
and double cosets are built on first use and kept on the group; the word
labels of all elements are read off the breadth-first tree in one pass.  The
cap and the memory budget (enumeration_bytes) are checked through limits, as
README's guarantees state, before anything is built, and so is each index a
public method takes; the package calls the unchecked _word and _reflection_table.
"""

from __future__ import annotations

from itertools import compress
from operator import eq, itemgetter
from typing import NamedTuple

from . import linalg
from .errors import ConsistencyError
from .limits import DEFAULT_GROUP_CAP, read_count, read_items, require_size
from .rootsystem import RootSystem

Key = tuple[int, ...]  # root indices of the images of the simple roots
Table = tuple[int, ...]  # entry u is the index of u * s for one reflection s


def stated_longest_map(family: str, rank: int):
    """The ambient-space action of w0 where it has a simple closed form.

    Returns a vector -> vector callable, or None when no closed form is
    carried (E6, G2 act as minus-identity only on the root span).
    """
    fam = family.upper()
    if fam in ("B", "C", "F") or (fam, rank) == ("E", 8) or (fam == "D" and rank % 2 == 0):
        return linalg.neg
    if fam == "D":  # odd rank: last coordinate keeps its sign
        return lambda v: tuple(-x for x in v[:-1]) + (v[-1],)
    if (fam, rank) == ("E", 7):
        return lambda v: tuple(-x for x in v[:6]) + (v[7], v[6])
    if fam == "A":
        return lambda v: tuple(reversed(v))
    return None


def enumeration_bytes(rs: RootSystem) -> int:
    """An estimate, made before anything is built, of the peak bytes of the
    enumerated group, its |R+| reflection tables (the most any graph reads) and
    a graph export over them.  Per element: its key (a tuple of rank ints in a
    list, 56 + 8 rank), its entry in the enumeration's index with the int it
    maps to (96), its length and parent (72), the rank right tables, built as
    lists and kept as tuples (16 rank), one entry of 8 per reflection table, and
    192 + 2 |R+| for the export: the element's word label (a str of 3
    characters per letter, |R+| / 2 letters on average), the int objects of its
    index, and the per-vertex text.  Peak RSS of `graph bruhat --format json`
    (2-vCPU machine, Python 3.11) against the estimate: A8 308 MB against 335,
    B7 603 against 661, and E6 58 against 46, of which 16 are the import floor:
    42 MB, 849 bytes per element, against 920 estimated."""
    rank, n_pos = rs.rank, len(rs.positive)
    return rs.weyl_order * (56 + 8 * rank + 96 + 72 + 16 * rank + 8 * n_pos + 192 + 2 * n_pos)


def _require_within_cap(rs: RootSystem, cap: int) -> None:
    """limits.require_size for the group, before any allocation."""
    require_size(f"{rs.family}{rs.rank}: the Weyl group ({rs.weyl_order:,} elements)",
                 rs.weyl_order, cap, enumeration_bytes(rs))


def cosets(n: int, generators) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The orbits of range(n) under the generators, each a table v -> t[v], as
    (coset_of, reps): reps lists each orbit's least vertex in increasing order,
    and coset_of[v] is the position in reps of v's orbit.

    Each vertex steps to the least of itself and its images, and that map is
    composed with itself until it stops changing, in C-level passes.  When every
    vertex but an orbit's least has a lower image, as one with a descent in S_P
    (on the right, or on either side for the double cosets) has in the
    breadth-first order of W (Bjorner-Brenti, Combinatorics of Coxeter Groups,
    ch. 2), or one with a descent on a block of positions or of values in the
    lexicographic order of S_n, the passes end at that least vertex, the
    minimal-length representative.  Any other end is refused: ConsistencyError
    unless every generator maps each vertex into its own coset."""
    vertices = range(n)
    if not generators:
        return tuple(vertices), tuple(vertices)
    rep_of = list(map(min, vertices, *generators))
    while (rep_of_rep := list(map(rep_of.__getitem__, rep_of))) != rep_of:
        rep_of = rep_of_rep
    rep_of = tuple(rep_of)  # rep_of o t, one itemgetter read (a bare entry for one key)
    composed = (lambda t: itemgetter(*t)(rep_of)) if n > 1 else lambda t: (rep_of[t[0]],)
    if any(composed(t) != rep_of for t in generators):
        raise ConsistencyError("coset data broken: a generator maps a vertex out of its coset")
    reps = tuple(compress(vertices, map(eq, rep_of, vertices)))
    return tuple(map(dict(zip(reps, vertices)).__getitem__, rep_of)), reps


class ParabolicData(NamedTuple):
    """Coset structure of W/W_P for a subset S_P of the simple roots.

    Built once per S_P and shared by every caller, so it is immutable."""

    weyl: "WeylGroup"
    s_p: tuple[int, ...]            # positions into the simple-root list
    free_simple: tuple[int, ...]    # complementary positions, in order
    free_roots: tuple[int, ...]     # R+ - R+_P, in root order: the Bruhat graph's roots
    coset_of: tuple[int, ...]       # element index -> coset index
    coset_reps: tuple[int, ...]     # coset index -> minimal-length element

    @property
    def n_cosets(self) -> int:
        return len(self.coset_reps)


class WeylGroup:
    """A fully enumerated Weyl group with its right-multiplication tables."""

    def __init__(self, rs: RootSystem, cap: int = DEFAULT_GROUP_CAP):
        _require_within_cap(rs, cap)
        self.rs = rs
        order, is_positive = rs.weyl_order, rs.is_positive
        # s_alpha = s_g s_beta s_g for beta = s_g(alpha): each reflection's root permutation is
        # two passes over a lower one's, in increasing height from the simple reflections.
        refl = self._refl = {s: rs.reflection_perm(s) for s in rs.simple}
        for r in sorted(rs.positive, key=lambda r: sum(rs._coeffs[r])):
            if r not in refl:
                g, beta = self._lower(r)
                sg = refl[rs.simple[g]]
                refl[r] = tuple(map(sg.__getitem__, map(refl[beta].__getitem__, sg)))
        keys: list[Key] = [rs.simple]
        index: dict[Key, int] = {rs.simple: 0}
        lengths = [0]
        parents: list[tuple[int, int]] = [(-1, -1)]
        right: list[list[int]] = [[0] * order for _ in rs.simple]
        # u s_g u^-1 is the reflection in u(alpha_g), so u * s_g sends alpha_k
        # to that reflection of u(alpha_k): the key of u * s_g is the entries
        # of that reflection at u's key, read by one itemgetter per element
        # (which returns a bare entry, not a tuple, for a single key).
        # Breadth-first, for the ascents g (u(alpha_g) > 0) only: s_g is an involution,
        # so the edge u -- u * s_g fills right[g] at both ends.  The tables are sized
        # by the order (at most the cap); an element past it is refused unwritten.
        for wi, key in enumerate(keys):
            at_key = itemgetter(*key) if len(key) > 1 else lambda perm, k=key[0]: (perm[k],)
            for g, row in enumerate(right):
                r = key[g]
                if is_positive[r]:
                    child = at_key(refl[r])
                    j = index.get(child)
                    if j is None:
                        j = index[child] = len(keys)
                        if j >= order:
                            raise ConsistencyError(
                                f"{rs.family}{rs.rank}: enumerated over {order} elements, expected {order}")
                        keys.append(child)
                        lengths.append(lengths[wi] + 1)
                        parents.append((wi, g))
                    row[wi] = j
                    row[j] = wi
        if len(keys) != order:
            raise ConsistencyError(f"{rs.family}{rs.rank}: enumerated {len(keys)} elements, expected {order}")
        self.keys = keys  # element index -> key
        self.lengths = lengths
        self.parents = parents
        self.identity_index = 0
        self.right: tuple[Table, ...] = tuple(map(tuple, right))

        top = max(lengths)
        longest = [i for i, l in enumerate(lengths) if l == top]
        if len(longest) != 1:
            raise ConsistencyError(f"{rs.family}{rs.rank}: longest element is not unique")
        self.longest_index = longest[0]
        if top != len(rs.positive):
            raise ConsistencyError(
                f"{rs.family}{rs.rank}: l(w0) = {top} but |R+| = {len(rs.positive)}"
            )
        self._verify_longest_map()

        self._reflection_tables: dict[int, Table] = {}
        self._left_tables: dict[int, Table] = {}
        self._parabolics: dict[tuple[int, ...], ParabolicData] = {}
        self._double_cosets: dict[tuple[int, ...], tuple[tuple[int, ...], tuple[int, ...]]] = {}

    # -- construction helpers ------------------------------------------------

    def _verify_longest_map(self) -> None:
        """w0 and its stated map are linear, so agreeing on the simple roots
        they agree on every root."""
        rs = self.rs
        stated = stated_longest_map(rs.family, rs.rank)
        if stated is None:
            return
        for s, image in zip(rs.simple, self.keys[self.longest_index]):
            if rs.find(stated(rs.roots[s])) != image:
                raise ConsistencyError(
                    f"{rs.family}{rs.rank}: w0 does not act as its stated ambient map"
                )

    # -- group structure ------------------------------------------------------

    def __len__(self) -> int:
        return len(self.keys)

    def word(self, i: int) -> tuple[int, ...]:
        """A reduced word for element i (simple-root positions, from the BFS tree)."""
        return self._word(read_count("i", i, 0, len(self)))

    def _word(self, i: int) -> tuple[int, ...]:
        out: list[int] = []
        while i != 0:
            parent, g = self.parents[i]
            out.append(g)
            i = parent
        return tuple(reversed(out))

    def word_label(self, i: int) -> str:
        return self._word_label(read_count("i", i, 0, len(self)))

    def _word_label(self, i: int) -> str:
        return " ".join(f"s{g + 1}" for g in self._word(i)) or "e"

    def word_labels(self) -> list[str]:
        """word_label(i) for every element i, in one pass over the BFS tree: a
        child's label is its parent's with one more generator."""
        labels = ["e"]
        for parent, g in self.parents[1:]:
            labels.append(f"{labels[parent]} s{g + 1}" if parent else f"s{g + 1}")
        return labels

    def reflection_table(self, root_idx: int) -> Table:
        """The table u -> u * s_alpha over all elements u, for a positive root alpha.

        A simple root's table comes from the enumeration.  Any other alpha
        has a simple root alpha_i with beta = s_i(alpha) positive and lower,
        and u s_alpha = ((u s_i) s_beta) s_i: one pass over W per root.
        Cached on the group.
        """
        return self._reflection_table(self.rs._index("root_idx", root_idx, positive=True))

    def _reflection_table(self, root_idx: int) -> Table:
        table = self._reflection_tables.get(root_idx)
        if table is not None:
            return table
        rs = self.rs
        if root_idx in rs.simple:
            table = self.right[rs.simple.index(root_idx)]
        else:
            g, beta = self._lower(root_idx)
            ri, tb = self.right[g], self._reflection_table(beta)
            table = tuple(map(ri.__getitem__, map(tb.__getitem__, ri)))
        self._reflection_tables[root_idx] = table
        return table

    def _lower(self, root_idx: int) -> tuple[int, int]:
        """A simple position g and beta = s_g(alpha), positive and lower than alpha,
        for a positive root alpha that is not simple."""
        rs = self.rs
        height = sum(rs._coeffs[root_idx])
        return next((g, beta) for g, beta in enumerate(self._refl[s][root_idx] for s in rs.simple)
                    if sum(rs._coeffs[beta]) < height)

    # -- parabolic quotients ----------------------------------------------------

    def parabolic(self, s_p: tuple[int, ...] | list[int]) -> ParabolicData:
        """Coset data for W/W_P, where S_P is given by simple-root positions:
        the cosets of cosets() under the right tables of S_P, checked to number
        |W| / |W_P|.  Built once per S_P and cached on the group."""
        rs = self.rs
        sp = tuple(sorted({read_count("S_P position", k, 0, rs.rank) for k in read_items("S_P", s_p)}))
        got = self._parabolics.get(sp)
        if got is not None:
            return got
        free = tuple(k for k in range(rs.rank) if k not in sp)

        coset_of, reps = cosets(len(self), [self.right[k] for k in sp])
        wp = coset_of.count(0)  # |W_P|, the size of the identity's coset
        if len(reps) * wp != len(self):
            raise ConsistencyError(
                f"parabolic data broken: {len(reps)} cosets x |W_P|={wp} != |W|={len(self)}"
            )
        got = self._parabolics[sp] = ParabolicData(
            weyl=self,
            s_p=sp,
            free_simple=free,
            free_roots=tuple(a for a in rs.positive  # those with support off S_P
                             if any(map(rs._coeffs[a].__getitem__, free))),
            coset_of=coset_of,
            coset_reps=reps,
        )
        return got

    def left_table(self, k: int) -> Table:
        """The table u -> s_k * u over all elements u, for a simple position k.

        One pass along the breadth-first tree (_left_pass): s_k * (v s_g) =
        (s_k * v) s_g, so each element's entry is its parent's times one simple
        reflection.  Certified when built: L(e) = s_k and L commutes with every
        right table, so L(u) = L(e) u for every u, a product of simple
        reflections on the right of e; ConsistencyError naming the type and s_k
        otherwise.  Cached on the group."""
        k = read_count("simple position", k, 0, self.rs.rank)
        table = self._left_tables.get(k)
        if table is None:
            table, right, e = self._left_pass(k), self.right, self.identity_index
            after = itemgetter(*table)  # t -> t o L; |W| > 1 keys
            if table[e] != right[k][e] or any(after(t) != itemgetter(*t)(table) for t in right):
                raise ConsistencyError(f"{self.rs.family}{self.rs.rank}: the left table of s{k + 1} is broken")
            self._left_tables[k] = table
        return table

    def _left_pass(self, k: int) -> Table:
        """left_table's pass, apart from its certificate, where a fault can be planted."""
        right = self.right
        left = [right[k][self.identity_index]]
        for parent, g in self.parents[1:]:
            left.append(right[g][left[parent]])
        return tuple(left)

    def double_cosets(self, parabolic: ParabolicData) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """W_P \\ W / W_P as (double_of, double_reps): double_of maps each element
        to its double coset, and double_reps each double coset to its
        minimal-length element, in increasing order.  They are cosets() of W
        under S_P's right tables and its left tables (left_table).  An element
        with no descent in S_P on either side is the minimal-length element of
        its double coset (Billey-Konvalinka-Petersen-Slofstra-Tenner, Parabolic
        double cosets in Coxeter groups, EJC 25 (2018)), so any other element
        has a shorter image, a lower one in the breadth-first order, under one
        of those tables, and the pass ends at that minimal element, as it does
        in graphs._cayley_frame.  S_P empty gives the cosets themselves, the
        elements of W, with no pass.  Built once per S_P and cached on the group."""
        sp = parabolic.s_p
        got = self._double_cosets.get(sp)
        if got is None:
            got = self._double_cosets[sp] = (
                cosets(len(self), [self.right[k] for k in sp] + [self.left_table(k) for k in sp])
                if sp else (parabolic.coset_of, parabolic.coset_reps))
        return got


_GROUP_CACHE: dict[tuple[str, int], WeylGroup] = {}


def generate(rs: RootSystem, cap: int = DEFAULT_GROUP_CAP) -> WeylGroup:
    """Enumerate (and cache) the Weyl group of a root system.

    Root indexing is canonical, so the cached group is valid for any
    RootSystem instance of the same type.
    """
    _require_within_cap(rs, cap)
    key = (rs.family, rs.rank)
    got = _GROUP_CACHE.get(key)
    if got is None:
        got = _GROUP_CACHE[key] = WeylGroup(rs, cap)
    return got
