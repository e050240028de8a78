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
element.  Tables and cosets are built on first use and kept on the group;
the word labels of all elements are read off the breadth-first tree in one
pass.  How many bytes an enumeration and its tables take is estimated
before any is built (enumeration_bytes), so a group over the memory budget
is refused, like one over the element cap, before it allocates.
"""

from __future__ import annotations

from itertools import compress
from operator import eq, itemgetter, not_
from typing import NamedTuple

from . import linalg
from .errors import ConsistencyError, SizeLimitError, ValidationError
from .limits import DEFAULT_GROUP_CAP, GROUP_MEMORY_BUDGET, require_nonnegative_cap
from .rootsystem import RootSystem, key_absolute_length

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
    """An estimate, made before anything is built, of the bytes the enumerated group
    and its |R+| reflection tables take (the most any graph reads).  Per element: its
    key (a tuple of rank ints in a list, 56 + 8 rank), its entry in the enumeration's
    index with the int it maps to (96), its length and parent (72), the rank right
    tables, built as lists and kept as tuples (16 rank), and one entry of 8 per
    reflection table.  E6 measures about 510 bytes per element against 656 estimated."""
    rank = rs.rank
    return rs.weyl_order * (56 + 8 * rank + 96 + 72 + 16 * rank + 8 * len(rs.positive))


def _require_within_cap(rs: RootSystem, cap: int) -> None:
    """SizeLimitError, before any allocation, if the group's enumeration_bytes are
    over limits.GROUP_MEMORY_BUDGET or its order is over the caller's cap."""
    require_nonnegative_cap("cap", cap)
    need = enumeration_bytes(rs)
    if need > GROUP_MEMORY_BUDGET:
        raise SizeLimitError(
            f"{rs.family}{rs.rank}: the Weyl group ({rs.weyl_order:,} elements) and its "
            f"{len(rs.positive)} reflection tables would need about {need >> 20:,} MB, "
            f"over the budget of {GROUP_MEMORY_BUDGET >> 20:,} MB"
        )
    if rs.weyl_order > cap:
        raise SizeLimitError(
            f"Weyl group of {rs.family}{rs.rank} has order {rs.weyl_order:,}, "
            f"over the cap {cap:,}; raise the cap to force enumeration"
        )


def cosets(n: int, generators) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The orbits of range(n) under the generators, each a table v -> t[v], as
    (coset_of, reps): reps lists each orbit's least vertex in increasing order,
    and coset_of[v] is the position in reps of v's orbit.

    Each vertex steps to the least of itself and its images, and that map is
    composed with itself until it stops changing, in C-level passes.  When every
    vertex but an orbit's least has a lower image, as one with a descent in S_P
    has in the breadth-first order of W (Bjorner-Brenti, Combinatorics of
    Coxeter Groups, ch. 2), or one with a descent on a block of positions or
    of values in the lexicographic order of S_n, the passes end at that least
    vertex, the minimal-length representative.  Any other end is refused:
    ConsistencyError unless every generator maps each vertex into its own
    coset."""
    vertices = range(n)
    if not generators:
        return tuple(vertices), tuple(vertices)
    rep_of = list(map(min, vertices, *generators))
    while (rep_of_rep := list(map(rep_of.__getitem__, rep_of))) != rep_of:
        rep_of = rep_of_rep
    if any(list(map(rep_of.__getitem__, t)) != rep_of for t in generators):
        raise ConsistencyError("coset data broken: a generator maps a vertex out of its coset")
    reps = tuple(compress(vertices, map(eq, rep_of, vertices)))
    return tuple(map(dict(zip(reps, vertices)).__getitem__, rep_of)), reps


class ParabolicData(NamedTuple):
    """Coset structure of W/W_P for a subset S_P of the simple roots.

    Built once per S_P and shared by every caller, so it is immutable."""

    weyl: "WeylGroup"
    s_p: tuple[int, ...]            # positions into the simple-root list
    free_simple: tuple[int, ...]    # complementary positions, in order
    rp_plus: tuple[int, ...]        # positive root indices lying in Z*S_P
    free_roots: tuple[int, ...]     # R+ - R+_P, in root order: the Bruhat graph's roots
    wp_elements: frozenset[int]
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
        for r in sorted(rs.positive, key=lambda r: sum(rs.signed_coefficients(r))):
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
        self.simple_elements = tuple(row[0] for row in right)
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
        self._parabolics: dict[tuple[int, ...], ParabolicData] = {}

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
        out: list[int] = []
        while i != 0:
            parent, g = self.parents[i]
            out.append(g)
            i = parent
        return tuple(reversed(out))

    def word_label(self, i: int) -> str:
        w = self.word(i)
        return "e" if not w else " ".join(f"s{g + 1}" for g in w)

    def word_labels(self) -> list[str]:
        """word_label(i) for every element i, in one pass over the BFS tree: a
        child's label is its parent's with one more generator."""
        labels = ["e"]
        for parent, g in self.parents[1:]:
            labels.append(f"{labels[parent]} s{g + 1}" if parent else f"s{g + 1}")
        return labels

    def reflection(self, root_idx: int) -> int:
        """Element index of the reflection s_alpha for a positive root index."""
        return self.reflection_table(root_idx)[self.identity_index]

    def reflection_table(self, root_idx: int) -> Table:
        """The table u -> u * s_alpha over all elements u, for a positive root alpha.

        A simple root's table comes from the enumeration.  Any other alpha
        has a simple root alpha_i with beta = s_i(alpha) positive and lower,
        and u s_alpha = ((u s_i) s_beta) s_i: one pass over W per root.
        Cached on the group.
        """
        table = self._reflection_tables.get(root_idx)
        if table is not None:
            return table
        rs = self.rs
        rs._require_positive(root_idx)
        if root_idx in rs.simple:
            table = self.right[rs.simple.index(root_idx)]
        else:
            g, beta = self._lower(root_idx)
            ri, tb = self.right[g], self.reflection_table(beta)
            table = tuple(map(ri.__getitem__, map(tb.__getitem__, ri)))
        self._reflection_tables[root_idx] = table
        return table

    def _lower(self, root_idx: int) -> tuple[int, int]:
        """A simple position g and beta = s_g(alpha), positive and lower than alpha,
        for a positive root alpha that is not simple."""
        rs = self.rs
        height = sum(rs.signed_coefficients(root_idx))
        return next((g, beta) for g, beta in enumerate(self._refl[s][root_idx] for s in rs.simple)
                    if sum(rs.signed_coefficients(beta)) < height)

    # -- geometry -------------------------------------------------------------

    def absolute_length(self, i: int) -> int:
        """Minimal number of arbitrary reflections expressing element i."""
        return key_absolute_length(self.rs, self.keys[i])

    # -- parabolic quotients ----------------------------------------------------

    def parabolic(self, s_p: tuple[int, ...] | list[int]) -> ParabolicData:
        """Coset data for W/W_P, where S_P is given by simple-root positions:
        the cosets of cosets() under the right tables of S_P, checked to number
        |W| / |W_P|.  Built once per S_P and cached on the group."""
        rs = self.rs
        sp = tuple(sorted(set(s_p)))
        got = self._parabolics.get(sp)
        if got is not None:
            return got
        if any(k < 0 or k >= rs.rank for k in sp):
            raise ValidationError(f"S_P positions {sp} out of range for rank {rs.rank}")
        free = tuple(k for k in range(rs.rank) if k not in sp)

        rp_plus = tuple(
            i for i in rs.positive
            if all(c == 0 for k, c in enumerate(rs.signed_coefficients(i)) if k in free)
        )
        rp = set(rp_plus)

        coset_of, reps = cosets(len(self), [self.right[k] for k in sp])
        wp = frozenset(compress(range(len(self)), map(not_, coset_of)))  # the identity's coset
        if len(reps) * len(wp) != len(self):
            raise ConsistencyError(
                f"parabolic data broken: {len(reps)} cosets x |W_P|={len(wp)} != |W|={len(self)}"
            )
        got = self._parabolics[sp] = ParabolicData(
            weyl=self,
            s_p=sp,
            free_simple=free,
            rp_plus=rp_plus,
            free_roots=tuple(a for a in rs.positive if a not in rp),
            wp_elements=wp,
            coset_of=coset_of,
            coset_reps=reps,
        )
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
