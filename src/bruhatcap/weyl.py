"""Weyl groups as permutation groups acting on the root set.

Elements are stored as permutations of the canonical root indices (the
array maps root index -> image root index), so multiplication is array
composition and inversion sets read off directly.  The generators are the
integer reflection permutations of the root system; the action on the root
span, in the simple-root basis, is read off the images of the simple roots.
The cosets of W/W_P are the orbits w W_P, taken in the breadth-first order
of the enumeration, so each opens at its minimal-length representative.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from fractions import Fraction

from . import linalg
from .errors import ConsistencyError, SizeLimitError, ValidationError
from .rootsystem import RootSystem

DEFAULT_GROUP_CAP = 10_000_000

Perm = tuple[int, ...]


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


def perm_absolute_length(rs: RootSystem, perm: Perm) -> int:
    """Minimal number of reflections whose product acts as the root permutation perm.

    Computed as the codimension of the fixed subspace inside the root span:
    the rank of M - I, where the columns of M are the simple-root
    coefficients of the images of the simple roots.
    """
    cols = [rs.signed_coefficients(perm[s]) for s in rs.simple]
    return linalg.rank([
        [Fraction(cols[j][k] - (j == k)) for j in range(rs.rank)] for k in range(rs.rank)
    ])


def _require_within_cap(rs: RootSystem, cap: int) -> None:
    if rs.weyl_order > cap:
        raise SizeLimitError(
            f"Weyl group of {rs.family}{rs.rank} has order {rs.weyl_order:,}, "
            f"over the cap {cap:,}; raise the cap to force enumeration"
        )


@dataclass
class ParabolicData:
    """Coset structure of W/W_P for a subset S_P of the simple roots."""

    weyl: "WeylGroup"
    s_p: tuple[int, ...]            # positions into the simple-root list
    free_simple: tuple[int, ...]    # complementary positions, in order
    rp_plus: tuple[int, ...]        # positive root indices lying in Z*S_P
    wp_elements: frozenset[int]
    coset_of: tuple[int, ...]       # element index -> coset index
    coset_reps: tuple[int, ...]     # coset index -> minimal-length element

    @property
    def n_cosets(self) -> int:
        return len(self.coset_reps)


class WeylGroup:
    """A fully enumerated Weyl group with a multiplication oracle."""

    def __init__(self, rs: RootSystem, cap: int = DEFAULT_GROUP_CAP):
        _require_within_cap(rs, cap)
        self.rs = rs
        n_roots = len(rs.roots)
        gens = [rs.reflection_perm(i) for i in rs.simple]
        identity: Perm = tuple(range(n_roots))
        perms: list[Perm] = [identity]
        index: dict[Perm, int] = {identity: 0}
        lengths = [0]
        parents: list[tuple[int, int]] = [(-1, -1)]
        queue: deque[int] = deque([0])
        while queue:
            wi = queue.popleft()
            wp = perms[wi]
            for g, gp in enumerate(gens):
                new = tuple(wp[k] for k in gp)
                if new not in index:
                    index[new] = len(perms)
                    perms.append(new)
                    lengths.append(lengths[wi] + 1)
                    parents.append((wi, g))
                    queue.append(index[new])
                    if len(perms) > cap:
                        raise SizeLimitError(f"{rs.family}{rs.rank}: enumeration exceeded cap {cap:,}")
        if len(perms) != rs.weyl_order:
            raise ConsistencyError(
                f"{rs.family}{rs.rank}: enumerated {len(perms)} elements, expected {rs.weyl_order}"
            )
        self.perms = perms
        self.index = index
        self.lengths = lengths
        self.parents = parents
        self.identity_index = 0
        self.simple_elements = tuple(index[g] for g in gens)

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

        self._reflections: dict[int, int] = {}
        self._abs_len: dict[int, int] = {}

    # -- construction helpers ------------------------------------------------

    def _verify_longest_map(self) -> None:
        stated = stated_longest_map(self.rs.family, self.rs.rank)
        if stated is None:
            return
        perm = self.perms[self.longest_index]
        for j, root in enumerate(self.rs.roots):
            if self.rs.index[stated(root)] != perm[j]:
                raise ConsistencyError(
                    f"{self.rs.family}{self.rs.rank}: w0 does not act as its stated ambient map"
                )

    # -- group structure ------------------------------------------------------

    def __len__(self) -> int:
        return len(self.perms)

    def compose(self, i: int, j: int) -> int:
        """Index of w_i * w_j (apply w_j first)."""
        pi, pj = self.perms[i], self.perms[j]
        return self.index[tuple(pi[k] for k in pj)]

    def inverse(self, i: int) -> int:
        p = self.perms[i]
        inv = [0] * len(p)
        for a, b in enumerate(p):
            inv[b] = a
        return self.index[tuple(inv)]

    def length(self, i: int) -> int:
        return self.lengths[i]

    def inversion_count(self, i: int) -> int:
        """|{beta in R+ : w(beta) < 0}|."""
        p = self.perms[i]
        pos = self.rs.is_positive
        return sum(1 for b in self.rs.positive if not pos[p[b]])

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

    def reflection(self, root_idx: int) -> int:
        """Element index of the reflection s_alpha for a positive root index."""
        self.rs._require_positive(root_idx)
        if root_idx not in self._reflections:
            self._reflections[root_idx] = self.index[self.rs.reflection_perm(root_idx)]
        return self._reflections[root_idx]

    def longest_element(self) -> int:
        return self.longest_index

    # -- geometry -------------------------------------------------------------

    def absolute_length(self, i: int) -> int:
        """Minimal number of arbitrary reflections expressing element i."""
        if i not in self._abs_len:
            self._abs_len[i] = perm_absolute_length(self.rs, self.perms[i])
        return self._abs_len[i]

    # -- parabolic quotients ----------------------------------------------------

    def parabolic(self, s_p: tuple[int, ...] | list[int]) -> ParabolicData:
        """Coset data for W/W_P, where S_P is given by simple-root positions."""
        rs = self.rs
        sp = tuple(sorted(set(s_p)))
        if any(k < 0 or k >= rs.rank for k in sp):
            raise ValidationError(f"S_P positions {sp} out of range for rank {rs.rank}")
        free = tuple(k for k in range(rs.rank) if k not in sp)

        gens = [self.simple_elements[k] for k in sp]
        wp = {0}
        queue = deque([0])
        while queue:
            w = queue.popleft()
            for g in gens:
                x = self.compose(w, g)
                if x not in wp:
                    wp.add(x)
                    queue.append(x)

        rp_plus = tuple(
            i for i in rs.positive
            if all(c == 0 for k, c in enumerate(rs.signed_coefficients(i)) if k in free)
        )

        # Cosets are the orbits w W_P.  In BFS order lengths never decrease, so
        # the element that opens a coset is its minimal-length representative.
        coset_of = [-1] * len(self.perms)
        coset_reps: list[int] = []
        for w in range(len(self.perms)):
            if coset_of[w] >= 0:
                continue
            cid = len(coset_reps)
            coset_reps.append(w)
            for x in wp:
                wx = self.compose(w, x)
                if coset_of[wx] >= 0:
                    raise ConsistencyError(
                        f"parabolic data broken: cosets {coset_of[wx]} and {cid} overlap")
                coset_of[wx] = cid

        if len(coset_reps) * len(wp) != len(self.perms):
            raise ConsistencyError(
                f"parabolic data broken: {len(coset_reps)} cosets x |W_P|={len(wp)} != |W|={len(self.perms)}"
            )
        return ParabolicData(
            weyl=self,
            s_p=sp,
            free_simple=free,
            rp_plus=rp_plus,
            wp_elements=frozenset(wp),
            coset_of=tuple(coset_of),
            coset_reps=tuple(coset_reps),
        )


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
