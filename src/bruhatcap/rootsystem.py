"""Simple root systems over an exact integer kernel.

Each root is an integer coefficient vector over the simple roots.  The
positive roots are generated by closing the simple roots under the simple
reflections s_i(beta) = beta - <beta, coroot(alpha_i)> alpha_i that keep them
positive, with every pairing read off the integer Cartan matrix (Humphreys,
Reflection Groups and Coxeter Groups, sections 1 and 2.9).  s_i permutes the
positive roots other than alpha_i, so an image there with a negative
coefficient is a root of mixed sign, and refused.  The negative roots are
the negations.  The coroot coefficients c_k^vee = c_k |alpha_k|^2 / |alpha|^2
are carried through the same closure, once per positive root: s_i keeps a
root's norm and moves c_i^vee by <alpha_i, coroot(beta)>.  When all simple
roots have one length every root has it, and the coroot coefficients are the
root coefficients.  Each reflection is, on demand, a permutation of root
indices.  A weight is read once, as its Dynkin labels <lam, coroot(alpha_k)>
over one common denominator (RootSystem.scaled_labels); its pairing with any
root is then an integer sum over the coroot coefficients.  The checks of a
weight sit beside that reading (require_dominant, checked_weight,
parabolic_positions), so a graph export checks one without the bounds module.
A public method reads an index by limits.read_count, a vector by linalg.vec
and one dimension check (_index, _vector); the package reads the private
tuples and forms.  The build is integer too: the Gram and Cartan matrices,
each root's ambient vector, and the fundamental weights are integer sums over
the simple roots scaled to integer rows over one denominator.  Fractions are made once per root coordinate, for
input, output and the closed-form table; roots are indexed in lexicographic
order.  The dual basis and the projection onto the root span read the same
rows.

Coordinate conventions per type (the ones in which all closed-form bounds
are stated):

* A_n: ambient R^{n+1}, simple roots e_i - e_{i+1};
* B_n: ambient R^n, roots {+-e_i, +-e_j +- e_k}, last simple root e_n;
* C_n: ambient R^n, roots {+-2e_i, +-e_j +- e_k}, last simple root 2e_n;
* D_n: ambient R^n, roots {+-e_j +- e_k}, last simple root e_{n-1}+e_n;
* E6/E7/E8: ambient R^8, the first 6/7/8 of the standard E8 simple roots;
* F4: ambient R^4; G2: ambient R^3, root plane {x : x_1+x_2+x_3 = 0}.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property, lru_cache
from math import factorial, gcd, lcm
from operator import lt, mul, neg, sub
from typing import Iterator

from . import linalg
from .errors import ConsistencyError, SizeLimitError, ValidationError
from .limits import MAX_RANK, read_count
from .linalg import Vector, vec

HALF = Fraction(1, 2)

_E8_SIMPLE: list[Vector] = [
    (HALF, -HALF, -HALF, -HALF, -HALF, -HALF, -HALF, HALF),
    vec([1, 1, 0, 0, 0, 0, 0, 0]),
    vec([-1, 1, 0, 0, 0, 0, 0, 0]),
] + [vec([0] * (k + 1) + [-1, 1] + [0] * (5 - k)) for k in range(5)]


def _chain(dim: int, count: int) -> list[Vector]:
    """e_i - e_{i+1} in R^dim for the first `count` positions i."""
    return [vec([0] * i + [1, -1] + [0] * (dim - i - 2)) for i in range(count)]


def _read_type(family: str, rank) -> tuple[str, int]:
    """The family's letter, which must be a str, and the rank, read as a count
    (limits.read_count), refused over MAX_RANK, and refused where the family
    has no such rank."""
    if not isinstance(family, str):
        raise ValidationError(f"family must be a str, got {family!r}")
    fam = family.upper()
    rank = read_count("rank", rank, 1)
    if rank > MAX_RANK:
        raise SizeLimitError(f"rank {rank} is over the limit {MAX_RANK}")
    if len(fam) != 1 or fam not in "ABCDEFG":
        raise ValidationError(f"unknown family {family!r}; expected one of A, B, C, D, E, F, G")
    least = {"B": 2, "C": 2, "D": 3}.get(fam, 1)
    if rank < least:
        raise ValidationError(f"type {fam} requires rank >= {least}")
    only = {"E": (6, 7, 8), "F": (4,), "G": (2,)}.get(fam, (rank,))
    if rank not in only:
        raise ValidationError(f"type {fam} exists only for {'ranks' if len(only) > 1 else 'rank'} "
                              f"{', '.join(map(str, only))}")
    return fam, rank


def simple_root_vectors(family: str, rank: int) -> list[Vector]:
    """Simple roots of the chosen type in the standard realization."""
    fam, rank = _read_type(family, rank)
    if fam == "A":
        return _chain(rank + 1, rank)
    if fam in ("B", "C"):
        return _chain(rank, rank - 1) + [vec([0] * (rank - 1) + [1 if fam == "B" else 2])]
    if fam == "D":
        return _chain(rank, rank - 1) + [vec([0] * (rank - 2) + [1, 1])]
    if fam == "E":
        return _E8_SIMPLE[:rank]
    if fam == "F":
        return [
            vec([0, 1, -1, 0]),
            vec([0, 0, 1, -1]),
            vec([0, 0, 0, 1]),
            (HALF, -HALF, -HALF, -HALF),
        ]
    return [vec([1, -2, 1]), vec([0, 1, -1])]


def positive_root_count(family: str, rank: int) -> int:
    fam, rank = _read_type(family, rank)
    if fam == "A":
        return rank * (rank + 1) // 2
    if fam in ("B", "C"):
        return rank * rank
    if fam == "D":
        return rank * (rank - 1)
    if fam == "E":
        return {6: 36, 7: 63, 8: 120}[rank]
    return 24 if fam == "F" else 6


def weyl_group_order(family: str, rank: int) -> int:
    fam, rank = _read_type(family, rank)
    if fam == "A":
        return factorial(rank + 1)
    if fam in ("B", "C"):
        return (2**rank) * factorial(rank)
    if fam == "D":
        return (2 ** (rank - 1)) * factorial(rank)
    if fam == "E":
        return {6: 51_840, 7: 2_903_040, 8: 696_729_600}[rank]
    return 1152 if fam == "F" else 12


def scaled(values) -> tuple[tuple[int, ...], int]:
    """Rationals as integers over their least common denominator, and that denominator."""
    scale = lcm(*(x.denominator for x in values))
    return tuple(x.numerator * (scale // x.denominator) for x in values), scale


class RootSystem:
    """A simple root system over integer simple-root coordinates.

    Immutable after construction; all queries are pure.  Roots are stored in
    the lexicographic order of their ambient vectors so root indices are
    reproducible.
    """

    def __init__(self, family: str, rank: int):
        fam, rank = _read_type(family, rank)
        simples = simple_root_vectors(fam, rank)
        self.family = fam
        self.rank = rank
        self.ambient_dim = dim = len(simples[0])
        self.weyl_order = weyl_group_order(fam, rank)

        # The simple roots as integer rows over one denominator, alpha_k = rows[k] / den.
        flat, den = scaled([x for a in simples for x in a])
        rows = tuple(flat[k * dim:(k + 1) * dim] for k in range(rank))
        self._rows, self._den = rows, den
        gram = [[sum(map(mul, a, b)) for b in rows] for a in rows]  # den^2 (alpha_i, alpha_j)
        # C[i][j] = <alpha_j, coroot of alpha_i> = 2 (alpha_i, alpha_j) / (alpha_i, alpha_i)
        if any(2 * g % row[i] for i, row in enumerate(gram) for g in row):
            raise ConsistencyError(
                f"{fam}{rank}: non-integral Cartan matrix, Gram matrix {gram} over {den * den}")
        self._cartan = cartan = tuple(tuple(2 * g // row[i] for g in row) for i, row in enumerate(gram))
        # The simple coroots 2 alpha_k / |alpha_k|^2 = 2 den rows[k] / gram[k][k] as integer
        # rows over their least common denominator, so scaled_labels reads a weight in integers.
        self._norms = norms = [row[k] for k, row in enumerate(gram)]  # den^2 |alpha_k|^2
        self._label_denominator = scale = lcm(*(n // gcd(n, 2 * den * gcd(*r)) for n, r in zip(norms, rows)))
        self._label_rows = tuple(tuple(2 * den * scale * x // n for x in r) for n, r in zip(norms, rows))

        # Close the simple roots under the s_i that keep them positive.  found maps a positive
        # root's coefficients to den times its ambient vector, its pairings <beta, coroot(alpha_j)>,
        # its coroot coefficients and its norm: s_i(beta) = beta - p alpha_i moves the first two by
        # p times rows[i] and Cartan column i, coroot coefficient i by <alpha_i, coroot(beta)> =
        # p |alpha_i|^2 / |beta|^2, and keeps the norm.  An image with a negative coefficient i is
        # -beta when beta is a multiple of alpha_i, and otherwise a root of mixed sign.
        units = [tuple(int(j == k) for j in range(rank)) for k in range(rank)]
        columns = list(zip(*cartan))
        one_length = len(set(norms)) == 1
        found = {u: (r, col, u, n) for u, r, col, n in zip(units, rows, columns, norms)}
        queue = list(units)
        for beta in queue:  # breadth-first: the queue grows while it is read
            v, q, co, nb = found[beta]
            for i, p in enumerate(q):
                if p:
                    b = beta[i] - p
                    if b < 0:
                        if sum(beta) == beta[i]:
                            continue
                        image = tuple(Fraction(x, den) for x in map(sub, v, map(p.__mul__, rows[i])))
                        raise ConsistencyError(f"{fam}{rank}: root with mixed-sign coefficients: {image}")
                    image = beta[:i] + (b,) + beta[i + 1:]
                    if image not in found:
                        if not one_length:
                            dp, r = divmod(p * norms[i], nb)
                            if r:
                                raise ConsistencyError(
                                    f"{fam}{rank}: non-integral coroot coefficients for root {image}")
                        found[image] = (tuple(map(sub, v, map(p.__mul__, rows[i]))),
                                        tuple(map(sub, q, map(p.__mul__, columns[i]))),
                                        image if one_length else co[:i] + (co[i] - dp,) + co[i + 1:], nb)
                        queue.append(image)
        expected = positive_root_count(fam, rank)
        if len(found) != expected:
            raise ConsistencyError(f"{fam}{rank}: generated {len(found)} positive roots, expected {expected}")

        # The negative roots by negation; entry e < n is a positive root, e + n its negative.
        n = expected
        vs, pairings, cocoeffs = map(list, zip(*[(v, q, co) for v, q, co, _nb in found.values()]))
        coeffs = queue
        for field in (vs, coeffs, pairings) if one_length else (vs, coeffs, pairings, cocoeffs):
            field += [tuple(map(neg, x)) for x in field]
        if one_length:
            cocoeffs = coeffs
        # Over one positive denominator, integer vectors sort as the rational ones.
        order = sorted(range(2 * n), key=vs.__getitem__)
        place = sorted(range(2 * n), key=order.__getitem__)  # entry -> root index
        # One Fraction per distinct coordinate value, shared by the roots.
        xs = {x for v in vs[:n] for x in v}
        fractions = {x: Fraction(x, den) for x in xs | set(map(neg, xs))}
        self.roots: tuple[Vector, ...] = tuple([tuple(map(fractions.__getitem__, vs[e])) for e in order])
        # Signed integer coefficients of every root over the simple roots and of its coroot over
        # the simple coroots, and <root, coroot(alpha_i)> for every simple root i.
        self._coeffs: tuple[tuple[int, ...], ...] = tuple(map(coeffs.__getitem__, order))
        self._cocoeffs: tuple[tuple[int, ...], ...] = tuple(map(cocoeffs.__getitem__, order))
        self._pairings: tuple[tuple[int, ...], ...] = tuple(map(pairings.__getitem__, order))
        self._coeff_index: dict[tuple[int, ...], int] = dict(zip(self._coeffs, range(2 * n)))
        self.simple: tuple[int, ...] = tuple(place[:rank])
        self.is_positive: tuple[bool, ...] = tuple(e < n for e in order)
        self.positive: tuple[int, ...] = tuple(sorted(place[:n]))
        self.neg_of: tuple[int, ...] = tuple(place[e - n] if e >= n else place[e + n] for e in order)

        # Highest root: unique dominance-maximal positive root.
        heights = list(map(sum, coeffs[:n]))
        top = max(heights)
        if heights.count(top) != 1:
            raise ConsistencyError(f"{fam}{rank}: highest root is not unique")
        best = coeffs[heights.index(top)]
        if any(any(map(lt, best, c)) for c in coeffs[:n]):
            raise ConsistencyError(f"{fam}{rank}: highest root not dominance-maximal")
        self.highest: int = place[heights.index(top)]

        self._dual_basis: tuple[Vector, ...] | None = None

    # -- elementary queries -------------------------------------------------

    @cached_property
    def _pairing_index(self) -> dict[tuple[int, ...], int]:
        """Root pairings (<beta, coroot(alpha_k)>)_k -> root index; a root is fixed by its pairings."""
        return dict(zip(self._pairings, range(len(self._pairings))))

    def _row(self, v: Vector) -> list[int] | None:
        """v times the simple roots' denominator as integers; None unless they are integers."""
        den = self._den
        if any(den % x.denominator for x in v):
            return None
        return [x.numerator * (den // x.denominator) for x in v]

    def find(self, v) -> int | None:
        """The index of the root v (read by linalg.vec), or None if v is not a root, in
        integers: v's row over the simple roots' denominator names by its pairings
        with the simple coroots the one candidate root, whose row must then equal it."""
        row = self._row(vec(v, "v"))
        if row is None:
            return None
        scale = self._den * self._label_denominator
        pairings = [sum(map(mul, row, r)) for r in self._label_rows]
        if any(p % scale for p in pairings):
            return None
        i = self._pairing_index.get(tuple(p // scale for p in pairings))
        return i if i is not None and self._row(self.roots[i]) == row else None

    @cached_property
    def _coroot_columns(self) -> tuple[tuple[tuple[int, int], ...], ...]:
        """Per ambient coordinate, the nonzero entries (k, x) of the simple coroot rows."""
        return tuple(tuple((k, x) for k, x in enumerate(col) if x) for col in zip(*self._label_rows))

    def _index(self, name: str, i, positive: bool = False) -> int:
        """i read as a root index (limits.read_count), of a positive root when positive is set."""
        i = read_count(name, i, 0, len(self.roots))
        if positive and not self.is_positive[i]:
            raise ValidationError(f"{name} must be the index of a positive root, got {i}")
        return i

    def _vector(self, t, name: str) -> Vector:
        """t read by linalg.vec, refused unless it has ambient_dim coordinates."""
        t = vec(t, name)
        if len(t) != self.ambient_dim:
            raise ValidationError(
                f"{name} has {len(t)} coordinates; {self.family}{self.rank} needs {self.ambient_dim}")
        return t

    def coroot(self, i: int) -> Vector:
        """The coroot 2*alpha/(alpha,alpha) of root i, summed in integers as
        sum_k c_k^vee coroot(alpha_k) over the simple coroot rows."""
        co, den = self._cocoeffs[self._index("i", i)], self._label_denominator
        return tuple(Fraction(sum(co[k] * x for k, x in col), den) for col in self._coroot_columns)

    def pairing(self, t: Vector, i: int) -> Fraction:
        """<t, coroot of root i> = 2(t, alpha)/(alpha, alpha).

        No module of the package calls it: it stays because perfbench's tracer
        counts its calls by name (rootsystem.pairing.calls)."""
        alpha = self.roots[self._index("i", i)]
        return Fraction(2) * linalg.dot(self._vector(t, "t"), alpha) / linalg.dot(alpha, alpha)

    def scaled_labels(self, lam) -> tuple[tuple[int, ...], int]:
        """The Dynkin labels <lam, coroot(alpha_k)> as integers over their least
        common denominator, and that denominator.

        This is how a weight is read: the pairing of lam with a root of coroot
        coefficients c is sum(map(mul, c, labels)) / scale.
        """
        return self._scaled_labels(self._vector(lam, "lambda"))

    def _scaled_labels(self, t: Vector) -> tuple[tuple[int, ...], int]:
        ints, scale = scaled(t)
        raw = [sum(map(mul, ints, row)) for row in self._label_rows]
        scale *= self._label_denominator
        common = gcd(scale, *raw)
        return tuple(r // common for r in raw), scale // common

    def _reflected(self, i: int, j: int) -> int:
        """The index of s(beta_j) = beta_j - <beta_j, coroot(alpha_i)> alpha_i, the
        reflection of root j in root i, computed in integer simple-root coordinates."""
        p = sum(map(mul, self._cocoeffs[i], self._pairings[j]))
        if not p:
            return j
        return self._coeff_index[tuple(b - p * a for b, a in zip(self._coeffs[j], self._coeffs[i]))]

    def reflection_perm(self, i: int) -> tuple[int, ...]:
        """The reflection in root i as a permutation of root indices."""
        i = self._index("i", i)
        return tuple(self._reflected(i, j) for j in range(len(self.roots)))

    def root_coefficients(self, i: int) -> tuple[int, ...]:
        """Nonnegative integers expressing positive root i over the simple roots."""
        return self._coeffs[self._index("i", i, positive=True)]

    def coroot_coefficients(self, i: int) -> tuple[int, ...]:
        """Nonnegative integers expressing the coroot of positive root i over simple coroots."""
        return self._cocoeffs[self._index("i", i, positive=True)]

    def coroot_height(self, i: int) -> int:
        """Sum of the simple-coroot coefficients of the coroot of positive root i."""
        return sum(self.coroot_coefficients(i))

    @property
    def rho(self) -> Vector:
        """The highest positive root."""
        return self.roots[self.highest]

    # -- derived bases ------------------------------------------------------

    @cached_property
    def _fundamental_rows(self) -> tuple[tuple[tuple[int, ...], ...], int]:
        """The fundamental weights sum_k C^-1[k][j] alpha_k as integer rows over one
        denominator, and that denominator, from one integer inversion of C."""
        inverse, det = linalg.inverse(self._cartan)
        columns = list(zip(*self._rows))
        return tuple(tuple(sum(map(mul, x, d)) for d in columns) for x in zip(*inverse)), det * self._den

    def _weight(self, labels, scale: int) -> Vector:
        """The vector of the root span with Dynkin labels <w, coroot(alpha_k)> = labels[k] / scale:
        sum_k labels[k] w_k over the fundamental rows."""
        rows, den = self._fundamental_rows
        return tuple(Fraction(sum(map(mul, labels, col)), den * scale) for col in zip(*rows))

    def fundamental_weights(self) -> tuple[Vector, ...]:
        """Vectors w_j in the root span with <w_j, coroot of alpha_i> = delta_ij."""
        rows, den = self._fundamental_rows
        return tuple(tuple(Fraction(x, den) for x in row) for row in rows)

    def dual_basis(self) -> tuple[Vector, ...]:
        """Vectors tau_j = 2 w_j / |alpha_j|^2 in the root span, so (tau_j, alpha_i) = delta_ij;
        |alpha_j|^2 is the integer _norms[j] over _den^2."""
        if self._dual_basis is None:
            rows, den = self._fundamental_rows
            self._dual_basis = tuple(tuple(Fraction(2 * self._den ** 2 * x, den * n) for x in row)
                                     for row, n in zip(rows, self._norms))
        return self._dual_basis

    def project_to_root_span(self, t) -> Vector:
        """Orthogonal projection of t onto the span of the roots: the vector of the
        span with the Dynkin labels of t."""
        return self._weight(*self._scaled_labels(self._vector(t, "t")))

    def __repr__(self) -> str:  # pragma: no cover
        return f"RootSystem({self.family}{self.rank}, |R+|={len(self.positive)})"


# ---------------------------------------------------------------------------
# Reading a weight


def require_dominant(rs: RootSystem, lam, s_p=()) -> tuple[tuple[int, ...], int]:
    """rs.scaled_labels(lam), lam read as that reads it, if dominant (_dominant)."""
    return _dominant(rs, rs.scaled_labels(lam), s_p)


def _dominant(rs: RootSystem, read: tuple[tuple[int, ...], int], s_p=()) -> tuple[tuple[int, ...], int]:
    """read, a weight's scaled labels; ValidationError if a label on S_P is nonzero (an
    edge area on W/W_P would depend on the coset representative) or a label is negative."""
    labels, _scale = read
    if any(labels[k] for k in s_p):
        raise ValidationError("lambda must pair to zero with every simple root of S_P "
                              f"{tuple(k + 1 for k in s_p)}: edge areas on W/W_P are not well defined")
    for k, label in enumerate(labels):
        if label < 0:
            alpha = rs.roots[rs.simple[k]]
            raise ValidationError(
                f"lambda is not dominant for {rs.family}{rs.rank}: "
                f"<lambda, coroot(alpha_{k + 1})> < 0 for alpha_{k + 1} = ({','.join(vector_strs(alpha))})"
            )
    return read


def checked_weight(rs: RootSystem, lam) -> tuple[Vector, tuple[int, ...], int]:
    """lam as an exact dominant weight of rs, read once (RootSystem._vector), with its
    scaled labels; a G2 weight is projected onto the root plane, which keeps them."""
    lam = rs._vector(lam, "lambda")
    labels, scale = _dominant(rs, rs._scaled_labels(lam))
    return (rs._weight(labels, scale) if rs.family == "G" else lam), labels, scale


def parabolic_positions(rs: RootSystem, lam) -> tuple[int, ...]:
    """S_P for the orbit through lam: simple roots pairing to zero (the stabilizer)."""
    return tuple(k for k, label in enumerate(rs.scaled_labels(lam)[0]) if label == 0)


def build(family: str, rank: int) -> RootSystem:
    """Build (and cache) the root system of the given simple type.  The type is
    read (_read_type) before the cache is consulted, so a rank of True or 2.0
    is refused, not served A1's or A2's, and so is a family that is no str."""
    return _built(*_read_type(family, rank))


@lru_cache(maxsize=None)
def _built(family: str, rank: int) -> RootSystem:
    return RootSystem(family, rank)


def rational_str(x) -> str:
    """Exact decimal-free rendering: '3', '-1/2', ..."""
    return str(x if isinstance(x, Fraction) else Fraction(x))


def vector_strs(v: Vector) -> list[str]:
    return list(map(rational_str, v))


# The one JSON writer: json.dumps(indent=2, sort_keys=True) lays out all JSON
# text.  A document or an item is dumped once with a placeholder in each
# member that is filled in later, and the text is cut at the placeholders.


def _dumps_cut(value: dict, holes, pad: str) -> list[str]:
    """pad + json.dumps(value, indent=2, sort_keys=True), every newline followed by
    pad, cut where the top-level members named in holes go (in sorted order)."""
    import json

    mark = "\0"
    while True:
        text = json.dumps({**value, **dict.fromkeys(holes, mark)}, indent=2, sort_keys=True)
        quoted = json.dumps(mark)
        if text.count(quoted) == len(holes):  # the mark is spelled nowhere else
            return (pad + text.replace("\n", "\n" + pad)).split(quoted)
        mark += "\0"


def json_item(value: dict, holes=()) -> list[str]:
    """value as an item of a list that json_chunks streams, cut where the members
    named in holes go: the JSON texts of those scalar members, in sorted order,
    fill the gaps.  With no holes this is [text], a block of one item."""
    return _dumps_cut(value, holes, "    ")


def json_chunks(payload: dict, lists: dict) -> Iterator[str]:
    """json.dumps(payload with the members of lists, indent=2, sort_keys=True) + "\\n",
    as a stream of text chunks.

    Each value of lists is a streamed top-level list: an iterable of blocks,
    each block a list of item texts from json_item, written as it arrives.
    A block may be empty."""
    parts = iter(_dumps_cut(payload, lists, ""))
    yield next(parts)
    for key, tail in zip(sorted(lists), parts):
        sep = "[\n"
        for block in lists[key]:
            if block:
                yield sep + ",\n".join(block)
                sep = ",\n"
        yield ("[]" if sep == "[\n" else "\n  ]") + tail
    yield "\n"
