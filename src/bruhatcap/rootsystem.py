"""Simple root systems over an exact integer kernel.

Each root is an integer coefficient vector over the simple roots.  The
roots are generated by closing the simple roots under the simple
reflections s_i(beta) = beta - <beta, coroot(alpha_i)> alpha_i, with every
pairing read off the integer Cartan matrix (Humphreys, Reflection Groups and
Coxeter Groups, sections 1 and 2.9).  From those integers come the coroot
coefficients c_k^vee = c_k |alpha_k|^2 / |alpha|^2 and, on demand, each
reflection as a permutation of root indices.  A weight is read once, as its
Dynkin labels <lam, coroot(alpha_k)> over one common denominator
(RootSystem.scaled_labels); its pairing with any root is then an integer
sum over the coroot coefficients.  Ambient rational vectors are computed
once per root, for input, output and the closed-form table; roots are
indexed in their lexicographic order.

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
from functools import lru_cache
from math import factorial, gcd, lcm
from operator import mul

from . import linalg
from .errors import ConsistencyError, ValidationError
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


def simple_root_vectors(family: str, rank: int) -> list[Vector]:
    """Simple roots of the chosen type in the standard realization."""
    fam = family.upper()
    if fam == "A":
        if rank < 1:
            raise ValidationError("type A requires rank >= 1")
        return _chain(rank + 1, rank)
    if fam in ("B", "C"):
        if rank < 2:
            raise ValidationError(f"type {fam} requires rank >= 2")
        return _chain(rank, rank - 1) + [vec([0] * (rank - 1) + [1 if fam == "B" else 2])]
    if fam == "D":
        if rank < 3:
            raise ValidationError("type D requires rank >= 3")
        return _chain(rank, rank - 1) + [vec([0] * (rank - 2) + [1, 1])]
    if fam == "E":
        if rank not in (6, 7, 8):
            raise ValidationError("type E exists only for ranks 6, 7, 8")
        return _E8_SIMPLE[:rank]
    if fam == "F":
        if rank != 4:
            raise ValidationError("type F exists only for rank 4")
        return [
            vec([0, 1, -1, 0]),
            vec([0, 0, 1, -1]),
            vec([0, 0, 0, 1]),
            (HALF, -HALF, -HALF, -HALF),
        ]
    if fam == "G":
        if rank != 2:
            raise ValidationError("type G exists only for rank 2")
        return [vec([1, -2, 1]), vec([0, 1, -1])]
    raise ValidationError(f"unknown family {family!r}; expected one of A, B, C, D, E, F, G")


def positive_root_count(family: str, rank: int) -> int:
    fam = family.upper()
    if fam == "A":
        return rank * (rank + 1) // 2
    if fam in ("B", "C"):
        return rank * rank
    if fam == "D":
        return rank * (rank - 1)
    if fam == "E":
        return {6: 36, 7: 63, 8: 120}[rank]
    if fam == "F":
        return 24
    if fam == "G":
        return 6
    raise ValidationError(f"unknown family {family!r}")


def weyl_group_order(family: str, rank: int) -> int:
    fam = family.upper()
    if fam == "A":
        return factorial(rank + 1)
    if fam in ("B", "C"):
        return (2**rank) * factorial(rank)
    if fam == "D":
        return (2 ** (rank - 1)) * factorial(rank)
    if fam == "E":
        return {6: 51_840, 7: 2_903_040, 8: 696_729_600}[rank]
    if fam == "F":
        return 1152
    if fam == "G":
        return 12
    raise ValidationError(f"unknown family {family!r}")


def scaled(values) -> tuple[tuple[int, ...], int]:
    """Rationals as integers over their least common denominator, and that denominator."""
    scale = lcm(*(x.denominator for x in values))
    return tuple(x.numerator * (scale // x.denominator) for x in values), scale


def _combination(coords, vectors: list[Vector], dim: int) -> Vector:
    """The ambient vector sum_k coords[k] * vectors[k]."""
    out = [Fraction(0)] * dim
    for c, v in zip(coords, vectors):
        if c:
            for d, x in enumerate(v):
                if x:
                    out[d] += c * x
    return tuple(out)


class RootSystem:
    """A simple root system over integer simple-root coordinates.

    Immutable after construction; all queries are pure.  Roots are stored in
    the lexicographic order of their ambient vectors so root indices are
    reproducible.
    """

    def __init__(self, family: str, rank: int):
        fam = family.upper()
        simples = simple_root_vectors(fam, rank)
        self.family = fam
        self.rank = rank
        self.ambient_dim = len(simples[0])
        self.weyl_order = weyl_group_order(fam, rank)

        # C[i][j] = <alpha_j, coroot of alpha_i> = 2 (alpha_i, alpha_j) / (alpha_i, alpha_i)
        self._gram = [[linalg.dot(a, b) for b in simples] for a in simples]
        cartan = [[2 * g / row[i] for g in row] for i, row in enumerate(self._gram)]
        if any(x.denominator != 1 for row in cartan for x in row):
            raise ConsistencyError(f"{fam}{rank}: non-integral Cartan matrix {cartan}")
        self._cartan = cartan = tuple(tuple(int(x) for x in row) for row in cartan)
        # The simple coroots 2 alpha_k / |alpha_k|^2 as integer rows over one
        # denominator, so that scaled_labels reads a weight in integers.
        flat, self._label_denominator = scaled(
            [2 * x / row[k] for k, (a, row) in enumerate(zip(simples, self._gram)) for x in a])
        dim = self.ambient_dim
        self._label_rows = tuple(flat[k * dim:(k + 1) * dim] for k in range(rank))

        def simple_pairings(c: tuple[int, ...]) -> tuple[int, ...]:
            """<beta, coroot of alpha_i> for each i, beta having coefficients c."""
            return tuple(sum(cj * cij for cj, cij in zip(c, row)) for row in cartan)

        # Close the simple roots under s_i(beta) = beta - <beta, coroot(alpha_i)> alpha_i,
        # which changes only the i-th coefficient.
        units = [tuple(int(j == k) for j in range(rank)) for k in range(rank)]
        found = set(units)
        queue = list(units)
        while queue:
            beta = queue.pop()
            for i, p in enumerate(simple_pairings(beta)):
                if p:
                    image = beta[:i] + (beta[i] - p,) + beta[i + 1:]
                    if image not in found:
                        found.add(image)
                        queue.append(image)
        ordered = sorted((_combination(c, simples, self.ambient_dim), c) for c in found)

        self.roots: tuple[Vector, ...] = tuple(r for r, _c in ordered)
        self.index: dict[Vector, int] = {r: i for i, r in enumerate(self.roots)}
        # Signed integer coefficients of every root over the simple roots.
        self._coeffs: tuple[tuple[int, ...], ...] = tuple(c for _r, c in ordered)
        self._coeff_index: dict[tuple[int, ...], int] = {c: i for i, c in enumerate(self._coeffs)}
        # <root, coroot(alpha_i)> for every root and simple root i.
        self._pairings: tuple[tuple[int, ...], ...] = tuple(simple_pairings(c) for c in self._coeffs)
        self.simple: tuple[int, ...] = tuple(self._coeff_index[u] for u in units)

        coeffs = self._coeffs
        self.is_positive: tuple[bool, ...] = tuple(all(c >= 0 for c in cs) for cs in coeffs)
        for i, cs in enumerate(coeffs):
            if not self.is_positive[i] and not all(c <= 0 for c in cs):
                raise ConsistencyError(f"{fam}{rank}: root with mixed-sign coefficients: {self.roots[i]}")
        self.positive: tuple[int, ...] = tuple(i for i in range(len(self.roots)) if self.is_positive[i])
        expected = positive_root_count(fam, rank)
        if len(self.positive) != expected or len(self.roots) != 2 * expected:
            raise ConsistencyError(
                f"{fam}{rank}: generated {len(self.positive)} positive roots, expected {expected}"
            )

        self.neg_of: tuple[int, ...] = tuple(self._coeff_index[tuple(-c for c in cs)] for cs in coeffs)

        # Signed integer coefficients of every coroot over the simple coroots:
        # c_k^vee = c_k |alpha_k|^2 / |alpha|^2.
        cocoeffs = []
        for r, cs in zip(self.roots, coeffs):
            norm = linalg.dot(r, r)
            co = [c * self._gram[k][k] / norm for k, c in enumerate(cs)]
            if any(c.denominator != 1 for c in co):
                raise ConsistencyError(f"{fam}{rank}: non-integral coroot coefficients {co} for root {r}")
            cocoeffs.append(tuple(int(c) for c in co))
        self._cocoeffs: tuple[tuple[int, ...], ...] = tuple(cocoeffs)

        # Highest root: unique dominance-maximal positive root.
        best = max(self.positive, key=lambda i: sum(self._coeffs[i]))
        top = sum(self._coeffs[best])
        if sum(1 for i in self.positive if sum(self._coeffs[i]) == top) != 1:
            raise ConsistencyError(f"{fam}{rank}: highest root is not unique")
        for i in self.positive:
            if any(a < b for a, b in zip(self._coeffs[best], self._coeffs[i])):
                raise ConsistencyError(f"{fam}{rank}: highest root not dominance-maximal")
        self.highest: int = best

        self._fundamental: tuple[Vector, ...] | None = None
        self._dual_basis: tuple[Vector, ...] | None = None

    # -- elementary queries -------------------------------------------------

    def coroot(self, i: int) -> Vector:
        """The coroot 2*alpha/(alpha,alpha) of root i."""
        alpha = self.roots[i]
        return linalg.scale(Fraction(2) / linalg.dot(alpha, alpha), alpha)

    def pairing(self, t: Vector, i: int) -> Fraction:
        """<t, coroot of root i> = 2(t, alpha)/(alpha, alpha)."""
        alpha = self.roots[i]
        if len(t) != self.ambient_dim:
            raise ValidationError(f"vector has dimension {len(t)}, ambient is {self.ambient_dim}")
        return Fraction(2) * linalg.dot(t, alpha) / linalg.dot(alpha, alpha)

    def scaled_labels(self, t: Vector) -> tuple[tuple[int, ...], int]:
        """The Dynkin labels <t, coroot(alpha_k)> as integers over their least
        common denominator, and that denominator.

        This is how a weight is read: the pairing of t with a root of coroot
        coefficients c is sum(map(mul, c, labels)) / scale.
        """
        if len(t) != self.ambient_dim:
            raise ValidationError(f"vector has dimension {len(t)}, ambient is {self.ambient_dim}")
        ints, scale = scaled(t)
        raw = [sum(map(mul, ints, row)) for row in self._label_rows]
        scale *= self._label_denominator
        common = gcd(scale, *raw)
        return tuple(r // common for r in raw), scale // common

    def reflect(self, i: int, t: Vector) -> Vector:
        """Reflection of t in the hyperplane orthogonal to root i."""
        c = self.pairing(t, i)
        return tuple(ti - c * ai for ti, ai in zip(t, self.roots[i]))

    def reflection_perm(self, i: int) -> tuple[int, ...]:
        """The reflection in root i as a permutation of root indices.

        Entry j is the index of s(beta_j) = beta_j - <beta_j, coroot(alpha_i)> alpha_i,
        computed in integer simple-root coordinates.
        """
        alpha = self._coeffs[i]
        co = self._cocoeffs[i]
        index = self._coeff_index
        perm = []
        for j, (beta, pairings) in enumerate(zip(self._coeffs, self._pairings)):
            p = sum(c * q for c, q in zip(co, pairings))
            perm.append(index[tuple(b - p * a for b, a in zip(beta, alpha))] if p else j)
        return tuple(perm)

    def _require_positive(self, i: int) -> None:
        if not self.is_positive[i]:
            raise ValidationError(f"root {self.roots[i]} is not positive")

    def root_coefficients(self, i: int) -> tuple[int, ...]:
        """Nonnegative integers expressing positive root i over the simple roots."""
        self._require_positive(i)
        return self._coeffs[i]

    def coroot_coefficients(self, i: int) -> tuple[int, ...]:
        """Nonnegative integers expressing the coroot of positive root i over simple coroots."""
        self._require_positive(i)
        return self._cocoeffs[i]

    def coroot_height(self, i: int) -> int:
        """Sum of the simple-coroot coefficients of the coroot of positive root i."""
        self._require_positive(i)
        return sum(self._cocoeffs[i])

    def signed_coefficients(self, i: int) -> tuple[int, ...]:
        """Like root_coefficients, but defined (with signs) for every root."""
        return self._coeffs[i]

    def signed_cocoefficients(self, i: int) -> tuple[int, ...]:
        return self._cocoeffs[i]

    @property
    def rho(self) -> Vector:
        """The highest positive root."""
        return self.roots[self.highest]

    def simple_vectors(self) -> list[Vector]:
        return [self.roots[i] for i in self.simple]

    # -- derived bases ------------------------------------------------------

    def cartan_matrix(self) -> list[list[int]]:
        """C[i][j] = <alpha_j, coroot of alpha_i>; always integral."""
        return [list(row) for row in self._cartan]

    def _solve_in_root_span(self, matrix, rhs) -> Vector:
        """The vector sum_k x_k alpha_k with sum_k matrix[i][k] x_k = rhs[i]."""
        coords = linalg.solve_columns([vec(col) for col in zip(*matrix)], rhs)
        return _combination(coords, self.simple_vectors(), self.ambient_dim)

    def _unit_solutions(self, matrix) -> tuple[Vector, ...]:
        return tuple(
            self._solve_in_root_span(matrix, [int(i == j) for i in range(self.rank)])
            for j in range(self.rank)
        )

    def fundamental_weights(self) -> tuple[Vector, ...]:
        """Vectors w_j in the root span with <w_j, coroot of alpha_i> = delta_ij."""
        if self._fundamental is None:
            self._fundamental = self._unit_solutions(self._cartan)
        return self._fundamental

    def dual_basis(self) -> tuple[Vector, ...]:
        """Vectors tau_j in the root span with (tau_j, alpha_i) = delta_ij."""
        if self._dual_basis is None:
            self._dual_basis = self._unit_solutions(self._gram)
        return self._dual_basis

    def project_to_root_span(self, t: Vector) -> Vector:
        """Orthogonal projection of t onto the span of the roots."""
        if len(t) != self.ambient_dim:
            raise ValidationError(f"vector has dimension {len(t)}, ambient is {self.ambient_dim}")
        return self._solve_in_root_span(self._gram, [linalg.dot(t, a) for a in self.simple_vectors()])

    def __repr__(self) -> str:  # pragma: no cover
        return f"RootSystem({self.family}{self.rank}, |R+|={len(self.positive)})"


@lru_cache(maxsize=None)
def build(family: str, rank: int) -> RootSystem:
    """Build (and cache) the root system of the given simple type."""
    return RootSystem(family, rank)


def rational_str(x) -> str:
    """Exact decimal-free rendering: '3', '-1/2', ..."""
    return str(Fraction(x))


def vector_strs(v: Vector) -> list[str]:
    return [rational_str(x) for x in v]


# Parsed input stays printable: str() of an int refuses more than 4300 digits.
MAX_DIGITS = 1000


def spelled_digits(literal: str) -> int:
    """The digits a rational literal spells, an exponent counted by its value."""
    mantissa, _e, exponent = literal.lower().partition("e")
    power = exponent.lstrip("+-").replace("_", "").lstrip("0")
    digits = sum(c.isdecimal() for c in mantissa)
    if power.isdecimal():
        digits += int(power) if len(power) <= len(str(MAX_DIGITS)) else MAX_DIGITS + 1
    return digits


def parse_rational(s: str) -> Fraction:
    """A rational literal ('3', '-1/2', '25e-1'); one spelling more than
    MAX_DIGITS digits is refused before the number is built."""
    if spelled_digits(s) > MAX_DIGITS:
        raise ValidationError(f"rational literal spells more than {MAX_DIGITS} digits: {s[:40]!r}")
    try:
        return Fraction(s.strip())
    except (ValueError, ZeroDivisionError) as exc:
        raise ValidationError(f"cannot parse rational {s!r}: {exc}") from None
