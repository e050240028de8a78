"""Capacity bounds for coadjoint orbits: w0 decompositions, the coweight
lower bound, path-degree upper bounds, the exact unitary value and the
per-type closed-form table.

All values are exact rationals.  Weights are given in the ambient
coordinates of the type (see rootsystem module docstring); G2 weights are
orthogonally projected onto the root plane first, which leaves every bound
unchanged.  Each bound reads its weight once, as integer Dynkin labels over
one common denominator, and pairs it with roots by integer sums over their
coroot coefficients; the upper and lower bounds return a single Fraction.
The coweight xi of the oscillation bound is still paired in ambient
coordinates, once with each positive root, and every check and sum of that
bound reads those |R+| pairings; closed_form_table works in ambient
coordinates, as the independent oracle.

For an enumerated group, w0_degree reads d_min(w0, e) off a quantum-edge walk
from w0 to e (`verify triangle`, `verify postnikov` and the tests keep the graph
search), and confirm_upper finds the least path area e to w0 over W_P\\W/W_P.
"""

from __future__ import annotations

from fractions import Fraction
from operator import mul
from typing import TYPE_CHECKING, NamedTuple

from . import linalg
from .errors import ConsistencyError, ValidationError
from .limits import DEFAULT_CONFIRM_CAP, DEFAULT_GROUP_CAP, read_count
from .linalg import Vector, vec
from .rootsystem import (RootSystem, _dominant, build, checked_weight, parabolic_positions,
                         rational_str, require_dominant, scaled, vector_strs)

if TYPE_CHECKING:
    import random

    from .weyl import WeylGroup

HALF = Fraction(1, 2)
TWO_THIRDS = Fraction(2, 3)

# The types of the closed-form table (`bruhatcap table`), also those the checks sample.
TABLE_TYPES: tuple[tuple[str, int], ...] = (
    tuple(("A", r) for r in range(2, 7))
    + tuple(("B", r) for r in range(2, 7))
    + tuple(("C", r) for r in range(2, 7))
    + tuple(("D", r) for r in range(3, 7))
    + (("E", 6), ("E", 7), ("E", 8), ("F", 4), ("G", 2))
)


# ---------------------------------------------------------------------------
# Dominant weights


def is_regular(rs: RootSystem, lam) -> bool:
    return all(label > 0 for label in rs.scaled_labels(lam)[0])


def dominant_from_pairings(rs: RootSystem, coeffs) -> Vector:
    """The weight in the root span with <lam, coroot(alpha_k)> = coeffs[k]."""
    coeffs = vec(coeffs, "chamber coordinates")
    if len(coeffs) != rs.rank:
        raise ValidationError(f"expected {rs.rank} chamber coordinates")
    labels, scale = scaled(coeffs)
    if any(c < 0 for c in labels):
        raise ValidationError("chamber coordinates must be nonnegative")
    return rs._weight(labels, scale)


def random_dominant(rs: RootSystem, rng: random.Random, *, regular: bool = False) -> Vector:
    """A random dominant weight with Dynkin labels in 0..9 (1..9 if regular)."""
    low = 1 if regular else 0
    return dominant_from_pairings(rs, [rng.randint(low, 9) for _ in range(rs.rank)])


def random_positive_coweight(rs: RootSystem, rng: random.Random) -> Vector:
    """A random vector in the interior of the positive coweight cone, with
    coordinates in 1..9 over the dual basis."""
    tau = rs.dual_basis()
    coeffs = [rng.randint(1, 9) for _ in tau]
    return tuple(sum(map(mul, coeffs, col)) for col in zip(*tau))


# ---------------------------------------------------------------------------
# w0 decompositions into pairwise orthogonal reflections


def _sparse(dim: int, entries: dict[int, int]) -> Vector:
    """The vector of R^dim with the given entries at 1-based positions, zero elsewhere."""
    return tuple(Fraction(entries.get(i, 0)) for i in range(1, dim + 1))


def _decomposition_vectors(family: str, rank: int) -> list[Vector]:
    fam = family.upper()
    if fam == "A":
        m = rank + 1
        return [_sparse(m, {k: 1, m + 1 - k: -1}) for k in range(1, m // 2 + 1)]
    if fam in ("B", "D"):
        n = rank
        out = []
        last_pair = n - 1 if n % 2 == 0 else n - 2
        for k in range(1, last_pair + 1, 2):
            out += [_sparse(n, {k: 1, k + 1: -1}), _sparse(n, {k: 1, k + 1: 1})]
        if fam == "B" and n % 2 == 1:
            out.append(_sparse(n, {n: 1}))
        return out
    if fam == "C":
        return [_sparse(rank, {k: 2}) for k in range(1, rank + 1)]
    if fam == "E" and rank in (7, 8):
        pairs = [_sparse(8, {k: sign, k + 1: 1}) for k in (1, 3, 5, 7) for sign in (-1, 1)]
        return pairs[:rank]
    if fam == "E":
        return [
            vec([0, -1, 1, 0, 0, 0, 0, 0]),
            vec([-1, 0, 0, 1, 0, 0, 0, 0]),
            (HALF, HALF, HALF, HALF, HALF, -HALF, -HALF, HALF),
            (-HALF, -HALF, -HALF, -HALF, HALF, -HALF, -HALF, HALF),
        ]
    if fam == "F":
        return [
            vec([1, 1, 0, 0]),
            vec([1, -1, 0, 0]),
            vec([0, 0, 1, 1]),
            vec([0, 0, 1, -1]),
        ]
    if fam == "G":
        return [vec([0, 1, -1]), vec([2, -1, -1])]
    raise ValidationError(f"unknown family {family!r}")


class W0Decomposition(NamedTuple):
    """An ordered list of pairwise orthogonal positive roots whose
    reflections compose to w0; validated at construction.  len() counts
    the roots."""

    root_indices: tuple[int, ...]
    vectors: tuple[Vector, ...]
    coroot_heights: tuple[int, ...]

    def __len__(self) -> int:
        return len(self.root_indices)


_DECOMPOSITIONS: dict[tuple[str, int], W0Decomposition] = {}


def w0_decomposition(rs: RootSystem) -> W0Decomposition:
    """The per-type decomposition of w0 into orthogonal reflections, validated
    once per type and cached (root indexing is canonical).

    Four checks guard the transcribed data: the entries are positive roots,
    pairwise orthogonal, their reflections compose to w0 (every positive root
    is sent to a negative one), and the coroot heights satisfy
    sum(2*ht - 1) = |R+|.  The count is then the absolute length of w0: m
    pairwise orthogonal roots are linearly independent, so the product of
    their reflections is -1 on their span and the identity on its orthogonal
    complement, and its fixed space has codimension m in the root span; that
    codimension is the absolute length (Carter, Conjugacy classes in the Weyl
    group, Compositio Math. 25 (1972)), and the product is w0.  The product
    is followed on the simple roots alone, reflection by reflection in integer
    simple-root coordinates, so no Weyl group enumeration is needed (E8
    included): an element is linear, so it is w0 exactly when it sends every
    simple root negative.
    """
    key = (rs.family, rs.rank)
    got = _DECOMPOSITIONS.get(key)
    if got is None:
        got = _DECOMPOSITIONS[key] = _validated_decomposition(rs)
    return got


def _validated_decomposition(rs: RootSystem) -> W0Decomposition:
    vectors = _decomposition_vectors(rs.family, rs.rank)
    indices = []
    for v in vectors:
        idx = rs.find(v)
        if idx is None or not rs.is_positive[idx]:
            raise ConsistencyError(
                f"decomposition data for {rs.family}{rs.rank}: {v} is not a positive root"
            )
        indices.append(idx)

    # Two roots are orthogonal exactly when the reflection in one fixes the other.
    for i in range(len(vectors)):
        for j in range(i + 1, len(vectors)):
            if rs._reflected(indices[i], indices[j]) != indices[j]:
                raise ConsistencyError(
                    f"decomposition data for {rs.family}{rs.rank}: "
                    f"roots {vectors[i]} and {vectors[j]} are not orthogonal"
                )

    if any(rs.is_positive[j] for j in _simple_images(rs, indices)):
        raise ConsistencyError(
            f"decomposition data for {rs.family}{rs.rank}: product is not w0 "
            f"(does not map all positive roots to negative roots)"
        )

    heights = tuple(sum(rs._cocoeffs[i]) for i in indices)
    if sum(2 * h - 1 for h in heights) != len(rs.positive):
        raise ConsistencyError(
            f"decomposition data for {rs.family}{rs.rank}: "
            f"sum(2 ht - 1) = {sum(2 * h - 1 for h in heights)} != |R+| = {len(rs.positive)}"
        )

    return W0Decomposition(tuple(indices), tuple(vectors), heights)


def _simple_images(rs: RootSystem, indices) -> tuple[int, ...]:
    """The root indices of the images of the simple roots under the product
    s_{i_1} s_{i_2} ... s_{i_m} of the reflections in the roots of index i_k."""
    images = rs.simple
    for i in reversed(indices):
        images = tuple(rs._reflected(i, j) for j in images)
    return images


# ---------------------------------------------------------------------------
# Bounds


def _pairings(rs: RootSystem, labels: tuple[int, ...], indices) -> list[int]:
    """<lam, coroot(alpha_i)> times lam's scale for each root index i, from lam's scaled labels."""
    return [sum(map(mul, rs._cocoeffs[i], labels)) for i in indices]


def upper_bound(rs: RootSystem, lam: Vector, dec: W0Decomposition) -> Fraction:
    """sum_k <lam, coroot(alpha_k)> over the decomposition roots."""
    return _upper(rs, *require_dominant(rs, lam), dec)


def _upper(rs: RootSystem, labels, scale: int, dec: W0Decomposition) -> Fraction:
    return Fraction(sum(_pairings(rs, labels, dec.root_indices)), scale)


def lower_candidates(rs: RootSystem, labels, scale: int,
                     dec: W0Decomposition) -> tuple[list[int], list[int]]:
    """The candidates of lower_bound for the weight lam of the given scaled labels,
    one per simple root alpha_j: candidate j is sums[j] / dens[j] =
    sum_k (n_{alpha_k,alpha_j}/n_{rho,alpha_j}) <lam, coroot(alpha_k)>, with integer
    numerators and positive integer denominators.  Each is linear in the labels."""
    pairings = _pairings(rs, labels, dec.root_indices)
    n_rho = rs._coeffs[rs.highest]
    if any(c < 1 for c in n_rho):
        raise ConsistencyError("highest root must have full support over the simple roots")
    coeffs = [rs._coeffs[i] for i in dec.root_indices]
    sums = [sum(c[j] * p for c, p in zip(coeffs, pairings)) for j in range(rs.rank)]
    return sums, [n * scale for n in n_rho]


def lower_bound(rs: RootSystem, lam: Vector, dec: W0Decomposition) -> tuple[Fraction, int]:
    """max over simple alpha of sum_k (n_{alpha_k,alpha}/n_{rho,alpha}) <lam, coroot(alpha_k)>,
    the largest of lower_candidates.

    Returns the value and the position of the maximizing simple root.
    """
    return _lower(rs, *require_dominant(rs, lam), dec)


def _lower(rs: RootSystem, labels, scale: int, dec: W0Decomposition) -> tuple[Fraction, int]:
    sums, dens = lower_candidates(rs, labels, scale, dec)
    # Compare the candidate fractions by cross-multiplying.
    witness = 0
    for j in range(1, rs.rank):
        if sums[j] * dens[witness] > sums[witness] * dens[j]:
            witness = j
    return Fraction(sums[witness], dens[witness]), witness


def coweight_oscillation_bound(rs: RootSystem, lam: Vector, xi: Vector,
                               dec: W0Decomposition) -> Fraction:
    """osc(phi^xi) / m_xi^+ for a coweight xi in the closed positive cone.

    xi must pair nonnegatively with every simple root and positively with
    the highest root (the dual-basis vertices qualify).  The maximum of
    |(root, xi)| is then attained at the highest root, which is asserted;
    every root is +-a positive root, so the maximum is taken over R+.

    xi is paired once with each positive root, |R+| dot products in all:
    the simple roots, the highest root and the decomposition roots are
    positive, so the cone check, m = (xi, theta), the maximum and the
    oscillation sum all read that one pass.
    """
    xi = rs._vector(xi, "xi")
    labels, scale = require_dominant(rs, lam)
    pairings = _pairings(rs, labels, dec.root_indices)
    xi_pairs = {i: linalg.dot(xi, rs.roots[i]) for i in rs.positive}
    if any(xi_pairs[s] < 0 for s in rs.simple):
        raise ValidationError("xi must pair nonnegatively with every simple root")
    m = xi_pairs[rs.highest]
    if m <= 0:
        raise ValidationError("xi must pair positively with the highest root")
    if max(map(abs, xi_pairs.values())) != m:
        raise ConsistencyError("max |(root, xi)| not attained at the highest root")
    osc = sum(map(mul, pairings, map(xi_pairs.__getitem__, dec.root_indices)), Fraction(0))
    return osc / (scale * m)


def unitary_capacity(lam) -> Fraction:
    """(1/2) sum_k |lam_k - lam_{n-k+1}| for a nonincreasing weight vector."""
    lam = vec(lam, "lambda")
    n = len(lam)
    if any(lam[i] < lam[i + 1] for i in range(n - 1)):
        raise ValidationError("lambda must be sorted in nonincreasing order")
    return HALF * sum((abs(lam[k] - lam[n - 1 - k]) for k in range(n)), Fraction(0))


# ---------------------------------------------------------------------------
# Closed-form table


def closed_form_table(rs: RootSystem, lam: Vector) -> tuple[Fraction, Fraction]:
    """Per-type closed-form (lower, upper); the cross-check oracle for the
    general machinery, stated directly in the ambient weight coordinates.

    E-type rows are kept in the full 8-coordinate form.  The G2 row is
    written in a form invariant under shifts along (1,1,1), so projecting
    onto the root plane does not change it.
    """
    lam = rs._vector(lam, "lambda")
    _dominant(rs, rs._scaled_labels(lam))
    fam, n = rs.family, rs.rank
    if fam == "A":
        exact = unitary_capacity(lam)
        return exact, exact
    if fam == "B":
        upper = 2 * sum((lam[k] for k in range(0, n, 2)), Fraction(0))
        lower = max(2 * lam[0], sum(lam, Fraction(0)))
        return lower, upper
    if fam == "C":
        total = sum(lam, Fraction(0))
        return total, total
    if fam == "D":
        pairs = n - 1 if n % 2 == 0 else n - 2
        upper = 2 * sum((lam[k] for k in range(0, pairs, 2)), Fraction(0))
        head = sum(lam[: n - 1], Fraction(0))
        if n % 2 == 0:
            head += abs(lam[n - 1])
        lower = max(2 * lam[0], head)
        return lower, upper
    if fam == "E" and n == 6:
        upper = -lam[0] - lam[1] + lam[2] + lam[3] + lam[4] - lam[5] - lam[6] + lam[7]
        lower = lam[4] - lam[5] - lam[6] + lam[7]
        return lower, upper
    if fam == "E" and n == 7:
        upper = 2 * lam[1] + 2 * lam[3] + 2 * lam[5] + lam[7] - lam[6]
        lower = max(
            2 * lam[5] + lam[7] - lam[6],
            HALF * (lam[0] + lam[1] + lam[2] + lam[3] + lam[4] + lam[5]) + lam[7] - lam[6],
        )
        return lower, upper
    if fam == "E" and n == 8:
        upper = 2 * lam[1] + 2 * lam[3] + 2 * lam[5] + 2 * lam[7]
        lower = max(
            2 * lam[7],
            Fraction(1, 3) * (sum(lam[:7], Fraction(0)) + 5 * lam[7]),
        )
        return lower, upper
    if fam == "F":
        return 2 * lam[0], 2 * lam[0] + 2 * lam[2]
    if fam == "G":
        upper = TWO_THIRDS * (lam[0] + lam[1] - 2 * lam[2])
        lower = TWO_THIRDS * (lam[0] - lam[2])
        return lower, upper
    raise ValidationError(f"no closed-form table row for {fam}{n}")


def table_row(rs: RootSystem, lam: Vector,
              dec: W0Decomposition) -> tuple[Vector, Fraction, Fraction, Fraction, Fraction]:
    """(lam, closed-form lower, first-principles lower, closed-form upper,
    first-principles upper); lam is read by checked_weight, so a G2 weight is
    projected onto the root plane first."""
    lam = checked_weight(rs, lam)[0]
    closed_lower, closed_upper = closed_form_table(rs, lam)
    lower, _witness = lower_bound(rs, lam, dec)
    return lam, closed_lower, lower, closed_upper, upper_bound(rs, lam, dec)


# ---------------------------------------------------------------------------
# Orchestration


def w0_degree(weyl: WeylGroup) -> tuple[int, ...]:
    """d_min(w0, e) = the sum of the decomposition coroots, once the walk u -> u s_alpha from
    w0 over them is checked to reach e by quantum edges (each drops the length 2 ht - 1): as
    long as the absolute length of w0, it is a shortest path of unique degree (Postnikov)."""
    rs = weyl.rs
    dec = w0_decomposition(rs)
    u, lengths = weyl.longest_index, weyl.lengths
    for a, height in zip(dec.root_indices, dec.coroot_heights):
        v = weyl._reflection_table(a)[u]
        if lengths[u] - lengths[v] != 2 * height - 1:
            raise ConsistencyError(f"{rs.family}{rs.rank}: the step by s_alpha, alpha = "
                                   f"({','.join(vector_strs(rs.roots[a]))}), is not a quantum edge")
        u = v
    if u != weyl.identity_index:
        raise ConsistencyError(f"{rs.family}{rs.rank}: the w0 walk ends at {weyl.word_label(u)}")
    return tuple(map(sum, zip(*map(rs._cocoeffs.__getitem__, dec.root_indices))))


def confirm_upper(weyl: WeylGroup, lam: Vector, upper: Fraction) -> Fraction:
    """The minimal Bruhat-graph path area from e to w0 on W/W_P, S_P the
    stabilizer of lam; for a regular lam, ConsistencyError unless it is `upper`."""
    from .graphs import min_path_area

    s_p = parabolic_positions(weyl.rs, lam)
    pd = weyl.parabolic(s_p)
    area = min_path_area(pd, lam, pd.coset_of[weyl.identity_index],
                         pd.coset_of[weyl.longest_index])
    if not s_p and area != upper:
        raise ConsistencyError(f"upper-bound triangle failed for regular lambda: "
                               f"decomposition {upper}, Dijkstra {area}")
    return area


class CapacityBounds(NamedTuple):
    family: str
    rank: int
    lam_input: Vector
    lam: Vector                      # after G2 projection, if any
    lower: Fraction
    upper: Fraction
    exact: Fraction | None           # type A only
    witness: int                     # maximizing simple-root position
    decomposition: W0Decomposition
    regular: bool
    d_min_degree: tuple[int, ...] | None
    min_area: Fraction | None
    checks: dict

    def as_dict(self) -> dict:
        out = {
            "type": self.family,
            "rank": self.rank,
            "lambda": vector_strs(self.lam_input),
            "lower": rational_str(self.lower),
            "upper": rational_str(self.upper),
            "decomposition": [vector_strs(v) for v in self.decomposition.vectors],
            "witness_root": f"alpha_{self.witness + 1}",
            "regular": self.regular,
            "checks": dict(self.checks),
        }
        if self.lam != self.lam_input:
            out["lambda_projected"] = vector_strs(self.lam)
        if self.exact is not None:
            out["exact"] = rational_str(self.exact)
        if self.d_min_degree is not None:
            out["d_min_degree"] = list(self.d_min_degree)
        if self.min_area is not None:
            out["min_path_area"] = rational_str(self.min_area)
        return out


def hz_bounds(family: str, rank: int, lam, *, confirm_cap: int = DEFAULT_CONFIRM_CAP,
              group_cap: int = DEFAULT_GROUP_CAP) -> CapacityBounds:
    """Full pipeline: root system, decomposition, bounds and, for groups
    small enough to enumerate, graph confirmations of the upper bound: for a
    regular weight, d_min(w0, e) = sum of the decomposition coroots by a
    quantum-edge walk (w0_degree), and the least path area e to w0 over W_P\\W/W_P (confirm_upper).

    The weight's labels are read once (checked_weight), for the private forms of
    the bounds.  Everything weight-free is built once per type and kept: the root
    system, the decomposition, the group, its reflection tables and its cosets."""
    read_count("confirm_cap", confirm_cap)
    read_count("group_cap", group_cap)
    rs = build(family, rank)
    lam_input = vec(lam, "lambda")
    lam_used, labels, scale = checked_weight(rs, lam_input)

    dec = w0_decomposition(rs)
    upper = _upper(rs, labels, scale, dec)
    lower, witness = _lower(rs, labels, scale, dec)
    exact = unitary_capacity(lam_used) if rs.family == "A" else None

    if not (0 <= lower <= upper):
        raise ConsistencyError(f"bound ordering violated: 0 <= {lower} <= {upper}")
    if 3 * lower < 2 * upper:
        raise ConsistencyError(f"two-thirds bound violated: lower={lower}, upper={upper}")
    if exact is not None and (exact != upper or exact != lower):
        raise ConsistencyError("type A bounds must be sharp and equal the unitary value")

    regular = all(labels)
    checks = {
        "sharp": lower == upper,
        "ratio_ok": 3 * lower >= 2 * upper,
        "dmin_consistent": None,
    }
    d_deg: tuple[int, ...] | None = None
    area: Fraction | None = None
    if rs.weyl_order <= confirm_cap:
        from .weyl import generate

        weyl = generate(rs, cap=group_cap)
        if regular:
            d_deg = w0_degree(weyl)
        area = confirm_upper(weyl, lam_used, upper)
        # For degenerate orbits the minimal parabolic path area may drop
        # below the regular-orbit upper bound; report, do not hide.
        checks["dmin_consistent"] = area == upper

    return CapacityBounds(
        family=rs.family,
        rank=rs.rank,
        lam_input=lam_input,
        lam=lam_used,
        lower=lower,
        upper=upper,
        exact=exact,
        witness=witness,
        decomposition=dec,
        regular=regular,
        d_min_degree=d_deg,
        min_area=area,
        checks=checks,
    )
