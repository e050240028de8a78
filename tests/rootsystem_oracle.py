"""The root-system build done in Fraction arithmetic throughout, as an oracle.

A transcription of the straightforward construction: the Gram and Cartan
matrices and every root norm by Fraction dot products, each ambient root
vector as a Fraction combination of the simple roots, and each fundamental
weight and dual-basis vector from its own exact solve of one unit column.
`fraction_build` returns every field that RootSystem computes, so a test can
compare the two value for value and type for type.  `fraction_rank` is the
Fraction row reduction that absolute lengths were once computed by, and
`reflect` the ambient Fraction reflection that the package's integer root
permutations are checked against.  `cartan_matrix` reads a RootSystem's
Cartan matrix for comparison with sympy's, and `transposition_distance_formula`
is the closed form that the Cayley distances are checked against; only the
tests called either, so both left the package.
"""

from fractions import Fraction
from math import lcm

from bruhatcap import ValidationError, rootsystem
from bruhatcap.limits import read_items
from bruhatcap.linalg import dot, solve_columns, vec


def _scaled(values):
    scale = lcm(*(x.denominator for x in values))
    return tuple(x.numerator * (scale // x.denominator) for x in values), scale


def _combination(coords, vectors, dim):
    """The ambient vector sum_k coords[k] * vectors[k]."""
    out = [Fraction(0)] * dim
    for c, v in zip(coords, vectors):
        if c:
            for d, x in enumerate(v):
                if x:
                    out[d] += c * x
    return tuple(out)


def fraction_build(family: str, rank: int) -> dict:
    simples = rootsystem.simple_root_vectors(family, rank)
    dim = len(simples[0])
    gram = [[dot(a, b) for b in simples] for a in simples]
    cartan = [[2 * g / row[i] for g in row] for i, row in enumerate(gram)]
    assert all(x.denominator == 1 for row in cartan for x in row)
    cartan = tuple(tuple(int(x) for x in row) for row in cartan)
    flat, label_denominator = _scaled(
        [2 * x / row[k] for k, (a, row) in enumerate(zip(simples, gram)) for x in a])

    def pairings(c):
        return tuple(sum(cj * cij for cj, cij in zip(c, row)) for row in cartan)

    units = [tuple(int(j == k) for j in range(rank)) for k in range(rank)]
    found = set(units)
    queue = list(units)
    while queue:
        beta = queue.pop()
        for i, p in enumerate(pairings(beta)):
            if p:
                image = beta[:i] + (beta[i] - p,) + beta[i + 1:]
                if image not in found:
                    found.add(image)
                    queue.append(image)
    ordered = sorted((_combination(c, simples, dim), c) for c in found)
    roots = tuple(r for r, _c in ordered)
    coeffs = tuple(c for _r, c in ordered)
    cocoeffs = []
    for r, cs in ordered:
        co = [c * gram[k][k] / dot(r, r) for k, c in enumerate(cs)]
        assert all(c.denominator == 1 for c in co)
        cocoeffs.append(tuple(int(c) for c in co))
    coeff_index = {c: i for i, c in enumerate(coeffs)}
    positive = tuple(i for i, cs in enumerate(coeffs) if all(c >= 0 for c in cs))

    def unit_solutions(matrix):
        columns = [vec(col) for col in zip(*matrix)]
        return tuple(
            _combination(solve_columns(columns, [int(i == j) for i in range(rank)]), simples, dim)
            for j in range(rank)
        )

    return {
        "roots": roots,
        "index": list({r: i for i, r in enumerate(roots)}.items()),
        "coroots": tuple(tuple(2 * x / dot(r, r) for x in r) for r in roots),
        "coeffs": coeffs,
        "cocoeffs": tuple(cocoeffs),
        "pairings": tuple(pairings(c) for c in coeffs),
        "label_rows": tuple(flat[k * dim:(k + 1) * dim] for k in range(rank)),
        "label_denominator": label_denominator,
        "gram": gram,
        "cartan": cartan,
        "simple": tuple(coeff_index[u] for u in units),
        "positive": positive,
        "neg_of": tuple(coeff_index[tuple(-c for c in cs)] for cs in coeffs),
        "highest": max(positive, key=lambda i: sum(coeffs[i])),
        "fundamental_weights": unit_solutions(cartan),
        "dual_basis": unit_solutions(gram),
    }


def built_fields(rs) -> dict:
    """The same fields, read from a RootSystem."""
    return {
        "roots": rs.roots,
        "index": [(r, rs.find(r)) for r in rs.roots],
        "coroots": tuple(map(rs.coroot, range(len(rs.roots)))),
        "coeffs": rs._coeffs,
        "cocoeffs": rs._cocoeffs,
        "pairings": rs._pairings,
        "label_rows": rs._label_rows,
        "label_denominator": rs._label_denominator,
        "gram": [[dot(rs.roots[a], rs.roots[b]) for b in rs.simple] for a in rs.simple],
        "cartan": rs._cartan,
        "simple": rs.simple,
        "positive": rs.positive,
        "neg_of": rs.neg_of,
        "highest": rs.highest,
        "fundamental_weights": rs.fundamental_weights(),
        "dual_basis": rs.dual_basis(),
    }


def fraction_rank(matrix) -> int:
    """Rank of a rational matrix by row echelon reduction in Fraction arithmetic."""
    rows = [[Fraction(x) for x in r] for r in matrix]
    if not rows:
        return 0
    rk = 0
    for col in range(len(rows[0])):
        pivot = next((i for i in range(rk, len(rows)) if rows[i][col] != 0), None)
        if pivot is None:
            continue
        rows[rk], rows[pivot] = rows[pivot], rows[rk]
        prow = rows[rk]
        for i in range(rk + 1, len(rows)):
            if rows[i][col] != 0:
                f = rows[i][col] / prow[col]
                rows[i] = [a - f * b for a, b in zip(rows[i], prow)]
        rk += 1
        if rk == len(rows):
            break
    return rk


def reflect(rs, i: int, t):
    """The reflection of t in the hyperplane orthogonal to root i of rs:
    t - <t, coroot(alpha)> alpha, by Fraction dot products in ambient coordinates."""
    alpha = rs.roots[i]
    c = 2 * dot(t, alpha) / dot(alpha, alpha)
    return tuple(ti - c * ai for ti, ai in zip(t, alpha))


def cartan_matrix(rs) -> list[list[int]]:
    """C[i][j] = <alpha_j, coroot of alpha_i> of a RootSystem; always integral."""
    return [list(row) for row in rs._cartan]


def transposition_distance_formula(lam, perm: tuple[int, ...]) -> Fraction:
    """The closed-form candidate (1/2) sum_i |lam_i - lam_{perm(i)}|, perm a
    permutation of 1..len(lam) in one-line notation; any other is refused."""
    lam = vec(lam, "lambda")
    perm = tuple(read_items("perm", perm))
    if (not all(isinstance(k, int) and not isinstance(k, bool) for k in perm)
            or sorted(perm) != list(range(1, len(lam) + 1))):
        raise ValidationError(f"perm must be a permutation of 1..{len(lam)}, got {perm!r}")
    return Fraction(1, 2) * sum(
        (abs(lam[i] - lam[perm[i] - 1]) for i in range(len(perm))), Fraction(0)
    )
