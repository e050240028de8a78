"""Small exact linear algebra over fractions.Fraction, for ambient vectors.

The root kernel works in integer simple-root coordinates (see rootsystem);
what is left here serves the ambient side: vectors and dot products, the
integer inverse of the Cartan matrix behind the fundamental weights, the
dual basis and the projection onto the root span, and the integer rank
behind absolute lengths.  solve_columns, an exact Gauss solve, is no longer
called by the package; the tests keep it as their reference projection.
Everything is dense and exact; no floating point is used anywhere in the
package.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Sequence

from .errors import ConsistencyError
from .limits import read_items

Vector = tuple[Fraction, ...]

ZERO = Fraction(0)
ONE = Fraction(1)


def vec(values: Iterable, name: str = "vector") -> Vector:
    """Coerce an iterable of rational-like values to an exact vector; a value
    that is not iterable is a ValidationError naming it (limits.read_items)."""
    return tuple(map(Fraction, read_items(name, values)))


def dot(x: Sequence[Fraction], y: Sequence[Fraction]) -> Fraction:
    if len(x) != len(y):
        raise ValueError(f"dimension mismatch: {len(x)} vs {len(y)}")
    return sum((a * b for a, b in zip(x, y)), ZERO)


def neg(x: Vector) -> Vector:
    return tuple(-a for a in x)


def solve_columns(columns: Sequence[Vector], target: Sequence[Fraction]) -> tuple[Fraction, ...]:
    """Solve sum_j c_j * columns[j] == target exactly.

    The columns must be linearly independent; the system may be
    overdetermined but must be consistent, otherwise ConsistencyError.
    """
    m = len(target)
    n = len(columns)
    rows = [[col[i] for col in columns] + [Fraction(target[i])] for i in range(m)]
    piv_rows: list[int] = []
    piv_cols: list[int] = []
    piv = 0
    for col in range(n):
        pivot = next((i for i in range(piv, m) if rows[i][col] != 0), None)
        if pivot is None:
            continue
        rows[piv], rows[pivot] = rows[pivot], rows[piv]
        prow = rows[piv]
        inv = ONE / prow[col]
        rows[piv] = prow = [a * inv for a in prow]
        for i in range(m):
            if i != piv and rows[i][col] != 0:
                f = rows[i][col]
                rows[i] = [a - f * b for a, b in zip(rows[i], prow)]
        piv_rows.append(piv)
        piv_cols.append(col)
        piv += 1
    if len(piv_cols) != n:
        raise ConsistencyError("solve_columns: columns are linearly dependent")
    for i in range(piv, m):
        if rows[i][n] != 0:
            raise ConsistencyError("solve_columns: inconsistent system")
    sol = [ZERO] * n
    for r, c in zip(piv_rows, piv_cols):
        sol[c] = rows[r][n]
    return tuple(sol)


def inverse(matrix: Sequence[Sequence[int]]) -> tuple[list[list[int]], int]:
    """A square integer matrix's inverse as integer rows over one denominator (the
    determinant up to sign), by one fraction-free Gauss-Jordan elimination of
    [matrix | I] whose divisions are exact (Bareiss, Math. Comp. 22, 1968)."""
    n = len(matrix)
    rows = [list(row) + [int(i == j) for j in range(n)] for i, row in enumerate(matrix)]
    last = 1
    for k in range(n):
        pivot = next((i for i in range(k, n) if rows[i][k]), None)
        if pivot is None:
            raise ConsistencyError("inverse: singular matrix")
        rows[k], rows[pivot] = rows[pivot], rows[k]
        prow, d = rows[k], rows[k][k]
        rows = [prow if i == k else [(d * a - row[k] * b) // last for a, b in zip(row, prow)]
                for i, row in enumerate(rows)]
        last = d
    return [row[n:] for row in rows], last


def integer_rank(matrix: Sequence[Sequence[int]]) -> int:
    """Rank of an integer matrix by fraction-free row echelon reduction, whose
    divisions are exact (Bareiss, as in inverse)."""
    rows = [list(r) for r in matrix]
    rk, last = 0, 1
    for col in range(len(rows[0]) if rows else 0):
        pivot = next((i for i in range(rk, len(rows)) if rows[i][col]), None)
        if pivot is None:
            continue
        rows[rk], rows[pivot] = rows[pivot], rows[rk]
        prow, d = rows[rk], rows[rk][col]
        rows[rk + 1:] = [[(d * a - row[col] * b) // last for a, b in zip(row, prow)]
                         for row in rows[rk + 1:]]
        last = d
        rk += 1
        if rk == len(rows):
            break
    return rk
