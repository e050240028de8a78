"""Small exact linear algebra over fractions.Fraction, for ambient vectors.

The root kernel works in integer simple-root coordinates (see rootsystem);
what is left here serves the ambient side: vec, the one reader of a rational
argument, alike for `--lambda` and every weight a library function takes;
dot products; the integer inverse of the Cartan matrix behind the
fundamental weights, the dual basis and the projection onto the root span.
solve_columns, an exact Gauss solve, is no longer called by the package; the
tests keep it as their reference projection.
Everything is dense and exact; no floating point is used anywhere in the
package.
"""

from __future__ import annotations

from decimal import Decimal
from fractions import Fraction
from typing import Iterable, Sequence

from .errors import ConsistencyError, ValidationError
from .limits import MAX_DIGITS, read_items

Vector = tuple[Fraction, ...]

ZERO = Fraction(0)
ONE = Fraction(1)


def spelled_digits(literal: str) -> int:
    """The digits a rational literal spells, an exponent counted by its value."""
    mantissa, _e, exponent = literal.lower().partition("e")
    power = exponent.lstrip("+-").replace("_", "").lstrip("0")
    digits = sum(c.isdecimal() for c in mantissa)
    if power.isdecimal():
        digits += int(power) if len(power) <= len(str(MAX_DIGITS)) else MAX_DIGITS + 1
    return digits


def vec(values: Iterable, name: str = "vector") -> Vector:
    """The one reader of a rational argument, values as an exact vector: values is
    iterable (limits.read_items) and no str or bytes; a str entry is a literal such
    as ' -1/2' or '25e-1', and those of one vector spell at most MAX_DIGITS digits
    in all (spelled_digits, counted before each is built); a Decimal entry is read
    through its text, str(x), so its exponent counts as a literal's does; a float or
    bool entry is refused; a Fraction is kept, any other entry read by Fraction.
    Each refusal is one ValidationError naming the argument."""
    if isinstance(values, (str, bytes)):
        raise ValidationError(f"{name} must be an iterable of rationals, got {values!r}")
    out, digits = [], 0
    for x in read_items(name, values):
        if isinstance(x, Decimal):
            x = str(x)
        if isinstance(x, str):
            digits += spelled_digits(x)
            if digits > MAX_DIGITS:
                raise ValidationError(f"{name} spells more than {MAX_DIGITS} digits")
        elif isinstance(x, (float, bool)):
            raise ValidationError(f"{name} must hold exact rationals, got the {type(x).__name__} {x!r}")
        try:
            out.append(x if isinstance(x, Fraction) else Fraction(x))
        except (TypeError, ValueError, ArithmeticError):
            raise ValidationError(f"cannot parse rational {x!r} in {name}" if isinstance(x, str) else
                                  f"{name} must be an iterable of rationals, got {values!r}") from None
    return tuple(out)


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

