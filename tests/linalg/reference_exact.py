"""Dense Gauss–Jordan over ``fractions.Fraction`` — the test oracle.

This is the textbook elimination :mod:`repro.linalg.exact` used before it
moved to sparse fraction-free elimination over ℤ, kept verbatim so the
property tests can pin the production kernel against it entry for entry.
Nothing under ``src/`` imports it.
"""

from __future__ import annotations

from fractions import Fraction
from typing import List, Sequence, Tuple

Matrix = Sequence[Sequence[int]]


def _to_fractions(matrix: Matrix) -> List[List[Fraction]]:
    return [[Fraction(x) for x in row] for row in matrix]


def _rref(rows: List[List[Fraction]]) -> Tuple[List[List[Fraction]], List[int]]:
    """Reduced row echelon form; returns (rref, pivot column indices)."""
    if not rows:
        return rows, []
    n_cols = len(rows[0])
    pivots: List[int] = []
    r = 0
    for c in range(n_cols):
        pivot_row = next((i for i in range(r, len(rows)) if rows[i][c] != 0), None)
        if pivot_row is None:
            continue
        rows[r], rows[pivot_row] = rows[pivot_row], rows[r]
        inv = rows[r][c]
        rows[r] = [x / inv for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c] != 0:
                factor = rows[i][c]
                rows[i] = [a - factor * b for a, b in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == len(rows):
            break
    return rows, pivots


def rational_rank(matrix: Matrix) -> int:
    """The rank of an integer matrix over ℚ (exact)."""
    _rows, pivots = _rref(_to_fractions(matrix))
    return len(pivots)


def kernel_basis(matrix: Matrix) -> List[List[Fraction]]:
    """A basis of ``ker`` (right null space) over ℚ, exact."""
    rows = _to_fractions(matrix)
    if not rows:
        return []
    n_cols = len(rows[0])
    rref, pivots = _rref(rows)
    free_cols = [c for c in range(n_cols) if c not in pivots]
    basis: List[List[Fraction]] = []
    for fc in free_cols:
        vec = [Fraction(0)] * n_cols
        vec[fc] = Fraction(1)
        for r, pc in enumerate(pivots):
            vec[pc] = -rref[r][fc]
        basis.append(vec)
    return basis
