"""Exact elimination over ℤ and integer kernels (§4.2).

The static algorithm solves ``M z = 0`` for the fibre-cardinality vector,
where ``M`` is a small integer matrix derived from the minimum base.  The
paper's agents use "Gaussian elimination over the Euclidean ring ℤ", and
so does this module: a sparse, fraction-free Gauss–Jordan elimination.
Rows are ``{column: int}`` dicts holding only their nonzero entries (the
refinement and symmetry systems are mostly zeros and ±1); a row is
cleared by cross-multiplication with the pivot row and then divided by
the gcd of its entries, so coefficients stay small and no rational is
formed until the kernel basis is read off.  The reduced rows span the
same space as the unique reduced row echelon form, so the basis returned
is exactly the one textbook elimination over ``fractions.Fraction``
gives; the test suite keeps that ``Fraction`` elimination as an oracle.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from typing import Dict, List, Optional, Sequence


Matrix = Sequence[Sequence[int]]

#: A sparse integer row: column index -> nonzero entry.
Row = Dict[int, int]

_ZERO = Fraction(0)
_ONE = Fraction(1)


def gcd_list(xs: Sequence[int]) -> int:
    g = 0
    for x in xs:
        g = gcd(g, abs(x))
    return g


def lcm_list(xs: Sequence[int]) -> int:
    out = 1
    for x in xs:
        if x == 0:
            raise ValueError("lcm of zero is undefined")
        out = out * abs(x) // gcd(out, abs(x))
    return out


def _eliminate(target: Row, pivot: Row, col: int) -> None:
    """Clear ``target[col]`` in place with the pivot row, fraction-free:
    ``target ← (p/g)·target − (t/g)·pivot`` for ``p = pivot[col]``,
    ``t = target[col]``, ``g = gcd(p, t)``, then divide out the row's
    content."""
    p, t = pivot[col], target[col]
    g = gcd(p, t)
    p, t = p // g, t // g
    if p != 1:
        for c in target:
            target[c] *= p
    for c, x in pivot.items():
        y = target.get(c, 0) - t * x
        if y:
            target[c] = y
        else:
            del target[c]
    if target:
        g = gcd(*target.values())
        if g != 1:
            for c in target:
                target[c] //= g


def _reduce(matrix: Matrix) -> Dict[int, Row]:
    """Reduced echelon form of ``matrix`` as ``{pivot column: row}``.

    Each row holds its pivot column plus free columns only (Gauss–Jordan),
    scaled to coprime integers — the RREF row times its pivot entry.
    Columns are taken left to right, so the pivot set is the RREF's; the
    pivot row for a column is the sparsest candidate (fewest entries,
    then smallest pivot), which keeps fill-in and coefficient growth low.
    """
    rows: List[Row] = []
    for row in matrix:
        sparse = {c: x for c, x in enumerate(row) if x}
        if sparse:
            rows.append(sparse)
    pivots: Dict[int, Row] = {}
    n_cols = len(matrix[0]) if rows else 0
    for col in range(n_cols):
        if not rows:
            break
        holders = [i for i, row in enumerate(rows) if col in row]
        if not holders:
            continue
        chosen = min(holders, key=lambda i: (len(rows[i]), abs(rows[i][col])))
        pivot = rows[chosen]
        for i in holders:
            if i != chosen:
                _eliminate(rows[i], pivot, col)
        for row in pivots.values():
            if col in row:
                _eliminate(row, pivot, col)
        pivots[col] = pivot
        rows = [row for i, row in enumerate(rows) if row and i != chosen]
    return pivots


def rational_rank(matrix: Matrix) -> int:
    """The rank of an integer matrix over ℚ (exact)."""
    return len(_reduce(matrix))


def kernel_basis(matrix: Matrix) -> List[List[Fraction]]:
    """A basis of ``ker`` (right null space) over ℚ, exact.

    One vector per free column ``f`` of the reduced row echelon form:
    ``1`` at ``f``, ``-rref[r][f]`` at the pivot column of row ``r``, and
    ``0`` elsewhere.
    """
    if not matrix:
        return []
    n_cols = len(matrix[0])
    pivots = _reduce(matrix)
    basis: List[List[Fraction]] = []
    for free in range(n_cols):
        if free in pivots:
            continue
        vec = [_ZERO] * n_cols
        vec[free] = _ONE
        for col, row in pivots.items():
            x = row.get(free)
            if x:
                vec[col] = Fraction(-x, row[col])
        basis.append(vec)
    return basis


def primitive_integer_vector(vec: Sequence[Fraction]) -> List[int]:
    """Scale a rational vector to coprime integers (sign: first nonzero > 0)."""
    denoms = [f.denominator for f in vec]
    scale = lcm_list(denoms) if denoms else 1
    ints = [int(f * scale) for f in vec]
    g = gcd_list(ints)
    if g:
        ints = [x // g for x in ints]
    first = next((x for x in ints if x != 0), 0)
    if first < 0:
        ints = [-x for x in ints]
    return ints


def integer_kernel_vector(matrix: Matrix) -> Optional[List[int]]:
    """The primitive integer kernel vector, when ``ker`` has dimension one.

    Returns ``None`` when the kernel dimension differs from one.  For the
    fibre matrix of Theorem 4.1 the kernel is one-dimensional and spanned
    by a positive vector (the fibre cardinalities up to a common factor);
    callers should check positivity if they rely on it.
    """
    basis = kernel_basis(matrix)
    if len(basis) != 1:
        return None
    return primitive_integer_vector(basis[0])


def matvec(matrix: Matrix, vec: Sequence[int]) -> List[int]:
    """Integer matrix-vector product (exact)."""
    return [sum(a * x for a, x in zip(row, vec)) for row in matrix]
