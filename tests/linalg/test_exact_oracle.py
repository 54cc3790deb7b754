"""The sparse integer kernel against the ``Fraction`` oracle.

:mod:`repro.linalg.exact` eliminates over ℤ; :mod:`.reference_exact`
keeps the dense ``Fraction`` Gauss–Jordan it replaced.  Reduced row
echelon form is unique, so the two must agree exactly: the same kernel
basis (a list of ``Fraction`` lists, entry for entry) and the same rank.
"""

from __future__ import annotations

from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.linalg.exact import kernel_basis, rational_rank
from tests.linalg import reference_exact as oracle

#: Mostly zeros, like the systems the algorithms build.
entries = st.sampled_from([0, 0, 0, 0, 0, 1, -1, 2, -2, 3, -3])


@st.composite
def sparse_matrices(draw, max_rows: int = 12, max_cols: int = 40):
    """Sparse integer matrices, including empty ones (no rows, or rows of
    no columns), all-zero rows, and wide systems."""
    cols = draw(st.integers(min_value=0, max_value=max_cols))
    row = st.one_of(
        st.just([0] * cols),
        st.lists(entries, min_size=cols, max_size=cols),
    )
    return draw(st.lists(row, min_size=0, max_size=max_rows))


@st.composite
def history_tree_systems(draw):
    """Systems shaped like the history-tree solver's.

    Nodes sit on levels ``0 .. depth`` with a parent on the level above.
    A refinement row says a node's multiplicity is the sum of its
    children's (``+1`` on the parent, ``-1`` on each child); a symmetry
    row says two sibling-level classes saw each other equally often
    (positive counts on one's children, negative on the other's).
    """
    depth = draw(st.integers(min_value=1, max_value=4))
    levels = [list(range(draw(st.integers(min_value=1, max_value=3))))]
    parent = {}
    index = {(0, i): i for i in levels[0]}
    for lv in range(1, depth + 1):
        width = draw(st.integers(min_value=1, max_value=6))
        levels.append(list(range(width)))
        for i in range(width):
            index[(lv, i)] = len(index)
            parent[(lv, i)] = (lv - 1, draw(st.sampled_from(levels[lv - 1])))
    n = len(index)
    children = {}
    for node, up in parent.items():
        children.setdefault(up, []).append(node)
    rows = []
    for lv in range(depth):
        for i in levels[lv]:
            row = [0] * n
            row[index[(lv, i)]] = 1
            for child in children.get((lv, i), []):
                row[index[child]] -= 1
            rows.append(row)
    for lv in range(depth):
        for a in levels[lv]:
            for b in levels[lv][a + 1:]:
                if not draw(st.booleans()):
                    continue  # unconstrained pairs keep some kernels nontrivial
                row = [0] * n
                for x in children.get((lv, a), []):
                    row[index[x]] += draw(st.integers(min_value=0, max_value=3))
                for y in children.get((lv, b), []):
                    row[index[y]] -= draw(st.integers(min_value=0, max_value=3))
                if any(row):
                    rows.append(row)
    return draw(st.permutations(rows))


def _assert_matches_oracle(matrix):
    basis = kernel_basis(matrix)
    assert basis == oracle.kernel_basis(matrix)
    assert all(type(x) is Fraction for vec in basis for x in vec)
    rank = rational_rank(matrix)
    assert type(rank) is int
    assert rank == oracle.rational_rank(matrix)


class TestKernelMatchesFractionOracle:
    @settings(max_examples=300, deadline=None)
    @given(sparse_matrices())
    def test_sparse_matrices(self, matrix):
        _assert_matches_oracle(matrix)

    @settings(max_examples=150, deadline=None)
    @given(history_tree_systems())
    def test_history_tree_shaped_systems(self, matrix):
        _assert_matches_oracle(matrix)

    def test_empty_and_degenerate(self):
        for matrix in ([], [[]], [[], []], [[0, 0, 0]], [[0] * 40] * 3):
            _assert_matches_oracle(matrix)
