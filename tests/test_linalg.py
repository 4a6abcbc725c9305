from fractions import Fraction

import pytest

from weylcas import linalg


def F(rows):
    return [[Fraction(x) for x in row] for row in rows]


def test_block_matrix_places_blocks_and_zero_fills():
    a = F([[1, 2]])
    b = F([[3], [4]])
    out = linalg.block_matrix([[a, None], [None, b]], [1, 2], [2, 1])
    assert out == F([[1, 2, 0], [0, 0, 3], [0, 0, 4]])


def test_block_matrix_empty_blocks():
    # a block with no rows is [] whatever its width; one with no columns is
    # a list of empty rows
    out = linalg.block_matrix([[[[]], F([[5]])], [[[], []], None]], [1, 2], [0, 1])
    assert out == F([[5], [0], [0]])
    out = linalg.block_matrix([[[], []], [None, F([[7]])]], [0, 1], [2, 1])
    assert out == F([[0, 0, 7]])
    assert linalg.block_matrix([[[]]], [0], [3]) == []
    assert linalg.block_matrix([[None, None]], [2], [0, 0]) == [[], []]


def test_block_matrix_rejects_misshaped_block():
    with pytest.raises(ValueError, match="expected 1x2"):
        linalg.block_matrix([[F([[1, 2, 3]])]], [1], [2])
    with pytest.raises(ValueError, match="expected 2x1"):
        linalg.block_matrix([[F([[1]])]], [2], [1])
    with pytest.raises(ValueError):
        linalg.block_matrix([[None]], [1, 1], [1])


def test_cohomology_dim_levels():
    # 0 -> Q --(1,1)--> Q^2 --(1,-1)--> Q -> 0 is exact
    dims = [1, 2, 1]
    diffs = [F([[1], [1]]), F([[1, -1]])]
    assert [linalg.cohomology_dim(dims, diffs, t) for t in range(3)] == [0, 0, 0]
    # Q --0--> Q^2 --(1,0)--> Q: the first level keeps its kernel, the last
    # level its cokernel, and the middle level one class
    diffs = [F([[0], [0]]), F([[1, 0]])]
    assert [linalg.cohomology_dim(dims, diffs, t) for t in range(3)] == [1, 1, 0]
    diffs = [F([[1], [0]]), F([[0, 0]])]
    assert [linalg.cohomology_dim(dims, diffs, t) for t in range(3)] == [0, 1, 1]


def test_cohomology_dim_zero_dimensional_level():
    # Q -> 0 -> Q: the zero level contributes nothing, whatever its maps
    dims = [1, 0, 1]
    diffs = [[], F([[]])]
    assert [linalg.cohomology_dim(dims, diffs, t) for t in range(3)] == [1, 0, 1]
    # a complex with a single level and no maps
    assert linalg.cohomology_dim([3], [], 0) == 3
