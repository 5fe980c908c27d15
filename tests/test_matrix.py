"""Exact dense matrices: construction, arithmetic, det, rank, inverse.

The integer kernels are cross-checked differentially on Gaussian entries:
against the brute-force oracles (permutation expansion, minor search,
adjugate, the triple-loop product) on small matrices, and against the
former Scalar elimination kernels up to 8x8, so both code paths can
later arbitrate the closed forms.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from meetjoin.errors import DimensionError, SingularError
from meetjoin.matrix import Matrix
from meetjoin.scalar import ONE, ZERO, Scalar

from oracles import (
    naive_det,
    naive_inverse,
    naive_matmul,
    naive_rank,
    old_det,
    old_inverse,
    old_rank,
)


I = Scalar(0, 1)

small_entries = st.builds(
    Scalar,
    st.fractions(min_value=-4, max_value=4, max_denominator=3),
    st.fractions(min_value=-2, max_value=2, max_denominator=2),
)


# Gaussian entries, a third of them zero, so zero pivots and row swaps occur
sparse_entries = st.one_of(st.just(ZERO), small_entries, small_entries)


def shaped(rows, cols, entries=sparse_entries):
    return st.lists(
        st.lists(entries, min_size=cols, max_size=cols), min_size=rows, max_size=rows
    ).map(Matrix)


def square(n, entries=small_entries):
    return shaped(n, n, entries)


@st.composite
def squares(draw, max_n):
    """Square Gaussian matrices of size 1..max_n; one in three is made
    singular by replacing a row with a Gaussian multiple of another."""
    n = draw(st.integers(min_value=1, max_value=max_n))
    m = draw(shaped(n, n))
    if n > 1 and draw(st.integers(min_value=0, max_value=2)) == 0:
        src, dst = draw(st.permutations(range(n)))[:2]
        factor = draw(small_entries)
        rows = [list(row) for row in m.entries]
        rows[dst] = [factor * e for e in rows[src]]
        m = Matrix(rows)
    return m


def test_construction_and_access():
    m = Matrix([[1, 2], [3, 4]])
    assert (m.rows, m.cols) == (2, 2)
    assert m[0, 1] == Scalar(2)
    assert m.row(1) == (Scalar(3), Scalar(4))


def test_construction_rejects_ragged_and_empty():
    with pytest.raises(DimensionError):
        Matrix([[1, 2], [3]])
    with pytest.raises(DimensionError):
        Matrix([])


def test_immutability():
    m = Matrix([[1]])
    with pytest.raises(AttributeError):
        m.rows = 2
    with pytest.raises(AttributeError):
        m._ints = None


def test_integer_form_is_kept_and_invisible():
    m = Matrix([[Fraction(1, 2), I], [3, Scalar(1, -1)]])
    fresh = Matrix(m.entries)
    det, inverse, rank = m.det(), m.inverse(), m.rank()
    assert m @ inverse == Matrix.identity(2)
    # eliminating worked on copies: the kept form still gives the same answers
    assert (m.det(), m.inverse(), m.rank()) == (det, inverse, rank)
    assert m == fresh and hash(m) == hash(fresh)
    assert {m: 1}[fresh] == 1


def test_identity_zeros_diagonal():
    assert Matrix.identity(2) == Matrix([[1, 0], [0, 1]])
    assert Matrix.zeros(2, 3).is_zero()
    assert Matrix.diagonal([1, 2]) == Matrix([[1, 0], [0, 2]])


def test_matmul_shapes_and_values():
    a = Matrix([[1, 2], [3, 4]])
    b = Matrix([[0, 1], [1, 0]])
    assert a @ b == Matrix([[2, 1], [4, 3]])
    with pytest.raises(DimensionError):
        a @ Matrix([[1, 2, 3]])


def test_addition_and_negation():
    a = Matrix([[1, 2], [3, 4]])
    b = Matrix([[5, 6], [7, 8]])
    assert a + b == Matrix([[6, 8], [10, 12]])
    assert b - a == Matrix([[4, 4], [4, 4]])
    assert -a == Matrix([[-1, -2], [-3, -4]])


def test_transpose():
    m = Matrix([[1, 2, 3], [4, 5, 6]])
    assert m.transpose() == Matrix([[1, 4], [2, 5], [3, 6]])
    assert m.transpose().transpose() == m


def test_det_known_values():
    assert Matrix([[1, 1], [1, 2]]).det() == ONE
    assert Matrix([[2, 4, 8], [4, 4, 8], [8, 8, 8]]).det() == Scalar(64)
    assert Matrix([[1, 2], [2, 4]]).det() == ZERO
    assert Matrix([[Scalar(0, 1)]]).det() == Scalar(0, 1)


def test_det_needs_square():
    with pytest.raises(DimensionError):
        Matrix([[1, 2, 3], [4, 5, 6]]).det()


def test_rank_known_values():
    assert Matrix([[1, 1], [1, 2]]).rank() == 2
    assert Matrix([[1, 2], [2, 4]]).rank() == 1
    assert Matrix.zeros(3, 3).rank() == 0
    assert Matrix([[1, 2, 3], [4, 5, 6]]).rank() == 2


def test_inverse_known_values():
    m = Matrix([[1, 1], [1, 2]])
    assert m.inverse() == Matrix([[2, -1], [-1, 1]])
    assert m @ m.inverse() == Matrix.identity(2)
    c = Matrix([[Scalar(0, 2)]])
    assert c.inverse() == Matrix([[Scalar(0, Fraction(-1, 2))]])


def test_inverse_singular():
    with pytest.raises(SingularError):
        Matrix([[1, 2], [2, 4]]).inverse()


def test_str_alignment():
    text = str(Matrix([[1, -10], [Fraction(1, 2), 3]]))
    lines = text.splitlines()
    assert len(lines) == 2
    assert lines[0].startswith("[") and lines[0].endswith("]")
    assert len(lines[0]) == len(lines[1])


@settings(max_examples=60, deadline=None)
@given(square(3))
def test_det_matches_permutation_expansion(m):
    assert m.det() == naive_det(m)


@settings(max_examples=40, deadline=None)
@given(square(4, st.integers(min_value=-3, max_value=3).map(Scalar)))
def test_det_matches_permutation_expansion_4x4(m):
    assert m.det() == naive_det(m)


@settings(max_examples=40, deadline=None)
@given(square(3, st.integers(min_value=-2, max_value=2).map(Scalar)))
def test_rank_matches_minor_search(m):
    assert m.rank() == naive_rank(m)


@settings(max_examples=40, deadline=None)
@given(square(3))
def test_inverse_matches_adjugate(m):
    if m.det().is_zero:
        with pytest.raises(SingularError):
            m.inverse()
    else:
        inv = m.inverse()
        assert inv == naive_inverse(m)
        assert m @ inv == Matrix.identity(3)
        assert inv @ m == Matrix.identity(3)


@settings(max_examples=40, deadline=None)
@given(square(3), square(3))
def test_det_is_multiplicative(a, b):
    assert (a @ b).det() == a.det() * b.det()


@settings(max_examples=40, deadline=None)
@given(square(3))
def test_transpose_preserves_det_and_rank(m):
    assert m.transpose().det() == m.det()
    assert m.transpose().rank() == m.rank()


@settings(max_examples=40, deadline=None)
@given(square(3))
def test_triangular_det_is_diagonal_product(m):
    # zero out above the diagonal, then the determinant must collapse
    lower = Matrix(
        [[m[i, j] if j <= i else ZERO for j in range(3)] for i in range(3)]
    )
    product = ONE
    for i in range(3):
        product = product * lower[i, i]
    assert lower.det() == product


@settings(max_examples=40, deadline=None)
@given(
    st.lists(
        st.lists(small_entries, min_size=2, max_size=2), min_size=3, max_size=3
    ).map(Matrix)
)
def test_rank_bounded_by_shape(m):
    assert m.rank() <= min(m.rows, m.cols)
    assert m.transpose().rank() == m.rank()


@settings(max_examples=40, deadline=None)
@given(square(3), square(3))
def test_invertible_factor_preserves_rank(a, p):
    if p.det().is_zero:
        return
    assert (p @ a).rank() == a.rank()
    assert (a @ p).rank() == a.rank()


@settings(max_examples=60, deadline=None)
@given(squares(8))
def test_det_and_inverse_match_old_kernel(m):
    assert m.det() == old_det(m)
    try:
        want = old_inverse(m)
    except SingularError:
        with pytest.raises(SingularError):
            m.inverse()
    else:
        assert m.inverse() == want


@settings(max_examples=80, deadline=None)
@given(squares(4))
def test_det_and_inverse_match_naive_oracles(m):
    det = m.det()
    assert det == naive_det(m)
    if det.is_zero:
        with pytest.raises(SingularError):
            m.inverse()
    else:
        assert m.inverse() == naive_inverse(m)


@settings(max_examples=80, deadline=None)
@given(
    st.tuples(st.integers(1, 4), st.integers(1, 6)).flatmap(lambda shape: shaped(*shape))
)
def test_rank_on_rectangles_matches_naive_and_old_kernel(m):
    assert m.rank() == naive_rank(m) == old_rank(m)


@settings(max_examples=50, deadline=None)
@given(
    st.tuples(st.integers(1, 4), st.integers(1, 4), st.integers(1, 4)).flatmap(
        lambda shape: st.tuples(shaped(shape[0], shape[1]), shaped(shape[1], shape[2]))
    )
)
def test_matmul_matches_triple_loop(pair):
    a, b = pair
    assert a @ b == naive_matmul(a, b)


@pytest.mark.parametrize(
    "m",
    [
        Matrix([[0, 1, 2], [3, 0, 1], [1, 1, 0]]),  # zero first pivot: row swap
        Matrix([[0, 0, 1], [0, 2, 0], [3, 0, 0]]),  # swaps in two columns
        Matrix([[I, 1], [2, 3]]),  # pure-imaginary first pivot
        Matrix([[Scalar(0, 2), Scalar(1, 1)], [Scalar(0, Fraction(1, 3)), Scalar(1, -1)]]),
        Matrix([[Scalar(Fraction(-2, 3), 5)]]),  # 1x1
        Matrix([[Fraction(1, 2), I, 3], [I, Fraction(-1, 4), 0], [2, 0, Scalar(1, 1)]]),
    ],
)
def test_fixed_nonsingular_cases(m):
    det = m.det()
    assert det == naive_det(m) == old_det(m)
    assert not det.is_zero
    assert m.rank() == m.rows
    inv = m.inverse()
    assert inv == naive_inverse(m) == old_inverse(m)
    assert m @ inv == inv @ m == Matrix.identity(m.rows)


@pytest.mark.parametrize(
    "m",
    [
        Matrix([[I, 1], [-1, I]]),  # row 2 is i times row 1
        Matrix([[1, Scalar(1, 1)], [Scalar(1, -1), 2]]),  # (1-i) * row 1
        Matrix([[0, 0], [0, 0]]),
        Matrix([[0, I, 1], [0, 2, Scalar(0, -2)], [0, 1, Fraction(1, 2)]]),  # zero column
        Matrix([[1, 2, 3], [4, 5, 6], [7, 8, 9]]),
    ],
)
def test_fixed_singular_cases(m):
    assert m.det() == ZERO == naive_det(m) == old_det(m)
    assert m.rank() == naive_rank(m) == old_rank(m) < m.rows
    with pytest.raises(SingularError):
        m.inverse()
