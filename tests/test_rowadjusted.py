"""Recursion tables, factorization, and the closed-form theorems.

Every closed form is checked against the brute-force oracles from
`oracles.py`, which share no code with the library's elimination.
"""

import re
from fractions import Fraction
from pathlib import Path

import pytest

from meetjoin.errors import (
    DimensionError,
    MissingValueError,
    NotClosedError,
    SingularPsiError,
)
from meetjoin.matrix import Matrix
from meetjoin.posets import (
    JOIN,
    MEET,
    ClosureSet,
    DivisorLattice,
    FinitePoset,
    Subset,
    closure_set,
    incidence_matrix,
    mobius_matrix,
)
from meetjoin.rowadjusted import (
    FunctionFamily,
    RankReport,
    build_matrix,
    closed_psi,
    factorize,
    ordinary_rank,
    psi_table,
    rank_report,
    theorem_det,
    theorem_inverse,
    theta_table,
)
from meetjoin.randomcheck import psi_by_mobius, psi_from_matrix
from meetjoin.scalar import ONE, ZERO, Scalar

from oracles import (
    naive_det,
    naive_inverse,
    naive_rank,
    old_mobius_matrix,
    old_psi_recursion,
    old_theta_table,
)


PENTAGON_MATRIX = Matrix(
    [
        [0, 0, 0, 0, 0],
        [0, 1, 0, 0, 1],
        [1, 1, 1, 1, 1],
        [0, 0, 1, 1, 1],
        [0, 0, 0, 1, 1],
    ]
)


@pytest.fixture
def pentagon():
    backend = FinitePoset(
        [("x1", "x2"), ("x1", "x3"), ("x3", "x4"), ("x4", "x5"), ("x2", "x5")],
        elements=["x1", "x2", "x3", "x4", "x5"],
    )
    subset = Subset(backend, ["x1", "x2", "x3", "x4", "x5"])
    ones = {
        (1, "x2"), (2, "x1"), (2, "x3"), (3, "x3"), (3, "x4"), (4, "x4"), (4, "x5"),
    }
    family = FunctionFamily(
        [
            {x: (ONE if (i, x) in ones else ZERO) for x in subset.members}
            for i in range(5)
        ]
    )
    return subset, family


def id_family(members):
    return FunctionFamily([{x: x for x in members}] * len(members))


def test_family_validation():
    with pytest.raises(DimensionError):
        FunctionFamily([])
    fam = FunctionFamily([{1: 1}])
    assert fam.n == 1
    assert fam.value(0, 1) == 1
    with pytest.raises(MissingValueError):
        fam.value(0, 2)


def test_family_from_callable():
    fam = FunctionFamily.from_callable(2, lambda i, x: x + i, [1, 2])
    assert fam.value(0, 2) == 2
    assert fam.value(1, 2) == 3


def test_psi_pentagon_diagonal(pentagon):
    subset, family = pentagon
    table = psi_table(subset, family, MEET)
    assert table.diagonal() == [ZERO, ONE, ZERO, ZERO, ZERO]


def test_psi_single_element():
    subset = Subset(DivisorLattice(), [6])
    fam = FunctionFamily([{6: Scalar(7, 2)}])
    table = psi_table(subset, fam, MEET)
    assert table.grid == Matrix([[Scalar(7, 2)]])
    assert psi_table(subset, fam, JOIN).grid == Matrix([[Scalar(7, 2)]])


def test_psi_join_chain():
    subset = Subset(DivisorLattice(), [2, 4, 8])
    table = psi_table(subset, id_family([2, 4, 8]), JOIN)
    assert table.grid.row(0) == (Scalar(-2), Scalar(-4), Scalar(8))


def test_psi_methods_agree(pentagon):
    subset, family = pentagon
    for mode in (MEET, JOIN):
        table = psi_table(subset, family, mode)
        assert psi_by_mobius(family, table.closure) == table.grid


def test_psi_missing_value_on_closure():
    subset = Subset(DivisorLattice(), [4, 6])
    fam = FunctionFamily([{4: 1, 6: 2}] * 2)
    with pytest.raises(MissingValueError):
        psi_table(subset, fam, MEET)


def test_build_matrix_pentagon(pentagon):
    subset, family = pentagon
    assert build_matrix(subset, family, MEET) == PENTAGON_MATRIX


def test_build_matrix_zero_family():
    subset = Subset(DivisorLattice(), [1, 2, 4])
    fam = FunctionFamily([{d: 0 for d in (1, 2, 4)}] * 3)
    assert build_matrix(subset, fam, MEET).is_zero()


def test_build_matrix_join_chain():
    subset = Subset(DivisorLattice(), [2, 4, 8])
    m = build_matrix(subset, id_family([2, 4, 8]), JOIN)
    assert m == Matrix([[2, 4, 8], [4, 4, 8], [8, 8, 8]])


def test_build_matrix_row_count_mismatch():
    subset = Subset(DivisorLattice(), [1, 2])
    with pytest.raises(DimensionError):
        build_matrix(subset, FunctionFamily([{1: 1, 2: 1}]), MEET)


def test_factorize_divisor_pair():
    subset = Subset(DivisorLattice(), [1, 2])
    fact = factorize(subset, id_family([1, 2]), MEET)
    assert fact.incidence == Matrix([[1, 0], [1, 1]])
    assert fact.masked_psi == Matrix([[1, 0], [1, 1]])
    assert fact.product == Matrix([[1, 1], [1, 2]])
    assert fact.product == build_matrix(subset, id_family([1, 2]), MEET)


def test_factorize_single_element():
    subset = Subset(DivisorLattice(), [7])
    fam = FunctionFamily([{7: 5}])
    fact = factorize(subset, fam, MEET)
    assert fact.incidence == Matrix([[1]])
    assert fact.psi_grid == Matrix([[5]])
    assert fact.masked_psi == Matrix([[5]])
    assert fact.product == Matrix([[5]])


def test_factorize_pentagon(pentagon):
    subset, family = pentagon
    fact = factorize(subset, family, MEET)
    assert fact.product == PENTAGON_MATRIX


def test_factorize_through_larger_closure():
    subset = Subset(DivisorLattice(), [4, 6])
    fam = FunctionFamily([{d: d for d in (1, 2, 3, 4, 6, 12)}] * 2)
    direct = build_matrix(subset, fam, MEET)
    minimal = factorize(subset, fam, MEET)
    assert minimal.product == direct
    larger = ClosureSet(DivisorLattice(), [1, 2, 3, 4, 6, 12], MEET)
    bigger = factorize(subset, fam, MEET, larger)
    assert bigger.product == direct
    assert bigger.incidence.cols == 6


def test_factorize_rejects_wrong_mode_closure():
    subset = Subset(DivisorLattice(), [1, 2])
    join_closure = ClosureSet(DivisorLattice(), [1, 2], JOIN)
    with pytest.raises(ValueError):
        factorize(subset, id_family([1, 2]), MEET, join_closure)


def test_psi_from_matrix_divisor_pair():
    subset = Subset(DivisorLattice(), [1, 2])
    m = Matrix([[1, 1], [1, 2]])
    assert psi_from_matrix(m, subset) == Matrix([[1, 0], [1, 1]])
    joined = Matrix([[1, 2], [2, 2]])
    assert psi_from_matrix(joined, subset, JOIN) == Matrix([[-1, 2], [0, 2]])


def test_psi_from_matrix_zero():
    subset = Subset(DivisorLattice(), [1, 2])
    assert psi_from_matrix(Matrix.zeros(2, 2), subset).is_zero()


def test_psi_from_matrix_pentagon(pentagon):
    subset, _ = pentagon
    grid = psi_from_matrix(PENTAGON_MATRIX, subset)
    assert [grid[i, i] for i in range(5)] == [ZERO, ONE, ZERO, ZERO, ZERO]


def test_psi_from_matrix_requires_closed():
    subset = Subset(DivisorLattice(), [4, 6])
    with pytest.raises(NotClosedError):
        psi_from_matrix(Matrix.zeros(2, 2), subset)
    with pytest.raises(NotClosedError):
        psi_from_matrix(Matrix.zeros(2, 2), subset, JOIN)
    closed = Subset(DivisorLattice(), [1, 2])
    with pytest.raises(DimensionError):
        psi_from_matrix(Matrix.zeros(3, 3), closed)


def test_theorem_det_examples(pentagon):
    chain = Subset(DivisorLattice(), [1, 2, 3])
    fam = id_family([1, 2, 3])
    det = theorem_det(closed_psi(chain, fam, MEET))
    assert det == Scalar(2)
    assert det == naive_det(build_matrix(chain, fam, MEET))

    subset, family = pentagon
    assert theorem_det(closed_psi(subset, family, MEET)) == ZERO

    jchain = Subset(DivisorLattice(), [2, 4, 8])
    jfam = id_family([2, 4, 8])
    jdet = theorem_det(closed_psi(jchain, jfam, JOIN))
    assert jdet == Scalar(64)
    assert jdet == naive_det(build_matrix(jchain, jfam, JOIN))


def test_theorem_det_requires_closed():
    subset = Subset(DivisorLattice(), [4, 6])
    family = FunctionFamily([{2: 1, 4: 1, 6: 1}] * 2)
    with pytest.raises(NotClosedError):
        closed_psi(subset, family, MEET)
    # a table over the closure {2, 4, 6} is not the subset's own table
    table = psi_table(subset, family, MEET)
    assert table.closure.elements == (2, 4, 6)
    for closed_form in (theorem_det, rank_report, theta_table, theorem_inverse):
        with pytest.raises(NotClosedError):
            closed_form(table)


def test_rank_report_examples(pentagon):
    subset, family = pentagon
    rr = rank_report(closed_psi(subset, family, MEET))
    assert (rr.k, rr.lower, rr.upper) == (4, 1, 4)
    assert build_matrix(subset, family, MEET).rank() == 4 == naive_rank(PENTAGON_MATRIX)

    zeros = FunctionFamily([{d: 0 for d in (1, 2, 4)}] * 3)
    chain = Subset(DivisorLattice(), [1, 2, 4])
    rr = rank_report(closed_psi(chain, zeros, MEET))
    assert (rr.lower, rr.upper) == (0, 0)
    assert build_matrix(chain, zeros, MEET).rank() == 0

    fam = id_family([1, 2, 3])
    rr = rank_report(closed_psi(Subset(DivisorLattice(), [1, 2, 3]), fam, MEET))
    assert (rr.k, rr.lower, rr.upper) == (0, 3, 3)
    assert build_matrix(Subset(DivisorLattice(), [1, 2, 3]), fam, MEET).rank() == 3


def test_closed_forms_need_no_elimination(monkeypatch, pentagon):
    def no_elimination(self):
        raise AssertionError("a closed form ran elimination")

    for name in ("det", "rank", "inverse"):
        monkeypatch.setattr(Matrix, name, no_elimination)

    table = closed_psi(*pentagon, MEET)
    assert theorem_det(table) == ZERO
    assert rank_report(table) == RankReport(k=4, lower=1, upper=4)

    chain = Subset(DivisorLattice(), [1, 2, 3])
    table = closed_psi(chain, id_family([1, 2, 3]), MEET)
    assert theorem_det(table) == Scalar(2)
    assert rank_report(table) == RankReport(k=0, lower=3, upper=3)
    assert theorem_inverse(table) == Matrix(
        [
            [Fraction(5, 2), -1, Fraction(-1, 2)],
            [-1, 1, 0],
            [Fraction(-1, 2), 0, Fraction(1, 2)],
        ]
    )
    assert ordinary_rank(chain, {1: 1, 2: 2, 3: 3}, MEET) == 3

    # all-zero family: the masked grid L, and with it the matrix, is zero
    zeros = Subset(DivisorLattice(), [1, 2, 4])
    table = closed_psi(zeros, FunctionFamily([{d: 0 for d in (1, 2, 4)}] * 3), MEET)
    assert rank_report(table) == RankReport(k=3, lower=0, upper=0)
    assert ordinary_rank(zeros, {1: 0, 2: 0, 4: 0}, MEET) == 0
    assert ordinary_rank(zeros, {1: 9, 2: 9, 4: 9}, MEET) == 1
    # zero diagonal everywhere, yet L (and the matrix) is not zero
    pair = Subset(DivisorLattice(), [1, 2])
    table = closed_psi(pair, FunctionFamily([{1: 0, 2: 0}, {1: 1, 2: 1}]), MEET)
    assert rank_report(table) == RankReport(k=2, lower=0, upper=1)

    jchain = Subset(DivisorLattice(), [2, 4, 8])
    jfam = id_family([2, 4, 8])
    table = closed_psi(jchain, jfam, JOIN)
    assert theorem_det(table) == Scalar(64)
    assert rank_report(table) == RankReport(k=0, lower=3, upper=3)
    assert theorem_inverse(table) == naive_inverse(build_matrix(jchain, jfam, JOIN))
    assert ordinary_rank(jchain, {2: 2, 4: 4, 8: 8}, JOIN) == 3


def test_recurrences_need_no_scalar_arithmetic(monkeypatch):
    # Psi, Θ, the inverse and Möbius run on integers and build Scalars only
    # at the end, so they still give the same values with Scalar arithmetic
    # switched off.
    i = Scalar(0, 1)
    pentagon = FinitePoset(
        [("x1", "x2"), ("x1", "x3"), ("x3", "x4"), ("x4", "x5"), ("x2", "x5")],
        elements=["x1", "x2", "x3", "x4", "x5"],
    )
    cases = [
        (
            Subset(pentagon, pentagon.elements),
            FunctionFamily(
                [{x: Scalar((k + 1) ** 2, r) for k, x in enumerate(pentagon.elements)} for r in range(5)]
            ),
            MEET,
        ),
        (
            Subset(DivisorLattice(), [1, 2, 3, 4, 5, 6]),
            FunctionFamily(
                [{d: Scalar(Fraction(d, r + 1), r - d) for d in range(1, 7)} for r in range(6)]
            ),
            MEET,
        ),
        (Subset(DivisorLattice(), [2, 4, 8]), FunctionFamily([{2: i, 4: 4, 8: Fraction(8, 3)}] * 3), JOIN),
    ]
    expected = []
    for subset, family, mode in cases:
        table = closed_psi(subset, family, mode)
        expected.append(
            (
                table.grid,
                theta_table(table),
                theorem_inverse(table),
                mobius_matrix(table.closure),
                factorize(subset, family, mode),
            )
        )

    def no_arithmetic(*args):
        raise AssertionError("a recurrence ran Scalar arithmetic")

    for name in ("__add__", "__sub__", "__mul__", "__truediv__", "__neg__"):
        monkeypatch.setattr(Scalar, name, no_arithmetic)

    for (subset, family, mode), want in zip(cases, expected):
        table = psi_table(subset, family, mode, ClosureSet.from_subset(subset, mode))
        got = (
            table.grid,
            theta_table(table),
            theorem_inverse(table),
            mobius_matrix(table.closure),
            factorize(subset, family, mode),
        )
        assert got == want


def _no_leq(*args):
    raise AssertionError("the order relation was read through leq again")


def _gaussian_family(members):
    return FunctionFamily(
        [{x: Scalar((k + 1) ** 2, r) for k, x in enumerate(members)} for r in range(len(members))]
    )


@pytest.mark.parametrize("mode", [MEET, JOIN])
def test_closure_set_answers_every_order_question(monkeypatch, mode):
    # A closure set tabulates its order once. On divisors, meet and join
    # are gcd and lcm, so once the set is built nothing reads leq.
    subset = Subset(DivisorLattice(), [1, 2, 3, 6])
    family = _gaussian_family(subset.members)
    closure = ClosureSet.from_subset(subset, mode)
    table = closed_psi(subset, family, mode)
    matrix = build_matrix(subset, family, mode)
    leq = subset.backend.leq
    related = leq if mode == MEET else (lambda d, x: leq(x, d))
    want = (
        old_psi_recursion(family, closure),
        matrix,
        Matrix([[ONE if related(d, x) else ZERO for d in closure.elements] for x in subset.members]),
        old_mobius_matrix(closure),
        RankReport(k=0, lower=4, upper=4),
        old_theta_table(table),
        naive_inverse(matrix),
    )

    monkeypatch.setattr(DivisorLattice, "leq", _no_leq)
    got = (
        psi_table(subset, family, mode, closure).grid,
        factorize(subset, family, mode, closure).product,
        incidence_matrix(subset, closure),
        mobius_matrix(closure),
        rank_report(table),
        theta_table(table),
        theorem_inverse(table),
    )
    assert got == want


@pytest.mark.parametrize("mode", [MEET, JOIN])
def test_pentagon_table_answers_mobius_rank_and_theta(monkeypatch, mode, pentagon):
    # a finite poset's meets read leq, so only what follows the table is checked
    subset, _ = pentagon
    family = _gaussian_family(subset.members)
    table = closed_psi(subset, family, mode)
    want = (
        old_mobius_matrix(table.closure),
        RankReport(k=0, lower=5, upper=5),
        old_theta_table(table),
    )

    monkeypatch.setattr(FinitePoset, "leq", _no_leq)
    assert (mobius_matrix(table.closure), rank_report(table), theta_table(table)) == want


def test_theorem_inverse_divisor_pair():
    subset = Subset(DivisorLattice(), [1, 2])
    fam = id_family([1, 2])
    inv = theorem_inverse(closed_psi(subset, fam, MEET))
    assert inv == Matrix([[2, -1], [-1, 1]])
    assert inv == naive_inverse(Matrix([[1, 1], [1, 2]]))


def test_theorem_inverse_single():
    subset = Subset(DivisorLattice(), [3])
    fam = FunctionFamily([{3: Scalar(5, 1)}])
    inv = theorem_inverse(closed_psi(subset, fam, MEET))
    assert inv == Matrix([[ONE / Scalar(5, 1)]])


def test_theorem_inverse_join_chain():
    subset = Subset(DivisorLattice(), [2, 4, 8])
    fam = id_family([2, 4, 8])
    m = build_matrix(subset, fam, JOIN)
    inv = theorem_inverse(closed_psi(subset, fam, JOIN))
    assert inv @ m == Matrix.identity(3)
    assert m @ inv == Matrix.identity(3)
    assert inv == naive_inverse(m)


def test_theorem_inverse_singular_names_row(pentagon):
    subset, family = pentagon
    with pytest.raises(SingularPsiError) as err:
        theorem_inverse(closed_psi(subset, family, MEET))
    assert "row 1" in str(err.value)


def test_theorem_inverse_requires_closed():
    # closed, but tabulated over a closure set listed in another order:
    # grid[i, i] is then not the diagonal value of row i
    subset = Subset(DivisorLattice(), [1, 2, 3])
    family = FunctionFamily([{1: 1, 2: 2, 3: 3}] * 3)
    other = ClosureSet(subset.backend, [1, 3, 2], MEET)
    table = psi_table(subset, family, MEET, other)
    for closed_form in (theorem_det, rank_report, theta_table, theorem_inverse):
        with pytest.raises(NotClosedError):
            closed_form(table)
    assert theorem_inverse(closed_psi(subset, family, MEET)) == naive_inverse(
        build_matrix(subset, family, MEET)
    )


def test_theorem_inverse_gaussian_entries():
    subset = Subset(DivisorLattice(), [1, 2, 6])
    members = closure_set(subset, MEET).elements
    fam = FunctionFamily(
        [
            {d: Scalar(d, 1) for d in members},
            {d: Scalar(Fraction(1, 2), -d) for d in members},
            {d: Scalar(d * d, Fraction(d, 3)) for d in members},
        ]
    )
    m = build_matrix(subset, fam, MEET)
    inv = theorem_inverse(closed_psi(subset, fam, MEET))
    assert inv @ m == Matrix.identity(3)
    assert m @ inv == Matrix.identity(3)
    assert inv == naive_inverse(m)


def test_ordinary_rank_examples():
    assert ordinary_rank(Subset(DivisorLattice(), [1, 2, 3]), {1: 1, 2: 2, 3: 3}, MEET) == 3
    assert ordinary_rank(Subset(DivisorLattice(), [1, 2, 4]), {1: 0, 2: 0, 4: 0}, MEET) == 0
    assert ordinary_rank(Subset(DivisorLattice(), [1, 2, 4]), {1: 9, 2: 9, 4: 9}, MEET) == 1
    assert ordinary_rank(Subset(DivisorLattice(), [2, 4, 8]), {2: 2, 4: 4, 8: 8}, JOIN) == 3


def test_column_adjusted_is_transpose(pentagon):
    subset, family = pentagon
    assert build_matrix(subset, family, MEET, column_adjusted=True) == (
        PENTAGON_MATRIX.transpose()
    )


def test_theta_diagonal_is_reciprocal_recursion():
    subset = Subset(DivisorLattice(), [1, 2, 6])
    fam = FunctionFamily([{1: 1, 2: 2, 6: 6}] * 3)
    table = closed_psi(subset, fam, MEET)
    theta = theta_table(table)
    for j, value in enumerate(table.diagonal()):
        assert theta[j, j] == ONE / value


def test_theta_triangularity_follows_mode():
    meet_sub = Subset(DivisorLattice(), [1, 2, 6])
    meet_fam = FunctionFamily([{1: 1, 2: 3, 6: 7}] * 3)
    lower = theta_table(closed_psi(meet_sub, meet_fam, MEET))
    join_sub = Subset(DivisorLattice(), [2, 4, 8])
    join_fam = FunctionFamily([{2: 2, 4: 4, 8: 8}] * 3)
    upper = theta_table(closed_psi(join_sub, join_fam, JOIN))
    for k in range(3):
        for j in range(3):
            if k < j:
                assert lower[k, j] == ZERO
            if k > j:
                assert upper[k, j] == ZERO


@pytest.mark.parametrize(
    "members, mode",
    [([1, 2, 6], MEET), ([1, 2, 3, 6], MEET), ([2, 4, 8], JOIN), ([3, 6, 12], JOIN)],
)
def test_theta_inverts_masked_factor(members, mode):
    # On a closed set the masked triangular factor times the theta grid
    # collapses to the identity, which is what makes the inverse assembly
    # work without elimination.
    subset = Subset(DivisorLattice(), members)
    universe = sorted({x for a in members for b in members for x in (a, b)} | set(members))
    fam = FunctionFamily([{d: d + i for d in universe} for i in range(len(members))])
    fact = factorize(subset, fam, mode, ClosureSet.from_subset(subset, mode))
    theta = theta_table(closed_psi(subset, fam, mode))
    assert fact.masked_psi @ theta == Matrix.identity(len(members))


def test_theta_table_singular_row():
    subset = Subset(DivisorLattice(), [1, 2])
    family = FunctionFamily([{1: 1, 2: 2}, {1: 5, 2: 5}])
    with pytest.raises(SingularPsiError) as err:
        theta_table(closed_psi(subset, family, MEET))
    assert "row 2" in str(err.value)


def test_readme_library_block_does_what_its_comments_say():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = re.search(r"## Library\n\n```python\n(.*?)```", readme, re.DOTALL).group(1)
    names: dict = {}
    exec(block, names)
    assert names["det"] == 2
    assert names["matrix"] == names["fact"].product
    assert names["inverse"] @ names["matrix"] == Matrix.identity(3)
    assert names["report"] == RankReport(k=0, lower=3, upper=3)
    assert names["exact"] == 3
