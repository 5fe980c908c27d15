"""The integer recurrences behind the closed forms, differentially.

The Psi recursion, the Θ substitution and the Möbius recursion run on
Gaussian integers over one shared denominator. Each is compared with the
former Scalar loop kept in `oracles.py`, on divisor and finite-poset
closures in both modes, with Gaussian values of which a third are zero:
equal grids, and equal errors where the old loop raised, missing values
and zero recursion diagonals included. The closed inverse, one more
substitution, is compared with the old Möbius matrix (transposed in join
mode) times the old Θ.

The order table a `ClosureSet` keeps (`below` and `walk`) is compared the
same way with the former `leq` walk and a direct `leq` scan.
"""

from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import assume, given, settings, strategies as st

from meetjoin.errors import MeetJoinError, NoJoinError, NoMeetError
from meetjoin.numtheory import divisors_of
from meetjoin.posets import (
    JOIN,
    MEET,
    ClosureSet,
    DivisorLattice,
    FinitePoset,
    Subset,
    closed_hull,
    closure_set,
    linear_extension,
    mobius_matrix,
)
from meetjoin.rowadjusted import FunctionFamily, closed_psi, psi_table, theorem_inverse, theta_table
from meetjoin.scalar import ZERO, Scalar

from oracles import (
    naive_matmul,
    old_mobius_matrix,
    old_psi_recursion,
    old_theta_table,
    old_walk,
)


gaussian = st.builds(
    Scalar,
    st.fractions(min_value=-3, max_value=3, max_denominator=3),
    st.fractions(min_value=-2, max_value=2, max_denominator=2),
)
values = st.one_of(st.just(ZERO), gaussian, gaussian)

PENTAGON = FinitePoset(
    [("x1", "x2"), ("x1", "x3"), ("x3", "x4"), ("x4", "x5"), ("x2", "x5")],
    elements=["x1", "x2", "x3", "x4", "x5"],
)
DIAMOND = FinitePoset(
    [("bot", "a"), ("bot", "b"), ("a", "top"), ("b", "top")],
    elements=["bot", "a", "b", "top"],
)


@st.composite
def backends(draw):
    """A backend with the finite universe its elements are drawn from."""
    kind = draw(st.sampled_from(("divisors", "pentagon", "diamond", "random")))
    if kind == "divisors":
        return DivisorLattice(), divisors_of(draw(st.sampled_from((12, 30, 36, 60))))
    if kind == "pentagon":
        return PENTAGON, PENTAGON.elements
    if kind == "diamond":
        return DIAMOND, DIAMOND.elements
    m = draw(st.integers(min_value=2, max_value=7))
    labels = [f"p{i}" for i in range(1, m + 1)]
    pairs = list(combinations(range(m), 2))
    edges = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    covers = [(labels[i], labels[j]) for (i, j), edge in zip(pairs, edges) if edge]
    return FinitePoset(covers, elements=labels), tuple(labels)


@st.composite
def instances(draw, closed: bool):
    """(subset, closure, family, mode): the subset is closed when asked, and
    one family in four misses one value on the closure."""
    backend, universe = draw(backends())
    mode = draw(st.sampled_from((MEET, JOIN)))
    picked = draw(st.lists(st.sampled_from(universe), min_size=1, max_size=4, unique=True))
    try:
        subset = Subset(backend, linear_extension(backend, picked))
        if closed:
            subset = closed_hull(subset, mode)
        closure = closure_set(subset, mode)
    except (NoMeetError, NoJoinError):
        assume(False)
    tables = [{x: draw(values) for x in closure.elements} for _ in range(subset.n)]
    if draw(st.integers(min_value=0, max_value=3)) == 0:
        row = draw(st.integers(min_value=0, max_value=subset.n - 1))
        del tables[row][draw(st.sampled_from(closure.elements))]
    return subset, closure, FunctionFamily(tables), mode


def outcome(fn, *args):
    """The value of fn(*args), or the type and message of what it raised."""
    try:
        return fn(*args)
    except MeetJoinError as exc:
        return type(exc).__name__, str(exc)


def assert_table_matches_leq(closure):
    leq, elems = closure.backend.leq, closure.elements
    assert [(k, list(related)) for k, related in closure.walk] == old_walk(closure)
    assert closure.below == tuple(
        tuple(j for j in range(k) if leq(elems[j], elems[k])) for k in range(len(elems))
    )


@settings(max_examples=150, deadline=None)
@given(backends(), st.sampled_from((MEET, JOIN)), st.data())
def test_order_table_matches_leq(backend_universe, mode, data):
    # any sorted selection is a ClosureSet, lattice or not; where the
    # selection has one, its closure is checked too
    backend, universe = backend_universe
    picked = data.draw(st.lists(st.sampled_from(universe), min_size=1, max_size=7, unique=True))
    elements = linear_extension(backend, picked)
    assert_table_matches_leq(ClosureSet(backend, elements, mode))
    try:
        closure = closure_set(Subset(backend, elements), mode)
    except (NoMeetError, NoJoinError):
        return
    assert_table_matches_leq(closure)


@settings(max_examples=150, deadline=None)
@given(instances(closed=False))
def test_psi_recursion_matches_old_loop(inst):
    subset, closure, family, mode = inst
    new = outcome(lambda: psi_table(subset, family, mode, closure).grid)
    assert new == outcome(old_psi_recursion, family, closure)
    assert mobius_matrix(closure) == old_mobius_matrix(closure)


def old_closed_inverse(table):
    """The former closed inverse: the old Möbius matrix (its transpose in
    join mode) times the old Theta."""
    theta = old_theta_table(table)
    mob = old_mobius_matrix(table.closure)
    return naive_matmul(mob if table.mode == MEET else mob.transpose(), theta)


@settings(max_examples=150, deadline=None)
@given(instances(closed=True))
def test_inverse_matches_old_mobius_times_old_theta(inst):
    subset, _, family, mode = inst
    table = outcome(closed_psi, subset, family, mode)
    if isinstance(table, tuple):  # a missing value
        return
    assert outcome(theorem_inverse, table) == outcome(old_closed_inverse, table)


@settings(max_examples=150, deadline=None)
@given(instances(closed=True))
def test_theta_and_mobius_match_old_loops_on_closed_sets(inst):
    subset, closure, family, mode = inst
    table = outcome(closed_psi, subset, family, mode)
    if isinstance(table, tuple):  # a missing value
        assert table == outcome(old_psi_recursion, family, closure)
        return
    assert table.grid == old_psi_recursion(family, table.closure)
    assert outcome(theta_table, table) == outcome(old_theta_table, table)
    assert mobius_matrix(table.closure) == old_mobius_matrix(table.closure)


I = Scalar(0, 1)


def _pentagon_family(rows):
    return FunctionFamily([dict(zip(PENTAGON.elements, row)) for row in rows])


FIXED_CASES = [
    # the pentagon family of the paper: row 1 has a zero diagonal value
    (
        Subset(PENTAGON, PENTAGON.elements),
        _pentagon_family(
            [[0] * 5, [0, 1, 0, 0, 0], [1, 0, 1, 0, 0], [0, 0, 1, 1, 0], [0, 0, 0, 1, 1]]
        ),
        MEET,
    ),
    # a zero diagonal value in the last row only, then in the middle row
    (
        Subset(DivisorLattice(), [1, 2, 4]),
        FunctionFamily([{1: I, 2: 2, 4: 3}] * 2 + [{1: 1, 2: 2, 4: 2}]),
        MEET,
    ),
    (
        Subset(DivisorLattice(), [2, 4, 8]),
        FunctionFamily([{2: 1, 4: I, 8: I}, {2: 5, 4: 1, 8: 1}, {2: 1, 4: 2, 8: 3}]),
        JOIN,
    ),
    # nonsingular, Gaussian rationals
    (
        Subset(DivisorLattice(), [1, 2, 3, 4, 5, 6]),
        FunctionFamily(
            [{d: Scalar(Fraction(d, i + 1), i - d) for d in range(1, 7)} for i in range(6)]
        ),
        MEET,
    ),
    (Subset(PENTAGON, PENTAGON.elements), _pentagon_family([[1, I, 2, 3, 4]] * 5), JOIN),
]


@pytest.mark.parametrize("subset, family, mode", FIXED_CASES)
def test_fixed_cases_match_old_loops(subset, family, mode):
    table = closed_psi(subset, family, mode)
    assert table.grid == old_psi_recursion(family, table.closure)
    assert outcome(theta_table, table) == outcome(old_theta_table, table)
    assert mobius_matrix(table.closure) == old_mobius_matrix(table.closure)


@pytest.mark.parametrize("subset, family, mode", FIXED_CASES)
def test_fixed_cases_match_old_closed_inverse(subset, family, mode):
    table = closed_psi(subset, family, mode)
    assert outcome(theorem_inverse, table) == outcome(old_closed_inverse, table)
