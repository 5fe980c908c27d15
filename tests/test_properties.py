"""Property tests for the factorization and the closed-form theorems.

Hypothesis drives instance generation here; the seeded battery in
`meetjoin.randomcheck` covers the same ground with its own generator, so
the identities are exercised by two unrelated sources of randomness.
"""

from fractions import Fraction

from hypothesis import given, settings, strategies as st

from meetjoin.matrix import Matrix
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
    incidence_matrix,
    is_closed,
    linear_extension,
)
from meetjoin.randomcheck import psi_by_mobius, psi_from_matrix
from meetjoin.rowadjusted import (
    FunctionFamily,
    build_matrix,
    closed_psi,
    factorize,
    ordinary_rank,
    psi_table,
    rank_report,
    theorem_det,
    theorem_inverse,
)
from meetjoin.scalar import ZERO, Scalar

from oracles import masked_by_product


values = st.builds(
    Scalar,
    st.sampled_from([Fraction(v) for v in (-2, -1, 0, 0, 0, 1, 1, 2, 3)]),
    st.sampled_from([Fraction(0)] * 6 + [Fraction(1), Fraction(-1), Fraction(1, 2)]),
)

LATTICES = {
    "diamond": FinitePoset(
        [("bot", "a"), ("bot", "b"), ("a", "top"), ("b", "top")],
        elements=["bot", "a", "b", "top"],
    ),
    "pentagon": FinitePoset(
        [("x1", "x2"), ("x1", "x3"), ("x3", "x4"), ("x4", "x5"), ("x2", "x5")],
        elements=["x1", "x2", "x3", "x4", "x5"],
    ),
    "chain": FinitePoset([("c1", "c2"), ("c2", "c3")], elements=["c1", "c2", "c3"]),
}


@st.composite
def divisor_instance(draw, force_closed=False, mode=None):
    base = draw(st.sampled_from((12, 24, 30, 36, 60)))
    divs = divisors_of(base)
    picked = draw(st.sets(st.sampled_from(divs), min_size=1, max_size=6))
    subset = Subset(DivisorLattice(), sorted(picked))
    picked_mode = mode if mode is not None else draw(st.sampled_from((MEET, JOIN)))
    if force_closed:
        subset = closed_hull(subset, picked_mode)
    tables = [
        {d: draw(values) for d in divs} for _ in range(subset.n)
    ]
    return subset, FunctionFamily(tables), picked_mode, tuple(divs)


@st.composite
def lattice_instance(draw, mode=None):
    backend = LATTICES[draw(st.sampled_from(sorted(LATTICES)))]
    picked = draw(
        st.sets(st.sampled_from(backend.elements), min_size=1, max_size=5)
    )
    subset = Subset(backend, linear_extension(backend, picked))
    picked_mode = mode if mode is not None else draw(st.sampled_from((MEET, JOIN)))
    tables = [
        {e: draw(values) for e in backend.elements} for _ in range(subset.n)
    ]
    return subset, FunctionFamily(tables), picked_mode, tuple(backend.elements)


instances = st.one_of(divisor_instance(), lattice_instance())


@settings(max_examples=80, deadline=None)
@given(instances)
def test_factorization_identity_and_d_invariance(inst):
    subset, family, mode, universe = inst
    direct = build_matrix(subset, family, mode)
    fact = factorize(subset, family, mode)
    assert fact.product == direct
    assert fact.masked_psi == masked_by_product(fact.incidence, fact.psi_grid)

    extras = [x for x in universe if x not in set(closure_set(subset, mode).elements)]
    if extras:
        enlarged = ClosureSet(
            subset.backend,
            linear_extension(
                subset.backend,
                list(closure_set(subset, mode).elements) + extras[:2],
            ),
            mode,
        )
        bigger = factorize(subset, family, mode, enlarged)
        assert bigger.product == direct


@settings(max_examples=80, deadline=None)
@given(instances)
def test_psi_reconstruction_and_route_agreement(inst):
    subset, family, mode, _ = inst
    closure = closure_set(subset, mode)
    table = psi_table(subset, family, mode, closure)
    assert table.grid == psi_by_mobius(family, closure)
    backend = subset.backend
    for i in range(family.n):
        for k, dk in enumerate(closure.elements):
            if mode == MEET:
                parts = [
                    table.grid[i, v]
                    for v, dv in enumerate(closure.elements)
                    if backend.leq(dv, dk)
                ]
            else:
                parts = [
                    table.grid[i, v]
                    for v, dv in enumerate(closure.elements)
                    if backend.leq(dk, dv)
                ]
            total = ZERO
            for p in parts:
                total = total + p
            assert total == family.value(i, dk)


@settings(max_examples=60, deadline=None)
@given(instances)
def test_transpose_duality(inst):
    subset, family, mode, _ = inst
    assert build_matrix(subset, family, mode, column_adjusted=True) == (
        build_matrix(subset, family, mode).transpose()
    )


@settings(max_examples=60, deadline=None)
@given(divisor_instance(force_closed=True))
def test_closed_set_theorems(inst):
    subset, family, mode, _ = inst
    matrix = build_matrix(subset, family, mode)
    assert is_closed(subset, mode)

    table = closed_psi(subset, family, mode)
    det = theorem_det(table)
    assert det == matrix.det()

    rr = rank_report(table)
    exact = matrix.rank()
    assert rr.lower <= exact <= rr.upper
    n = subset.n
    if matrix.is_zero():
        assert exact == 0
    elif rr.k == 0:
        assert exact == n
    else:
        assert n - rr.k <= exact <= n - 1

    if all(not v.is_zero for v in table.diagonal()):
        inv = theorem_inverse(table)
        assert inv @ matrix == Matrix.identity(n)
        assert matrix @ inv == Matrix.identity(n)
        assert inv == matrix.inverse()
    else:
        assert matrix.det() == ZERO


@settings(max_examples=50, deadline=None)
@given(divisor_instance(force_closed=True))
def test_psi_recovery_on_meet_closed_sets(inst):
    # both modes: join-closed sets recover the grid through mobius^T
    subset, family, mode, _ = inst
    matrix = build_matrix(subset, family, mode)
    own = ClosureSet.from_subset(subset, mode)
    assert psi_from_matrix(matrix, subset, mode) == factorize(
        subset, family, mode, own
    ).masked_psi


@settings(max_examples=50, deadline=None)
@given(divisor_instance(force_closed=True), st.data())
def test_single_function_specialization(inst, data):
    subset, _, mode, universe = inst
    table = {d: data.draw(values) for d in universe}
    family = FunctionFamily([table] * subset.n)
    matrix = build_matrix(subset, family, mode)
    assert matrix == matrix.transpose()
    predicted = ordinary_rank(subset, table, mode)
    assert predicted == matrix.rank()


@settings(max_examples=40, deadline=None)
@given(divisor_instance(force_closed=True, mode=MEET))
def test_incidence_of_closed_set_is_unitriangular(inst):
    subset, _, _, _ = inst
    e = incidence_matrix(subset, ClosureSet.from_subset(subset, MEET))
    for i in range(subset.n):
        assert e[i, i] == 1
        for j in range(i + 1, subset.n):
            assert e[i, j] == 0
