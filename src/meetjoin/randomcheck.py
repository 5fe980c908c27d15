"""Seeded random instances and the property battery behind `verify`.

Every closed-form result in `rowadjusted` is replayed here against the
elimination oracles on pseudo-random instances; `check_closed` is the one
place a closed set's det, rank and inverse meet elimination, for `verify`
and `analyze` alike. The second routes to Psi live here too:
`psi_by_mobius` (the `psi_two_routes` check) and `psi_from_matrix` (the
check of that name). Generation is fully driven by one `random.Random`,
so a seed reproduces the exact run.
"""

from __future__ import annotations

import random
from fractions import Fraction
from typing import NamedTuple

from .errors import (
    AdmissibilityError,
    DimensionError,
    MeetJoinError,
    NoJoinError,
    NoMeetError,
    NotClosedError,
    NotSortedError,
    SingularError,
)
from .matrix import Matrix
from .numtheory import divisors_of
from .posets import (
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
from .rowadjusted import (
    FunctionFamily,
    PsiTable,
    RankReport,
    build_matrix,
    closed_psi,
    factorize,
    ordinary_rank,
    rank_report,
    theorem_det,
    theorem_inverse,
)
from .scalar import ONE, ZERO, Scalar

DIVISOR_BASES = (30, 36, 48, 60, 72, 90, 96, 120, 210)

CHECK_NAMES = (
    "factorization",
    "factorization_enlarged",
    "d_invariance",
    "psi_reconstruction",
    "psi_two_routes",
    "transpose_duality",
    "specialization",
    "det_theorem",
    "rank_trichotomy",
    "inverse_iff",
    "psi_from_matrix",
    "ordinary_rank",
    "attainment_lower",
    "attainment_upper",
)


class Instance(NamedTuple):
    """One generated test case: a subset, its minimal closure set `closure`,
    and a family total on `universe`."""

    label: str
    subset: Subset
    closure: ClosureSet
    family: FunctionFamily
    mode: str
    universe: tuple
    identical_rows: bool


class CheckFailure(NamedTuple):
    check: str
    case: int
    label: str
    detail: str


class VerifyReport:
    def __init__(self, seed: int, cases: int):
        self.seed, self.cases = seed, cases
        self.counts, self.failures = {}, []

    @property
    def ok(self) -> bool:
        return not self.failures

    def tally(self, check: str):
        self.counts[check] = self.counts.get(check, 0) + 1

    def fail(self, check: str, case: int, label: str, detail: str):
        self.failures.append(CheckFailure(check, case, label, detail))


def _random_scalar(rng: random.Random) -> Scalar:
    real = Fraction(rng.choice((-3, -2, -1, 0, 0, 1, 1, 2, 3)), rng.choice((1, 1, 2, 3)))
    imag = Fraction(0)
    if rng.random() < 0.2:
        imag = Fraction(rng.choice((-2, -1, 1, 2)), rng.choice((1, 2)))
    return Scalar(real, imag)


def _random_family(rng: random.Random, n: int, universe) -> tuple[FunctionFamily, bool]:
    identical = rng.random() < 0.2
    if identical:
        table = {x: _random_scalar(rng) for x in universe}
        return FunctionFamily([table] * n), True
    tables = [{x: _random_scalar(rng) for x in universe} for _ in range(n)]
    return FunctionFamily(tables), False


def _divisor_instance(rng: random.Random, mode: str, force_closed: bool, max_n: int):
    base = rng.choice(DIVISOR_BASES)
    divs = divisors_of(base)
    size = rng.randint(1, min(max_n, len(divs)))
    members = sorted(rng.sample(divs, size))
    subset = Subset(DivisorLattice(), members)
    if force_closed:
        subset = closed_hull(subset, mode)
        if subset.n > max_n:
            raise NotSortedError("hull too large, retry")
    label = f"divisors({base}) S={list(subset.members)} mode={mode}"
    return subset, tuple(divs), label


def _poset_instance(rng: random.Random, mode: str, force_closed: bool, max_n: int):
    m = rng.randint(2, max_n + 1)
    labels = [f"p{i}" for i in range(1, m + 1)]
    covers = []
    for i in range(m):
        for j in range(i + 1, m):
            if rng.random() < 0.35:
                covers.append((labels[i], labels[j]))
    backend = FinitePoset(covers, elements=labels)
    size = rng.randint(1, min(max_n, m))
    sample = rng.sample(labels, size)
    subset = Subset(backend, linear_extension(backend, sample))
    if force_closed:
        subset = closed_hull(subset, mode)
        if subset.n > max_n:
            raise NotSortedError("hull too large, retry")
    label = f"poset({m} elems, {len(covers)} edges) S={list(subset.members)} mode={mode}"
    return subset, tuple(labels), label


def random_instance(
    rng: random.Random,
    mode: str | None = None,
    force_closed: bool = False,
    max_n: int = 8,
) -> Instance:
    """Draw one instance; retries until the needed meets/joins exist.

    The closure set of the final subset is built once, here; it is what
    raises when a meet or join is missing. A forced-closed subset comes
    from `closed_hull`, which has already raised or shown it closed, and
    is its own closure set.
    """
    for _ in range(300):
        picked = mode if mode is not None else rng.choice((MEET, JOIN))
        try:
            if rng.random() < 0.5:
                subset, universe, label = _divisor_instance(
                    rng, picked, force_closed, max_n
                )
            else:
                subset, universe, label = _poset_instance(
                    rng, picked, force_closed, max_n
                )
            closure = (
                ClosureSet.from_subset(subset, picked) if force_closed else closure_set(subset, picked)
            )
        except (NoMeetError, NoJoinError, NotSortedError):
            continue
        family, identical = _random_family(rng, subset.n, universe)
        return Instance(label, subset, closure, family, picked, universe, identical)
    picked = mode or MEET
    subset = Subset(DivisorLattice(), [1, 2, 4])
    universe = (1, 2, 4)
    family, identical = _random_family(rng, 3, universe)
    return Instance(
        "fallback divisors S=[1, 2, 4]", subset, closure_set(subset, picked),
        family, picked, universe, identical,
    )


def _enlarged_closure(rng: random.Random, inst: Instance, minimal: ClosureSet) -> ClosureSet | None:
    extras = [x for x in inst.universe if x not in minimal]
    if not extras:
        return None
    extra = rng.choice(extras)
    elements = linear_extension(
        inst.subset.backend, list(minimal.elements) + [extra]
    )
    return ClosureSet(inst.subset.backend, elements, inst.mode)


def _psi_reconstructs(inst: Instance, closure: ClosureSet, grid: Matrix) -> str | None:
    backend = inst.subset.backend
    elems = closure.elements
    for i in range(inst.family.n):
        for k, dk in enumerate(elems):
            total = ZERO
            for v, dv in enumerate(elems):
                if inst.mode == MEET and backend.leq(dv, dk):
                    total = total + grid[i, v]
                elif inst.mode == JOIN and backend.leq(dk, dv):
                    total = total + grid[i, v]
            want = inst.family.value(i, dk)
            if total != want:
                return f"row {i + 1} at {dk!r}: summed {total}, function value {want}"
    return None


def psi_by_mobius(family: FunctionFamily, closure: ClosureSet) -> Matrix:
    """Psi over the closure as the Möbius-weighted sum of the function
    values: values @ mobius in meet mode, values @ mobius^T in join mode."""
    values = Matrix(
        [[family.value(i, d) for d in closure.elements] for i in range(family.n)]
    )
    mob = mobius_matrix(closure)
    return values @ (mob if closure.mode == MEET else mob.transpose())


def psi_from_matrix(matrix: Matrix, subset: Subset, mode: str = MEET) -> Matrix:
    """Recover the masked recursion grid from the matrix of a closed set.

    For a closed subset the incidence matrix E is square and invertible,
    and the Möbius matrix of the subset inverts E^T (meet) or E (join), so
    no elimination is needed: the result is matrix @ mobius in meet mode
    and matrix @ mobius^T in join mode. Equals the `masked_psi` of
    `factorize` over the subset itself.
    """
    own = ClosureSet.from_subset(subset, mode)
    try:
        own.validate_for(subset)
    except AdmissibilityError:
        raise NotClosedError(f"recovering the recursion grid needs a {mode}-closed subset") from None
    if matrix.rows != subset.n or matrix.cols != subset.n:
        raise DimensionError("matrix shape does not match the subset size")
    mob = mobius_matrix(own)
    return matrix @ (mob if mode == MEET else mob.transpose())


class ClosedCheck(NamedTuple):
    """Closed forms of one closed instance: `det`, `rank` and `inverse` (None
    when det is zero), with `exact`, the rank by elimination, and `problems`,
    each failed check's message in the order det, rank, inverse."""

    det: Scalar
    rank: RankReport
    exact: int
    inverse: Matrix | None
    problems: dict


def check_closed(table: PsiTable, matrix: Matrix) -> ClosedCheck:
    """Evaluate the closed forms of a closed set's `closed_psi` table and
    check each against elimination on `matrix`, its row-adjusted matrix.

    Every oracle (`Matrix.det`, `Matrix.rank`, `Matrix.inverse`) runs at
    most once. The closed-form det is the product of the diagonal
    recursion values, so it alone decides whether the inverse exists.
    """
    problems = {}
    det, oracle_det = theorem_det(table), matrix.det()
    if det != oracle_det:
        problems["det_theorem"] = f"closed-form determinant {det} but elimination gives {oracle_det}"
    rank, exact = rank_report(table), matrix.rank()
    if not rank.lower <= exact <= rank.upper:
        problems["rank_trichotomy"] = (
            f"exact rank {exact} escapes the predicted interval [{rank.lower}, {rank.upper}]"
        )
    inverse = None
    if det.is_zero:
        if not oracle_det.is_zero:
            problems["inverse_iff"] = "zero recursion diagonal but nonzero determinant"
    else:
        try:
            inverse = theorem_inverse(table)
            ident = Matrix.identity(matrix.rows)
            if inverse @ matrix != ident or matrix @ inverse != ident:
                problems["inverse_iff"] = "closed-form inverse fails B*M = M*B = I"
            elif inverse != matrix.inverse():
                problems["inverse_iff"] = "closed-form inverse differs from elimination inverse"
        except SingularError:
            problems["inverse_iff"] = "all recursion diagonals nonzero yet elimination found no inverse"
        except MeetJoinError as exc:
            problems["inverse_iff"] = f"unexpected {exc}"
    return ClosedCheck(det, rank, exact, inverse, problems)


def check_instance(
    inst: Instance,
    report: VerifyReport,
    case: int,
    rng: random.Random,
    fault_negate_psi: bool = False,
):
    """Run every battery property that applies to the instance."""
    subset, family, mode = inst.subset, inst.family, inst.mode
    matrix = build_matrix(subset, family, mode)

    minimal = inst.closure
    fact = factorize(subset, family, mode, minimal)
    product = fact.product
    if fault_negate_psi:
        # negating Psi negates the product, which is linear in it
        product = -product
    report.tally("factorization")
    if product != matrix:
        report.fail(
            "factorization", case, inst.label,
            "masked recursion grid times incidence transpose differs from the direct matrix",
        )

    enlarged = _enlarged_closure(rng, inst, minimal)
    grids = [(minimal, fact.psi_grid)]
    if enlarged is not None:
        fact_big = factorize(subset, family, mode, enlarged)
        grids.append((enlarged, fact_big.psi_grid))
        report.tally("factorization_enlarged")
        if fact_big.product != matrix:
            report.fail(
                "factorization_enlarged", case, inst.label,
                f"factorization through enlarged set {list(enlarged.elements)} broke",
            )
        report.tally("d_invariance")
        if fact_big.product != fact.product:
            report.fail(
                "d_invariance", case, inst.label,
                "product changed when the closure set was enlarged",
            )

    for closure, grid in grids:
        report.tally("psi_reconstruction")
        problem = _psi_reconstructs(inst, closure, grid)
        if problem:
            report.fail("psi_reconstruction", case, inst.label, problem)

    report.tally("psi_two_routes")
    if psi_by_mobius(family, minimal) != fact.psi_grid:
        report.fail(
            "psi_two_routes", case, inst.label,
            "recursion and Möbius-sum grids disagree",
        )

    report.tally("transpose_duality")
    if build_matrix(subset, family, mode, column_adjusted=True) != matrix.transpose():
        report.fail(
            "transpose_duality", case, inst.label,
            "column-adjusted output is not the transpose",
        )

    if inst.identical_rows:
        report.tally("specialization")
        if matrix != matrix.transpose():
            report.fail(
                "specialization", case, inst.label,
                "single-function matrix is not symmetric",
            )

    try:
        table = closed_psi(subset, family, mode)
    except NotClosedError:
        return
    closed = check_closed(table, matrix)
    for name in ("det_theorem", "rank_trichotomy", "inverse_iff"):
        report.tally(name)
        if name in closed.problems:
            report.fail(name, case, inst.label, closed.problems[name])

    report.tally("psi_from_matrix")
    recovered = psi_from_matrix(matrix, subset, mode)
    if recovered != table.masked():
        report.fail(
            "psi_from_matrix", case, inst.label,
            "grid recovered from the matrix differs from the factorization grid",
        )

    if inst.identical_rows:
        report.tally("ordinary_rank")
        predicted = ordinary_rank(subset, inst.family.table(0), mode)
        if predicted != closed.exact:
            report.fail(
                "ordinary_rank", case, inst.label,
                f"predicted rank {predicted} but elimination found {closed.exact}",
            )


def _pentagon() -> tuple[Subset, FunctionFamily]:
    backend = FinitePoset(
        [("x1", "x2"), ("x1", "x3"), ("x3", "x4"), ("x4", "x5"), ("x2", "x5")],
        elements=["x1", "x2", "x3", "x4", "x5"],
    )
    subset = Subset(backend, ["x1", "x2", "x3", "x4", "x5"])
    ones = {
        (1, "x2"), (2, "x1"), (2, "x3"), (3, "x3"), (3, "x4"), (4, "x4"), (4, "x5"),
    }
    tables = [
        {x: (ONE if (i, x) in ones else ZERO) for x in subset.members}
        for i in range(5)
    ]
    return subset, FunctionFamily(tables)


def check_attainment(report: VerifyReport):
    """Both rank bounds are reached by concrete constructions.

    Lower: constant function over an antichain of primes above 1; every
    recursion diagonal except the bottom vanishes and the all-ones matrix
    has rank exactly n - k = 1. Upper: the pentagon instance has
    k = n - 1 yet rank n - 1.
    """
    subset = Subset(DivisorLattice(), [1, 2, 3, 5, 7])
    family = FunctionFamily([{d: ONE for d in subset.members}] * 5)
    rr = rank_report(closed_psi(subset, family, MEET))
    exact = build_matrix(subset, family, MEET).rank()
    report.tally("attainment_lower")
    if not (rr.k == 4 and exact == subset.n - rr.k == rr.lower):
        report.fail(
            "attainment_lower", 0, "constant family on {1,2,3,5,7}",
            f"expected rank to hit the lower bound 1 with k=4, got {rr}, exact rank {exact}",
        )

    pent_subset, pent_family = _pentagon()
    rr = rank_report(closed_psi(pent_subset, pent_family, MEET))
    exact = build_matrix(pent_subset, pent_family, MEET).rank()
    report.tally("attainment_upper")
    if not (rr.k == 4 and exact == 4 == rr.upper):
        report.fail(
            "attainment_upper", 0, "pentagon lattice instance",
            f"expected rank to hit the upper bound 4 with k=4, got {rr}, exact rank {exact}",
        )


def run_verify(seed: int, cases: int, fault_negate_psi: bool = False) -> VerifyReport:
    """Generate `cases` instances from `seed` and run the whole battery.

    A third of the instances are forced closed so the determinant, rank,
    and inverse checks fire often. `fault_negate_psi` corrupts the
    factorization on purpose; it must make the run fail (harness sanity).
    """
    if cases < 1:
        raise ValueError("cases must be at least 1")
    rng = random.Random(seed)
    report = VerifyReport(seed=seed, cases=cases)
    for case in range(1, cases + 1):
        force_closed = case % 3 == 0
        inst = random_instance(rng, force_closed=force_closed)
        check_instance(inst, report, case, rng, fault_negate_psi=fault_negate_psi)
    check_attainment(report)
    return report
