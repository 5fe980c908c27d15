"""Order backends, subsets, closures, incidence and Möbius matrices."""

import random

import pytest

from meetjoin.errors import (
    AdmissibilityError,
    CycleError,
    DuplicateCoverError,
    NoJoinError,
    NoMeetError,
    NotSortedError,
    UnknownElementError,
)
from meetjoin.matrix import Matrix
from meetjoin.numtheory import mobius_nt
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
    mobius_matrix,
)

from oracles import gcd_by_scan, lcm_by_scan, reachable_pairs, zeta_matrix


PENTAGON_COVERS = [("x1", "x2"), ("x1", "x3"), ("x3", "x4"), ("x4", "x5"), ("x2", "x5")]


@pytest.fixture
def pentagon():
    return FinitePoset(PENTAGON_COVERS, elements=["x1", "x2", "x3", "x4", "x5"])


def random_poset(rng, max_elems=10):
    m = rng.randint(1, max_elems)
    labels = [f"e{i}" for i in range(m)]
    covers = [
        (labels[i], labels[j])
        for i in range(m)
        for j in range(i + 1, m)
        if rng.random() < 0.3
    ]
    return FinitePoset(covers, elements=labels)


def test_pentagon_structure(pentagon):
    pairs = {(a, b) for a in pentagon.elements for b in pentagon.elements if pentagon.leq(a, b)}
    assert len(pairs) == 13
    assert sum(1 for a, b in pairs if a != b) == 8
    assert pairs == reachable_pairs(pentagon.elements, set(PENTAGON_COVERS))


def test_pentagon_meet_join(pentagon):
    assert pentagon.meet("x2", "x3") == "x1"
    assert pentagon.join("x2", "x3") == "x5"
    assert pentagon.meet("x4", "x4") == "x4"
    assert pentagon.join("x2", "x2") == "x2"
    assert pentagon.meet("x2", "x5") == "x2"


def test_single_element_poset():
    p = FinitePoset([], elements=["a"])
    pairs = {(a, b) for a in p.elements for b in p.elements if p.leq(a, b)}
    assert pairs == {("a", "a")} == reachable_pairs(p.elements, set(p.covers))
    assert p.meet("a", "a") == "a"


def test_cycle_detection():
    with pytest.raises(CycleError):
        FinitePoset([("a", "b"), ("b", "a")])
    with pytest.raises(CycleError):
        FinitePoset([("a", "a")])


def test_duplicate_cover():
    with pytest.raises(DuplicateCoverError):
        FinitePoset([("a", "b"), ("a", "b")])


def test_unknown_cover_element():
    with pytest.raises(UnknownElementError):
        FinitePoset([("a", "b")], elements=["a"])
    p = FinitePoset([("a", "b")])
    with pytest.raises(UnknownElementError):
        p.leq("a", "zz")


def test_no_meet_no_join():
    p = FinitePoset([], elements=["a", "b"])
    with pytest.raises(NoMeetError):
        p.meet("a", "b")
    with pytest.raises(NoJoinError):
        p.join("a", "b")
    diamondless = FinitePoset(
        [("a", "c"), ("a", "d"), ("b", "c"), ("b", "d")]
    )
    with pytest.raises(NoMeetError):
        diamondless.meet("c", "d")
    with pytest.raises(NoJoinError):
        diamondless.join("a", "b")


def test_divisor_backend_matches_scans():
    d = DivisorLattice()
    rng = random.Random(5)
    for _ in range(60):
        a = rng.randint(1, 10_000)
        b = rng.randint(1, 10_000)
        if max(a, b) <= 300:
            assert d.meet(a, b) == gcd_by_scan(a, b)
            assert d.join(a, b) == lcm_by_scan(a, b)
        assert d.leq(a, b) == (b % a == 0)
        assert d.meet(a, b) * d.join(a, b) == a * b


def test_divisor_backend_rejects_nonpositive():
    d = DivisorLattice()
    for bad in (0, -4, "3", True):
        with pytest.raises(UnknownElementError):
            d.check_element(bad)
    with pytest.raises(UnknownElementError):
        Subset(d, [True, 2])


def test_order_axioms_on_random_posets():
    rng = random.Random(11)
    for _ in range(25):
        p = random_poset(rng, max_elems=7)
        elems = p.elements
        for a in elems:
            assert p.leq(a, a)
            for b in elems:
                if p.leq(a, b) and p.leq(b, a):
                    assert a == b
                for c in elems:
                    if p.leq(a, b) and p.leq(b, c):
                        assert p.leq(a, c)


def test_linear_extension_stable(pentagon):
    assert linear_extension(pentagon, ["x5", "x2", "x1"]) == ("x1", "x2", "x5")
    assert linear_extension(pentagon, ["x2", "x3", "x1"]) == ("x1", "x2", "x3")
    assert linear_extension(pentagon, ["x3", "x2", "x1"]) == ("x1", "x3", "x2")
    d = DivisorLattice()
    # 2 unblocks first, then 4 (3 does not divide it), then 3, then 6
    assert linear_extension(d, [6, 4, 2, 3]) == (2, 4, 3, 6)


def test_subset_rejects_bad_input(pentagon):
    with pytest.raises(NotSortedError):
        Subset(pentagon, [])
    with pytest.raises(NotSortedError):
        Subset(pentagon, ["x2", "x2"])
    with pytest.raises(NotSortedError):
        Subset(pentagon, ["x2", "x1"])
    with pytest.raises(UnknownElementError):
        Subset(pentagon, ["nope"])
    ok = Subset(pentagon, ["x1", "x2", "x3"])
    assert ok.n == 3
    assert ok.index("x3") == 2


def test_closure_examples(pentagon):
    full = Subset(pentagon, ["x1", "x2", "x3", "x4", "x5"])
    d = closure_set(full, MEET)
    assert set(d.elements) == set(full.members)
    assert is_closed(full, MEET)

    single = Subset(pentagon, ["x4"])
    assert closure_set(single, MEET).elements == ("x4",)
    assert is_closed(single, MEET)

    pair = Subset(DivisorLattice(), [4, 6])
    d = closure_set(pair, MEET)
    assert d.elements == (2, 4, 6)
    assert not is_closed(pair, MEET)


def test_closure_is_idempotent():
    rng = random.Random(3)
    d = DivisorLattice()
    for _ in range(20):
        members = sorted(rng.sample(range(1, 60), rng.randint(1, 6)))
        subset = Subset(d, members)
        once = closure_set(subset, MEET)
        again = closure_set(Subset(d, once.elements), MEET)
        assert set(once.elements) == set(again.elements)


def test_closed_hull():
    subset = Subset(DivisorLattice(), [4, 6])
    hull = closed_hull(subset, MEET)
    assert set(hull.members) == {2, 4, 6}
    assert is_closed(hull, MEET)
    jhull = closed_hull(subset, JOIN)
    assert set(jhull.members) == {4, 6, 12}


def test_incidence_examples(pentagon):
    full = Subset(pentagon, ["x1", "x2", "x3", "x4", "x5"])
    e = incidence_matrix(full, ClosureSet.from_subset(full, MEET))
    for i in range(5):
        assert e[i, i] == 1
        for j in range(i + 1, 5):
            assert e[i, j] == 0

    single = Subset(pentagon, ["x3"])
    assert incidence_matrix(single, ClosureSet.from_subset(single, MEET)) == Matrix([[1]])

    chain = Subset(DivisorLattice(), [1, 2, 4])
    e = incidence_matrix(chain, ClosureSet.from_subset(chain, MEET))
    assert e == Matrix([[1, 0, 0], [1, 1, 0], [1, 1, 1]])

    e_join = incidence_matrix(chain, ClosureSet.from_subset(chain, JOIN))
    assert e_join == Matrix([[1, 1, 1], [0, 1, 1], [0, 0, 1]])


def test_admissibility_validation():
    d = DivisorLattice()
    subset = Subset(d, [4, 6])
    with pytest.raises(AdmissibilityError):
        ClosureSet(d, [4, 6], MEET).validate_for(subset)
    ClosureSet(d, [2, 4, 6], MEET).validate_for(subset)
    ClosureSet(d, [1, 2, 4, 6, 12], MEET).validate_for(subset)
    with pytest.raises(AdmissibilityError):
        ClosureSet(DivisorLattice(), [2, 4, 6], MEET).validate_for(
            Subset(FinitePoset([], elements=["a"]), ["a"])
        )


def test_closure_set_rejects_unsorted(pentagon):
    # the message names the first violation of a scan over the pairs
    cases = [
        (DivisorLattice(), [4, 2], "2 precedes 4"),
        (DivisorLattice(), [6, 4, 2, 3, 12], "2 precedes 6"),
        (pentagon, ["x2", "x4", "x3", "x1", "x5"], "'x1' precedes 'x2'"),
        (pentagon, ["x1", "x5", "x2"], "'x2' precedes 'x5'"),
    ]
    for backend, elements, message in cases:
        for mode in (MEET, JOIN):
            with pytest.raises(NotSortedError) as err:
                ClosureSet(backend, elements, mode)
            assert str(err.value) == (
                f"closure set violates the ordering: {message} in the order but is listed later"
            )


def test_mobius_pentagon(pentagon):
    full = Subset(pentagon, ["x1", "x2", "x3", "x4", "x5"])
    d = ClosureSet.from_subset(full, MEET)
    mob = mobius_matrix(d)
    idx = {x: i for i, x in enumerate(d.elements)}
    assert mob[idx["x1"], idx["x4"]] == 0
    assert mob[idx["x1"], idx["x5"]] == 1
    for x in d.elements:
        assert mob[idx[x], idx[x]] == 1
    assert mob[idx["x1"], idx["x2"]] == -1


def test_mobius_divisor_chain():
    chain = Subset(DivisorLattice(), [1, 2, 4])
    mob = mobius_matrix(ClosureSet.from_subset(chain, MEET))
    assert mob[0, 2] == 0
    assert mob[0, 1] == -1


def test_zeta_mobius_identity_random():
    rng = random.Random(2024)
    for _ in range(100):
        p = random_poset(rng, max_elems=10)
        subset = Subset(p, linear_extension(p, p.elements))
        closure = ClosureSet.from_subset(subset, MEET)
        zeta = zeta_matrix(closure)
        mob = mobius_matrix(closure)
        assert zeta @ mob == Matrix.identity(closure.m)
        assert mob @ zeta == Matrix.identity(closure.m)


def test_divisor_mobius_matches_number_theory():
    # On a full divisor set every interval [a, b] is complete, so the
    # order Möbius function agrees with the arithmetic one at b/a. The
    # same holds on prime-power chains, whose intervals are the chains
    # themselves. (A sparse mixed-prime chain like {1, 2, 6} would not
    # qualify: dropping 3 changes the interval, mu(1,6) becomes 0, not 1.)
    from meetjoin.numtheory import divisors_of

    d = DivisorLattice()
    for base in (12, 30, 36, 60):
        divs = divisors_of(base)
        closure = ClosureSet(d, divs, MEET)
        mob = mobius_matrix(closure)
        for i, a in enumerate(divs):
            for j, b in enumerate(divs):
                if d.leq(a, b):
                    assert mob[i, j] == mobius_nt(b // a)

    for start, p in ((1, 2), (3, 2), (5, 3)):
        chain = [start * p**k for k in range(5)]
        mob = mobius_matrix(ClosureSet(d, chain, MEET))
        for i, a in enumerate(chain):
            for j, b in enumerate(chain):
                if d.leq(a, b):
                    assert mob[i, j] == mobius_nt(b // a)


def test_poset_equality_and_canonical_covers():
    p1 = FinitePoset([("a", "b"), ("b", "c")])
    p2 = FinitePoset([("a", "b"), ("b", "c"), ("a", "c")])
    assert p1 == p2
    assert p1.covers == p2.covers
    assert p2.covers == (("a", "b"), ("b", "c"))


def test_closure_sets_differ_by_mode_and_backend():
    chain = FinitePoset([("1", "2")], elements=["1", "2"])
    meet = ClosureSet(DivisorLattice(), [1, 2], MEET)
    assert meet == ClosureSet(DivisorLattice(), [1, 2], MEET)
    assert meet != ClosureSet(DivisorLattice(), [1, 2], JOIN)
    assert ClosureSet(chain, ["1", "2"], MEET) != ClosureSet(chain, ["1", "2"], JOIN)
    # equal elements, equal mode, another backend
    other = FinitePoset([("1", "2"), ("2", "3")], elements=["1", "2", "3"])
    assert ClosureSet(chain, ["1", "2"], MEET) != ClosureSet(other, ["1", "2"], MEET)
