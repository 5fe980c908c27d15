"""Order backends and closure machinery.

Two backends provide the partial order: a finite poset built from cover
pairs, and the (conceptually infinite) divisor lattice on positive
integers where meet is gcd and join is lcm. On top of them live the
ordered subset selections, one-step meet/join closures, incidence and
Möbius matrices. A closure set asks `leq` about its elements once, when
it is built; its incidence and Möbius matrices, and the recursions of
`rowadjusted`, read the answers it keeps. `_substitute` is the one
triangular solve along a closure's `walk`, behind Möbius and every
recursion.

Every listing of elements in this module is kept in a linear extension:
a <= b implies a appears no later than b. Ties between incomparable
elements are broken stably by first appearance.
"""

from __future__ import annotations

import math
from typing import Iterable, Sequence

from .errors import (
    AdmissibilityError,
    CycleError,
    DuplicateCoverError,
    NoJoinError,
    NoMeetError,
    NotSortedError,
    UnknownElementError,
)
from .matrix import Matrix, _scalar
from .scalar import ONE, ZERO

MEET = "meet"
JOIN = "join"


def check_mode(mode: str) -> str:
    if mode not in (MEET, JOIN):
        raise ValueError(f"mode must be 'meet' or 'join', got {mode!r}")
    return mode


class OrderBackend:
    """Provider of the order relation and its meets and joins."""

    def leq(self, a, b) -> bool:
        raise NotImplementedError

    def meet(self, a, b):
        raise NotImplementedError

    def join(self, a, b):
        raise NotImplementedError

    def check_element(self, x):
        """Raise UnknownElementError if x is not in this backend's universe."""
        raise NotImplementedError

    def bound(self, mode: str, a, b):
        return self.meet(a, b) if mode == MEET else self.join(a, b)


class DivisorLattice(OrderBackend):
    """Positive integers ordered by divisibility; meet=gcd, join=lcm."""

    def check_element(self, x):
        if not isinstance(x, int) or isinstance(x, bool) or x < 1:
            raise UnknownElementError(f"divisor lattice elements are positive integers, got {x!r}")
        return x

    def leq(self, a, b) -> bool:
        return b % a == 0

    def meet(self, a, b):
        return math.gcd(a, b)

    def join(self, a, b):
        return math.lcm(a, b)

    def __eq__(self, other):
        return isinstance(other, DivisorLattice)

    def __hash__(self):
        return hash(DivisorLattice)

    def __repr__(self):
        return "DivisorLattice()"


class FinitePoset(OrderBackend):
    """Finite poset given by cover pairs.

    Elements are opaque string identifiers. Construction computes the
    reflexive-transitive closure of the covers, rejects cycles and
    duplicate pairs, and stores the elements in a linear extension that
    keeps the input order wherever the input order already respects the
    relation. `covers` is the canonical cover relation (transitive edges
    from the input are dropped).
    """

    def __init__(self, covers: Iterable[tuple[str, str]], elements: Sequence[str] | None = None):
        pairs = [tuple(p) for p in covers]
        seen = set()
        for pair in pairs:
            if pair in seen:
                raise DuplicateCoverError(f"cover {pair[0]}<{pair[1]} listed twice")
            seen.add(pair)

        if elements is None:
            order: list[str] = []
            known: set[str] = set()
            for lo, hi in pairs:
                for x in (lo, hi):
                    if x not in known:
                        known.add(x)
                        order.append(x)
        else:
            order = list(elements)
            if len(set(order)) != len(order):
                raise DuplicateCoverError("element list contains duplicates")
            known = set(order)
            for lo, hi in pairs:
                for x in (lo, hi):
                    if x not in known:
                        raise UnknownElementError(f"cover references unknown element {x!r}")

        for lo, hi in pairs:
            if lo == hi:
                raise CycleError(f"self-cover {lo}<{hi}")

        succ = {x: set() for x in order}
        for lo, hi in pairs:
            succ[lo].add(hi)

        # Strict reachability by DFS from each element.
        reach: dict[str, set[str]] = {}
        for x in order:
            stack = list(succ[x])
            found: set[str] = set()
            while stack:
                y = stack.pop()
                if y in found:
                    continue
                found.add(y)
                stack.extend(succ[y])
            reach[x] = found
        for x in order:
            if x in reach[x]:
                raise CycleError(f"covers contain a cycle through {x!r}")

        # Stable linear extension: repeatedly take the first listed element
        # whose strict predecessors are all placed.
        placed: list[str] = []
        placed_set: set[str] = set()
        remaining = list(order)
        while remaining:
            for x in remaining:
                if all(p in placed_set for p in order if x in reach[p]):
                    placed.append(x)
                    placed_set.add(x)
                    remaining.remove(x)
                    break
            else:  # pragma: no cover - cycles were rejected above
                raise CycleError("covers contain a cycle")

        self.elements: tuple[str, ...] = tuple(placed)
        self._index = {x: i for i, x in enumerate(self.elements)}
        self._strict = {x: frozenset(reach[x]) for x in self.elements}
        self.covers: tuple[tuple[str, str], ...] = tuple(
            (lo, hi)
            for lo in self.elements
            for hi in self.elements
            if hi in self._strict[lo]
            and not any(hi in self._strict[mid] for mid in self._strict[lo])
        )

    def check_element(self, x):
        if x not in self._index:
            raise UnknownElementError(f"element {x!r} is not in this poset")
        return x

    def index(self, x) -> int:
        self.check_element(x)
        return self._index[x]

    def leq(self, a, b) -> bool:
        self.check_element(a)
        self.check_element(b)
        return a == b or b in self._strict[a]

    def _unique_extreme(self, candidates: list[str], upper: bool) -> str | None:
        # Maxima (upper=True) or minima of a non-empty candidate list; the
        # greatest/least element exists iff there is exactly one extreme.
        extremes = [
            c
            for c in candidates
            if not any(
                d != c and (self.leq(c, d) if upper else self.leq(d, c))
                for d in candidates
            )
        ]
        return extremes[0] if len(extremes) == 1 else None

    def meet(self, a, b):
        lower = [z for z in self.elements if self.leq(z, a) and self.leq(z, b)]
        result = self._unique_extreme(lower, upper=True) if lower else None
        if result is None:
            raise NoMeetError(f"{a!r} and {b!r} have no greatest lower bound")
        return result

    def join(self, a, b):
        upper = [z for z in self.elements if self.leq(a, z) and self.leq(b, z)]
        result = self._unique_extreme(upper, upper=False) if upper else None
        if result is None:
            raise NoJoinError(f"{a!r} and {b!r} have no least upper bound")
        return result

    def __eq__(self, other):
        if not isinstance(other, FinitePoset):
            return NotImplemented
        return self.elements == other.elements and self.covers == other.covers

    def __hash__(self):
        return hash((self.elements, self.covers))

    def __repr__(self):
        return f"FinitePoset({len(self.elements)} elements, {len(self.covers)} covers)"


def linear_extension(backend: OrderBackend, items: Sequence) -> tuple:
    """Sort distinct items into a linear extension of the backend order.

    Stable: incomparable items keep their first-appearance order.
    """
    items = list(items)
    placed: list = []
    remaining = list(items)
    while remaining:
        for x in remaining:
            if all(not backend.leq(y, x) for y in remaining if y != x):
                placed.append(x)
                remaining.remove(x)
                break
        else:  # pragma: no cover - cannot happen for a genuine partial order
            raise NotSortedError("items admit no linear extension")
    return tuple(placed)


def _check_sorted(backend: OrderBackend, items: Sequence, what: str):
    for j, b in enumerate(items):
        for i in range(j + 1, len(items)):
            if backend.leq(items[i], b):
                raise NotSortedError(
                    f"{what} violates the ordering: "
                    f"{items[i]!r} precedes {b!r} in the order but is listed later"
                )


class Subset:
    """The ordered selection x_1, ..., x_n whose rows the matrices index.

    Members must be distinct, belong to the backend, and already be listed
    in a linear extension; an out-of-order listing is rejected rather than
    silently permuted, because row functions are attached positionally.
    """

    def __init__(self, backend: OrderBackend, members: Sequence):
        members = tuple(members)
        if not members:
            raise NotSortedError("subset selection must be non-empty")
        if len(set(members)) != len(members):
            raise NotSortedError("subset members must be distinct")
        for x in members:
            backend.check_element(x)
        _check_sorted(backend, members, "subset selection")
        self.backend = backend
        self.members = members

    @property
    def n(self) -> int:
        return len(self.members)

    def index(self, x) -> int:
        return self.members.index(x)

    def __eq__(self, other):
        if not isinstance(other, Subset):
            return NotImplemented
        return self.backend == other.backend and self.members == other.members

    def __hash__(self):
        return hash((self.backend, self.members))

    def __repr__(self):
        return f"Subset({list(self.members)!r})"


class ClosureSet:
    """An ordered set admissible as the support of the recursion tables.

    In meet mode it must contain every pairwise meet of the subset it
    serves (dually for join mode); `validate_for` checks that. Elements
    are kept in a linear extension.

    `below[k]` lists the indices strictly below index k. `walk` is the
    solving order of the recursions, each index paired with those it
    depends on: bottom-up with those below it in meet mode, top-down with
    those above it in join mode, so each is walked before its dependents.
    """

    def __init__(self, backend: OrderBackend, elements: Sequence, mode: str):
        self.mode = check_mode(mode)
        elements = tuple(elements)
        if not elements:
            raise NotSortedError("closure set must be non-empty")
        if len(set(elements)) != len(elements):
            raise NotSortedError("closure set elements must be distinct")
        for x in elements:
            backend.check_element(x)
        _check_sorted(backend, elements, "closure set")
        self.backend = backend
        self.elements = elements
        self._index = {x: i for i, x in enumerate(elements)}
        # sorted, so only an earlier element can be below a later one
        m = len(elements)
        leq = backend.leq
        self.below = tuple(tuple(j for j in range(k) if leq(elements[j], elements[k])) for k in range(m))
        walk = tuple(enumerate(self.below))
        self.walk = walk if self.mode == MEET else _reversed(walk)
        self._related = dict(self.walk)

    @classmethod
    def from_subset(cls, subset: Subset, mode: str) -> "ClosureSet":
        """Use the subset's own members as the closure set (D = S)."""
        return cls(subset.backend, subset.members, mode)

    @property
    def m(self) -> int:
        return len(self.elements)

    def __contains__(self, x) -> bool:
        return x in self._index

    def index(self, x) -> int:
        return self._index[x]

    def cone(self, x) -> frozenset:
        """Indices at or below element x in meet mode, at or above it in
        join mode: where x's row of an incidence matrix is 1."""
        k = self._index[x]
        return frozenset((k, *self._related[k]))

    def validate_for(self, subset: Subset):
        if self.backend != subset.backend:
            raise AdmissibilityError("closure set and subset use different backends")
        member_set = self._index
        for i, a in enumerate(subset.members):
            for b in subset.members[i:]:
                c = self.backend.bound(self.mode, a, b)
                if c not in member_set:
                    word = self.mode
                    raise AdmissibilityError(
                        f"closure set misses the {word} of {a!r} and {b!r} (= {c!r})"
                    )

    def __eq__(self, other):
        if not isinstance(other, ClosureSet):
            return NotImplemented
        return (
            self.backend == other.backend
            and self.elements == other.elements
            and self.mode == other.mode
        )

    def __hash__(self):
        return hash((self.backend, self.elements, self.mode))

    def __repr__(self):
        return f"ClosureSet({self.mode}, {list(self.elements)!r})"


def closure_set(subset: Subset, mode: str) -> ClosureSet:
    """Minimal admissible set: all pairwise meets (or joins) of the subset."""
    check_mode(mode)
    backend = subset.backend
    found: list = []
    seen: set = set()
    for a in subset.members:
        for b in subset.members:
            c = backend.bound(mode, a, b)
            if c not in seen:
                seen.add(c)
                found.append(c)
    return ClosureSet(backend, linear_extension(backend, found), mode)


def is_closed(subset: Subset, mode: str) -> bool:
    """True iff the subset already contains all its pairwise meets/joins."""
    return set(closure_set(subset, mode).elements) == set(subset.members)


def closed_hull(subset: Subset, mode: str) -> Subset:
    """Smallest closed superset, obtained by iterating the one-step closure."""
    current = subset
    while True:
        closed = closure_set(current, mode)
        if set(closed.elements) == set(current.members):
            return current
        current = Subset(subset.backend, closed.elements)


def incidence_matrix(subset: Subset, closure: ClosureSet) -> Matrix:
    """0/1 matrix relating the subset to the closure set.

    Meet mode: entry (i, j) is 1 iff d_j <= x_i. Join mode: 1 iff x_i <= d_j.
    An admissible closure set holds each x_i, its meet (join) with itself.
    """
    closure.validate_for(subset)
    rows = []
    for x in subset.members:
        ones = closure.cone(x)
        rows.append([ONE if j in ones else ZERO for j in range(closure.m)])
    return Matrix(rows)


def mobius_matrix(closure: ClosureSet) -> Matrix:
    """Möbius function of the closure set's own order, as a square matrix:
    the inverse of the zeta matrix, whose entry (x, y) is 1 iff x <= y.
    Its transpose is unit triangular along the bottom-up walk of `below`,
    so one substitution gives mu^T. This is Psi of the identity rows, too:
    mu in meet mode, mu^T in join mode.
    """
    rows, _ = _substitute(tuple(enumerate(closure.below)))
    return Matrix([[_scalar(re, im, 1) for re, im in column] for column in zip(*rows)])


def _reversed(walk: tuple) -> tuple:
    """The walk of the transposed relation: the indices in reverse order,
    each paired with the indices that list it as related."""
    listed = {k: [] for k, _ in walk}
    for k, related in reversed(walk):
        for u in related:
            listed[u].append(k)
    return tuple((k, tuple(listed[k])) for k, _ in reversed(walk))


def _substitute(walk: tuple, rhs=None, coeffs=None) -> tuple[list, tuple]:
    """Solve T @ Y = rhs over Z[i], rhs the identity if None, for a square
    T triangular along `walk`: row k of T is zero but at k and at the
    indices `walk` pairs with k. Those entries are 1 without `coeffs`,
    else T[k][u] = coeffs[k][u] as (re, im), with nonzero pivots.

    Fraction-free: with d_k the product of the pivots walked up to and
    including k, Y_k = W_k / d_k, where W_k is d_(k-1) * rhs[k] minus the
    sum of T[k][u] * (d_(k-1) / d_u) * W_u over the related u, each
    quotient exact. Returns the rows of d * Y, indexed like the walk's,
    and d, the product of all the pivots.
    """
    m = len(walk)
    rows, dens, prev = [None] * m, [None] * m, (1, 0)
    for k, related in walk:
        acc = [prev if j == k else (0, 0) for j in range(m)] if rhs is None else _scaled(rhs[k], prev)
        for u in related:
            cr, ci = (1, 0) if coeffs is None else coeffs[k][u]
            if cr or ci:
                qr, qi = _exact_quotient(prev, dens[u])
                cr, ci = cr * qr - ci * qi, cr * qi + ci * qr
                acc = [(ar - yr, ai - yi) for (ar, ai), (yr, yi) in zip(acc, _scaled(rows[u], (cr, ci)))]
        if coeffs is not None:
            (pr, pi), (dr, di) = coeffs[k][k], prev
            prev = (dr * pr - di * pi, dr * pi + di * pr)
        rows[k], dens[k] = acc, prev
    # bring every row over the last denominator
    return [_scaled(row, _exact_quotient(prev, d)) for row, d in zip(rows, dens)], prev


def _scaled(row, c: tuple):
    cr, ci = c
    return row if c == (1, 0) else [(re * cr - im * ci, re * ci + im * cr) for re, im in row]


def _exact_quotient(a: tuple, b: tuple) -> tuple:
    """a / b for Gaussian integers b != 0 that divide a exactly."""
    (ar, ai), (br, bi) = a, b
    if not bi:
        return ar // br, ai // br
    norm = br * br + bi * bi
    return (ar * br + ai * bi) // norm, (ai * br - ar * bi) // norm
