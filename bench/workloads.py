"""Seeded request generators for the three benchmark workloads.

A request is one `meetjoin` CLI invocation: its argv, the input files it
reads (named by bare file names; requests run with the input directory
as working directory), and the facts the output checks need. The
generator of a workload is driven by one `random.Random` seeded from the
workload name and the seed, so the same seed yields byte-identical argv
and files. No two requests of one run are alike, so a cache that
outlives a request cannot win on repeats that real use does not have.

Request kinds are drawn in shuffled blocks that hold every kind once, so
runs with different seeds see the same mix of sizes and commands.
"""

from __future__ import annotations

import functools
import hashlib
import math
import random
from dataclasses import dataclass, field
from fractions import Fraction

from checks import closed_hull, closed_set_det, divisors, one_step_closure, prime_factors, psi_diagonal

WORKLOADS = ("divisor-analyze", "poset-lattice", "verify-battery")

# The sizes below keep a request near 0.1-0.2 s, so that a 30 s run ends
# with well over the 100 requests a p90 with ten samples beyond it needs.

# divisor-analyze: matrix order n of the gcd grid {1..n}, and the divisor
# counts of N for the join matrices of divisors(N).
GRID_SIZES = tuple(range(6, 15))
JOIN_LIMIT = 2000
CLOSED_FORM_SHARE = 0.3

# poset-lattice: divisor lattices of p^a q^b r^c with this many elements,
# and selections of this many members.
LATTICE_PRIMES = (2, 3, 5, 7, 11)
LATTICE_SIZES = (96, 128)
SELECTION_SIZES = (10, 12)
LABEL_SCALE = 10**6

# verify-battery: cases per `verify` request.
VERIFY_CASES = 8


@dataclass
class Request:
    kind: str
    argv: list[str]
    files: dict[str, str] = field(default_factory=dict)
    expect: dict = field(default_factory=dict)


def render_gauss(re: Fraction, im: Fraction) -> str:
    """A Gaussian rational in the family-file syntax."""
    if not im:
        return str(re)
    coef = "" if im == 1 else "-" if im == -1 else str(im)
    if not re:
        return coef + "i"
    return f"{re}{'+' if im > 0 else ''}{coef}i"


def _random_gauss(rng: random.Random) -> tuple[Fraction, Fraction]:
    re = Fraction(rng.randint(-9, 9), rng.choice((1, 1, 2, 3, 4)))
    im = Fraction(0)
    if rng.random() < 0.25:
        im = Fraction(rng.choice((-3, -2, -1, 1, 2, 3)), rng.choice((1, 2)))
    return re, im


def _family_file(rng: random.Random, n: int, domain: list[int], diagonal=None) -> tuple[str, list[list]]:
    """Random Gaussian-rational rows over the domain. With `diagonal`, whose
    domain lists the members in row order, f_i(x_i) = row[i] is redrawn
    until diagonal(i, row) is nonzero."""
    rows = [[_random_gauss(rng) for _ in domain] for _ in range(n)]
    if diagonal is not None:
        for i, row in enumerate(rows):
            while diagonal(i, row) == (0, 0):
                row[i] = _random_gauss(rng)
    lines = ["over: " + " ".join(map(str, domain))]
    for i, row in enumerate(rows, start=1):
        lines.append(f"f{i}: " + " ".join(render_gauss(re, im) for re, im in row))
    return "\n".join(lines) + "\n", rows


class Generator:
    """Shared plumbing: seeded stream, kind blocks, duplicate rejection."""

    name = ""
    kinds: tuple = ()

    def __init__(self, seed: int):
        self.rng = random.Random(f"{self.name}:{seed}")
        self.count = 0
        self._block: list = []
        self._used: set[bytes] = set()  # hashes of argv and file contents

    def next(self) -> Request:
        if not self._block:
            self._block = list(self.kinds)
            self.rng.shuffle(self._block)
        kind = self._block.pop()
        while True:
            request = self._make(kind, f"r{self.count:06d}")
            key = hashlib.sha256(repr((request.argv, sorted(request.files.items()))).encode()).digest()
            if key not in self._used:
                self._used.add(key)
                self.count += 1
                return request

    def _make(self, kind, stem: str) -> Request:
        raise NotImplementedError


class DivisorAnalyze(Generator):
    """`analyze --divisors` on closed sets: the gcd grid {1..n} in meet
    mode, divisors(N) in join mode; families `id`, `pow:2` or a file."""

    name = "divisor-analyze"

    def __init__(self, seed: int):
        by_count: dict[int, list[int]] = {}
        for number in range(2, JOIN_LIMIT + 1):
            by_count.setdefault(len(divisors(number)), []).append(number)
        self.join_numbers = {s: by_count[s] for s in GRID_SIZES if s in by_count}
        self.kinds = tuple(("meet", s) for s in GRID_SIZES) + tuple(
            ("join", s) for s in self.join_numbers
        )
        self._closed_form_used: set = set()
        super().__init__(seed)

    def _make(self, kind, stem):
        mode, size = kind
        if mode == "meet":
            members = list(range(1, size + 1))
        else:
            members = divisors(self.rng.choice(self.join_numbers[size]))
        argv = ["analyze", "--divisors", "--set", *map(str, members), "--mode", mode]
        power = self.rng.choice((1, 2))
        closed_form = (mode, tuple(members), power)
        if self.rng.random() < CLOSED_FORM_SHARE and closed_form not in self._closed_form_used:
            self._closed_form_used.add(closed_form)
            argv += ["--family", "id" if power == 1 else f"pow:{power}"]
            rows = [[(Fraction(x**power), Fraction(0)) for x in members] for _ in members]
            files = {}
        else:
            name = stem + ".family"
            diagonal = functools.partial(psi_diagonal, members, mode)
            text, rows = _family_file(self.rng, len(members), members, diagonal)
            argv += ["--functions", name]
            files = {name: text}
        expect = {
            "mode": mode,
            "members": members,
            "closed": True,
            "table": (members, rows),
            "det": closed_set_det(members, mode, rows),
        }
        return Request("analyze", argv + ["--format", "machine"], files, expect)


def _lattice(primes, exponents, scale: int) -> tuple[list[int], list[tuple[int, int]]]:
    elements = [1]
    for p, e in zip(primes, exponents):
        elements = [x * p**k for x in elements for k in range(e + 1)]
    elements.sort()
    present = set(elements)
    covers = [(x, x * p) for x in elements for p in primes if x * p in present]
    return [scale * x for x in elements], [(scale * a, scale * b) for a, b in covers]


def _lattice_shapes() -> list[tuple[int, int, int]]:
    """Exponent triples (a, b, c) whose lattice has LATTICE_SIZES elements."""
    lo, hi = LATTICE_SIZES
    shapes = []
    for a in range(1, 8):
        for b in range(1, 8):
            for c in range(1, 8):
                if lo <= (a + 1) * (b + 1) * (c + 1) <= hi:
                    shapes.append((a, b, c))
    return shapes


def _rank(x: int) -> int:
    count = 0
    for p in prime_factors(x):
        while x % p == 0:
            x //= p
            count += 1
    return count


class PosetLattice(Generator):
    """`closure`, `mobius` and `analyze` on generated `--poset` files of
    divisor lattices with integer labels, in meet and join mode."""

    name = "poset-lattice"
    kinds = (
        ("closure", "meet", None),
        ("closure", "join", None),
        ("mobius", "meet", None),
        ("mobius", "join", None),
        ("analyze", "meet", True),
        ("analyze", "meet", False),
        ("analyze", "join", True),
        ("analyze", "join", False),
    )

    def __init__(self, seed: int):
        self.shapes = _lattice_shapes()
        super().__init__(seed)

    def _make(self, kind, stem):
        command, mode, closed = kind
        rng = self.rng
        primes = sorted(rng.sample(LATTICE_PRIMES, 3))
        scale = rng.randint(1, LABEL_SCALE)
        elements, covers = _lattice(primes, rng.choice(self.shapes), scale)
        bound = math.gcd if mode == "meet" else math.lcm
        # Meets are dear where down-sets are large, joins where up-sets are.
        ranks = [_rank(x // scale) for x in elements]
        middle = sorted(ranks)[len(ranks) // 2]
        pool = [
            x
            for x, r in zip(elements, ranks)
            if (r >= middle if mode == "meet" else r <= middle)
        ]
        members = self._closed_selection(pool, bound) if closed else self._open_selection(pool, bound)
        poset_name = stem + ".poset"
        poset_text = (
            "elements: " + " ".join(map(str, elements)) + "\n"
            "covers: " + " ".join(f"{a}<{b}" for a, b in covers) + "\n"
        )
        argv = [command, "--poset", poset_name, "--set", *map(str, members), "--mode", mode]
        files = {poset_name: poset_text}
        closure = sorted(one_step_closure(members, bound))
        expect = {"mode": mode, "members": members, "closure": closure}
        if command == "analyze":
            family_name = stem + ".family"
            text, rows = _family_file(rng, len(members), closure)
            files[family_name] = text
            argv += ["--functions", family_name]
            expect["closed"] = closed
            expect["table"] = (closure, rows)
            expect["counterpart"] = [
                "analyze", "--divisors", "--set", *map(str, members), "--mode", mode,
                "--functions", family_name, "--format", "machine",
            ]
        return Request(command, argv + ["--format", "machine"], files, expect)

    def _open_selection(self, pool, bound) -> list[int]:
        lo, hi = SELECTION_SIZES
        while True:
            members = sorted(self.rng.sample(pool, self.rng.randint(lo, hi)))
            if one_step_closure(members, bound) != set(members):
                return members

    def _closed_selection(self, pool, bound) -> list[int]:
        """Grow a closed set one random pool element at a time, skipping any
        element whose closed hull would exceed the size range."""
        lo, hi = SELECTION_SIZES
        while True:
            target = self.rng.randint(lo, hi)
            current: set[int] = set()
            for x in self.rng.sample(pool, len(pool)):
                grown = closed_hull(current | {x}, bound)
                if len(grown) <= target:
                    current = grown
                if len(current) >= target:
                    return sorted(current)
            if len(current) >= lo:
                return sorted(current)


class VerifyBattery(Generator):
    """`verify --seed s --cases K` with fresh seeds drawn from the workload
    seed."""

    name = "verify-battery"
    kinds = ("verify",)

    def _make(self, kind, stem):
        seed = self.rng.randrange(2**31)
        argv = ["verify", "--seed", str(seed), "--cases", str(VERIFY_CASES), "--format", "machine"]
        return Request("verify", argv, {}, {"seed": seed, "cases": VERIFY_CASES})


GENERATORS = {g.name: g for g in (DivisorAnalyze, PosetLattice, VerifyBattery)}


def generator(workload: str, seed: int) -> Generator:
    return GENERATORS[workload](seed)
