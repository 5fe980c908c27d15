"""Command-line front end.

Subcommands build the row-adjusted matrix, analyze a set through the
closed-form theorems (always cross-checked against elimination), print
closures and Möbius matrices, and run the randomized verify battery.

Exit codes: 0 success, 2 parse or usage, 3 order-structure violation,
4 missing function value, 5 theorem/oracle mismatch or failed property.
"""

from __future__ import annotations

import argparse
import sys
from typing import NamedTuple

from .errors import (
    DimensionError,
    DomainError,
    MissingValueError,
    NotClosedError,
    OracleMismatchError,
    ParseError,
    StructureError,
)
from .formats import (
    parse_family_file,
    parse_poset_file,
    render_elements,
    render_matrix_machine,
)
from .matrix import Matrix
from .numtheory import make_family
from .posets import (
    DivisorLattice,
    OrderBackend,
    Subset,
    closure_set,
    mobius_matrix,
)
from .randomcheck import check_closed, run_verify
from .rowadjusted import FunctionFamily, build_matrix, closed_psi

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_STRUCTURE = 3
EXIT_MISSING = 4
EXIT_MISMATCH = 5


class RunConfig(NamedTuple):
    """Everything a data subcommand needs, resolved from flags.

    `family` is None for subcommands without family flags.
    """

    backend_kind: str
    subset: Subset
    family: FunctionFamily | None
    mode: str
    column_adjusted: bool
    format: str


class Output:
    """Collects either aligned human text or stable key=value lines."""

    def __init__(self, machine: bool):
        self.machine = machine
        self.lines: list[str] = []

    def kv(self, key: str, value):
        if self.machine:
            self.lines.append(f"{key}={value}")

    def text(self, line: str = ""):
        if not self.machine:
            self.lines.append(line)

    def matrix(self, key: str, label: str, matrix: Matrix):
        if self.machine:
            for i, row in enumerate(render_matrix_machine(matrix), start=1):
                self.lines.append(f"{key}_row{i}={row}")
        else:
            self.lines.append(f"{label}:")
            self.lines.append(str(matrix))

    def emit(self):
        for line in self.lines:
            print(line)


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError("must be at least 1")
    return value


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="meetjoin",
        description="Row-adjusted meet and join matrices over posets and divisors.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_data_flags(p: argparse.ArgumentParser, with_family: bool):
        where = p.add_mutually_exclusive_group(required=True)
        where.add_argument("--poset", metavar="FILE", help="poset description file")
        where.add_argument(
            "--divisors", action="store_true", help="use the divisor lattice"
        )
        p.add_argument(
            "--set",
            nargs="+",
            metavar="X",
            help="subset members, in an order compatible with the order relation",
        )
        if with_family:
            fam = p.add_mutually_exclusive_group()
            fam.add_argument(
                "--family",
                metavar="SPEC",
                help="id | const:<c> | pow:<r> | table:<file>",
            )
            fam.add_argument(
                "--functions", metavar="FILE", help="function family file"
            )
            p.add_argument(
                "--column-adjusted",
                action="store_true",
                help="transpose: functions attach to columns instead of rows",
            )
        p.add_argument("--mode", choices=("meet", "join"), default="meet")
        p.add_argument("--format", choices=("human", "machine"), default="human")

    add_data_flags(sub.add_parser("matrix", help="print the adjusted matrix"), True)
    add_data_flags(
        sub.add_parser("analyze", help="determinant, rank, inverse with cross-checks"),
        True,
    )
    add_data_flags(sub.add_parser("closure", help="print the closure set"), False)
    add_data_flags(sub.add_parser("mobius", help="Möbius matrix of the closure"), False)

    verify = sub.add_parser("verify", help="run the randomized property battery")
    verify.add_argument("--seed", type=int, default=0)
    verify.add_argument("--cases", type=_positive_int, default=100)
    verify.add_argument("--format", choices=("human", "machine"), default="human")
    return parser


def _read_file(path: str) -> str:
    try:
        with open(path, encoding="utf-8") as handle:
            return handle.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ParseError(f"cannot read {path}: {exc}") from None


def _divisor_members(tokens) -> list[int]:
    members = []
    for token in tokens:
        try:
            members.append(int(token))
        except (TypeError, ValueError):
            raise ParseError(f"divisor element {token!r} is not an integer") from None
    return members


def _resolve_backend(args) -> tuple[OrderBackend, str, list]:
    if args.divisors:
        members = _divisor_members(_set_tokens(args.set)) if args.set else []
        if not members:
            raise ParseError("--divisors needs --set with at least one integer")
        return DivisorLattice(), "divisors", members
    spec = parse_poset_file(_read_file(args.poset))
    members = list(_set_tokens(args.set)) if args.set else list(spec.members)
    if isinstance(spec.backend, DivisorLattice):
        members = _divisor_members(members)
    return spec.backend, "poset", members


def _set_tokens(raw: list[str]) -> list[str]:
    tokens: list[str] = []
    for chunk in raw:
        tokens.extend(t for t in chunk.replace(",", " ").split() if t)
    return tokens


def _resolve_family(args, subset: Subset, mode: str) -> FunctionFamily:
    spec = args.family
    if args.functions or (spec and spec.startswith("table:")):
        path = args.functions or spec[len("table:"):]
        if isinstance(subset.backend, DivisorLattice):
            parse_element = int
        else:
            parse_element = str
        domain, tables = parse_family_file(_read_file(path), parse_element)
        if len(tables) != subset.n:
            raise ParseError(
                f"family file defines {len(tables)} rows, subset has {subset.n} members"
            )
        return FunctionFamily(tables)
    if spec is None:
        spec = "id"
    domain = closure_set(subset, mode).elements
    return make_family(spec, subset.n, domain)


def _make_config(args) -> RunConfig:
    backend, kind, members = _resolve_backend(args)
    subset = Subset(backend, members)
    mode = args.mode
    family = _resolve_family(args, subset, mode) if hasattr(args, "family") else None
    return RunConfig(
        backend_kind=kind,
        subset=subset,
        family=family,
        mode=mode,
        column_adjusted=getattr(args, "column_adjusted", False),
        format=args.format,
    )


def cmd_matrix(args) -> int:
    config = _make_config(args)
    out = Output(config.format == "machine")
    matrix = build_matrix(
        config.subset, config.family, config.mode, config.column_adjusted
    )
    out.kv("command", "matrix")
    out.kv("backend", config.backend_kind)
    out.kv("mode", config.mode)
    out.kv("column_adjusted", str(config.column_adjusted).lower())
    out.kv("n", config.subset.n)
    out.kv("set", render_elements(config.subset.members))
    adjusted = "column" if config.column_adjusted else "row"
    out.text(
        f"{adjusted}-adjusted {config.mode} matrix over "
        f"{render_elements(config.subset.members)}"
    )
    out.matrix("matrix", "matrix", matrix)
    out.emit()
    return EXIT_OK


def cmd_analyze(args) -> int:
    config = _make_config(args)
    out = Output(config.format == "machine")
    subset, family, mode = config.subset, config.family, config.mode
    matrix = build_matrix(subset, family, mode)
    try:
        table = closed_psi(subset, family, mode)
    except NotClosedError:
        table = None
    closed = table is not None
    shown = matrix.transpose() if config.column_adjusted else matrix

    out.kv("command", "analyze")
    out.kv("backend", config.backend_kind)
    out.kv("mode", mode)
    out.kv("column_adjusted", str(config.column_adjusted).lower())
    out.kv("n", subset.n)
    out.kv("set", render_elements(subset.members))
    out.text(f"analyze {mode} matrix over {render_elements(subset.members)}")
    out.matrix("matrix", "matrix", shown)
    out.kv("closed", str(closed).lower())

    if not closed:
        out.text()
        out.text(f"NOTCLOSED: the set is not {mode} closed; elimination results only")
        out.kv("banner", "NOTCLOSED")
        det = matrix.det()
        rank = matrix.rank()
        out.kv("det", det)
        out.kv("rank_exact", rank)
        out.text(f"determinant (elimination): {det}")
        out.text(f"rank (elimination): {rank}")
        invertible = not det.is_zero
        out.kv("invertible", str(invertible).lower())
        if invertible:
            inverse = matrix.inverse()
            if config.column_adjusted:
                inverse = inverse.transpose()
            out.matrix("inverse", "inverse (elimination)", inverse)
        out.emit()
        return EXIT_OK

    result = check_closed(table, matrix)
    if result.problems:
        raise OracleMismatchError(next(iter(result.problems.values())))
    rank, det = result.rank, result.det
    out.kv("k", rank.k)
    out.kv("rank_lower", rank.lower)
    out.kv("rank_upper", rank.upper)
    out.kv("rank_exact", result.exact)
    out.kv("det", det)
    out.text()
    out.text(f"zero diagonal recursion values: k = {rank.k}")
    out.text(f"rank bounds: [{rank.lower}, {rank.upper}], exact rank: {result.exact}")
    out.text(f"determinant: {det}")

    inverse = result.inverse
    invertible = inverse is not None
    out.kv("invertible", str(invertible).lower())
    out.text(f"invertible: {'yes' if invertible else 'no'}")
    if invertible:
        if config.column_adjusted:
            inverse = inverse.transpose()
        out.matrix("inverse", "inverse", inverse)
    out.emit()
    return EXIT_OK


def cmd_closure(args) -> int:
    config = _make_config(args)
    out = Output(config.format == "machine")
    closed = closure_set(config.subset, config.mode)
    already = set(closed.elements) == set(config.subset.members)
    out.kv("command", "closure")
    out.kv("mode", config.mode)
    out.kv("set", render_elements(config.subset.members))
    out.kv("closure", render_elements(closed.elements))
    out.kv("m", closed.m)
    out.kv("closed", str(already).lower())
    out.text(f"{config.mode} closure of {render_elements(config.subset.members)}:")
    out.text(f"  {render_elements(closed.elements)}")
    out.text(f"already closed: {'yes' if already else 'no'}")
    out.emit()
    return EXIT_OK


def cmd_mobius(args) -> int:
    config = _make_config(args)
    out = Output(config.format == "machine")
    closed = closure_set(config.subset, config.mode)
    mob = mobius_matrix(closed)
    out.kv("command", "mobius")
    out.kv("mode", config.mode)
    out.kv("elements", render_elements(closed.elements))
    out.text(
        f"Möbius matrix of the {config.mode} closure "
        f"{render_elements(closed.elements)}"
    )
    out.matrix("mobius", "mobius", mob)
    out.emit()
    return EXIT_OK


def cmd_verify(args) -> int:
    report = run_verify(args.seed, args.cases)
    machine = args.format == "machine"
    out = Output(machine)
    out.kv("command", "verify")
    out.kv("seed", report.seed)
    out.kv("cases", report.cases)
    out.text(f"verify: seed {report.seed}, {report.cases} cases")
    for name in sorted(report.counts):
        count = report.counts[name]
        failed = sum(1 for f in report.failures if f.check == name)
        status = "fail" if failed else "pass"
        out.kv(f"check_{name}", f"{status} {count - failed}/{count}")
        out.text(f"  {name}: {status} ({count - failed}/{count})")
    out.kv("result", "fail" if report.failures else "pass")
    if report.failures:
        first = report.failures[0]
        # every case draws from one random stream, so a case is replayed
        # by running the same seed through it, never alone
        reproduce = f"meetjoin verify --seed {report.seed} --cases {first.case + 1}"
        out.kv("first_failure", f"{first.check} case {first.case}: {first.label}")
        out.kv("first_failure_detail", first.detail)
        out.kv("reproduce", reproduce)
        out.text()
        out.text(f"FIRST COUNTEREXAMPLE ({first.check}, case {first.case}):")
        out.text(f"  instance: {first.label}")
        out.text(f"  {first.detail}")
        out.text(f"  reproduce: {reproduce}")
        out.emit()
        return EXIT_MISMATCH
    out.text("all properties hold")
    out.emit()
    return EXIT_OK


_COMMANDS = {
    "matrix": cmd_matrix,
    "analyze": cmd_analyze,
    "closure": cmd_closure,
    "mobius": cmd_mobius,
    "verify": cmd_verify,
}


# Exit code per error type; the first matching entry wins.
_EXIT_CODES = {
    ParseError: EXIT_PARSE,
    DomainError: EXIT_PARSE,
    DimensionError: EXIT_PARSE,
    StructureError: EXIT_STRUCTURE,
    MissingValueError: EXIT_MISSING,
    OracleMismatchError: EXIT_MISMATCH,
}


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except tuple(_EXIT_CODES) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return next(code for kind, code in _EXIT_CODES.items() if isinstance(exc, kind))


if __name__ == "__main__":
    sys.exit(main())
