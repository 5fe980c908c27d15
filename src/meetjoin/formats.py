"""Text formats: poset and function-family files in, matrix blocks out.

The grammar is line oriented. Blank lines and `#` comments are ignored
everywhere. Errors carry the 1-based line number of the offense.
"""

from __future__ import annotations

from typing import Callable, NamedTuple, Sequence

from .errors import ParseError
from .matrix import Matrix
from .posets import DivisorLattice, FinitePoset, OrderBackend
from .scalar import Scalar


class PosetSpec(NamedTuple):
    """Outcome of parsing a poset file: an order backend plus the set of
    elements the file put in play (cover endpoints, or the `set:` line)."""

    backend: OrderBackend
    members: list


def _logical_lines(text: str) -> list[tuple[int, str]]:
    out = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            out.append((lineno, line))
    return out


def _split_directive(lineno: int, line: str) -> tuple[str, str]:
    if ":" not in line:
        raise ParseError(f"line {lineno}: expected 'keyword: ...', got {line!r}")
    keyword, _, rest = line.partition(":")
    return keyword.strip(), rest.strip()


def _parse_int(lineno: int, token: str) -> int:
    try:
        return int(token)
    except ValueError:
        raise ParseError(f"line {lineno}: {token!r} is not an integer") from None


def parse_poset_file(text: str) -> PosetSpec:
    """Parse a poset description.

    Finite form:

        elements: a b c d
        covers: a<b a<c b<d c<d

    Divisor form:

        elements: @divisors
        set: 1 2 4 8

    `covers:` and `set:` lines may repeat and accumulate. Cover pairs use
    `lo<hi` with no spaces around `<`.
    """
    lines = _logical_lines(text)
    if not lines:
        raise ParseError("empty poset file")
    lineno, first = lines[0]
    keyword, rest = _split_directive(lineno, first)
    if keyword != "elements":
        raise ParseError(f"line {lineno}: poset file must start with 'elements:'")

    if rest == "@divisors":
        members: list[int] = []
        for lineno, line in lines[1:]:
            keyword, rest = _split_directive(lineno, line)
            if keyword != "set":
                raise ParseError(
                    f"line {lineno}: only 'set:' lines may follow 'elements: @divisors'"
                )
            members.extend(_parse_int(lineno, tok) for tok in rest.split())
        if not members:
            raise ParseError("divisor poset file has no 'set:' values")
        return PosetSpec(DivisorLattice(), members)

    elements = rest.split()
    if not elements:
        raise ParseError(f"line {lineno}: 'elements:' line lists no elements")
    covers: list[tuple[str, str]] = []
    members = []
    for lineno, line in lines[1:]:
        keyword, rest = _split_directive(lineno, line)
        if keyword == "covers":
            for token in rest.split():
                if token.count("<") != 1:
                    raise ParseError(
                        f"line {lineno}: cover {token!r} is not of the form lo<hi"
                    )
                lo, _, hi = token.partition("<")
                if not lo or not hi:
                    raise ParseError(
                        f"line {lineno}: cover {token!r} is not of the form lo<hi"
                    )
                covers.append((lo, hi))
        elif keyword == "set":
            members.extend(rest.split())
        else:
            raise ParseError(f"line {lineno}: unknown keyword {keyword!r}")
    backend = FinitePoset(covers, elements=elements)
    return PosetSpec(backend, members if members else list(backend.elements))


def parse_family_file(text: str, element_parser: Callable[[str], object]) -> tuple[list, list[dict]]:
    """Parse a function-family file.

    Format:

        over: d1 d2 ... dm
        f1: v1 v2 ... vm
        f2: v1 v2 ... vm

    Row labels must be f1, f2, ... in order with no gaps. Values are
    scalars (rationals, or Gaussian rationals like `1/2-3i`). Returns the
    domain list and one {element: Scalar} table per row.
    """
    lines = _logical_lines(text)
    if not lines:
        raise ParseError("empty family file")
    lineno, first = lines[0]
    keyword, rest = _split_directive(lineno, first)
    if keyword != "over":
        raise ParseError(f"line {lineno}: family file must start with 'over:'")
    domain = []
    for token in rest.split():
        try:
            domain.append(element_parser(token))
        except ParseError:
            raise
        except Exception:
            raise ParseError(f"line {lineno}: bad element {token!r}") from None
    if not domain:
        raise ParseError(f"line {lineno}: 'over:' line lists no elements")
    if len(set(domain)) != len(domain):
        raise ParseError(f"line {lineno}: 'over:' elements repeat")

    tables: list[dict] = []
    for lineno, line in lines[1:]:
        keyword, rest = _split_directive(lineno, line)
        expected = f"f{len(tables) + 1}"
        if keyword != expected:
            raise ParseError(
                f"line {lineno}: expected row label {expected!r}, got {keyword!r}"
            )
        values = rest.split()
        if len(values) != len(domain):
            raise ParseError(
                f"line {lineno}: row {expected} has {len(values)} values, "
                f"domain has {len(domain)}"
            )
        try:
            scalars = [Scalar.parse(tok) for tok in values]
        except ParseError as exc:
            raise ParseError(f"line {lineno}: {exc}") from None
        tables.append(dict(zip(domain, scalars)))
    if not tables:
        raise ParseError("family file defines no rows")
    return domain, tables


def render_matrix_machine(matrix: Matrix) -> list[str]:
    """One line per row, entries space separated, stable for diffing."""
    return [
        " ".join(str(matrix[i, j]) for j in range(matrix.cols))
        for i in range(matrix.rows)
    ]


def render_elements(elements: Sequence) -> str:
    return " ".join(str(e) for e in elements)
