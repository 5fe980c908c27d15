"""Line-oriented text formats: poset files, family files, matrix blocks."""

import pytest

from meetjoin.errors import ParseError
from meetjoin.formats import (
    parse_family_file,
    parse_poset_file,
    render_elements,
    render_matrix_machine,
)
from meetjoin.matrix import Matrix
from meetjoin.posets import DivisorLattice, FinitePoset
from meetjoin.scalar import Scalar


def test_parse_finite_poset():
    spec = parse_poset_file(
        """
        # a diamond
        elements: bot a b top
        covers: bot<a bot<b
        covers: a<top b<top
        """
    )
    assert isinstance(spec.backend, FinitePoset)
    assert spec.members == ["bot", "a", "b", "top"]
    assert spec.backend.meet("a", "b") == "bot"
    assert spec.backend.join("a", "b") == "top"


def test_parse_poset_with_set_line():
    spec = parse_poset_file(
        """
        elements: a b c
        covers: a<b b<c
        set: a c
        """
    )
    assert spec.members == ["a", "c"]


def test_parse_divisor_poset():
    spec = parse_poset_file(
        """
        elements: @divisors
        set: 1 2 4
        set: 8
        """
    )
    assert isinstance(spec.backend, DivisorLattice)
    assert spec.members == [1, 2, 4, 8]


def test_parse_poset_errors():
    with pytest.raises(ParseError, match="empty"):
        parse_poset_file("# nothing\n")
    with pytest.raises(ParseError, match="line 1"):
        parse_poset_file("covers: a<b")
    with pytest.raises(ParseError, match="line 2"):
        parse_poset_file("elements: a b\ncovers: a-b")
    with pytest.raises(ParseError, match="line 2"):
        parse_poset_file("elements: a b\nwhatever: x")
    with pytest.raises(ParseError, match="line 2"):
        parse_poset_file("elements: @divisors\nset: two")
    with pytest.raises(ParseError, match="no 'set:'"):
        parse_poset_file("elements: @divisors")
    with pytest.raises(ParseError, match="lists no elements"):
        parse_poset_file("elements:")
    with pytest.raises(ParseError, match="only 'set:'"):
        parse_poset_file("elements: @divisors\ncovers: a<b")
    with pytest.raises(ParseError, match="lo<hi"):
        parse_poset_file("elements: a b\ncovers: a<b<c")


def test_parse_family_file():
    domain, tables = parse_family_file(
        """
        over: 1 2 4
        f1: 1 0 -1/2
        f2: i 2i 1+i
        """,
        int,
    )
    assert domain == [1, 2, 4]
    assert len(tables) == 2
    assert tables[0][4] == Scalar.parse("-1/2")
    assert tables[1][1] == Scalar(0, 1)


def test_parse_family_errors():
    with pytest.raises(ParseError, match="empty"):
        parse_family_file("", int)
    with pytest.raises(ParseError, match="must start with 'over:'"):
        parse_family_file("f1: 1", int)
    with pytest.raises(ParseError, match="bad element"):
        parse_family_file("over: x\nf1: 1", int)
    with pytest.raises(ParseError, match="repeat"):
        parse_family_file("over: 2 2\nf1: 1 1", int)
    with pytest.raises(ParseError, match="expected row label 'f1'"):
        parse_family_file("over: 1\nf2: 3", int)
    with pytest.raises(ParseError, match="expected row label 'f2'"):
        parse_family_file("over: 1\nf1: 3\nf3: 4", int)
    with pytest.raises(ParseError, match="has 1 values"):
        parse_family_file("over: 1 2\nf1: 3", int)
    with pytest.raises(ParseError, match="line 2"):
        parse_family_file("over: 1\nf1: oops", int)
    with pytest.raises(ParseError, match="no rows"):
        parse_family_file("over: 1 2", int)


def test_render_matrix_machine_roundtrip():
    m = Matrix([[1, Scalar.parse("1/2-3/4i")], [Scalar(0, 1), -2]])
    lines = render_matrix_machine(m)
    assert lines == ["1 1/2-3/4i", "i -2"]
    assert Matrix([[Scalar.parse(tok) for tok in line.split()] for line in lines]) == m


def test_render_elements():
    assert render_elements([1, 2, 12]) == "1 2 12"
    assert render_elements(["x1", "x2"]) == "x1 x2"
