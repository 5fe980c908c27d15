"""Value records: immutability, equality, copies and pickles, and what
`import meetjoin.cli` loads."""

import copy
import os
import pickle
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from meetjoin.matrix import Matrix
from meetjoin.numtheory import make_family
from meetjoin.posets import JOIN, MEET, DivisorLattice, Subset
from meetjoin.randomcheck import check_closed
from meetjoin.rowadjusted import (
    PsiTable,
    RankReport,
    build_matrix,
    closed_psi,
    factorize,
    rank_report,
)
from meetjoin.scalar import ZERO, Scalar

SRC = Path(__file__).resolve().parents[1] / "src"


def _closed_analyze():
    """The records of `analyze --divisors --set 1 2 3 6 --family id`."""
    subset = Subset(DivisorLattice(), [1, 2, 3, 6])
    family = make_family("id", subset.n, subset.members)
    table = closed_psi(subset, family, MEET)
    matrix = build_matrix(subset, family, MEET)
    check = check_closed(table, matrix)
    assert not check.problems and check.inverse is not None
    return {
        "Scalar": check.det,
        "Matrix": matrix,
        "PsiTable": table,
        "Factorization": factorize(subset, family, MEET),
        "RankReport": check.rank,
        "ClosedCheck": check,
    }


ROUND_TRIPS = {
    "copy": copy.copy,
    "deepcopy": copy.deepcopy,
    "pickle": lambda value: pickle.loads(pickle.dumps(value)),
}


@pytest.mark.parametrize("how", ROUND_TRIPS)
@pytest.mark.parametrize(
    "record", ["Scalar", "Matrix", "PsiTable", "Factorization", "RankReport", "ClosedCheck"]
)
def test_records_survive_copy_deepcopy_and_pickle(record, how):
    value = _closed_analyze()[record]
    twin = ROUND_TRIPS[how](value)
    assert type(twin) is type(value)
    assert twin == value


def test_matrix_copies_do_not_carry_the_integer_form():
    matrix = _closed_analyze()["Matrix"]
    det = matrix.det()  # fills the private integer form
    for how in ROUND_TRIPS.values():
        twin = how(matrix)
        assert twin._ints is None
        assert twin.det() == det


def test_cli_import_loads_no_dataclass_machinery(tmp_path):
    code = (
        "import sys; before = set(sys.modules); import meetjoin.cli; "
        "print(' '.join(sorted(set(sys.modules) - before)))"
    )
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, cwd=tmp_path,
        capture_output=True, text=True, check=True,
    )
    added = set(proc.stdout.split())
    assert "meetjoin.cli" in added
    assert not added & {"dataclasses", "inspect"}


@pytest.mark.parametrize("name", ["real", "imag", "other"])
def test_scalar_attributes_cannot_be_set_or_deleted(name):
    value = Scalar(1, 2)
    with pytest.raises(AttributeError):
        setattr(value, name, Fraction(5))
    with pytest.raises(AttributeError):
        delattr(value, name)
    assert value == Scalar(1, 2)


def test_scalar_constructor_coerces_to_fractions():
    cases = [
        (Scalar(), 0, 0),
        (Scalar(1), 1, 0),
        (Scalar(real=3, imag=Fraction(-1, 2)), 3, Fraction(-1, 2)),
        (Scalar(imag=4), 0, 4),
        (Scalar(Fraction(2, 6), -7), Fraction(1, 3), -7),
        (Scalar(True, 0), 1, 0),
    ]
    for value, real, imag in cases:
        assert type(value.real) is Fraction and type(value.imag) is Fraction
        assert (value.real, value.imag) == (real, imag)
    assert Scalar() == ZERO and Scalar(0, 0) == 0
    assert hash(Scalar(Fraction(4, 2))) == hash(Scalar(2, 0))


def test_psi_table_is_a_record_with_fieldwise_equality():
    table = _closed_analyze()["PsiTable"]
    again = _closed_analyze()["PsiTable"]
    assert not isinstance(table, tuple)
    assert table is not again and table == again and hash(table) == hash(again)
    fields = dict(subset=table.subset, mode=table.mode, closure=table.closure, grid=table.grid)
    assert PsiTable(**fields) == table
    assert PsiTable(**{**fields, "grid": -table.grid}) != table
    assert PsiTable(**{**fields, "mode": JOIN}) != table
    assert table != (table.subset, table.mode, table.closure, table.grid)


def test_rank_report_keyword_equality():
    report = RankReport(k=1, lower=2, upper=3)
    assert report == RankReport(1, 2, 3)
    assert report != RankReport(k=1, lower=2, upper=4)
    assert (report.k, report.lower, report.upper) == (1, 2, 3)
    assert report._replace(upper=2) == RankReport(k=1, lower=2, upper=2)
    assert rank_report(_closed_analyze()["PsiTable"]) == RankReport(k=0, lower=4, upper=4)
