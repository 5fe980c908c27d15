"""The seeded battery itself: determinism, coverage, fault injection."""

import random
import sys

import pytest

import meetjoin.matrix as matrix_module
import meetjoin.posets as posets
import meetjoin.randomcheck as randomcheck
import meetjoin.rowadjusted as rowadjusted
from meetjoin.cli import main
from meetjoin.numtheory import make_family
from meetjoin.posets import JOIN, MEET, DivisorLattice, Subset, is_closed
from meetjoin.randomcheck import (
    CHECK_NAMES,
    VerifyReport,
    check_attainment,
    check_closed,
    random_instance,
    run_verify,
)
from meetjoin.rowadjusted import build_matrix, closed_psi


def test_check_closed_converts_its_matrix_once(monkeypatch):
    # det, rank, inverse and both products share one integer form of the matrix
    convert = matrix_module._gaussian
    converted = []

    def counting(entries):
        converted.append(entries)
        return convert(entries)

    monkeypatch.setattr(matrix_module, "_gaussian", counting)
    subset = Subset(DivisorLattice(), [1, 2, 3, 4, 6, 12])
    family = make_family("id", subset.n, subset.members)
    matrix = build_matrix(subset, family, MEET)
    result = check_closed(closed_psi(subset, family, MEET), matrix)
    assert not result.problems and result.inverse is not None
    assert sum(1 for entries in converted if entries is matrix.entries) == 1
    assert sum(1 for entries in converted if entries is result.inverse.entries) == 1


def test_instances_are_deterministic():
    a = [random_instance(random.Random(42)) for _ in range(10)]
    b = [random_instance(random.Random(42)) for _ in range(10)]
    assert [i.label for i in a] == [i.label for i in b]
    assert [i.mode for i in a] == [i.mode for i in b]
    assert [i.subset.members for i in a] == [i.subset.members for i in b]


def test_instances_are_valid():
    rng = random.Random(9)
    modes = set()
    backends = set()
    for _ in range(40):
        inst = random_instance(rng)
        assert 1 <= inst.subset.n <= 8
        assert inst.family.n == inst.subset.n
        modes.add(inst.mode)
        backends.add(type(inst.subset.backend).__name__)
        for x in inst.subset.members:
            assert x in inst.universe
    assert modes == {MEET, JOIN}
    assert backends == {"DivisorLattice", "FinitePoset"}


def test_force_closed_instances_are_closed():
    rng = random.Random(31)
    for _ in range(25):
        inst = random_instance(rng, force_closed=True)
        assert is_closed(inst.subset, inst.mode)


def test_fixed_mode_is_respected():
    rng = random.Random(5)
    for _ in range(10):
        assert random_instance(rng, mode=MEET).mode == MEET
        assert random_instance(rng, mode=JOIN).mode == JOIN


def test_run_verify_passes_and_counts():
    report = run_verify(seed=1, cases=60)
    assert report.ok
    assert report.counts["factorization"] == 60
    assert report.counts["psi_two_routes"] == 60
    assert report.counts["transpose_duality"] == 60
    assert report.counts["det_theorem"] >= 20
    assert report.counts["attainment_lower"] == 1
    assert report.counts["attainment_upper"] == 1
    for name in report.counts:
        assert name in CHECK_NAMES


def test_run_verify_is_deterministic():
    a = run_verify(seed=8, cases=25)
    b = run_verify(seed=8, cases=25)
    assert a.counts == b.counts
    assert a.failures == b.failures


def test_run_verify_rejects_bad_cases():
    with pytest.raises(ValueError):
        run_verify(seed=1, cases=0)


def test_fault_injection_is_caught():
    report = run_verify(seed=1, cases=20, fault_negate_psi=True)
    assert not report.ok
    assert any(f.check == "factorization" for f in report.failures)
    # the corruption touches only the factorization check
    others = {f.check for f in report.failures} - {"factorization"}
    assert not others


def test_attainment_constructions():
    report = VerifyReport(seed=0, cases=0)
    check_attainment(report)
    assert report.ok
    assert report.counts == {"attainment_lower": 1, "attainment_upper": 1}


def test_closed_form_faults_are_caught(monkeypatch):
    clean = run_verify(seed=1, cases=20)
    det, rank = randomcheck.theorem_det, randomcheck.rank_report
    # doubling keeps zero and nonzero determinants apart, so only the
    # determinant check itself can see it
    monkeypatch.setattr(randomcheck, "theorem_det", lambda *args: det(*args) * 2)
    monkeypatch.setattr(
        randomcheck, "rank_report",
        lambda *args: rank(*args)._replace(lower=-2, upper=-1),
    )
    report = run_verify(seed=1, cases=20)
    assert report.counts == clean.counts
    failed = {f.check for f in report.failures}
    assert {"det_theorem", "rank_trichotomy"} <= failed
    assert failed <= {"det_theorem", "rank_trichotomy", "attainment_lower", "attainment_upper"}


def _machine_fields(text):
    return dict(line.split("=", 1) for line in text.splitlines())


def test_failing_verify_prints_a_reproduction_line(monkeypatch, capsys):
    args = ["verify", "--seed", "1", "--cases", "20"]
    assert main([*args, "--format", "machine"]) == 0
    assert "reproduce" not in capsys.readouterr().out
    det = randomcheck.theorem_det
    monkeypatch.setattr(randomcheck, "theorem_det", lambda *args: det(*args) * 2)
    assert main([*args, "--format", "machine"]) == 5
    fields = _machine_fields(capsys.readouterr().out)
    case = int(fields["first_failure"].split(" case ", 1)[1].split(":", 1)[0])
    assert fields["reproduce"] == f"meetjoin verify --seed 1 --cases {case + 1}"
    # the printed command replays the same first failure, in both formats
    replay = fields["reproduce"].split()[1:]
    assert main([*replay, "--format", "machine"]) == 5
    assert _machine_fields(capsys.readouterr().out)["first_failure"] == fields["first_failure"]
    assert main(replay) == 5
    assert f"  reproduce: {fields['reproduce']}" in capsys.readouterr().out.splitlines()


@pytest.mark.parametrize("mode, members", [(MEET, [1, 2, 3, 6]), (JOIN, [2, 4, 6, 12])])
def test_closed_set_tabulates_psi_once(monkeypatch, capsys, mode, members):
    calls = []
    tabulate = rowadjusted.psi_table

    def counted(*args, **kwargs):
        calls.append(args)
        return tabulate(*args, **kwargs)

    monkeypatch.setattr(rowadjusted, "psi_table", counted)
    subset = Subset(DivisorLattice(), members)
    family = make_family("id", subset.n, members)
    checked = check_closed(closed_psi(subset, family, mode), build_matrix(subset, family, mode))
    assert not checked.problems and checked.inverse is not None
    assert len(calls) == 1

    calls.clear()
    argv = ["analyze", "--divisors", "--set", *map(str, members), "--mode", mode]
    assert main(argv) == 0
    assert "invertible: yes" in capsys.readouterr().out
    assert len(calls) == 1


def test_mobius_route_fault_is_caught(monkeypatch):
    clean = run_verify(seed=1, cases=20)
    route = randomcheck.psi_by_mobius
    monkeypatch.setattr(randomcheck, "psi_by_mobius", lambda *args: -route(*args))
    report = run_verify(seed=1, cases=20)
    assert report.counts == clean.counts
    assert report.failures
    assert {f.check for f in report.failures} == {"psi_two_routes"}


def test_psi_from_matrix_fault_is_caught_in_both_modes(monkeypatch):
    clean = run_verify(seed=1, cases=20)
    recover = randomcheck.psi_from_matrix
    monkeypatch.setattr(randomcheck, "psi_from_matrix", lambda *args: -recover(*args))
    report = run_verify(seed=1, cases=20)
    assert report.counts == clean.counts
    assert report.counts["psi_from_matrix"] == report.counts["det_theorem"]
    assert {f.check for f in report.failures} == {"psi_from_matrix"}
    modes = {f.label.rsplit("mode=", 1)[1] for f in report.failures}
    assert modes == {MEET, JOIN}


def test_closedness_is_asked_once_per_request(monkeypatch, capsys, tmp_path):
    # every module that imported closure_set by name is counted
    calls = []
    build = posets.closure_set

    def counted(*args, **kwargs):
        calls.append(args)
        return build(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name.startswith("meetjoin") and getattr(module, "closure_set", None) is build:
            monkeypatch.setattr(module, "closure_set", counted)

    functions = tmp_path / "family.txt"
    functions.write_text("over: 1 2 3 6\n" + "".join(f"f{i}: 1 2 3 6\n" for i in range(1, 5)))
    closed = ["analyze", "--divisors", "--set", "1", "2", "3", "6"]
    for argv, want in (
        ([*closed, "--family", "id"], 1),  # the family's domain only
        ([*closed, "--functions", str(functions)], 0),
        (["analyze", "--divisors", "--set", "4", "6", "--family", "id"], 1),
        (["verify", "--seed", "1", "--cases", "100"], 150),
    ):
        calls.clear()
        assert main(argv) == 0
        capsys.readouterr()
        assert len(calls) == want, argv
