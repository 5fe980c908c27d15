"""Self-tests of the benchmark harness.

Run from the repository root with `python3 -m pytest bench/tests`.
"""

from __future__ import annotations

import math
import sys
from fractions import Fraction
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(BENCH.parent / "src"))

import checks  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402


def _materialized(workload: str, seed: int, count: int, directory: Path) -> list:
    directory.mkdir()
    gen = workloads.generator(workload, seed)
    out = []
    for _ in range(count):
        request = gen.next()
        run.materialize(request, directory)
        files = {name: (directory / name).read_bytes() for name in request.files}
        out.append((request.argv, files, request.expect))
    return out


def test_generator_is_deterministic_and_never_repeats(tmp_path):
    for workload in workloads.WORKLOADS:
        first = _materialized(workload, 7, 40, tmp_path / f"{workload}-a")
        second = _materialized(workload, 7, 40, tmp_path / f"{workload}-b")
        assert first == second
        other = _materialized(workload, 8, 40, tmp_path / f"{workload}-c")
        assert [r[:2] for r in other] != [r[:2] for r in first]
        keys = [(tuple(argv), tuple(sorted(files.items()))) for argv, files, _ in first]
        assert len(set(keys)) == len(keys)


def test_flipped_inverse_entry_counts_as_failure(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    gen = workloads.generator("divisor-analyze", 3)
    request = gen.next()
    run.materialize(request, tmp_path)
    code, stdout, stderr, seconds = run.call_cli(request.argv)
    assert "inverse_row1=" in stdout

    lines = stdout.splitlines()
    at = next(i for i, line in enumerate(lines) if line.startswith("inverse_row1="))
    key, _, row = lines[at].partition("=")
    entries = row.split()
    re, im = checks.parse_gauss(entries[0])
    entries[0] = workloads.render_gauss(re + 1, im)
    lines[at] = key + "=" + " ".join(entries)
    corrupted = "\n".join(lines) + "\n"

    outcomes = [
        run.record(request, code, stdout, stderr, seconds),
        run.record(request, code, corrupted, stderr, seconds),
    ]
    assert [o.problem for o in outcomes] == [None, "matrix times inverse is not the identity"]
    assert sum(o.problem is not None for o in outcomes) == 1


def test_id_family_det_is_the_product_of_phi():
    for n in range(1, 16):
        members = list(range(1, n + 1))
        rows = [[(Fraction(x), Fraction(0)) for x in members] for _ in members]
        phi = [sum(math.gcd(i, k) == 1 for k in range(1, i + 1)) for i in members]
        assert checks.closed_set_det(members, "meet", rows) == (Fraction(math.prod(phi)), 0)


def test_self_time_subtracts_children_on_a_hand_built_tree():
    ticks = iter([0, 10, 15, 25, 40, 50, 60, 100])
    t = tracer.Tracer(clock=lambda: next(ticks))
    leaf = t.wrap("scalar.op", lambda: None, leaf=True)

    def child_body():
        leaf()

    child = t.wrap("matrix.det", child_body, leaf=False)

    def outer_body():
        child()  # [10, 40], holding a leaf call [15, 25]
        leaf()  # [50, 60]

    outer = t.wrap("cli.main", outer_body, leaf=False)
    outer()  # [0, 100]

    assert t.stats["scalar.op"] == [2, 20, 0]
    assert t.stats["matrix.det"] == [1, 20, 0]
    assert t.stats["cli.main"] == [1, 60, 0]
    by_name = {span[2]: span for span in t.spans}
    assert [span[2] for span in t.spans] == ["matrix.det", "cli.main"]
    assert by_name["matrix.det"][1] == by_name["cli.main"][0]
    assert by_name["cli.main"][1] == 0
    assert by_name["cli.main"][3:] == [0, 100, 60]


def test_failed_call_is_counted_and_unwinds_the_stack():
    ticks = iter([0, 5, 9, 20])
    t = tracer.Tracer(clock=lambda: next(ticks))

    def fail():
        raise ValueError("no meet")

    leaf = t.wrap("posets.FinitePoset.meet", fail, leaf=True)

    def body():
        try:
            leaf()
        except ValueError:
            pass

    t.wrap("posets.closure_set", body, leaf=False)()
    assert t.stats["posets.FinitePoset.meet"] == [1, 4, 1]
    assert t.stats["posets.closure_set"] == [1, 16, 0]
    assert t._stack == [[20, 0]]
