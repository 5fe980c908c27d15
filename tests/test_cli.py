"""Command-line behavior: outputs, formats, and exit codes."""

import contextlib
import importlib
import importlib.metadata
import io
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from meetjoin.cli import main
from meetjoin.matrix import Matrix


REPO_ROOT = Path(__file__).resolve().parent.parent


PENTAGON_POSET = """\
elements: x1 x2 x3 x4 x5
covers: x1<x2 x1<x3 x3<x4 x4<x5 x2<x5
"""

PENTAGON_FAMILY = """\
over: x1 x2 x3 x4 x5
f1: 0 0 0 0 0
f2: 0 1 0 0 0
f3: 1 0 1 0 0
f4: 0 0 1 1 0
f5: 0 0 0 1 1
"""


@pytest.fixture
def pentagon_files(tmp_path):
    poset = tmp_path / "pent.poset"
    poset.write_text(PENTAGON_POSET)
    family = tmp_path / "pent.family"
    family.write_text(PENTAGON_FAMILY)
    return str(poset), str(family)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def machine_dict(out: str) -> dict:
    pairs = {}
    for line in out.splitlines():
        key, _, value = line.partition("=")
        pairs[key] = value
    return pairs


def test_matrix_pentagon_human(capsys, pentagon_files):
    poset, family = pentagon_files
    code, out, _ = run(
        capsys, "matrix", "--poset", poset, "--functions", family
    )
    assert code == 0
    assert "[ 1  1  1  1  1 ]" in out
    assert "[ 0  1  0  0  1 ]" in out


def test_matrix_pentagon_machine(capsys, pentagon_files):
    poset, family = pentagon_files
    code, out, _ = run(
        capsys, "matrix", "--poset", poset, "--functions", family,
        "--format", "machine",
    )
    assert code == 0
    d = machine_dict(out)
    assert d["matrix_row1"] == "0 0 0 0 0"
    assert d["matrix_row2"] == "0 1 0 0 1"
    assert d["matrix_row3"] == "1 1 1 1 1"
    assert d["matrix_row4"] == "0 0 1 1 1"
    assert d["matrix_row5"] == "0 0 0 1 1"
    assert d["n"] == "5"


def test_matrix_divisor_gcd_table(capsys):
    code, out, _ = run(
        capsys, "matrix", "--divisors", "--set", "1", "2", "3",
        "--family", "id", "--format", "machine",
    )
    assert code == 0
    d = machine_dict(out)
    assert d["matrix_row1"] == "1 1 1"
    assert d["matrix_row2"] == "1 2 1"
    assert d["matrix_row3"] == "1 1 3"


def test_column_adjusted_on_symmetric_instance(capsys):
    args = ["matrix", "--divisors", "--set", "1,2,3", "--family", "id",
            "--format", "machine"]
    code_a, out_a, _ = run(capsys, *args)
    code_b, out_b, _ = run(capsys, *args, "--column-adjusted")
    assert code_a == code_b == 0
    a, b = machine_dict(out_a), machine_dict(out_b)
    for row in ("matrix_row1", "matrix_row2", "matrix_row3"):
        assert a[row] == b[row]
    assert b["column_adjusted"] == "true"


def test_analyze_pentagon(capsys, pentagon_files):
    poset, family = pentagon_files
    code, out, _ = run(
        capsys, "analyze", "--poset", poset, "--functions", family,
        "--format", "machine",
    )
    assert code == 0
    d = machine_dict(out)
    assert d["closed"] == "true"
    assert d["k"] == "4"
    assert d["rank_lower"] == "1"
    assert d["rank_upper"] == "4"
    assert d["rank_exact"] == "4"
    assert d["det"] == "0"
    assert d["invertible"] == "false"


def test_analyze_divisor_chain_inverse(capsys):
    code, out, _ = run(
        capsys, "analyze", "--divisors", "--set", "1", "2", "3",
        "--family", "id", "--format", "machine",
    )
    assert code == 0
    d = machine_dict(out)
    assert d["det"] == "2"
    assert d["rank_exact"] == "3"
    assert d["invertible"] == "true"
    assert d["inverse_row1"] == "5/2 -1 -1/2"


def test_analyze_join_chain(capsys):
    code, out, _ = run(
        capsys, "analyze", "--divisors", "--set", "2", "4", "8",
        "--family", "id", "--mode", "join", "--format", "machine",
    )
    assert code == 0
    d = machine_dict(out)
    assert d["det"] == "64"
    assert d["invertible"] == "true"


def test_analyze_not_closed_banner(capsys):
    code, out, _ = run(
        capsys, "analyze", "--divisors", "--set", "4", "6", "--family", "id",
    )
    assert code == 0
    assert "NOTCLOSED" in out
    code, out, _ = run(
        capsys, "analyze", "--divisors", "--set", "4", "6", "--family", "id",
        "--format", "machine",
    )
    d = machine_dict(out)
    assert d["banner"] == "NOTCLOSED"
    assert d["closed"] == "false"
    assert d["det"] == "20"
    assert "k" not in d


def test_closure_command(capsys):
    code, out, _ = run(
        capsys, "closure", "--divisors", "--set", "4", "6",
        "--format", "machine",
    )
    assert code == 0
    d = machine_dict(out)
    assert d["closure"] == "2 4 6"
    assert d["closed"] == "false"
    assert d["m"] == "3"


def test_mobius_command(capsys):
    code, out, _ = run(
        capsys, "mobius", "--divisors", "--set", "1", "2", "4",
        "--format", "machine",
    )
    assert code == 0
    d = machine_dict(out)
    assert d["mobius_row1"] == "1 -1 0"
    assert d["elements"] == "1 2 4"


def test_verify_command(capsys):
    code, out, _ = run(
        capsys, "verify", "--seed", "3", "--cases", "20", "--format", "machine",
    )
    assert code == 0
    d = machine_dict(out)
    assert d["result"] == "pass"
    assert d["seed"] == "3"
    assert d["cases"] == "20"
    assert d["check_factorization"].startswith("pass")


def test_verify_failure_report_counts_each_check_apart(capsys, monkeypatch):
    # a fault in two checks: each check line counts only its own failures,
    # and the report names the earliest failure of all
    import meetjoin.randomcheck as randomcheck

    det, route = randomcheck.theorem_det, randomcheck.psi_by_mobius
    monkeypatch.setattr(randomcheck, "theorem_det", lambda *args: det(*args) * 2)
    monkeypatch.setattr(randomcheck, "psi_by_mobius", lambda *args: -route(*args))
    code, out, _ = run(capsys, "verify", "--seed", "1", "--cases", "20", "--format", "machine")
    assert code == 5
    lines = out.splitlines()
    assert [line for line in lines if line.startswith("check_")] == [
        "check_attainment_lower=pass 1/1",
        "check_attainment_upper=pass 1/1",
        "check_d_invariance=pass 18/18",
        "check_det_theorem=fail 9/12",
        "check_factorization=pass 20/20",
        "check_factorization_enlarged=pass 18/18",
        "check_inverse_iff=pass 12/12",
        "check_ordinary_rank=pass 1/1",
        "check_psi_from_matrix=pass 12/12",
        "check_psi_reconstruction=pass 38/38",
        "check_psi_two_routes=fail 2/20",
        "check_rank_trichotomy=pass 12/12",
        "check_specialization=pass 3/3",
        "check_transpose_duality=pass 20/20",
    ]
    assert lines[-4:] == [
        "result=fail",
        "first_failure=psi_two_routes case 1: divisors(96) S=[1, 4, 6, 16, 24, 32, 48] mode=join",
        "first_failure_detail=recursion and Möbius-sum grids disagree",
        "reproduce=meetjoin verify --seed 1 --cases 2",
    ]


def test_machine_output_is_stable(capsys):
    args = ["verify", "--seed", "11", "--cases", "15", "--format", "machine"]
    _, first, _ = run(capsys, *args)
    _, second, _ = run(capsys, *args)
    assert first == second


def test_exit_code_parse_error(capsys, tmp_path):
    bad = tmp_path / "bad.poset"
    bad.write_text("covers: a<b\n")
    code, _, err = run(capsys, "matrix", "--poset", str(bad), "--family", "const:1")
    assert code == 2
    assert "error:" in err

    code, _, err = run(capsys, "matrix", "--divisors", "--set", "x")
    assert code == 2

    code, _, err = run(
        capsys, "matrix", "--poset", str(tmp_path / "missing.poset"),
        "--family", "const:1",
    )
    assert code == 2

    binary = tmp_path / "binary.txt"
    binary.write_bytes(b"\xff\xfe")
    for argv in (
        ["--poset", str(binary)],
        ["--divisors", "--set", "1", "--functions", str(binary)],
    ):
        code, _, err = run(capsys, "analyze", *argv)
        assert code == 2
        assert err.startswith(f"error: cannot read {binary}: ")
        assert "Traceback" not in err

    for argv in (
        ["--set", "1", "2", "3", "--family", "const:1/0"],
        # values, or the det and inverse built from them, past the
        # interpreter's int-to-str digit limit
        ["--set", "1", "2", "3", "--family", "pow:99999"],
        ["--set", *map(str, range(1, 15)), "--family", "pow:1000"],
        ["--set", "1", "--family", "const:" + "1" * 5000],
    ):
        code, _, err = run(capsys, "analyze", "--divisors", *argv)
        assert code == 2
        assert err.startswith("error: ")
        assert "Traceback" not in err


def test_exit_code_structure_error(capsys, tmp_path):
    cyc = tmp_path / "cyc.poset"
    cyc.write_text("elements: a b\ncovers: a<b b<a\n")
    code, _, err = run(capsys, "matrix", "--poset", str(cyc), "--family", "const:1")
    assert code == 3

    code, _, err = run(capsys, "matrix", "--divisors", "--set", "2", "1")
    assert code == 3
    assert "listed later" in err


def test_exit_code_missing_value(capsys, tmp_path):
    fam = tmp_path / "partial.family"
    fam.write_text("over: 4 6\nf1: 1 2\nf2: 3 4\n")
    code, _, err = run(
        capsys, "matrix", "--divisors", "--set", "4", "6",
        "--functions", str(fam),
    )
    assert code == 4
    assert "no value" in err


@pytest.mark.parametrize(
    "target, perturb",
    [
        ("theorem_inverse", lambda inverse: inverse + Matrix.diagonal([1, 0, 0])),
        ("theorem_det", lambda det: det + 1),
        ("rank_report", lambda rr: rr._replace(lower=rr.upper + 1, upper=rr.upper + 1)),
    ],
    ids=["inverse", "det", "rank"],
)
def test_exit_code_oracle_mismatch(capsys, monkeypatch, target, perturb):
    import meetjoin.randomcheck as randomcheck

    closed_form = getattr(randomcheck, target)
    monkeypatch.setattr(randomcheck, target, lambda *args: perturb(closed_form(*args)))
    code, _, err = run(capsys, "analyze", "--divisors", "--set", "1", "2", "3", "--family", "id")
    assert code == 5
    assert err.startswith("error: ")
    assert "Traceback" not in err


def test_family_row_count_checked(capsys, tmp_path):
    fam = tmp_path / "short.family"
    fam.write_text("over: 1 2\nf1: 1 2\n")
    code, _, err = run(
        capsys, "matrix", "--divisors", "--set", "1", "2",
        "--functions", str(fam),
    )
    assert code == 2
    assert "1 rows" in err


def test_family_table_spec_equivalent_to_functions(capsys, tmp_path):
    fam = tmp_path / "f.family"
    fam.write_text("over: 1 2\nf1: 1 1\nf2: 1 2\n")
    _, out_a, _ = run(
        capsys, "matrix", "--divisors", "--set", "1", "2",
        "--functions", str(fam), "--format", "machine",
    )
    _, out_b, _ = run(
        capsys, "matrix", "--divisors", "--set", "1", "2",
        "--family", f"table:{fam}", "--format", "machine",
    )
    assert out_a == out_b


def test_verify_rejects_zero_cases(capsys):
    with pytest.raises(SystemExit) as err:
        main(["verify", "--cases", "0"])
    assert err.value.code == 2


def load_pyproject() -> dict:
    try:
        import tomllib
    except ModuleNotFoundError:  # Python 3.10
        tomllib = pytest.importorskip("tomli")
    with (REPO_ROOT / "pyproject.toml").open("rb") as fh:
        return tomllib.load(fh)


def write_console_script(bin_dir: Path, name: str, target: str) -> None:
    """Write the launcher pip generates for a ``console_scripts`` entry."""
    module, _, attr = target.partition(":")
    script = bin_dir / name
    script.write_text(
        f"#!{sys.executable}\n"
        "import sys\n"
        f"from {module} import {attr}\n"
        "if __name__ == '__main__':\n"
        f"    sys.exit({attr}())\n"
    )
    script.chmod(0o755)


def test_console_script_installed(capsys, tmp_path):
    """The ``meetjoin`` console script exists and runs the CLI.

    Checked on every checkout: ``pyproject.toml`` declares exactly
    ``meetjoin = "meetjoin.cli:main"``, the target imports as
    ``meetjoin.cli.main``, and the launcher pip writes for that entry,
    put on a temporary PATH, reproduces in-process output and passes
    the exit code of ``main()`` through ``sys.exit``; so does
    ``python -m meetjoin``.

    Checked in addition wherever the ``meetjoin`` distribution is
    installed: its metadata declares the same entry, and the
    ``meetjoin`` found on the real PATH gives the same output. Without
    an install that block does not apply; nothing is skipped.
    """
    scripts = load_pyproject()["project"]["scripts"]
    assert scripts == {"meetjoin": "meetjoin.cli:main"}
    module, _, attr = scripts["meetjoin"].partition(":")
    assert getattr(importlib.import_module(module), attr) is main

    argv = ["analyze", "--divisors", "--set", "1", "2", "3",
            "--family", "id", "--format", "machine"]
    assert main(argv) == 0
    expected = capsys.readouterr().out.encode()

    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(REPO_ROOT / "src"), env.get("PYTHONPATH")])
    )

    def check_runs(*command: str) -> None:
        ok = subprocess.run([*command, *argv], capture_output=True, env=env,
                            timeout=60)
        assert (ok.returncode, ok.stdout, ok.stderr) == (0, expected, b"")
        bad = subprocess.run([*command, "analyze", "--divisors", "--set", "x"],
                             capture_output=True, env=env, timeout=60)
        assert bad.returncode == 2
        assert b"error:" in bad.stderr
        assert b"Traceback" not in bad.stderr

    bin_dir = tmp_path / "bin"
    bin_dir.mkdir()
    write_console_script(bin_dir, "meetjoin", scripts["meetjoin"])
    launcher = shutil.which("meetjoin", path=str(bin_dir))
    assert launcher is not None
    check_runs(launcher)
    check_runs(sys.executable, "-m", "meetjoin")

    try:
        dist = importlib.metadata.distribution("meetjoin")
    except importlib.metadata.PackageNotFoundError:
        return
    entries = dist.entry_points.select(group="console_scripts", name="meetjoin")
    assert [ep.value for ep in entries] == ["meetjoin.cli:main"]
    installed = shutil.which("meetjoin")
    assert installed is not None
    check_runs(installed)


# Tokens the fuzzer builds files and flags from: divisors, poset labels,
# scalars and junk, so that most runs get past parsing.
FUZZ_TOKENS = st.sampled_from(
    ["1", "2", "3", "4", "6", "12", "0", "-2", "a", "b", "c", "d", "x", "1/2", "2+i", "1/0", ""]
)
FUZZ_KEYWORDS = st.sampled_from(
    ["elements:", "covers:", "set:", "over:", "f1:", "f2:", "f3:", "f4:", "@divisors", "#"]
)
FUZZ_COVERS = st.builds("{}<{}".format, FUZZ_TOKENS, FUZZ_TOKENS)


@st.composite
def fuzz_file(draw) -> bytes:
    """A poset or family file: keyword lines from the token pool, raw
    bytes (not always UTF-8), or both."""
    lines = draw(
        st.lists(
            st.lists(st.one_of(FUZZ_KEYWORDS, FUZZ_TOKENS, FUZZ_COVERS), max_size=6)
            .map(" ".join),
            max_size=5,
        )
    )
    text = "\n".join(lines).encode()
    if draw(st.booleans()):
        text += draw(st.binary(max_size=8))
    return text


@st.composite
def fuzz_argv(draw, poset: str, family: str) -> list[str]:
    command = draw(st.sampled_from(["matrix", "analyze", "closure", "mobius", "verify"]))
    argv = [command]
    if command == "verify":
        seed, cases = draw(st.integers(-5, 10**6)), draw(st.integers(0, 2))
        argv += ["--seed", str(seed), "--cases", str(cases)]
    else:
        argv += draw(st.sampled_from([["--divisors"], ["--poset", poset], []]))
        members = draw(st.lists(FUZZ_TOKENS, max_size=4))
        if members or draw(st.booleans()):
            argv += ["--set", *members]
        if command in ("matrix", "analyze"):
            argv += draw(
                st.sampled_from(
                    [
                        [],
                        ["--family", "id"],
                        ["--family", "pow:2"],
                        ["--family", "pow:-1"],
                        ["--family", "pow:99999"],
                        ["--functions", family],
                        ["--family", f"table:{family}"],
                    ]
                    + [["--family", f"const:{t}"] for t in ("1", "0", "1/2-i", "1/0", "z")]
                )
            )
            if draw(st.booleans()):
                argv.append("--column-adjusted")
        argv += draw(st.sampled_from([[], ["--mode", "meet"], ["--mode", "join"]]))
    argv += draw(st.sampled_from([[], ["--format", "human"], ["--format", "machine"]]))
    if draw(st.integers(0, 9)) == 0:
        argv.insert(draw(st.integers(0, len(argv))), draw(FUZZ_TOKENS))
    return argv


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


@settings(max_examples=100, deadline=None)
@given(st.data(), fuzz_file(), fuzz_file())
def test_cli_fuzz_exit_codes(fuzz_dir, data, poset_bytes, family_bytes):
    poset, family = fuzz_dir / "fuzz.poset", fuzz_dir / "fuzz.family"
    poset.write_bytes(poset_bytes)
    family.write_bytes(family_bytes)
    argv = data.draw(fuzz_argv(str(poset), str(family)))
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = main(argv)
        except SystemExit as exc:
            # argparse rejected the command line
            assert exc.code == 2
            return
    assert code in (0, 2, 3, 4, 5)
