"""Golden output: exit code, stdout and stderr of fixed CLI runs, by digest.

Each run calls `main()` in-process and hashes what it printed together
with its exit code. The digests pin today's output byte for byte, so a
change that means to keep the output cannot alter it unnoticed. A
change that alters output on purpose records the new digest here and
says which run changed and why.

Input files are written to a temporary directory; no output line of
these runs contains a file path.
"""

import contextlib
import hashlib
import io

import pytest

from meetjoin.cli import main


FILES = {
    "pentagon.poset": """\
elements: x1 x2 x3 x4 x5
covers: x1<x2 x1<x3 x3<x4 x4<x5 x2<x5
""",
    "pentagon.family": """\
over: x1 x2 x3 x4 x5
f1: 0 0 0 0 0
f2: 0 1 0 0 0
f3: 1 0 1 0 0
f4: 0 0 1 1 0
f5: 0 0 0 1 1
""",
    "gaussian.family": """\
over: 1 2 3 4 6 12
f1: 1+i 2 3 4 6 12
f2: i 1/2-i 5 -1 2i 7
f3: 2 3 -1/3+2i 9 1 i
f4: -1 4 2 3i 1/2 5
f5: 3 1 -i 2 4-i 6
f6: 1 1 1 1 2 1/3+1/2i
""",
    "missing.family": """\
over: 2 3
f1: 2 3
f2: 2 3
""",
    # a and b have no meet
    "vee.poset": """\
elements: a b c
covers: a<c b<c
""",
    "vee.family": """\
over: a b c
f1: 1 2 3
f2: 4 5 6
f3: 7 8 9
""",
}

PENTAGON = ["--poset", "{dir}/pentagon.poset", "--functions", "{dir}/pentagon.family"]
GAUSSIAN = ["--set", "1", "2", "3", "4", "6", "12", "--functions", "{dir}/gaussian.family"]

RUNS = {
    # the README command-line examples
    "readme_analyze_id": ["analyze", "--divisors", "--set", "1", "2", "3", "--family", "id"],
    "readme_analyze_join_machine": [
        "analyze", "--divisors", "--set", "2", "4", "8", "--mode", "join", "--format", "machine",
    ],
    "readme_matrix_pentagon": ["matrix", *PENTAGON],
    "readme_closure": ["closure", "--divisors", "--set", "4", "6"],
    "readme_mobius": ["mobius", "--divisors", "--set", "1", "2", "4"],
    "readme_verify": ["verify", "--seed", "1", "--cases", "200"],
    # the pentagon lattice
    "pentagon_analyze_human": ["analyze", *PENTAGON],
    "pentagon_analyze_machine": ["analyze", *PENTAGON, "--format", "machine"],
    "pentagon_analyze_join": ["analyze", *PENTAGON, "--mode", "join", "--format", "machine"],
    "pentagon_analyze_column_adjusted": ["analyze", *PENTAGON, "--column-adjusted"],
    "pentagon_closure": ["closure", "--poset", "{dir}/pentagon.poset", "--format", "machine"],
    "pentagon_mobius": ["mobius", "--poset", "{dir}/pentagon.poset", "--format", "machine"],
    "pentagon_closure_join": [
        "closure", "--poset", "{dir}/pentagon.poset", "--mode", "join", "--format", "machine",
    ],
    "pentagon_mobius_join": [
        "mobius", "--poset", "{dir}/pentagon.poset", "--mode", "join", "--format", "machine",
    ],
    # a join closure listed in another order than the set: 2 4 3 6 12
    "divisors_mobius_join": ["mobius", "--divisors", "--set", "2", "3", "4", "6", "12", "--mode", "join"],
    # a set that is not closed, and a Gaussian family on divisors(12)
    "notclosed_analyze": ["analyze", "--divisors", "--set", "4", "6", "--format", "machine"],
    "gaussian_analyze_machine": ["analyze", "--divisors", *GAUSSIAN, "--format", "machine"],
    "gaussian_analyze_human": ["analyze", "--divisors", *GAUSSIAN],
    "verify_machine": ["verify", "--seed", "0", "--cases", "100", "--format", "machine"],
    # exit codes 2 (parse), 3 (order structure) and 4 (missing value)
    "exit_parse": ["analyze", "--divisors", "--set", "1", "x"],
    "exit_structure": ["analyze", "--divisors", "--set", "2", "1"],
    "exit_structure_no_meet": [
        "analyze", "--poset", "{dir}/vee.poset", "--functions", "{dir}/vee.family",
    ],
    "exit_missing": [
        "analyze", "--divisors", "--set", "2", "3", "--functions", "{dir}/missing.family",
    ],
}

# recorded at commit 5e31b9c; divisors_mobius_join, exit_structure_no_meet,
# pentagon_closure_join and pentagon_mobius_join at commit 6e91a81
DIGESTS = {
    "divisors_mobius_join": "0049366b5e8765c1f1fe825ec5bd398ff4578529923ad229adb201014b9a7a55",
    "exit_structure_no_meet": "ef89f86336252aa0d430971bb474504acc81893e84caad45632e7b4525679a14",
    "pentagon_closure_join": "eccd7be3316555ede5e6dbfd63ec319542c455d8c62f42b5753a955bc6bcfc97",
    "pentagon_mobius_join": "3d8df83a461e5b1997c1f560ab63a00a64e6857646d8035d00b975372a4133dd",
    "exit_missing": "ec718721053cc6d577994ab5c3a214480cb8557c3e5693e037d49f831f475c07",
    "exit_parse": "68b5dd6bf4371fb3df44db96d2550d42895d059b445e4881fef86e8eef2e6175",
    "exit_structure": "2bc730d261fd06ac2a4c4431d144023b0d5c0eb92de503d4d98e75917f9de86b",
    "gaussian_analyze_human": "a3aa6a4be96175b6a02d95a4458d5343886ff4e4d6bfda953e417e07f0260d3c",
    "gaussian_analyze_machine": "fb96d6ff822fdaffdbbec0cbd04875f6aa56887cc42030b3368b9ff16e39b132",
    "notclosed_analyze": "96860ea74761d36d871d4f78393841d417edb968346c0b2ed5044d522b337457",
    "pentagon_analyze_column_adjusted": "c62dd2225f0ea67d315a10667657908711b2ad1e9a24e9578752363436271b9d",
    "pentagon_analyze_human": "ca97fd64729bb544aa824f472299297002ac263a23e9bc7947ecfcd2a1627330",
    "pentagon_analyze_join": "2ba0391374e8d7b7a69865090c8c4e4e0837fd14b9aef032ee0ccd1833ac53fb",
    "pentagon_analyze_machine": "f05fcc7c686111572abd744a40f9d169d6cc08b291e72cb67a37fe067cfbaac3",
    "pentagon_closure": "a8cdc9b9de8c03c79c88f20f9a237ff2551d20976096e4cf2e79134ce84f7e03",
    "pentagon_mobius": "a1c6ad530d69ea0a64b6308cc5ed4152227cc160bac53a52db14be577df506b6",
    "readme_analyze_id": "c4e48823eeae76598f95a64fda053bc1de1bb60cf9e397f2b3ab678545a7b75a",
    "readme_analyze_join_machine": "796115d2b70e9ea8c256b80a40e980c0235fca6ea1ce8948c5f06c7b0638b787",
    "readme_closure": "e37ce1f042f3c2e9b81f7aa0fa80b06ef06129008e5f9df790ad98591b1f5313",
    "readme_matrix_pentagon": "9b6525615e322720963bc50a593309d110ece11f9e2aca221eef1a7fe375e9e5",
    "readme_mobius": "6a74f1309a599b0772b6591433ac10f76cb91be987e834bed7bec46280e6db76",
    "readme_verify": "c1f083d75f33b5c1d2b7162e7ebddf0a18698fa8fffa6e9291cb70c38b6a3960",
    "verify_machine": "209dc736c70024ad29595360edabe0d52fb7c46a855117da08e48c9d8e4e6249",
}


def run_digest(argv, directory) -> str:
    """sha256 of the exit code, stdout and stderr of one in-process run."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([arg.format(dir=directory) for arg in argv])
    record = f"exit={code}\n--- stdout\n{out.getvalue()}--- stderr\n{err.getvalue()}"
    return hashlib.sha256(record.encode("utf-8")).hexdigest()


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    directory = tmp_path_factory.mktemp("golden")
    for name, text in FILES.items():
        (directory / name).write_text(text, encoding="utf-8")
    return directory


def test_every_run_has_a_digest():
    assert set(DIGESTS) == set(RUNS)


@pytest.mark.parametrize("name", sorted(RUNS))
def test_golden_output(name, files):
    assert run_digest(RUNS[name], files) == DIGESTS[name]
