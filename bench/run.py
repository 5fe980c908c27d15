"""The meetjoin benchmark: one workload per process, one closed-loop client.

Usage, from the root of a source checkout (the package runs from `src/`
without being installed):

    python3 bench/run.py --workload divisor-analyze --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 30 --trace 0

Each request is `meetjoin.cli.main(argv)` called in-process with its
output captured; the next request starts when the previous one returns.
Inputs come from `workloads.py` and are written before the request is
timed. Each output is checked by `checks.py` right after its request,
outside the timed interval, and only its hash and verdict are kept.

`--trace 0` reports the end-to-end metrics: set-up time, throughput,
p50/p90 latency and peak RSS. Times are scaled by a speed probe run
around each of them (see `probe`), so that the machine's own drift in
speed does not read as a change of the program; the unscaled wall-time
figures are printed too. `--trace 1` runs a fixed list of requests
once plainly and once with every layer wrapped by `tracer.py`, and
reports per-layer counts and self times plus the tracing overhead. The
last line of standard output is the result as one JSON object.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from fractions import Fraction
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"
sys.path.insert(0, str(BENCH_DIR))

import checks  # noqa: E402
import workloads  # noqa: E402

# A p90 needs at least this many samples to have ten beyond it, so the
# window is extended until this many requests have completed.
MIN_REQUESTS = 100
WINDOW_CAP_S = 120.0
SETUP_SAMPLES = 9
DIGEST_PREFIX = 20
TRACE_REQUESTS = {"divisor-analyze": 32, "poset-lattice": 24, "verify-battery": 40}

# Speed probe: fixed pure-Python work that shares no code with the program.
# It runs right before and after every timed request and set-up sample, and
# each time is scaled by CALIBRATION_REF_S / (mean of the two probes). The
# shared machines this runs on drift by up to 2x in speed over seconds,
# which wall time alone cannot tell apart from a change of the program.
# CALIBRATION_REF_S is about what the probe takes on a shared 2-vCPU x86-64
# virtual machine with Python 3.11, so scaled times stay close to seconds
# there.
CALIBRATION_LOOPS = 8000
CALIBRATION_REF_S = 0.005
_PROBE_FACTOR = 3**300

SETUP_CODE = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); "
    "start = time.perf_counter(); import meetjoin.cli; "
    "print(time.perf_counter() - start)"
)


class Outcome:
    """One executed request: exit code, wall time, speed-scaled time, output
    hash, verdict."""

    __slots__ = ("argv", "code", "seconds", "scaled", "sha256", "problem")

    def __init__(self, argv: list[str], code: int, seconds: float, sha256: str, problem: str | None):
        self.argv = argv
        self.code = code
        self.seconds = seconds
        self.scaled = seconds
        self.sha256 = sha256
        self.problem = problem


def probe() -> float:
    """Seconds the fixed speed-probe work takes right now: an integer loop
    and a little Fraction arithmetic, the two kinds of work the program
    does most."""
    start = time.perf_counter()
    total = 0
    for k in range(CALIBRATION_LOOPS):
        total += (k * k) % 7 + (_PROBE_FACTOR * k) % 1000003
    row = [Fraction(k, k + 3) for k in range(1, 25)]
    for j in range(6):
        row = [a * b - Fraction(j, 7) for a, b in zip(row, row[1:] + row[:1])]
        row = [Fraction(x.numerator % 100003, x.denominator % 1000 + 1) for x in row]
    return time.perf_counter() - start


def scaled(measure):
    """Run `measure()` between two probes; return (result, speed scale)."""
    before = probe()
    result = measure()
    return result, 2 * CALIBRATION_REF_S / (before + probe())


def call_cli(argv: list[str]) -> tuple[int, str, str, float]:
    """Run one CLI request in-process; return (exit code, stdout, stderr, seconds)."""
    import meetjoin.cli

    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = meetjoin.cli.main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else (0 if exc.code is None else 2)
        except Exception:  # a crash is a failed request, not a failed benchmark
            traceback.print_exc()
            code = -1
    return code, out.getvalue(), err.getvalue(), time.perf_counter() - start


def materialize(request, directory: Path) -> None:
    for name, text in request.files.items():
        (directory / name).write_text(text, encoding="utf-8")


def output_hash(code: int, stdout: str) -> str:
    return hashlib.sha256(f"{code}\n{stdout}".encode()).hexdigest()


def record(request, code: int, stdout: str, stderr: str, seconds: float) -> Outcome:
    """Check one output at once, so that only its hash and verdict are kept."""
    problem = check(request, code, stdout, stderr)
    return Outcome(request.argv, code, seconds, output_hash(code, stdout), problem)


def execute(request, directory: Path) -> Outcome:
    """Run and check one request; its time is also scaled by the speed probe."""
    materialize(request, directory)
    result, scale = scaled(lambda: call_cli(request.argv))
    outcome = record(request, *result)
    outcome.scaled = outcome.seconds * scale
    return outcome


# ---------------------------------------------------------------- checks


def check_analyze(fields: dict, expect: dict) -> str | None:
    members, mode = expect["members"], expect["mode"]
    bound = math.gcd if mode == "meet" else math.lcm
    if fields.get("n") != str(len(members)) or fields.get("set") != " ".join(map(str, members)):
        return "n/set lines do not echo the selection"
    if fields.get("closed") != str(expect["closed"]).lower():
        return f"closed={fields.get('closed')} but the benchmark finds closed={expect['closed']}"
    matrix = checks.matrix_rows(fields, "matrix")
    domain, rows = expect["table"]
    wanted = [[rows[i][domain.index(bound(a, b))] for b in members] for i, a in enumerate(members)]
    if matrix != wanted:
        return "matrix rows differ from f_i(x_i op x_j)"
    det = checks.parse_gauss(fields["det"])
    if "det" in expect and det != expect["det"]:
        return f"det={fields['det']} differs from the product of the Moebius sums"
    invertible = fields.get("invertible")
    if invertible != str(det != (0, 0)).lower():
        return f"invertible={invertible} but det={fields['det']}"
    inverse = checks.matrix_rows(fields, "inverse")
    if invertible == "true" and not checks.is_inverse_pair(matrix, inverse):
        return "matrix times inverse is not the identity"
    if invertible == "false" and inverse:
        return "singular matrix printed an inverse"
    return None


COUNTERPART_KEYS = ("closed", "det", "rank_exact", "k", "rank_lower", "rank_upper", "invertible")


def check(request, code: int, stdout: str, stderr: str) -> str | None:
    """Why the request's output is wrong, or None when it is right."""
    if code != 0:
        return f"exit code {code}: {stderr.strip()[-300:]}"
    try:
        fields = checks.parse_machine(stdout)
        expect = request.expect
        if request.kind == "verify":
            wanted = {"seed": str(expect["seed"]), "cases": str(expect["cases"]), "result": "pass"}
            if any(fields.get(k) != v for k, v in wanted.items()):
                return f"verify output lacks {wanted}"
            return None
        if request.kind == "analyze":
            problem = check_analyze(fields, expect)
            if problem or "counterpart" not in expect:
                return problem
            other_code, other_out, other_err, _ = call_cli(expect["counterpart"])
            if other_code != 0:
                return f"--divisors counterpart exit code {other_code}: {other_err.strip()[-300:]}"
            other = checks.parse_machine(other_out)
            for key in COUNTERPART_KEYS:
                if fields.get(key) != other.get(key):
                    return f"{key}={fields.get(key)} but the --divisors run gives {other.get(key)}"
            return None
        listed = [int(x) for x in fields.get("closure" if request.kind == "closure" else "elements", "").split()]
        if set(listed) != set(expect["closure"]) or len(listed) != len(expect["closure"]):
            return f"closure {listed} differs from the gcd/lcm closure {expect['closure']}"
        if request.kind == "closure":
            closed = set(expect["closure"]) == set(expect["members"])
            if fields.get("closed") != str(closed).lower() or fields.get("m") != str(len(listed)):
                return "closed/m lines are wrong"
            return None
        if not checks.is_mobius_of(checks.matrix_rows(fields, "mobius"), listed):
            return "mobius matrix is not the inverse of the zeta matrix"
        return None
    except (ValueError, KeyError, ZeroDivisionError) as exc:
        return f"malformed output: {exc!r}"


# ---------------------------------------------------------------- metrics


def percentile(sorted_values: list[float], q: float) -> tuple[float, int]:
    """Nearest-rank q-quantile and the number of samples above its rank."""
    rank = max(1, math.ceil(q * len(sorted_values)))
    return sorted_values[rank - 1], len(sorted_values) - rank


def digest(outcomes: list[Outcome]) -> str:
    """One hash over the exit codes and machine outputs of all requests."""
    return hashlib.sha256("".join(o.sha256 for o in outcomes).encode()).hexdigest()


def setup_sample() -> float:
    """Seconds a fresh interpreter takes to import meetjoin.cli."""
    proc = subprocess.run(
        [sys.executable, "-c", SETUP_CODE, str(SRC)],
        capture_output=True, text=True, timeout=60, check=True, cwd=ROOT,
    )
    return float(proc.stdout)


def commit() -> str:
    """The checked-out commit, read from `.git`; "unknown" outside a clone."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def run_window(gen, seconds: float, directory: Path) -> tuple[list[Outcome], list[float]]:
    """Closed loop for `seconds` of request time (and MIN_REQUESTS requests).

    The set-up samples are spread evenly over the window, so that their
    median does not hang on how fast the machine ran in its first second.
    """
    outcomes: list[Outcome] = []
    setups: list[float] = []
    busy = 0.0
    start = time.perf_counter()
    while busy < seconds or len(outcomes) < MIN_REQUESTS or len(setups) < SETUP_SAMPLES:
        if time.perf_counter() - start > WINDOW_CAP_S:
            break
        if len(setups) < SETUP_SAMPLES and busy >= len(setups) * seconds / SETUP_SAMPLES:
            sample, scale = scaled(setup_sample)
            setups.append(sample * scale)
            continue
        outcome = execute(gen.next(), directory)
        outcomes.append(outcome)
        busy += outcome.seconds
    return outcomes, setups


def end_to_end(args, directory: Path) -> tuple[list[Outcome], dict]:
    gen = workloads.generator(args.workload, args.seed)
    outcomes, setups = run_window(gen, args.seconds, directory)
    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    latencies = sorted(o.scaled for o in outcomes)
    p50, _ = percentile(latencies, 0.5)
    p90, beyond = percentile(latencies, 0.9)
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "throughput_rps": (len(outcomes) / sum(latencies), "1/s"),
        "latency_p50_s": (p50, "s"),
    }
    if beyond >= 10:
        metrics["latency_p90_s"] = (p90, "s")
    metrics["peak_rss_mib"] = (peak_rss_mib, "MiB")
    wall = sorted(o.seconds for o in outcomes)
    print(
        f"unscaled wall time: throughput {len(wall) / sum(wall):.6g} 1/s, "
        f"p50 {percentile(wall, 0.5)[0]:.6g} s, p90 {percentile(wall, 0.9)[0]:.6g} s"
    )
    return outcomes, metrics


def traced(args, directory: Path) -> tuple[list[Outcome], dict]:
    import tracer

    gen = workloads.generator(args.workload, args.seed)
    requests = [gen.next() for _ in range(TRACE_REQUESTS[args.workload])]
    plain = [execute(r, directory) for r in requests]
    spans = tracer.Tracer()
    tracer.install(spans)
    wrapped = []
    for before in plain:
        (code, stdout, _, seconds), scale = scaled(lambda: call_cli(before.argv))
        sha256 = output_hash(code, stdout)
        problem = None if sha256 == before.sha256 else "tracing changed the output"
        wrapped.append(Outcome(before.argv, code, seconds, sha256, problem))
        wrapped[-1].scaled = seconds * scale
    metrics = tracer.layer_metrics(spans)
    metrics["trace.overhead_ratio"] = (
        sum(o.scaled for o in wrapped) / sum(o.scaled for o in plain), "ratio"
    )
    spans.write_spans(OUT_DIR / f"spans-{args.workload}-s{args.seed}.jsonl")
    return plain + wrapped, metrics


def run_one(args) -> int:
    if not (SRC / "meetjoin" / "cli.py").is_file():
        print(f"error: no meetjoin sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import meetjoin.cli  # noqa: F401  (import before timing; set-up is measured separately)

    OUT_DIR.mkdir(exist_ok=True)
    directory = OUT_DIR / f"inputs-{args.workload}-{os.getpid()}"
    directory.mkdir()
    cwd = Path.cwd()
    os.chdir(directory)
    try:
        measure = traced if args.trace else end_to_end
        outcomes, metrics = measure(args, directory)
    finally:
        os.chdir(cwd)
        shutil.rmtree(directory, ignore_errors=True)

    failed = sum(o.problem is not None for o in outcomes)
    meta = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "commit": commit(),
        "nproc": len(os.sched_getaffinity(0)),
        "requests": len(outcomes),
    }
    print("meta " + json.dumps(meta, sort_keys=True))
    print(
        f"digest sha256={digest(outcomes)} requests={len(outcomes)} "
        f"first{DIGEST_PREFIX}={digest(outcomes[:DIGEST_PREFIX])}"
    )
    for outcome in outcomes:
        if outcome.problem:
            print(f"FAILED {' '.join(outcome.argv)[:200]}: {outcome.problem}")
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    print(f"error_ratio {failed / len(outcomes):.6g} ratio ({failed}/{len(outcomes)})")
    result = {
        "correct": failed == 0,
        "attempted": len(outcomes),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    """Each workload in its own fresh process; one table for all of them."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in workloads.WORKLOADS:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True, timeout=900,
        )
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            return proc.returncode
        lines = proc.stdout.splitlines()
        result = json.loads(lines[-1])
        print(f"== {workload}")
        print("\n".join(lines[:-1]))
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            combined["metrics"][f"{workload}.{name}"] = metric
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=(*workloads.WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    return run_all(args) if args.workload == "all" else run_one(args)


if __name__ == "__main__":
    sys.exit(main())
