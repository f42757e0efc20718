"""covercone benchmark: cold CLI queries in a closed loop with one client.

    python3 bench/run.py --workload decide-n4 --seed 1 --seconds 20 --trace 0

Run from a checkout (the directory above bench/, holding src/covercone).
Each query is one user task: one or more fresh `python -m covercone`
processes run one at a time, timed from the first launch to the last exit,
so interpreter start, imports and the cold cone build are all paid as a
user pays them.  Queries are issued back to back until --seconds have
passed; every output is then checked with bench/check.py.

--trace 0 prints the end-to-end metrics.  --trace 1 runs the same loop,
then runs the queries it completed once more under bench/tracer.py and
prints the per-layer metrics (bench/layers.py) and the tracing overhead.
The last stdout line is the JSON result.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import select
import shutil
import signal
import statistics
import subprocess
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path

import check
import layers
import workloads

clock = time.perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
TRACER = BENCH / "tracer.py"

#: set-up repetitions per run; setup_s is their median
SETUP_REPEATS = 9
#: no process is started that could end later than this after the run began
HARD_CAP_S = 165.0

END_TO_END_UNITS = {
    "setup_s": "s",
    "queries_per_s": "1/s",
    "latency_p50_s": "s",
    "latency_tail_s": "s",
    "ok_frac": "ratio",
    "peak_rss_mb": "MB",
}

PER_LAYER_UNITS = dict(layers.UNITS, **{
    "body_kb": "KB",
    "body_max_bits": "bits",
    "trace.queries": "count",
    "trace.overhead_s": "s",
    "trace.overhead_frac": "ratio",
})


@dataclass
class Outcome:
    """What running one query produced; `error` is set when it failed."""

    latency: float = 0.0
    rss_kb: int = 0
    codes: list[int] = field(default_factory=list)
    stdouts: list[str] = field(default_factory=list)
    last_stderr: str = ""
    error: str | None = None


@contextmanager
def work_dir(name: str):
    """A fresh directory under <checkout>/.bench_work, removed on exit."""
    work = ROOT / ".bench_work" / f"{name}-{os.getpid()}"
    try:
        yield work
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    return env


def run_process(argv: list[str], cwd: Path, env, timeout: float, out: Path, err: Path):
    """Start one process and reap it; (exit code or None on timeout, ru_maxrss KB)."""
    with open(out, "wb") as fo, open(err, "wb") as fe:
        proc = subprocess.Popen(argv, cwd=cwd, env=env, stdout=fo, stderr=fe, stdin=subprocess.DEVNULL)
    fd = os.pidfd_open(proc.pid)
    try:
        poller = select.poll()
        poller.register(fd, select.POLLIN)
        timed_out = not poller.poll(max(timeout, 0.0) * 1000)
        if timed_out:
            os.kill(proc.pid, signal.SIGKILL)
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        os.close(fd)
    proc.returncode = os.waitstatus_to_exitcode(status)  # already reaped: keep Popen from waiting
    return (None if timed_out else proc.returncode), usage.ru_maxrss


def run_query(q: workloads.Query, qdir: Path, env, limit: float, traced: bool = False) -> Outcome:
    """Run every call of `q` in order; a failing exit or a timeout stops the query."""
    qdir.mkdir(parents=True)
    for name, text in q.files.items():
        (qdir / name).write_text(text, encoding="utf-8")
    o = Outcome()
    t0 = clock()
    for i, call in enumerate(q.calls):
        if traced:
            argv = [sys.executable, str(TRACER), str(qdir / f"spans{i}.json")] + call
        else:
            argv = [sys.executable, "-m", "covercone"] + call
        code, rss = run_process(argv, qdir, env, limit - (clock() - t0),
                                qdir / f"out{i}.txt", qdir / f"err{i}.txt")
        o.rss_kb = max(o.rss_kb, rss)
        err = (qdir / f"err{i}.txt").read_text(encoding="utf-8", errors="replace").strip().splitlines()
        o.last_stderr = err[-1] if err else ""
        if code is None:
            o.error = f"timed out after {limit:g} s in call {i}"
            break
        o.codes.append(code)
        o.stdouts.append((qdir / f"out{i}.txt").read_text(encoding="utf-8", errors="replace"))
        if any(line.startswith("Traceback") for line in err):
            o.error = f"traceback in call {i}"
            break
        if code not in (0, 1):
            break
    o.latency = clock() - t0
    return o


def check_outcome(q: workloads.Query, o: Outcome, qdir: Path) -> None:
    if o.error is None:
        try:
            check.check_query(q, o.codes, o.stdouts, qdir)
        except check.CheckError as exc:
            o.error = str(exc)


def closed_loop(queries, cycle: int, seconds: float, run_dir: Path, env, limit: float,
                started: float) -> tuple[list[Outcome], float]:
    """Issue queries back to back, in whole cycles of `cycle` queries, until
    `seconds` have passed (at least one cycle)."""
    outcomes: list[Outcome] = []
    t0 = clock()
    for i, q in enumerate(queries):
        if i % cycle == 0 and outcomes and clock() - t0 >= seconds:
            break
        budget = min(limit, HARD_CAP_S - (clock() - started))
        if budget <= 0:
            break
        outcomes.append(run_query(q, run_dir / f"q{i:03d}", env, budget))
    return outcomes, clock() - t0


def tail(latencies: list[float]) -> tuple[float, int]:
    """Latency at the highest percentile with at least ten samples beyond it.

    With fewer than 20 samples no percentile above the median has ten beyond
    it, and the maximum is reported (percentile 100).
    """
    n = len(latencies)
    if n < 20:
        return max(latencies), 100
    pct = math.floor(100 * (n - 10) / n)
    return statistics.quantiles(latencies, n=100, method="inclusive")[pct - 1], pct


def setup(workload: str, seed: int, work: Path, env) -> tuple[list[workloads.Query], float]:
    """Generate the inputs and start the CLI once; repeated, median time."""
    times = []
    for i in range(SETUP_REPEATS):
        t0 = clock()
        queries = workloads.make_queries(workload, seed)
        scratch = work / f"setup{i}"
        scratch.mkdir(parents=True)
        for j, q in enumerate(queries):
            for name, text in q.files.items():
                (scratch / f"q{j:03d}-{name}").write_text(text, encoding="utf-8")
        code, _ = run_process([sys.executable, "-m", "covercone", "--help"], scratch, env, 60.0,
                              scratch / "help.txt", scratch / "help.err")
        times.append(clock() - t0)
        if code != 0:
            raise RuntimeError(f"`covercone --help` exited with {code}")
    return queries, statistics.median(times)


def report_failures(label: str, queries, outcomes) -> int:
    failed = 0
    for i, (q, o) in enumerate(zip(queries, outcomes)):
        if o.error is not None:
            failed += 1
            print(f"FAIL {label} query {i} ({q.kind}): {o.error}; exit codes {o.codes}; "
                  f"last stderr: {o.last_stderr!r}")
    return failed


def body_metrics(outcomes, run_dir: Path) -> dict[str, float]:
    sizes, max_bits = [], 0
    for i, o in enumerate(outcomes):
        body = run_dir / f"q{i:03d}" / "body.json"
        if o.error is None and body.exists():
            sizes.append(body.stat().st_size / 1024)
            max_bits = max(max_bits, check.body_max_bits(body))
    return {"body_kb": statistics.median(sizes) if sizes else 0.0, "body_max_bits": max_bits}


def end_to_end(outcomes: list[Outcome], loop_s: float, setup_s: float) -> dict[str, float]:
    """Only queries that passed their check count as completed work."""
    ok = sum(o.error is None for o in outcomes)
    latencies = [o.latency for o in outcomes]
    return {
        "setup_s": setup_s,
        "queries_per_s": ok / loop_s,
        "latency_p50_s": statistics.median(latencies),
        "latency_tail_s": tail(latencies)[0],
        "ok_frac": ok / len(outcomes),
        "peak_rss_mb": max(o.rss_kb for o in outcomes) / 1024,
    }


def traced_rerun(queries, outcomes, work: Path, env, limit: float, started: float):
    """Run the completed queries again under the tracer; (metrics, traced outcomes)."""
    traced_dir = work / "traced"
    traced, span_files = [], []
    for i, q in enumerate(queries[:len(outcomes)]):
        budget = min(limit, HARD_CAP_S - (clock() - started))
        if budget <= 0:
            break
        qdir = traced_dir / f"q{i:03d}"
        o = run_query(q, qdir, env, budget, traced=True)
        check_outcome(q, o, qdir)
        traced.append(o)
        span_files.append([json.loads(p.read_text(encoding="utf-8")) for p in sorted(qdir.glob("spans*.json"))])
    metrics = layers.reduce(span_files)
    metrics.update(body_metrics(outcomes, work / "plain"))
    base = statistics.median(o.latency for o in outcomes[:max(len(traced), 1)])
    overhead = statistics.median(o.latency for o in traced) - base if traced else 0.0
    metrics.update({"trace.queries": len(traced), "trace.overhead_s": overhead,
                    "trace.overhead_frac": overhead / base})
    return metrics, traced


def measure(args, work: Path) -> dict:
    started = clock()
    env = child_env()
    limit = workloads.TIME_LIMITS[args.workload]
    queries, setup_s = setup(args.workload, args.seed, work, env)
    plain = work / "plain"
    outcomes, loop_s = closed_loop(queries, len(workloads.CYCLES[args.workload]), args.seconds,
                                   plain, env, limit, started)
    for i, (q, o) in enumerate(zip(queries, outcomes)):
        check_outcome(q, o, plain / f"q{i:03d}")
    failed = report_failures("untraced", queries, outcomes)
    correct = failed == 0
    if args.trace:
        metrics, traced = traced_rerun(queries, outcomes, work, env, limit, started)
        correct = correct and report_failures("traced", queries, traced) == 0
        print(f"{args.workload} seed {args.seed}: {len(traced)} traced queries, tracing overhead "
              f"{metrics['trace.overhead_s']:.3f} s ({100 * metrics['trace.overhead_frac']:.1f}%)")
        units = PER_LAYER_UNITS
    else:
        metrics = end_to_end(outcomes, loop_s, setup_s)
        print(f"{args.workload} seed {args.seed}: {len(outcomes)} queries in {loop_s:.2f} s, "
              f"latency_tail_s is p{tail([o.latency for o in outcomes])[1]} of {len(outcomes)} samples")
        units = END_TO_END_UNITS
    return {
        "correct": correct,
        "attempted": len(outcomes),
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.CYCLES))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "covercone" / "cli.py").is_file():
        print(f"error: no covercone sources under {ROOT / 'src'}; run from a checkout", file=sys.stderr)
        return 2
    with work_dir(f"{args.workload}-{args.seed}") as work:
        result = measure(args, work)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
