"""The ergolab benchmark.

    python3 bench/run.py --workload pleasant-scale --seed 1 --seconds 38 --trace 0

Run from anywhere inside a checkout; the program is the ``ergolab`` package
under ``src/`` of the checkout this file sits in.  Scenario files are
generated from ``--seed`` into a scratch directory under ``.bench_work/``
in the checkout, which is removed at exit.

``--trace 0`` runs every job of the workload as a subprocess,
``python -m ergolab.cli <command> --scenario F --out D``, one after another
(a closed loop with one client), cycling through the job list until
``--seconds`` are used, and prints the end-to-end metrics:

* ``wall_s``: one pass over the job list, the sum over jobs of each job's
  median normalised wall time;
* ``setup_s``: median normalised wall time of ``ergolab validate`` on the
  workload's scenarios (interpreter start, importing ``ergolab.cli``,
  parsing, and the system invariant checks), over at least ten calls;
* ``peak_rss_mb``: the largest child ``ru_maxrss``, read with ``os.wait4``.

A normalised time is a call's wall time times ``REFERENCE_S`` over the mean
wall time of ``reference.py`` run just before and just after it.  The speed
of this kind of shared 2-CPU machine drifts by 20-40 % between minutes, so
raw medians of 40-second runs spread 10-19 % (IQR over median, ten seeds)
while normalised ones spread about 5 %.  The raw figures are printed too,
as ``raw_wall_s``, ``raw_setup_s`` and ``reference_s``.

``--trace 1`` runs the same jobs in this process through
``ergolab.cli.main``, alternating untraced passes with passes traced by
``tracing.Tracer``, and prints the per-layer metrics: calls and share of
self time of each wrapped function, exact work counters, the import and
interpreter start-up times, and the tracing overhead.

Every job's exit code and report are checked (``check.py``); bundled
scenarios, and on the default seed every job, are also compared with the
reports recorded in ``golden.json``.  The error rate is failed jobs over
attempted jobs.  The last line of output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib
import io
import itertools
import json
import os
import shutil
import subprocess
import sys
import tempfile
import threading
import time
import traceback
from pathlib import Path
from statistics import median
from typing import Dict, List, NamedTuple, Optional

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import check  # noqa: E402
import generate  # noqa: E402
import tracing  # noqa: E402
from workloads import WORKLOADS, Job, families, scenario_paths  # noqa: E402

ROOT = HERE.parent
SRC = ROOT / "src"
BUNDLED_DIR = SRC / "ergolab" / "scenarios"
GOLDEN = HERE / "golden.json"
REFERENCE = HERE / "reference.py"
# median wall time of reference.py on the 2-CPU machine the benchmark was
# defined on; normalised times read as seconds at that machine's usual speed
REFERENCE_S = 0.14
DEFAULT_SEED = 1
JOB_TIMEOUT_S = 60.0
SETUP_CALLS = 10


class JobResult(NamedTuple):
    wall: float
    returncode: Optional[int]  # None: killed after JOB_TIMEOUT_S
    maxrss_kb: int
    report: Optional[bytes]


def child_env() -> Dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def report_path(out: Path, job: Job) -> Path:
    return out / f"{job.key}.json"


def run_job(job: Job, scenario: Path, out: Path, env: Dict[str, str]) -> JobResult:
    """One CLI call as a subprocess, timed from spawn to reap."""
    argv = [sys.executable, "-m", "ergolab.cli", job.command,
            "--scenario", str(scenario), "--out", str(out)]
    path = report_path(out, job)
    path.unlink(missing_ok=True)  # a report left by an earlier call must not count
    start = time.perf_counter()
    proc = subprocess.Popen(argv, env=env, stdout=subprocess.DEVNULL,
                            stderr=subprocess.DEVNULL)
    killer = threading.Timer(JOB_TIMEOUT_S, proc.kill)
    killer.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        killer.cancel()
    wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    timed_out = proc.returncode < 0
    report = path.read_bytes() if path.is_file() else None
    return JobResult(wall, None if timed_out else proc.returncode,
                     usage.ru_maxrss, report)


class Checker:
    """Checks each job's answer and keeps the failure count.

    A job fails on a nonzero exit, a timeout, a violated invariant, a
    report that differs from the recorded one where one applies, or a
    report that differs from the same job's report earlier in this run.
    """

    def __init__(self, seed: int):
        golden = json.loads(GOLDEN.read_text())
        self.golden = golden["jobs"]
        self.golden_seed = golden.get("seed")
        self.seed = seed
        self.attempted = 0
        self.failed = 0
        self.problems: List[str] = []
        self._digests: Dict[str, str] = {}

    def expected(self, job: Job):
        """The recorded signature that applies to this job on this seed."""
        if job.scenario in generate.FAMILIES and self.seed != self.golden_seed:
            return None
        return self.golden.get(job.key)

    def record(self, job: Job, returncode: Optional[int], report: Optional[bytes]):
        self.attempted += 1
        problems = check.check_job(job.command, returncode, report)
        if not problems:
            digest = hashlib.sha256(report).hexdigest()
            if self._digests.setdefault(job.key, digest) != digest:
                problems.append("report differs from an earlier pass")
            sig = self.expected(job)
            if sig is not None:
                problems.extend(check.compare(sig, json.loads(report)))
        if problems:
            self.failed += 1
            self.problems.extend(f"{job.key}: {p}" for p in problems[:5])


# -- end-to-end run ------------------------------------------------------


def run_reference(env: Dict[str, str]) -> float:
    start = time.perf_counter()
    subprocess.run([sys.executable, str(REFERENCE)], env=env, check=True)
    return time.perf_counter() - start


class SpeedProbe:
    """Runs the reference script before and after each measured call and
    rescales the call's wall time by the machine speed the two saw."""

    def __init__(self, env: Dict[str, str]):
        self.env = env
        self.refs = [run_reference(env)]

    def normalise(self, wall: float) -> float:
        self.refs.append(run_reference(self.env))
        return wall * REFERENCE_S / ((self.refs[-2] + self.refs[-1]) / 2)


def measure_setup(scenarios: Dict[str, Path], work: Path, checker: Checker,
                  probe: SpeedProbe) -> tuple:
    """setup_s: median normalised `ergolab validate` wall over SETUP_CALLS
    calls that cycle through the workload's scenarios, after one untimed
    call that fills the bytecode cache."""
    out = work / "setup"
    names = list(scenarios)
    run_job(Job("validate", names[0]), scenarios[names[0]], out, probe.env)
    raw, normalised, peak = [], [], 0
    for k in range(max(SETUP_CALLS, len(names))):
        job = Job("validate", names[k % len(names)])
        res = run_job(job, scenarios[job.scenario], out, probe.env)
        checker.record(job, res.returncode, res.report)
        raw.append(res.wall)
        normalised.append(probe.normalise(res.wall))
        peak = max(peak, res.maxrss_kb)
    return median(normalised), median(raw), peak


def run_end_to_end(jobs: List[Job], scenarios: Dict[str, Path], work: Path,
                   seconds: float, checker: Checker) -> tuple:
    """Cycle through the job list until the next job would end after
    `seconds`, having run every job at least once.  Returns the metrics and
    their raw (not normalised) counterparts."""
    probe = SpeedProbe(child_env())
    setup_s, raw_setup_s, peak_kb = measure_setup(scenarios, work, checker, probe)
    walls: List[List[float]] = [[] for _ in jobs]
    normalised: List[List[float]] = [[] for _ in jobs]
    start = time.perf_counter()
    for k in itertools.count():
        i = k % len(jobs)
        if k >= len(jobs) and (time.perf_counter() - start + median(walls[i])
                               + probe.refs[-1] > seconds):
            break
        res = run_job(jobs[i], scenarios[jobs[i].scenario], work / "out", probe.env)
        walls[i].append(res.wall)
        normalised[i].append(probe.normalise(res.wall))
        peak_kb = max(peak_kb, res.maxrss_kb)
        checker.record(jobs[i], res.returncode, res.report)
    print(f"# {len(jobs)} jobs run {min(map(len, walls))} to "
          f"{max(map(len, walls))} times each", file=sys.stderr)
    metrics = {
        "wall_s": sum(median(w) for w in normalised),
        "setup_s": setup_s,
        "peak_rss_mb": peak_kb / 1024,
    }
    raw = {
        "raw_wall_s": sum(median(w) for w in walls),
        "raw_setup_s": raw_setup_s,
        "reference_s": median(probe.refs),
    }
    return metrics, raw


E2E_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


# -- traced run ----------------------------------------------------------


def import_seconds(env: Dict[str, str], rounds: int = 5) -> float:
    """cli.import_s: cumulative import time of ergolab.cli, from
    `python -X importtime`, median over rounds."""
    values = []
    for _ in range(rounds):
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", "import ergolab.cli"],
            env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
            text=True, check=True)
        for line in proc.stderr.splitlines():
            parts = [p.strip() for p in line.split("|")]
            if len(parts) == 3 and parts[2] == "ergolab.cli":
                values.append(int(parts[1]) / 1e6)
    return median(values)


def interpreter_seconds(env: Dict[str, str], rounds: int = 5) -> float:
    """runtime.interpreter_s: wall time of `python -c pass`, median."""
    values = []
    for _ in range(rounds):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "pass"], env=env, check=True)
        values.append(time.perf_counter() - t0)
    return median(values)


def call_cli(main, argv: List[str]) -> int:
    """ergolab.cli.main in this process; the exit code it would give."""
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        try:
            main(argv, standalone_mode=False)
            return 0
        except SystemExit as exc:
            return exc.code if isinstance(exc.code, int) else 1
        except Exception:  # a crash is a failed job, not a failed benchmark
            traceback.print_exc(file=sys.__stderr__)
            return -1


class TracedPass(NamedTuple):
    wall: float
    self_s: Dict[str, float]
    calls: Dict[str, int]
    counters: Dict[str, int]


def cache_clearers() -> list:
    """cache_clear of every memoised ergolab.observables function, so each
    in-process pass starts as cold as a fresh process."""
    observables = sys.modules["ergolab.observables"]
    return [f.cache_clear for f in vars(observables).values()
            if callable(getattr(f, "cache_clear", None))]


def run_inprocess_pass(cli, tracer: Optional[tracing.Tracer], jobs: List[Job],
                       scenarios: Dict[str, Path], out: Path,
                       checker: Checker) -> TracedPass:
    self_s: Dict[str, float] = {}
    if tracer is not None:
        tracer.calls.clear()
        tracer.counters.clear()
    wall = 0.0
    for job in jobs:
        argv = [job.command, "--scenario", str(scenarios[job.scenario]), "--out", str(out)]
        t0 = time.perf_counter()
        if tracer is None:
            rc = call_cli(cli.main, argv)
        else:
            rc = tracer.span(tracing.ROOT, call_cli, cli.main, argv)
        wall += time.perf_counter() - t0
        if tracer is not None:
            for name, value in tracer.fold().items():
                self_s[name] = self_s.get(name, 0.0) + value
        path = report_path(out, job)
        checker.record(job, rc, path.read_bytes() if path.is_file() else None)
    shutil.rmtree(out, ignore_errors=True)
    if tracer is None:
        return TracedPass(wall, {}, {}, {})
    return TracedPass(wall, self_s, dict(tracer.calls), dict(tracer.counters))


def layer_metric_names() -> List[str]:
    names = []
    for module, attr in tracing.WRAPPED:
        name = tracing.span_name(module, attr)
        names += [f"{name}.calls", f"{name}.self_pct"]
    names.append(f"{tracing.ROOT}.self_pct")
    names += list(tracing.COUNTERS)
    names += ["cli.import_s", "runtime.interpreter_s", "trace.wall_s", "trace.overhead_s"]
    return names


def run_traced(jobs: List[Job], scenarios: Dict[str, Path], work: Path,
               seconds: float, checker: Checker) -> tuple:
    env = child_env()
    metrics: Dict[str, tuple] = {}
    metrics["cli.import_s"] = (import_seconds(env), "s")
    metrics["runtime.interpreter_s"] = (interpreter_seconds(env), "s")

    sys.path.insert(0, str(SRC))
    cli = importlib.import_module("ergolab.cli")
    clearers = cache_clearers()
    tracer = tracing.Tracer()
    plain: List[float] = []
    traced: List[TracedPass] = []
    start = time.perf_counter()
    while len(traced) < 2 or (time.perf_counter() - start
                              + median(plain) + median(p.wall for p in traced) <= seconds):
        for clear in clearers:
            clear()
        plain.append(run_inprocess_pass(cli, None, jobs, scenarios,
                                        work / "plain", checker).wall)
        for clear in clearers:
            clear()
        missing = tracer.install()
        try:
            traced.append(run_inprocess_pass(cli, tracer, jobs, scenarios,
                                             work / "traced", checker))
        finally:
            tracer.uninstall()
    print(f"# {len(plain)} untraced and {len(traced)} traced passes; "
          f"not present in this version: {', '.join(missing) or 'none'}",
          file=sys.stderr)

    repeat_ok = all(p.counters == traced[0].counters and p.calls == traced[0].calls
                    for p in traced)
    if not repeat_ok:
        checker.problems.append("work counters differ between traced passes")

    first = traced[0]
    names = [tracing.span_name(m, a) for m, a in tracing.WRAPPED] + [tracing.ROOT]
    self_abs = {}
    for name in names:
        share = median(100.0 * p.self_s.get(name, 0.0) / p.wall for p in traced)
        self_abs[name] = median(p.self_s.get(name, 0.0) for p in traced)
        if name != tracing.ROOT:
            metrics[f"{name}.calls"] = (first.calls.get(name, 0), "count")
        metrics[f"{name}.self_pct"] = (share, "%")
    for key in tracing.COUNTERS:
        metrics[key] = (first.counters.get(key, 0), "bytes" if key == "cli.report_bytes" else "count")
    traced_wall = median(p.wall for p in traced)
    metrics["trace.wall_s"] = (traced_wall, "s")
    metrics["trace.overhead_s"] = (traced_wall - median(plain), "s")
    ordered = {name: metrics[name] for name in layer_metric_names()}
    return ordered, self_abs, repeat_ok


# -- entry point ---------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=38.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "ergolab" / "cli.py").is_file():
        print(f"error: no ergolab sources under {SRC}", file=sys.stderr)
        return 2

    jobs = WORKLOADS[args.workload]
    scratch_root = ROOT / ".bench_work"
    scratch_root.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=scratch_root))
    try:
        t0 = time.perf_counter()
        generated = generate.write_scenarios(
            families(jobs, generate.FAMILIES), args.seed, work / "scenarios")
        scenarios = scenario_paths(jobs, generated, BUNDLED_DIR)
        checker = Checker(args.seed)
        if args.trace:
            metrics, extra, repeat_ok = run_traced(
                jobs, scenarios, work, args.seconds, checker)
            extra = {f"{name}.self_s": value for name, value in extra.items()}
        else:
            e2e, extra = run_end_to_end(jobs, scenarios, work, args.seconds, checker)
            metrics = {k: (v, E2E_UNITS[k]) for k, v in e2e.items()}
            repeat_ok = True
        elapsed = time.perf_counter() - t0
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            scratch_root.rmdir()  # only when no other run is using it

    for problem in checker.problems[:20]:
        print(f"# FAILED {problem}", file=sys.stderr)
    print(f"workload {args.workload} seed {args.seed} trace {args.trace} "
          f"({elapsed:.1f} s)")
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    for name, value in extra.items():
        print(f"{name} {value:.6g} s")
    print(f"error_rate {checker.failed / max(checker.attempted, 1):.6g} "
          f"({checker.failed}/{checker.attempted} jobs)")
    result = {
        "correct": checker.failed == 0 and repeat_ok,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
