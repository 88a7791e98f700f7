"""Time truncated averages over growing boxes, and the report text of the
Host-Kra jobs, so that two checkouts can be compared.

    python3 tools/avg_ladder.py [CHECKOUT] [--repeat K]

Ladder: ``truncated_average`` on the bundled cyclic-5 scenario (its first
average tuple) and on Z/23 with steps 1, 2, uniform weights and two dense
random observables, over the box [-N/2, N/2) for N = 10^3, ..., 10^9; the
least time over K repetitions.  A system's ladder stops after a rung that
takes over STOP_S seconds, because a checkout that walks every point of a
box would take hours at 10^9; the rungs left out read null.

Report text: the ten ``hk`` jobs of the benchmark's averages-scale workload
on seed 1 (``bench/workloads.py``, scenarios from ``bench/generate.py``).
Each job's report payload is captured from ``ergolab.cli.main``, then the
least time over K repetitions of ``json.dumps(payload, indent=2,
sort_keys=True)`` and, where the checkout has it, of ``cli._json_text``.

The program is the ``ergolab`` package under ``src/`` of CHECKOUT, by
default the checkout this file sits in; the benchmark's files always come
from this file's checkout, which is only read.  Prints one JSON object.
Run each checkout in its own interpreter, on an otherwise idle machine.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import random
import sys
import tempfile
import time
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parents[1]
EXPONENTS = range(3, 10)
STOP_S = 1.0
SEED = 1


def _bench_module(name: str):
    """bench/<name>.py of this checkout, loaded as a module."""
    spec = importlib.util.spec_from_file_location(name, HERE / "bench" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _best(fn, repeats: int) -> float:
    """Least time of fn over the repetitions; one over STOP_S is not repeated."""
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
        if best > STOP_S:
            break
    return round(best, 6)


def _systems():
    """(label, system, observables) for each ladder."""
    from ergolab.observables import Observable
    from ergolab.scenario import bundled_scenario_dir, load_scenario
    from ergolab.system import FiniteSystem

    scn = load_scenario(bundled_scenario_dir() / "cyclic-5.json")
    fs = [scn.observables[name] for name in scn.average_tuples[0]]
    yield "cyclic-5", scn.system, fs
    n, rng = 23, random.Random(SEED)
    gens = tuple((tuple((x + s) % n for x in range(n)),) for s in (1, 2))
    sys_ = FiniteSystem(n=n, r=1, d=2, weights=(Fraction(1, n),) * n,
                        generators=gens)
    fs = [
        Observable(tuple(
            Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(n)
        ))
        for _ in range(2)
    ]
    yield "cyclic n=23 steps=(1, 2)", sys_, fs


def ladder(repeats: int) -> dict:
    from ergolab.averages import truncated_average
    from ergolab.system import FolnerBox

    out = {}
    for label, sys_, fs in _systems():
        rungs, stopped = {}, False
        for e in EXPONENTS:
            N = 10 ** e
            if stopped:
                rungs[f"1e{e}"] = None
                continue
            box = FolnerBox((N,), (-(N // 2),))
            rungs[f"1e{e}"] = _best(
                lambda: truncated_average(sys_, fs, box), repeats
            )
            stopped = rungs[f"1e{e}"] > STOP_S
        out[label] = rungs
    return out


def hk_payloads(workdir: Path) -> dict:
    """Scenario name -> the hk report payload, for the averages-scale hk jobs."""
    import ergolab.cli as cli
    from ergolab.scenario import bundled_scenario_dir

    generate, workloads = _bench_module("generate"), _bench_module("workloads")
    jobs = [j for j in workloads.WORKLOADS["averages-scale"] if j.command == "hk"]
    generated = generate.write_scenarios(
        workloads.families(jobs, generate.FAMILIES), SEED, workdir / "scenarios"
    )
    paths = workloads.scenario_paths(jobs, generated, bundled_scenario_dir())
    payloads = {}

    def record(out, scn_name, command, fmt, payload):
        payloads[scn_name] = payload

    write_report, cli._write_report = cli._write_report, record
    try:
        for job in jobs:
            cli.main(["hk", "--scenario", str(paths[job.scenario]),
                      "--out", str(workdir / "out")], standalone_mode=False)
    finally:
        cli._write_report = write_report
    return payloads


def report_text(repeats: int) -> dict:
    import ergolab.cli as cli

    with tempfile.TemporaryDirectory() as tmp:
        payloads = hk_payloads(Path(tmp))
    out = {"jobs": len(payloads)}
    out["json_dumps_s"] = round(sum(
        _best(lambda: json.dumps(p, indent=2, sort_keys=True), repeats)
        for p in payloads.values()
    ), 6)
    writer = getattr(cli, "_json_text", None)
    if writer is not None:
        out["writer_s"] = round(sum(
            _best(lambda: writer(p), repeats) for p in payloads.values()
        ), 6)
        out["texts_equal"] = all(
            writer(p) == json.dumps(p, indent=2, sort_keys=True)
            for p in payloads.values()
        )
    return out


def main(argv) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("checkout", nargs="?", default=str(HERE))
    ap.add_argument("--repeat", type=int, default=3,
                    help="repetitions per measurement (default: %(default)s)")
    args = ap.parse_args(argv)
    sys.path.insert(0, str(Path(args.checkout).resolve() / "src"))
    report = {
        "truncated_average_min_s": ladder(args.repeat),
        "hk_report_text_min_s": report_text(args.repeat),
    }
    print(json.dumps(report, indent=2))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
