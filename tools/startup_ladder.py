"""What each command compiles and loads, and how long its process takes to
start and finish, next to a bare interpreter.

    python3 tools/startup_ladder.py [CHECKOUT] [--repeats K]

For every command, on the bundled ``cyclic-5`` scenario (``torus-demo`` on
``torus-counterexample``), prints as one JSON object:

* ``modules`` and ``lines``: the ``ergolab`` modules a fresh interpreter has
  loaded after importing ``ergolab.cli`` and running the command, and the
  total source lines of their files.  Nothing is compiled ahead of time
  when ``PYTHONDONTWRITEBYTECODE`` is set, so every line is compiled in
  every process; the counts are exact and free of noise.  ``compile_ms``
  is what that costs: for each of those files, the least time of the
  ``compile()`` calls on its source made in this run, as the import system
  compiles a source file (one after each of the K runs of every command
  that loads it, so that they are spread out in time), summed over them.
* ``stdlib_modules`` and ``stdlib_count``: every other module that child
  has loaded beyond what ``python -c pass`` loads (the site hook's own
  imports included), so a dropped standard-library import shows as a
  count.
* ``min_wall_s``: the least wall time over K runs of
  ``python -m ergolab.cli <command> --scenario S --out D`` as a subprocess,
  and ``over_bare_s``, that minus the least wall time of ``python -c pass``
  over K runs taken alternately with them.  ``rerun_median_wall_s`` is
  the median over K more runs with the command's report already in D and
  on disk (fsync'ed), as when a command is run again into the directory
  of an earlier session; the median, as on some filesystems only some
  rewrites pay for freeing the old blocks.
* ``phases``: the median over K more children, taken alternately with
  those, of the four phases of a child's life, each timed on the
  system-wide ``time.monotonic`` clock that parent and child share:
  ``spawn_s`` from spawning the child to its first line, ``import_s``
  importing ``ergolab.cli``, ``run_s`` the command through the process
  entry (``console`` where the checkout has one, else ``main``, as its
  ``python -m ergolab.cli`` calls), and ``exit_s`` from the entry's end (its
  call of ``os._exit``, or its return) to reaping the child.
  ``child_peak_mb`` is the median of the child's own peak resident set,
  ``VmHWM`` in ``/proc/self/status`` read when the command is done;
  ``ru_maxrss`` would not do, as a child spawned by vfork keeps its
  spawner's high-water mark.

The program is the ``ergolab`` package under ``src/`` of CHECKOUT, by
default the checkout this file sits in.  ``package_lines`` is the total
source lines of ``src/ergolab``, its subpackages included.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from statistics import median

HERE = Path(__file__).resolve().parents[1]
COMMANDS = (
    ("validate", "cyclic-5"),
    ("avg", "cyclic-5"),
    ("limit", "cyclic-5"),
    ("joining", "cyclic-5"),
    ("hk", "cyclic-5"),
    ("extend", "cyclic-5"),
    ("pleasant", "cyclic-5"),
    ("torus-demo", "torus-counterexample"),
)

# argv: output directory, then the command line; prints each loaded ergolab
# module with its source file, and every other module loaded since the
# interpreter ran its first line, as one JSON object
_PROBE = """
import sys
before = set(sys.modules)
import ergolab.cli
ergolab.cli.main(sys.argv[2:] + ["--out", sys.argv[1]], standalone_mode=False)
after = set(sys.modules)
import json
print(json.dumps({
    "ergolab": {
        name: module.__file__ for name, module in sys.modules.items()
        if name == "ergolab" or name.startswith("ergolab.")
    },
    "stdlib": sorted(m for m in after - before if m.split(".")[0] != "ergolab"),
}))
"""


# argv: the command line; runs it as the checkout's ``python -m ergolab.cli``
# does, and writes the phase clock readings and VmHWM (kB) to stderr when
# the entry calls os._exit or, in a checkout whose entry returns, when it
# returns
_PHASES = """
import time
t1 = time.monotonic()
import os, sys
import ergolab.cli
t2 = time.monotonic()

def phases(t3):
    with open("/proc/self/status") as status:
        hwm = next(line.split()[1] for line in status if line.startswith("VmHWM:"))
    sys.stderr.write(f"{t1!r} {t2!r} {t3!r} {hwm}\\n")
    sys.stderr.flush()

exit_now = os._exit

def timed_exit(code):
    phases(time.monotonic())
    exit_now(code)

os._exit = timed_exit
try:
    getattr(ergolab.cli, "console", ergolab.cli.main)()
finally:
    phases(time.monotonic())
"""


def _lines(path: Path) -> int:
    return len(path.read_text(encoding="utf-8").splitlines())


def _compile_s(path: str) -> float:
    """The time of one compile() call on path's source."""
    source = Path(path).read_bytes()
    start = time.perf_counter()
    compile(source, path, "exec", dont_inherit=True)
    return time.perf_counter() - start


def _unlink_reports(outdir: str) -> None:
    """Remove the reports in outdir, so that no child overwrites a file: on
    some filesystems truncating one costs more than a whole command, and
    the benchmark unlinks each report before it spawns the job, too."""
    for path in Path(outdir).glob("*__*"):
        path.unlink()


def _sync_reports(outdir: str) -> None:
    """fsync the reports in outdir, so that a rerun finds each on disk, as
    it finds one left by an earlier session."""
    for path in Path(outdir).glob("*__*"):
        fd = os.open(path, os.O_RDONLY)
        try:
            os.fsync(fd)
        finally:
            os.close(fd)


def _wall(argv, env) -> float:
    start = time.perf_counter()
    subprocess.run(argv, env=env, stdout=subprocess.DEVNULL,
                   stderr=subprocess.DEVNULL, check=True)
    return time.perf_counter() - start


def _phases(argv, env) -> dict:
    t0 = time.monotonic()
    proc = subprocess.Popen(argv, env=env, stdout=subprocess.DEVNULL,
                            stderr=subprocess.PIPE, text=True)
    _, err = proc.communicate()
    t4 = time.monotonic()
    if proc.returncode != 0:
        raise subprocess.CalledProcessError(proc.returncode, argv, stderr=err)
    t1, t2, t3, hwm_kb = map(float, err.split())
    return {"spawn_s": t1 - t0, "import_s": t2 - t1, "run_s": t3 - t2,
            "exit_s": t4 - t3, "child_peak_mb": hwm_kb / 1024}


def ladder(checkout: Path, repeats: int) -> dict:
    src = checkout / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    scenarios = src / "ergolab" / "scenarios"
    bare = float("inf")
    compile_s = {}  # source file -> least compile() time seen
    files_of = {}  # command -> the ergolab source files it loaded
    out = {}
    with tempfile.TemporaryDirectory() as tmp:
        for command, scenario in COMMANDS:
            args = [command, "--scenario", str(scenarios / f"{scenario}.json")]
            probe = subprocess.run(
                [sys.executable, "-c", _PROBE, tmp, *args],
                env=env, capture_output=True, text=True, check=True,
            )
            loaded = json.loads(probe.stdout.splitlines()[-1])
            files = loaded["ergolab"]
            files_of[command] = files.values()
            wall = float("inf")
            reruns, phases = [], []
            for _ in range(repeats):
                bare = min(bare, _wall([sys.executable, "-c", "pass"], env))
                job = [sys.executable, "-m", "ergolab.cli", *args, "--out", tmp]
                _unlink_reports(tmp)
                wall = min(wall, _wall(job, env))
                _sync_reports(tmp)
                reruns.append(_wall(job, env))
                _unlink_reports(tmp)
                phases.append(_phases(
                    [sys.executable, "-c", _PHASES, *args, "--out", tmp], env
                ))
                for f in files.values():
                    compile_s[f] = min(compile_s.get(f, float("inf")), _compile_s(f))
            out[f"{command} {scenario}"] = {
                "modules": sorted(files),
                "lines": sum(_lines(Path(f)) for f in files.values()),
                "compile_ms": None,  # once every command has run
                "stdlib_modules": loaded["stdlib"],
                "stdlib_count": len(loaded["stdlib"]),
                "min_wall_s": round(wall, 4),
                "rerun_median_wall_s": round(median(reruns), 4),
                "phases": {
                    key: round(median(p[key] for p in phases), 5)
                    for key in phases[0]
                },
            }
    for (command, _), entry in zip(COMMANDS, out.values()):
        entry["over_bare_s"] = round(entry["min_wall_s"] - bare, 4)
        entry["compile_ms"] = round(
            1000 * sum(map(compile_s.get, files_of[command])), 3)
    return {
        "python": sys.version.split()[0],
        "repeats": repeats,
        "python_c_pass_min_s": round(bare, 4),
        "package_lines": sum(_lines(p) for p in (src / "ergolab").rglob("*.py")),
        "commands": out,
    }


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("checkout", nargs="?", type=Path, default=HERE)
    parser.add_argument("--repeats", type=int, default=9, metavar="K")
    args = parser.parse_args(argv)
    print(json.dumps(ladder(args.checkout.resolve(), args.repeats), indent=2))


if __name__ == "__main__":
    main()
