"""What each command compiles and how long its process takes to start and
finish, next to a bare interpreter.

    python3 tools/startup_ladder.py [CHECKOUT] [--repeats K]

For every command, on the bundled ``cyclic-5`` scenario (``torus-demo`` on
``torus-counterexample``), prints as one JSON object:

* ``modules`` and ``lines``: the ``ergolab`` modules a fresh interpreter
  (started with -S, so no site hook preloads anything) has loaded after
  importing ``ergolab.cli`` and running the command, and the total source
  lines of their files.  Nothing is compiled ahead of time when
  ``PYTHONDONTWRITEBYTECODE`` is set, so every line is compiled in every
  process; the counts are exact and free of noise.
* ``min_wall_s``: the least wall time over K runs of
  ``python -m ergolab.cli <command> --scenario S --out D`` as a subprocess,
  and ``over_bare_s``, that minus the least wall time of ``python -c pass``
  over K runs taken alternately with them.

The program is the ``ergolab`` package under ``src/`` of CHECKOUT, by
default the checkout this file sits in.  ``package_lines`` is the total
source lines of ``src/ergolab``.
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
# module with its source file, as one JSON object
_PROBE = """
import json, sys
import ergolab.cli
ergolab.cli.main(sys.argv[2:] + ["--out", sys.argv[1]], standalone_mode=False)
print(json.dumps({
    name: module.__file__ for name, module in sys.modules.items()
    if name == "ergolab" or name.startswith("ergolab.")
}))
"""


def _lines(path: Path) -> int:
    return len(path.read_text(encoding="utf-8").splitlines())


def _wall(argv, env) -> float:
    start = time.perf_counter()
    subprocess.run(argv, env=env, stdout=subprocess.DEVNULL,
                   stderr=subprocess.DEVNULL, check=True)
    return time.perf_counter() - start


def ladder(checkout: Path, repeats: int) -> dict:
    src = checkout / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    scenarios = src / "ergolab" / "scenarios"
    bare = float("inf")
    out = {}
    with tempfile.TemporaryDirectory() as tmp:
        for command, scenario in COMMANDS:
            args = [command, "--scenario", str(scenarios / f"{scenario}.json")]
            probe = subprocess.run(
                [sys.executable, "-S", "-c", _PROBE, tmp, *args],
                env=env, capture_output=True, text=True, check=True,
            )
            files = json.loads(probe.stdout.splitlines()[-1])
            wall = float("inf")
            for _ in range(repeats):
                bare = min(bare, _wall([sys.executable, "-c", "pass"], env))
                wall = min(wall, _wall(
                    [sys.executable, "-m", "ergolab.cli", *args, "--out", tmp], env
                ))
            out[f"{command} {scenario}"] = {
                "modules": sorted(files),
                "lines": sum(_lines(Path(f)) for f in files.values()),
                "min_wall_s": round(wall, 4),
            }
    for entry in out.values():
        entry["over_bare_s"] = round(entry["min_wall_s"] - bare, 4)
    return {
        "python": sys.version.split()[0],
        "repeats": repeats,
        "python_c_pass_min_s": round(bare, 4),
        "package_lines": sum(_lines(p) for p in (src / "ergolab").glob("*.py")),
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
