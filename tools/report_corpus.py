"""Write every command's report on a fixed scenario corpus, so that two
checkouts can be compared byte for byte.

    python3 tools/report_corpus.py OUT [CHECKOUT]

Runs ``ergolab <command>`` in process, every command in every ``--format``
it has, on the bundled scenarios and on the ``bench/generate.py`` families
at seeds 1 and 2, ``extend`` and ``pleasant`` on copies of cyclic-5 that
set one of its options (``OPTION_COPIES``), and ``validate`` on copies that
set or delete a field or two (``ERROR_COPIES``), so that error paths are
compared too; the generated scenarios and the copies are written to
``OUT/scenarios``.  Each run gets its own directory
``OUT/<corpus>/<scenario>/<command>[.<format>]`` holding the report, if
one was written, and the files ``exit_code``, ``stdout`` (with the run
directory spelled ``RUN``) and ``stderr``.  A command that fails is
recorded like one that succeeds: both count as its behaviour.

The program is the ``ergolab`` package under ``src/`` of CHECKOUT, by
default the checkout this file sits in; the generated scenarios and the
copies always come from this file's checkout, which is only read.  Compare
two checkouts with

    python3 tools/report_corpus.py /tmp/a
    python3 tools/report_corpus.py /tmp/b ../other-checkout
    diff -r /tmp/a /tmp/b
"""

from __future__ import annotations

import contextlib
import importlib.util
import io
import json
import re
import sys
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parents[1]
SEEDS = (1, 2)
# the options set on copies of cyclic-5, one copy each, and the commands
# that read them
OPTION_COPIES = ({"max_m": 1}, {"budget": 24})
OPTION_COMMANDS = ("extend", "pleasant")
# the value that deletes the field at its path
DELETE = object()
# (bundled scenario, path of a field, value, (path, value) pairs also set)
# set on a copy each, which validate must reject: an object field given [],
# a misspelt key, a missing key, a name, label or tuple entry that is not a
# string, a label given to two states or holding a comma, a trial count past
# its cap, a key that the engine never reads, a max_m below 1 and a zero
# denominator in each kind of rational field
ERROR_COPIES = (
    ("cyclic-5", ("base_point_trials",), []),
    ("cyclic-5", ("observables",), []),
    ("cyclic-5", ("options",), []),
    ("torus-counterexample", ("system", "symbol_values"), []),
    ("cyclic-5", ("boxs",), []),
    ("cyclic-5", ("boxes", 0, "lengths"), DELETE),
    ("cyclic-5", ("system", "n"), DELETE),
    ("torus-counterexample", ("observables", "f1", 0, "coeff"), DELETE),
    ("cyclic-5", ("name",), 5),
    ("cyclic-5", ("base_point_trials", "count"), 1001),
    ("cyclic-5", ("system", "labels"), [0, 1, 2, 3, 4]),
    ("cyclic-5", ("system", "labels"), ["a", "a", "a", "b", "b"]),
    ("cyclic-5", ("system", "labels"), ["a,b", "c", "d", "e", "f"]),
    ("cyclic-5", ("average_tuples",), [[1, 1]],
     (("observables", "1"), ["4/5", "-1/5", "-1/5", "-1/5", "-1/5"])),
    ("cyclic-5", ("samples",), [[0.5, 0.25]]),
    ("torus-counterexample", ("options",), {"budget": 3}),
    ("cyclic-5", ("options", "max_m"), 0),
    ("cyclic-5", ("system", "weights", 0), "1/0"),
    ("cyclic-5", ("observables", "f1", 0), "1/0"),
    ("torus-counterexample", ("system", "rotations", 0, "vector", 0), "1/0"),
    ("torus-counterexample", ("system", "rotations", 0, "vector", 0, "rational"), "1/0"),
    ("torus-counterexample",
     ("system", "rotations", 0, "vector", 0, "symbols", "alpha"), "1/0"),
)


def _generator():
    """bench/generate.py of this checkout, loaded as a module."""
    spec = importlib.util.spec_from_file_location(
        "generate", HERE / "bench" / "generate.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _option_copies(outdir: Path):
    """Write a copy of cyclic-5 per entry of OPTION_COPIES, with those
    options and named after them, to outdir; their paths."""
    raw = json.loads((HERE / "src/ergolab/scenarios/cyclic-5.json").read_text())
    outdir.mkdir(parents=True, exist_ok=True)
    for options in OPTION_COPIES:
        name = "cyclic-5-" + "-".join(f"{k}-{v}" for k, v in options.items())
        path = outdir / f"{name}.json"
        path.write_text(json.dumps(dict(raw, name=name, options=options), indent=2) + "\n")
        yield path


def _error_copies(outdir: Path):
    """Write a copy of a bundled scenario per entry of ERROR_COPIES, with
    its fields set or deleted and named after the first (<scenario>-<last
    key of its path>-list, -deleted or -<value>, its word characters joined
    by -), to outdir; their paths."""
    outdir.mkdir(parents=True, exist_ok=True)
    for scenario, path, value, *also in ERROR_COPIES:
        raw = json.loads((HERE / f"src/ergolab/scenarios/{scenario}.json").read_text())
        label = ("deleted" if value is DELETE else "list" if value == []
                 else "-".join(re.findall(r"\w+", json.dumps(value))))
        last_key = [k for k in path if isinstance(k, str)][-1]
        name = raw["name"] = f"{scenario}-{last_key}-{label}"
        for (*outer, last), v in ((path, value), *also):
            field = raw
            for key in outer:
                field = field[key]
            if v is DELETE:
                del field[last]
            else:
                field[last] = v
        (outdir / f"{name}.json").write_text(json.dumps(raw, indent=2) + "\n")
        yield outdir / f"{name}.json"


def _corpora(out: Path):
    """(corpus name, scenario paths, (command, format) pairs) for the
    bundled, generated, option-copy and error-copy corpora."""
    from ergolab.scenario import bundled_scenario_dir

    commands = list(_commands())
    yield "bundled", sorted(bundled_scenario_dir().glob("*.json")), commands
    generate = _generator()
    for seed in SEEDS:
        paths = generate.write_scenarios(
            list(generate.FAMILIES), seed, out / "scenarios" / f"seed{seed}"
        )
        yield f"seed{seed}", sorted(paths.values()), commands
    yield "options", list(_option_copies(out / "scenarios" / "options")), [
        (command, fmt) for command, fmt in commands if command in OPTION_COMMANDS
    ]
    yield "errors", list(_error_copies(out / "scenarios" / "errors")), [
        ("validate", None)
    ]


def _commands():
    """(command, format or None) for every registered command, read from
    the command table, or from the argparse subcommands of a checkout that
    has no table."""
    from ergolab import cli

    if hasattr(cli, "COMMANDS"):
        flags = {name: row[1] for name, row in cli.COMMANDS.items()}
    else:
        flags = {name: sub._option_string_actions
                 for name, sub in cli._commands.choices.items()}
    for name in sorted(flags):
        if "--format" in flags[name]:
            yield name, "json"
            yield name, "csv"
        else:
            yield name, None


def _run(args, rundir: Path):
    from ergolab.cli import main

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            main(args, standalone_mode=False)
            code = "0"
        except SystemExit as exc:
            code = str(0 if exc.code is None else exc.code)
        except Exception:  # recorded, so that a crash shows up in the diff
            code = "exception"
            traceback.print_exc(limit=0)
    (rundir / "exit_code").write_text(code + "\n")
    (rundir / "stdout").write_text(out.getvalue().replace(str(rundir), "RUN"))
    (rundir / "stderr").write_text(err.getvalue())


def main(argv) -> int:
    if len(argv) not in (1, 2):
        print("usage: python3 tools/report_corpus.py OUT [CHECKOUT]", file=sys.stderr)
        return 2
    out = Path(argv[0]).resolve()
    checkout = Path(argv[1]).resolve() if len(argv) == 2 else HERE
    sys.path.insert(0, str(checkout / "src"))
    runs = 0
    for corpus, paths, commands in _corpora(out):
        for path in paths:
            for command, fmt in commands:
                label = command if fmt is None else f"{command}.{fmt}"
                rundir = out / corpus / path.stem / label
                rundir.mkdir(parents=True, exist_ok=True)
                args = [command, "--scenario", str(path), "--out", str(rundir)]
                _run(args + (["--format", fmt] if fmt else []), rundir)
                runs += 1
    print(f"{runs} runs written to {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
