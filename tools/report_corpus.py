"""Write every command's report on a fixed scenario corpus, so that two
checkouts can be compared byte for byte.

    python3 tools/report_corpus.py OUT [CHECKOUT]

Runs ``ergolab <command>`` in process, every command in every ``--format``
it has, on the bundled scenarios and on the ``bench/generate.py`` families
at seeds 1 and 2 (written to ``OUT/scenarios``).  Each run gets its own
directory ``OUT/<corpus>/<scenario>/<command>[.<format>]`` holding the
report, if one was written, and the files ``exit_code``, ``stdout`` (with
the run directory spelled ``RUN``) and ``stderr``.  A command that fails is
recorded like one that succeeds: both count as its behaviour.

The program is the ``ergolab`` package under ``src/`` of CHECKOUT, by
default the checkout this file sits in; the generated scenarios always come
from this file's checkout, which is only read.  Compare two checkouts with

    python3 tools/report_corpus.py /tmp/a
    python3 tools/report_corpus.py /tmp/b ../other-checkout
    diff -r /tmp/a /tmp/b
"""

from __future__ import annotations

import contextlib
import importlib.util
import io
import sys
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parents[1]
SEEDS = (1, 2)


def _generator():
    """bench/generate.py of this checkout, loaded as a module."""
    spec = importlib.util.spec_from_file_location(
        "generate", HERE / "bench" / "generate.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _corpora(out: Path):
    """(corpus name, scenario paths) for the bundled and generated corpora."""
    from ergolab.scenario import bundled_scenarios

    yield "bundled", bundled_scenarios()
    generate = _generator()
    for seed in SEEDS:
        paths = generate.write_scenarios(
            list(generate.FAMILIES), seed, out / "scenarios" / f"seed{seed}"
        )
        yield f"seed{seed}", sorted(paths.values())


def _commands():
    """(command, format or None) for every registered command."""
    from ergolab import cli

    for name, sub in sorted(cli._commands.choices.items()):
        if "--format" in sub._option_string_actions:
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
    for corpus, paths in _corpora(out):
        for path in paths:
            for command, fmt in _commands():
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
