"""Batch front end: load a scenario, run one computation, write a report.

    ergolab <command> --scenario S.json [--out DIR] [--format json|csv]

``COMMANDS``, from which ``parse`` reads the command line, names each
command's module and function in ``ergolab.reports``, its flags and its help
line.  Every command runs the pipeline ``command`` builds: load and check
the scenario (the engine a command needs included), import the command's
module and compute its report body, add the header and write
``<out>/<scenario>__<command>.<format>``.  So a job compiles only its own
report module, and ``parse``, ``--help`` and ``--version`` compile none;
only ``--help`` and a usage error load the help text, ``ergolab.usage``.

Reports are deterministic: a report's bytes follow from the scenario file
its ``scenario_sha256`` hashes (trial bases come from its
``base_point_trials.seed``, extend's and pleasant's budget and max_m from
its ``options``), the command, its format and ``engine_version``.  Exit
codes: 1 validation failure (an unreadable scenario file included),
2 budget exceeded or a malformed command line, 3 internal invariant
violation (always a bug).  The ``ergolab`` process
enters through ``console``, which runs ``main`` without the cyclic garbage
collector and leaves through ``os._exit`` once its output is flushed;
under ``python -m ergolab.cli`` the collector is off from this module's
first import of the package on.
"""

from __future__ import annotations

import gc

if __name__ == "__main__":
    # ``python -m ergolab.cli``: the collector is off from the package's own
    # imports on, not only from ``console`` on
    gc.disable()

import os
import re
import sys
from json.encoder import encode_basestring_ascii
from pathlib import Path

from . import __version__
from .errors import (
    BudgetExceeded,
    ErgolabError,
    InternalInvariantViolation,
    ValidationError,
)
from .scenario import load_scenario


def _json_text(value, indent: str = "\n") -> str:
    """json.dumps(value, indent=2, sort_keys=True), byte for byte, for dict
    (str keys), list, tuple, str, int, bool and None values; a value with a
    ``json_text`` method writes itself, given its indent (a joined measure's
    rows do).  Anything else, a float or a non-str key included, raises
    TypeError, as reports are exact.  Strings go through json's C ASCII
    encoder, and a list of ints is joined flat."""
    if isinstance(value, dict):
        if not value:
            return "{}"
        inner = indent + "  "
        items = [
            encode_basestring_ascii(k) + ": " + _json_text(value[k], inner)
            for k in sorted(value)
        ]
        return "{" + inner + ("," + inner).join(items) + indent + "}"
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        inner = indent + "  "
        if {*map(type, value)} == {int}:
            items = map(int.__repr__, value)
        else:
            items = [_json_text(v, inner) for v in value]
        return "[" + inner + ("," + inner).join(items) + indent + "]"
    if isinstance(value, str):
        return encode_basestring_ascii(value)
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, int):
        return int.__repr__(value)
    json_text = getattr(value, "json_text", None)
    if json_text is not None:
        return json_text(indent)
    raise TypeError(f"a {type(value).__name__} has no place in a report")


def _write_report(out: str, scn_name: str, command: str, fmt: str, payload) -> Path:
    outdir = Path(out)
    outdir.mkdir(parents=True, exist_ok=True)
    path = outdir / f"{scn_name}__{command}.{fmt}"
    if fmt == "json":
        text = _json_text(payload) + "\n"
    else:
        text = payload
    path.write_bytes(text.encode("utf-8"))
    print(path)
    return path


# name -> (run, flags, doc) of every command, in registration order; flags
# maps each "--flag" to (dest, converter, metavar, help), --scenario first.
# A converter turns the flag's string into its value or raises ValueError.
COMMANDS = {}
FORMATS = ("json", "csv")
DESCRIPTION = ("Exact laboratory for nonconventional ergodic averages on "
               "finite systems, with a floating-point torus backend.")
_DEFAULTS = {"out": ".", "fmt": "json"}
# argparse's rule: these read as values, not flags, after a flag; compiled
# only when a single-dash argument is read
_NEGATIVE_NUMBER = r"^-\d+$|^-\d*\.\d+$"


def report_format(value: str) -> str:
    """The --format converter: one of FORMATS, or ValueError."""
    if value not in FORMATS:
        choices = ", ".join(map(repr, FORMATS))
        raise ValueError(f"invalid choice: {value!r} (choose from {choices})")
    return value


def _is_flag(arg: str) -> bool:
    """Whether arg reads as a flag: it starts with "-" and is not "-"
    alone, a negative number or a string holding a space."""
    return (arg[:1] == "-" and arg != "-" and " " not in arg
            and (arg[1] == "-" or not re.match(_NEGATIVE_NUMBER, arg)))


def _exit_usage(name, message: str):
    from .usage import exit_usage
    exit_usage(COMMANDS, name, message)


def parse(argv):
    """(command name, keyword arguments of its run) for a command line.
    --help and --version print and raise SystemExit(0); a usage error
    prints the usage and one error line to stderr and raises SystemExit(2).

    The arguments are read left to right: ``--flag value`` or
    ``--flag=value``, the last of repeated flags winning.  A bad or missing
    value is an error where it stands, so a --help after it is not reached;
    an unrecognized argument is reported only once all are read, so a
    --help after it is.  No positional argument follows the command, so
    ``--`` after it, and everything after that, are unrecognized."""
    name = None
    flags = kwargs = {}
    unrecognized = []
    args = iter(argv)
    for arg in args:
        flag, eq, value = arg.partition("=")
        if flag == "--help" or (name is None and flag == "--version"):
            if eq:
                _exit_usage(name, f"argument {flag}: ignored explicit argument {value!r}")
            if flag == "--help":
                from .usage import exit_help
                exit_help(COMMANDS, name, DESCRIPTION)
            sys.stdout.write(f"ergolab, version {__version__}\n")
            sys.exit(0)
        if flag in flags:
            if not eq:
                value = next(args, None)
                if value is None or _is_flag(value):
                    _exit_usage(name, f"argument {flag}: expected one argument")
            dest, convert, _, _ = flags[flag]
            try:
                kwargs[dest] = convert(value)
            except ValueError as exc:
                _exit_usage(name, f"argument {flag}: {exc}")
        elif name is None and (arg == "--" or not _is_flag(arg)):
            if arg not in COMMANDS:
                choices = ", ".join(map(repr, COMMANDS))
                _exit_usage(None, f"argument COMMAND: invalid choice: {arg!r} "
                                  f"(choose from {choices})")
            name = arg
            flags = COMMANDS[name][1]
            kwargs = {dest: _DEFAULTS.get(dest) for dest, *_ in flags.values()}
        elif arg == "--":
            unrecognized += [arg, *args]
        else:
            unrecognized.append(arg)
    if name is None:
        _exit_usage(None, "the following arguments are required: COMMAND")
    if kwargs["scenario_path"] is None:
        _exit_usage(name, "the following arguments are required: --scenario")
    if unrecognized:
        _exit_usage(None, "unrecognized arguments: " + " ".join(unrecognized))
    return name, kwargs


def main(argv=None, standalone_mode=True):
    """Run one command line (sys.argv[1:] by default).  A failure raises
    SystemExit with its exit code; success returns, or raises SystemExit(0)
    when standalone_mode is set, as a console script would exit."""
    name, kwargs = parse(sys.argv[1:] if argv is None else argv)
    COMMANDS[name][0](**kwargs)
    if standalone_mode:
        sys.exit(0)


def console():
    """The ``ergolab`` process: ``main`` on sys.argv, without the cyclic
    garbage collector, leaving through ``os._exit`` once stdout and stderr
    are flushed.  A command's objects live until the process ends and no
    command leaves reference cycles behind, so a collection would find
    nothing to free; every report is written and closed before ``main``
    returns, and nothing registers an ``atexit`` handler, so tearing the
    interpreter down would only free memory the exit frees anyway.  Any
    exception but SystemExit (a bug) propagates with its traceback, as
    does a failed flush.  Only the process entry does this: an in-process
    caller of ``main`` keeps its collector."""
    gc.disable()
    try:
        main()
    except SystemExit as exc:
        sys.stdout.flush()
        sys.stderr.flush()
        os._exit(exc.code)


def command(name, body, doc, engine=None, csv=None):
    """Register ``ergolab <name>``, with doc as its help line, on the report
    pipeline of the function that body names, as "module:function" in
    ``ergolab.reports``.  It takes the loaded scenario, and nothing else,
    and returns the report body.  engine restricts the scenario's engine;
    csv, when given, adds ``--format json|csv`` and names the function of
    the same module that turns a body into its CSV lines."""
    module, _, function = body.partition(":")
    flags = {
        "--scenario": ("scenario_path", str, "PATH", "the scenario file"),
        "--out": ("out", str, "DIR", "directory for the report (default: .)"),
    }
    if csv is not None:
        flags["--format"] = ("fmt", report_format, "{json,csv}", "default: json")

    def run(scenario_path, out, fmt="json"):
        try:
            scn = load_scenario(scenario_path)
            if engine is not None and scn.engine != engine:
                raise ValidationError(
                    f"subcommand needs a {engine!r} scenario, got {scn.engine!r}"
                )
            # __import__, unlike importlib.import_module, shows in -X importtime
            bodies = __import__("ergolab.reports." + module, fromlist=[function])
            report = getattr(bodies, function)(scn)
            if fmt == "csv":
                text = "\n".join(getattr(bodies, csv)(report)) + "\n"
                _write_report(out, scn.name, name, "csv", text)
            else:
                report.update(command=name, engine=scn.engine,
                              engine_version=__version__, scenario=scn.name,
                              scenario_sha256=scn.sha256)
                _write_report(out, scn.name, name, "json", report)
        except BudgetExceeded as exc:
            print(exc, file=sys.stderr)
            sys.exit(2)
        except InternalInvariantViolation as exc:
            print(f"internal invariant violation (bug): {exc}", file=sys.stderr)
            sys.exit(3)
        except (ErgolabError, OSError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            sys.exit(1)

    COMMANDS[name] = (run, flags, doc)


command("validate", "validate:validate",
        "Validate a scenario file (system invariants, references).")
command("avg", "averages:avg",
        "Truncated averages with exact limits and deviation bounds.",
        engine="finite", csv="avg_csv")
command("limit", "averages:limit",
        "Exact limits of the scenario's average tuples.", engine="finite")
command("joining", "joinings:joining",
        "The exact self-joining measure with its property checks.", engine="finite")
command("hk", "joinings:hk",
        "The tower of relatively independent self-joinings.", engine="finite")
command("extend", "extensions:extend",
        "Extend the system in one step to a pleasant one, within the budget.",
        engine="finite")
command("pleasant", "extensions:pleasant",
        "Pleasantness defect report for the scenario system itself.",
        engine="finite")
command("torus-demo", "torus:torus_demo",
        "Convergence table |average - limit|, with its certified bound, for a "
        "torus scenario.", engine="torus", csv="torus_csv")


if __name__ == "__main__":
    console()
