"""Batch front end: load a scenario, run one computation, write a report.

    ergolab <command> --scenario S.json [--out DIR] [flags]

Every command runs the same pipeline, registered by ``command`` as one row
of the ``COMMANDS`` table, from which ``parse`` reads the command line:
load and check the scenario (the engine a command needs included), turn
``--seed`` into a random generator (only ``torus-demo`` takes it, as only
its rows depend on the bases drawn), fill ``--budget``/``--max-m`` from the
scenario's options, compute the report body, add the header and write
``<out>/<scenario>__<command>.<format>``.  A command is only the function
that computes its body (plus, for ``--format csv``, the CSV lines).  Only
the scenario parser is imported with this module; each command imports the
engine modules it runs.

Reports are deterministic: identical inputs (including seeds) produce
byte-identical files.  Exit codes: 1 validation failure (an unreadable
scenario file included), 2 budget exceeded or a malformed command line,
3 internal invariant violation (always a bug).  The ``ergolab`` process
enters through ``console``, which runs ``main`` without the cyclic garbage
collector and leaves through ``os._exit`` once its output is flushed.
"""

from __future__ import annotations

import gc
import math
import os
import re
import sys
from fractions import Fraction
from json.encoder import encode_basestring_ascii
from pathlib import Path
from typing import TYPE_CHECKING

from . import __version__
from .errors import (
    BudgetExceeded,
    ErgolabError,
    InternalInvariantViolation,
    ValidationError,
)
from .scenario import FolnerBox, load_scenario

if TYPE_CHECKING:
    # a command that draws bases imports random where it builds its generator
    import random


def frac_str(q: Fraction) -> str:
    q = Fraction(q)
    return str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"


def norm_json(norm) -> dict:
    return {"square": frac_str(norm.square)}


def obs_json(obs) -> list:
    return [frac_str(v) for v in obs.values]


def box_json(box: FolnerBox) -> dict:
    return {"lengths": list(box.lengths), "base": list(box.base)}


def measure_json(jm) -> list:
    """Each support tuple with its mass weight / denom in lowest terms."""
    out = []
    for t, w in zip(jm.support, jm.support_weights):
        g = math.gcd(w, jm.denom)
        num, den = w // g, jm.denom // g
        out.append({"state": list(t), "mass": f"{num}/{den}" if den > 1 else str(num)})
    return out


def invariance_json(jm) -> dict:
    return {name: jm.is_invariant(name) for name in sorted(jm.actions)}


def _random_base(rng: random.Random, r: int, span: int):
    return tuple(rng.randint(-span, span) for _ in range(r))


def _base_shift_free(scn) -> bool:
    """Whether the scenario's trial count of full period boxes, at bases
    drawn from its trial seed, have the residues of the box at 0, of which
    the orbit counts of every average, limit and joining are a function."""
    import random

    from .averages import residues
    from .system import period_box

    sys_, rng = scn.system, random.Random(scn.trial_seed)
    P = period_box(sys_).lengths
    at0 = residues(sys_, FolnerBox(P))
    return all(residues(sys_, FolnerBox(P, _random_base(rng, sys_.r, 50))) == at0
               for _ in range(scn.trial_count))


def _json_text(value, indent: str = "\n") -> str:
    """json.dumps(value, indent=2, sort_keys=True), byte for byte, for dict
    (str keys), list, tuple, str, int, bool and None values; anything else,
    a float or a non-str key included, raises TypeError, as reports are
    exact.  Strings go through json's C ASCII encoder, and a list of ints
    is joined flat."""
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
_HELP = "Show this message and exit."
_DEFAULTS = {"out": ".", "fmt": "json"}
# the default cap on the n^d basis tuples of extend's and pleasant's checks
BUDGET = 10 ** 6
# argparse's rule: these read as values, not flags, after a flag
_NEGATIVE_NUMBER = re.compile(r"^-\d+$|^-\d*\.\d+$")


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
            and not _NEGATIVE_NUMBER.match(arg))


def _usage(name) -> str:
    if name is None:
        return "usage: ergolab [--help] [--version] COMMAND ..."
    flags = COMMANDS[name][1]
    words = [f"[{flag} {flags[flag][2]}]" for flag in flags]
    words[0] = words[0][1:-1]  # --scenario is required
    return f"usage: ergolab {name} [--help] " + " ".join(words)


def _exit_usage(name, message: str):
    prog = "ergolab" if name is None else f"ergolab {name}"
    sys.stderr.write(f"{_usage(name)}\n{prog}: error: {message}\n")
    sys.exit(2)


def _exit_help(name):
    """Print the help of the program (name None) or of one command."""
    if name is None:
        doc = DESCRIPTION
        sections = [
            ("commands", [(cmd, COMMANDS[cmd][2]) for cmd in COMMANDS]),
            ("options", [("--help", _HELP),
                         ("--version", "Show the version and exit.")]),
        ]
    else:
        _, flags, doc = COMMANDS[name]
        sections = [("options", [("--help", _HELP)] + [
            (f"{flag} {metavar}", text)
            for flag, (_, _, metavar, text) in flags.items()
        ])]
    width = max(len(term) for _, rows in sections for term, _ in rows) + 2
    text = f"{_usage(name)}\n\n{doc}\n"
    for title, rows in sections:
        text += f"\n{title}:\n"
        text += "".join(f"  {term:<{width}}{about}".rstrip() + "\n"
                        for term, about in rows)
    sys.stdout.write(text)
    sys.exit(0)


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
                _exit_help(name)
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
                reason = f"invalid int value: {value!r}" if convert is int else exc
                _exit_usage(name, f"argument {flag}: {reason}")
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


def command(name, engine=None, csv=None, seed=False, options=None):
    """Register ``ergolab <name>`` on the report pipeline.

    The decorated function takes the loaded scenario, plus ``rng`` when
    seed is set and one keyword per entry of options (an integer flag,
    filled from the scenario's options and then from the entry's default),
    and returns the report body.  engine restricts the scenario's engine;
    csv, when given, adds ``--format json|csv`` and turns a body into its
    CSV lines.
    """
    options = options or {}

    def register(body):
        flags = {
            "--scenario": ("scenario_path", str, "PATH", "the scenario file"),
            "--out": ("out", str, "DIR", "directory for the report (default: .)"),
        }
        if csv is not None:
            flags["--format"] = ("fmt", report_format, "{json,csv}", "default: json")
        if seed:
            flags["--seed"] = ("seed", int, "N", "Override the scenario's trial seed.")
        for key, default in options.items():
            flags["--" + key.replace("_", "-")] = (
                key, int, "N", f"default: the scenario's {key} option, else {default}"
            )

        def run(scenario_path, out, fmt="json", **given):
            try:
                scn = load_scenario(scenario_path)
                if engine is not None and scn.engine != engine:
                    raise ValidationError(
                        f"subcommand needs a {engine!r} scenario, got {scn.engine!r}"
                    )
                kwargs = {
                    key: scn.options.get(key, default)
                    if given[key] is None else given[key]
                    for key, default in options.items()
                }
                if seed:
                    import random

                    trial_seed = given["seed"]
                    kwargs["rng"] = random.Random(
                        scn.trial_seed if trial_seed is None else trial_seed
                    )
                report = body(scn, **kwargs)
                if fmt == "csv":
                    text = "\n".join(csv(report)) + "\n"
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

        COMMANDS[name] = (run, flags, " ".join(body.__doc__.split()))
        return body

    return register


@command("validate")
def validate(scn):
    """Validate a scenario file (system invariants, references)."""
    if scn.engine == "finite":
        system = {"n": scn.system.n, "r": scn.system.r, "d": scn.system.d}
    else:
        system = {"m": scn.system.m, "r": scn.system.r, "d": scn.system.d}
    return {"valid": True, "system": system}


def _avg_csv(report):
    lines = ["tuple,box_lengths,box_base,deviation,bound,within_bound"]
    for e in report["results"]:
        if "box" not in e:
            continue
        lines.append(
            "|".join(e["tuple"]) + ","
            + " ".join(map(str, e["box"]["lengths"])) + ","
            + " ".join(map(str, e["box"]["base"])) + ","
            + f"{float(Fraction(e['deviation']['square'])) ** 0.5:.12e},"
            + f"{float(Fraction(e['bound']['square'])) ** 0.5:.12e},"
            + str(e["within_bound"]).lower()
        )
    return lines


@command("avg", engine="finite", csv=_avg_csv)
def avg(scn):
    """Truncated averages with exact limits and deviation bounds."""
    from .averages import deviation_bound, exact_limit, truncated_average

    sys_ = scn.system
    shift_free = _base_shift_free(scn)
    entries = []
    for names in scn.average_tuples:
        fs = [scn.observables[n] for n in names]
        limit = exact_limit(sys_, fs)
        for box in scn.boxes:
            truncated = truncated_average(sys_, fs, box)
            deviation = (truncated - limit).l2(sys_.weights)
            bound = deviation_bound(sys_, fs, box)
            entries.append({
                "tuple": list(names),
                "box": box_json(box),
                "truncated": obs_json(truncated),
                "limit": obs_json(limit),
                "deviation": norm_json(deviation),
                "bound": norm_json(bound),
                "within_bound": bool(deviation <= bound),
            })
        entries.append({
            "tuple": list(names),
            "base_point_trials": scn.trial_count,
            "full_period_box_equals_limit": shift_free,
        })
    return {"results": entries}


@command("limit", engine="finite")
def limit(scn):
    """Exact limits of the scenario's average tuples."""
    from .averages import exact_limit
    from .system import period_box

    entries = []
    for names in scn.average_tuples:
        fs = [scn.observables[n] for n in names]
        lim = exact_limit(scn.system, fs)
        entries.append({"tuple": list(names), "limit": obs_json(lim)})
    return {
        "period_box": list(period_box(scn.system).lengths),
        "results": entries,
    }


@command("joining", engine="finite")
def joining(scn):
    """The exact self-joining measure with its property checks."""
    from .joinings import diagonal_action_name, furstenberg_joining

    jm = furstenberg_joining(scn.system)
    return {
        "power": jm.power,
        "support_size": len(jm.support),
        "marginals_equal_mu": jm.marginals_equal_base(),
        "invariant_under": invariance_json(jm),
        "diagonal_action": diagonal_action_name(jm),
        "base_shift_trials": scn.trial_count,
        "base_shift_independent": _base_shift_free(scn),
        "measure": measure_json(jm),
    }


@command("hk", engine="finite")
def hk(scn):
    """The tower of relatively independent self-joinings."""
    from .joinings import host_kra_structural_check, host_kra_tower

    tower = host_kra_tower(scn.system)
    stages = []
    for k, jm in enumerate(tower, start=1):
        info = {
            "stage": k,
            "power": jm.power,
            "support_size": len(jm.support),
            "marginals_equal_mu": jm.marginals_equal_base(),
            "invariant_under": invariance_json(jm),
        }
        if len(jm.support) <= 4096:
            info["measure"] = measure_json(jm)
        stages.append(info)
    return {
        "stages": stages,
        "closed_form_ok": host_kra_structural_check(tower[-1]),
        "coordinate_labels": [sorted(a) for a in tower[-1].labels],
    }


def _pleasant_json(sys_, rep) -> dict:
    return {
        "pleasant": rep.pleasant,
        "defect": norm_json(rep.defect),
        "factor_cells": [
            [sys_.label(x) for x in cell] for cell in rep.factor.cells
        ],
        "witness": (
            None
            if rep.witness is None
            else [sys_.label(x) for x in rep.witness]
        ),
    }


@command("extend", engine="finite", options={"max_m": 2, "budget": BUDGET})
def extend(scn, max_m, budget):
    """Iterate the one-step extension until pleasant or out of budget."""
    from .extensions import iterate_extensions

    run = iterate_extensions(scn.system, max_m=max_m, budget=budget)
    final_sys = run.stages[-1].system if run.stages else scn.system
    return {
        "max_m": max_m,
        "budget": budget,
        "stages": [
            {"stage": k, "states": st.system.n}
            for k, st in enumerate(run.stages, start=1)
        ],
        "status": run.status,
        "stabilized": run.final_report.pleasant,
        "final": _pleasant_json(final_sys, run.final_report),
    }


@command("pleasant", engine="finite", options={"budget": BUDGET})
def pleasant(scn, budget):
    """Pleasantness defect report for the scenario system itself."""
    from .extensions import is_pleasant

    return _pleasant_json(scn.system, is_pleasant(scn.system, budget=budget))


def _torus_csv(report):
    return ["tuple,N,base,sample,abs_error,bound"] + [
        ",".join(row.values()) for row in report["rows"]
    ]


@command("torus-demo", engine="torus", csv=_torus_csv, seed=True)
def torus_demo(scn, rng):
    """Convergence table |average - limit|, with its certified bound, for a
    torus scenario."""
    from .torus import character_limit, torus_deviation_bound, torus_truncated_average

    sys_ = scn.system
    rows = []
    for names in scn.average_tuples:
        fs = [scn.observables[n] for n in names]
        lim = character_limit(sys_, fs)
        limits = [lim(t) for t in scn.samples]
        for box in scn.boxes:
            bound = torus_deviation_bound(sys_, fs, box.lengths)
            bases = [box.base]
            bases += [_random_base(rng, sys_.r, 1000) for _ in range(scn.trial_count)]
            for base in bases:
                shifted = FolnerBox(box.lengths, base)
                avgs = torus_truncated_average(sys_, fs, shifted, scn.samples)
                for t, a, lt in zip(scn.samples, avgs, limits):
                    rows.append({
                        "tuple": "|".join(names),
                        "N": " ".join(map(str, box.lengths)),
                        "base": " ".join(map(str, base)),
                        "sample": " ".join(f"{x:.6f}" for x in t),
                        "abs_error": f"{abs(a - lt):.12e}",
                        "bound": f"{bound:.12e}",
                    })
    return {"rows": rows}


if __name__ == "__main__":
    console()
