"""Batch front end: load a scenario, run one computation, write a report.

    ergolab <command> --scenario S.json [--out DIR] [flags]

Every command runs the same pipeline, registered by ``command`` as an
``argparse`` subcommand: load and check the scenario (the engine a command
needs included), turn ``--seed`` into a random generator, fill
``--budget``/``--max-m`` from the scenario's options, compute the report
body, add the header and write ``<out>/<scenario>__<command>.<format>``.
A command is only the function that computes its body (plus, for
``--format csv``, the CSV lines).  Only the scenario parser is imported
with this module; each command imports the engine modules it runs.

Reports are deterministic: identical inputs (including seeds) produce
byte-identical files.  Exit codes: 1 validation failure (an unreadable
scenario file included), 2 budget exceeded or a malformed command line,
3 internal invariant violation (always a bug).  The ``ergolab`` process
enters through ``console``, which runs ``main`` without the cyclic garbage
collector.
"""

from __future__ import annotations

import argparse
import gc
import math
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
    # a seeded command imports random where it builds its generator
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


def _base_shift_free(sys_, rng: random.Random, trials: int) -> bool:
    """Whether trials full period boxes at random bases (all drawn first, so
    the rng stream is fixed) have the residues of the box at 0, of which the
    orbit counts of every average, limit and joining are a function."""
    from .averages import residues
    from .system import period_box

    P = period_box(sys_).lengths
    at0 = residues(sys_, FolnerBox(P))
    boxes = [FolnerBox(P, _random_base(rng, sys_.r, 50)) for _ in range(trials)]
    return all(residues(sys_, box) == at0 for box in boxes)


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


# every parser is made with add_help=False, allow_abbrev=False and given
# --help by _with_help: flags are spelled out in full, and help only as --help
def _with_help(p: argparse.ArgumentParser) -> argparse.ArgumentParser:
    p.add_argument("--help", action="help", help="Show this message and exit.")
    return p


parser = _with_help(argparse.ArgumentParser(
    prog="ergolab",
    description="Exact laboratory for nonconventional ergodic averages on "
    "finite systems, with a floating-point torus backend.",
    add_help=False, allow_abbrev=False,
))
parser.add_argument("--version", action="version",
                    version=f"%(prog)s, version {__version__}")
_commands = parser.add_subparsers(metavar="COMMAND", required=True)


def main(argv=None, standalone_mode=True):
    """Run one command line (sys.argv[1:] by default).  A failure raises
    SystemExit with its exit code; success returns, or raises SystemExit(0)
    when standalone_mode is set, as a console script would exit."""
    args = vars(parser.parse_args(argv))
    args.pop("run")(**args)
    if standalone_mode:
        sys.exit(0)


def console():
    """The ``ergolab`` process: ``main`` on sys.argv, without the cyclic
    garbage collector.  A command's objects live until the process ends and
    no command leaves reference cycles behind, so a collection would find
    nothing to free; and freezing the heap on the way out, whatever the exit
    code, lets the interpreter's shutdown collections skip every object.
    Only the process entry does this: an in-process caller of ``main`` keeps
    its collector."""
    gc.disable()
    try:
        main()
    finally:
        gc.freeze()


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
        doc = " ".join(body.__doc__.split())
        sub = _with_help(_commands.add_parser(
            name, help=doc, description=doc, add_help=False, allow_abbrev=False
        ))
        sub.add_argument("--scenario", dest="scenario_path", required=True,
                         metavar="PATH", help="the scenario file")
        sub.add_argument("--out", default=".", metavar="DIR",
                         help="directory for the report (default: %(default)s)")
        if csv is not None:
            sub.add_argument("--format", dest="fmt", choices=["json", "csv"],
                             default="json", help="default: %(default)s")
        if seed:
            sub.add_argument("--seed", type=int, default=None, metavar="N",
                             help="Override the scenario's trial seed.")
        for key in options:
            sub.add_argument("--" + key.replace("_", "-"), dest=key, type=int,
                             default=None, metavar="N")

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

        sub.set_defaults(run=run)
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


@command("avg", engine="finite", csv=_avg_csv, seed=True)
def avg(scn, rng):
    """Truncated averages with exact limits and deviation bounds."""
    from .averages import deviation_bound, exact_limit, truncated_average

    sys_ = scn.system
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
            "full_period_box_equals_limit":
                _base_shift_free(sys_, rng, scn.trial_count),
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


@command("joining", engine="finite", seed=True)
def joining(scn, rng):
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
        "base_shift_independent":
            _base_shift_free(scn.system, rng, scn.trial_count),
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


@command("extend", engine="finite", options={"max_m": 2, "budget": 10 ** 6})
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


@command("pleasant", engine="finite", options={"budget": 10 ** 6})
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
