"""Batch front end: load a scenario, run one computation, write a report.

Reports are deterministic: identical inputs (including seeds) produce
byte-identical files.  Exit codes: 1 validation failure,
2 budget exceeded, 3 internal invariant violation (always a bug).
"""

from __future__ import annotations

import functools
import json
import random
import sys
from fractions import Fraction
from pathlib import Path

import click

from . import __version__
from .averages import FolnerBox, average_report, exact_limit, truncated_average
from .errors import (
    BudgetExceeded,
    ErgolabError,
    InternalInvariantViolation,
    ValidationError,
)
from .extensions import is_pleasant, iterate_extensions
from .joinings import (
    diagonal_action_name,
    furstenberg_joining,
    host_kra_structural_check,
    host_kra_tower,
)
from .scenario import ScenarioConfig, load_scenario
from .system import period_box
from .torus import character_limit, torus_deviation_bound, torus_truncated_average


def frac_str(q: Fraction) -> str:
    q = Fraction(q)
    return str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"


def norm_json(norm) -> dict:
    return {"square": frac_str(norm.square)}


def obs_json(obs) -> list:
    return [frac_str(v) for v in obs.values]


def box_json(box: FolnerBox) -> dict:
    return {"lengths": list(box.lengths), "base": list(box.base or (0,) * len(box.lengths))}


def _header(scn: ScenarioConfig, command: str) -> dict:
    return {
        "command": command,
        "engine": scn.engine,
        "engine_version": __version__,
        "scenario": scn.name,
        "scenario_sha256": scn.sha256,
    }


def _require_engine(scn: ScenarioConfig, engine: str):
    if scn.engine != engine:
        raise ValidationError(
            f"subcommand needs a {engine!r} scenario, got {scn.engine!r}"
        )


def _random_base(rng: random.Random, r: int, span: int = 50):
    return tuple(rng.randint(-span, span) for _ in range(r))


def _write_report(out: str, scn_name: str, command: str, fmt: str, payload) -> Path:
    outdir = Path(out)
    outdir.mkdir(parents=True, exist_ok=True)
    path = outdir / f"{scn_name}__{command}.{fmt}"
    if fmt == "json":
        text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    else:
        text = payload
    path.write_bytes(text.encode("utf-8"))
    click.echo(str(path))
    return path


def _exit_codes(fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except BudgetExceeded as exc:
            click.echo(f"budget exceeded: {exc}", err=True)
            sys.exit(2)
        except InternalInvariantViolation as exc:
            click.echo(f"internal invariant violation (bug): {exc}", err=True)
            sys.exit(3)
        except (ValidationError, ErgolabError, OSError) as exc:
            click.echo(f"error: {exc}", err=True)
            sys.exit(1)

    return wrapper


scenario_opt = click.option(
    "--scenario", "scenario_path", required=True, type=click.Path(exists=True)
)
out_opt = click.option("--out", default=".", show_default=True)
format_opt = click.option(
    "--format", "fmt", type=click.Choice(["json", "csv"]), default="json",
    show_default=True,
)
seed_opt = click.option("--seed", type=int, default=None,
                        help="Override the scenario's trial seed.")


@click.group()
@click.version_option(version=__version__)
def main():
    """Exact laboratory for nonconventional ergodic averages on finite
    systems, with a floating-point torus backend."""


@main.command()
@scenario_opt
@out_opt
@_exit_codes
def validate(scenario_path, out):
    """Validate a scenario file (system invariants, references)."""
    scn = load_scenario(scenario_path)
    report = _header(scn, "validate")
    report["valid"] = True
    if scn.engine == "finite":
        report["system"] = {"n": scn.system.n, "r": scn.system.r, "d": scn.system.d}
    else:
        report["system"] = {"m": scn.system.m, "r": scn.system.r, "d": scn.system.d}
    _write_report(out, scn.name, "validate", "json", report)


@main.command()
@scenario_opt
@out_opt
@format_opt
@seed_opt
@_exit_codes
def avg(scenario_path, out, fmt, seed):
    """Truncated averages with exact limits and deviation bounds."""
    scn = load_scenario(scenario_path)
    _require_engine(scn, "finite")
    sys_ = scn.system
    rng = random.Random(scn.trial_seed if seed is None else seed)
    pbox = period_box(sys_)
    entries = []
    for names in scn.average_tuples:
        fs = [scn.observables[n] for n in names]
        for box in scn.boxes:
            rep = average_report(sys_, fs, box)
            entries.append({
                "tuple": list(names),
                "box": box_json(box),
                "truncated": obs_json(rep.truncated),
                "limit": obs_json(rep.limit),
                "deviation": norm_json(rep.deviation),
                "bound": norm_json(rep.bound),
                "within_bound": bool(rep.deviation <= rep.bound),
            })
        trials_equal = []
        limit = exact_limit(sys_, fs)
        for _ in range(scn.trial_count):
            base = _random_base(rng, sys_.r)
            shifted = truncated_average(sys_, fs, box=FolnerBox(pbox.lengths, base))
            trials_equal.append(shifted.values == limit.values)
        entries.append({
            "tuple": list(names),
            "base_point_trials": scn.trial_count,
            "full_period_box_equals_limit": all(trials_equal),
        })
    report = _header(scn, "avg")
    report["results"] = entries
    if fmt == "csv":
        lines = ["tuple,box_lengths,box_base,deviation,bound,within_bound"]
        for e in entries:
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
        _write_report(out, scn.name, "avg", "csv", "\n".join(lines) + "\n")
    else:
        _write_report(out, scn.name, "avg", "json", report)


@main.command()
@scenario_opt
@out_opt
@_exit_codes
def limit(scenario_path, out):
    """Exact limits of the scenario's average tuples."""
    scn = load_scenario(scenario_path)
    _require_engine(scn, "finite")
    entries = []
    for names in scn.average_tuples:
        fs = [scn.observables[n] for n in names]
        lim = exact_limit(scn.system, fs)
        entries.append({"tuple": list(names), "limit": obs_json(lim)})
    report = _header(scn, "limit")
    report["period_box"] = list(period_box(scn.system).lengths)
    report["results"] = entries
    _write_report(out, scn.name, "limit", "json", report)


@main.command()
@scenario_opt
@out_opt
@seed_opt
@_exit_codes
def joining(scenario_path, out, seed):
    """The exact self-joining measure with its property checks."""
    scn = load_scenario(scenario_path)
    _require_engine(scn, "finite")
    sys_ = scn.system
    jm = furstenberg_joining(sys_)
    rng = random.Random(scn.trial_seed if seed is None else seed)
    shifts_equal = all(
        furstenberg_joining(sys_, _random_base(rng, sys_.r, span=30)).mass == jm.mass
        for _ in range(scn.trial_count)
    )
    report = _header(scn, "joining")
    report["power"] = jm.power
    report["support_size"] = len(jm.support)
    report["marginals_equal_mu"] = jm.marginals_equal_base()
    report["invariant_under"] = {
        name: jm.is_invariant(name) for name in sorted(jm.actions)
    }
    report["diagonal_action"] = diagonal_action_name(jm)
    report["base_shift_trials"] = scn.trial_count
    report["base_shift_independent"] = shifts_equal
    report["measure"] = [
        {"state": list(t), "mass": frac_str(jm.mass[t])} for t in jm.support
    ]
    _write_report(out, scn.name, "joining", "json", report)


@main.command()
@scenario_opt
@out_opt
@_exit_codes
def hk(scenario_path, out):
    """The tower of relatively independent self-joinings."""
    scn = load_scenario(scenario_path)
    _require_engine(scn, "finite")
    tower = host_kra_tower(scn.system)
    stages = []
    for k, jm in enumerate(tower, start=1):
        info = {
            "stage": k,
            "power": jm.power,
            "support_size": len(jm.support),
            "marginals_equal_mu": jm.marginals_equal_base(),
            "invariant_under": {
                name: jm.is_invariant(name) for name in sorted(jm.actions)
            },
        }
        if len(jm.support) <= 4096:
            info["measure"] = [
                {"state": list(t), "mass": frac_str(jm.mass[t])}
                for t in jm.support
            ]
        stages.append(info)
    report = _header(scn, "hk")
    report["stages"] = stages
    report["closed_form_ok"] = host_kra_structural_check(tower[-1])
    report["coordinate_labels"] = [sorted(a) for a in tower[-1].labels]
    _write_report(out, scn.name, "hk", "json", report)


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


@main.command()
@scenario_opt
@out_opt
@click.option("--max-m", "max_m", type=int, default=None)
@click.option("--budget", type=int, default=None)
@_exit_codes
def extend(scenario_path, out, max_m, budget):
    """Iterate the one-step extension until pleasant or out of budget."""
    scn = load_scenario(scenario_path)
    _require_engine(scn, "finite")
    max_m = max_m if max_m is not None else scn.options.get("max_m", 2)
    budget = budget if budget is not None else scn.options.get("budget", 10 ** 6)
    run = iterate_extensions(scn.system, max_m=max_m, budget=budget)
    report = _header(scn, "extend")
    report["max_m"] = max_m
    report["budget"] = budget
    report["stages"] = [
        {"stage": st.stage, "states": st.system.n} for st in run.stages
    ]
    report["status"] = run.status
    report["stabilized"] = run.stabilized
    final_sys = run.stages[-1].system if run.stages else scn.system
    report["final"] = _pleasant_json(final_sys, run.final_report)
    _write_report(out, scn.name, "extend", "json", report)


@main.command()
@scenario_opt
@out_opt
@click.option("--budget", type=int, default=None)
@_exit_codes
def pleasant(scenario_path, out, budget):
    """Pleasantness defect report for the scenario system itself."""
    scn = load_scenario(scenario_path)
    _require_engine(scn, "finite")
    budget = budget if budget is not None else scn.options.get("budget", 10 ** 6)
    rep = is_pleasant(scn.system, budget=budget)
    report = _header(scn, "pleasant")
    report.update(_pleasant_json(scn.system, rep))
    _write_report(out, scn.name, "pleasant", "json", report)


@main.command("torus-demo")
@scenario_opt
@out_opt
@format_opt
@seed_opt
@_exit_codes
def torus_demo(scenario_path, out, fmt, seed):
    """Convergence table |average - limit|, with its certified bound, for a
    torus scenario."""
    scn = load_scenario(scenario_path)
    _require_engine(scn, "torus")
    sys_ = scn.system
    rng = random.Random(scn.trial_seed if seed is None else seed)
    rows = []
    for names in scn.average_tuples:
        fs = [scn.observables[n] for n in names]
        lim = character_limit(sys_, fs)
        for box in scn.boxes:
            bound = torus_deviation_bound(sys_, fs, box.lengths)
            bases = [box.base or (0,) * sys_.r]
            bases += [
                tuple(rng.randint(-1000, 1000) for _ in range(sys_.r))
                for _ in range(scn.trial_count)
            ]
            for base in bases:
                shifted = FolnerBox(box.lengths, tuple(base))
                avgs = torus_truncated_average(sys_, fs, shifted, scn.samples)
                for t, a in zip(scn.samples, avgs):
                    rows.append({
                        "tuple": "|".join(names),
                        "N": " ".join(map(str, box.lengths)),
                        "base": " ".join(map(str, base)),
                        "sample": " ".join(f"{x:.6f}" for x in t),
                        "abs_error": f"{abs(a - lim(t)):.12e}",
                        "bound": f"{bound:.12e}",
                    })
    if fmt == "json":
        report = _header(scn, "torus-demo")
        report["rows"] = rows
        _write_report(out, scn.name, "torus-demo", "json", report)
    else:
        lines = ["tuple,N,base,sample,abs_error,bound"]
        lines += [",".join(row.values()) for row in rows]
        _write_report(out, scn.name, "torus-demo", "csv", "\n".join(lines) + "\n")


if __name__ == "__main__":
    main()
