"""The ``extend`` and ``pleasant`` reports, under the scenario's budget and
max_m: the pleasantness defect, with its witness, of the system or of its
last extension stage."""

from ..extensions import is_pleasant, iterate_extensions
from ..observables import norm_json


def _pleasant_json(sys_, rep) -> dict:
    names = sys_.labels
    return {
        "pleasant": rep.pleasant,
        "defect": norm_json(rep.defect_square),
        "factor_cells": [[names[x] for x in cell] for cell in rep.factor.cells],
        "witness": None if rep.witness is None else [names[x] for x in rep.witness],
    }


def extend(scn):
    run = iterate_extensions(scn.system, max_m=scn.max_m, budget=scn.budget)
    final_sys = run.stages[-1].system if run.stages else scn.system
    return {
        "max_m": scn.max_m,
        "budget": scn.budget,
        "stages": [
            {"stage": k, "states": st.system.n}
            for k, st in enumerate(run.stages, start=1)
        ],
        "status": run.status,
        "stabilized": run.final_report.pleasant,
        "final": _pleasant_json(final_sys, run.final_report),
    }


def pleasant(scn):
    return _pleasant_json(scn.system, is_pleasant(scn.system, budget=scn.budget))
