"""The ``extend`` and ``pleasant`` reports, under the scenario's budget: the
pleasantness defect, with its witness, of the system or of its extension
stage."""

from ..extensions import extend_to_pleasant, is_pleasant
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
    stage, report = extend_to_pleasant(scn.system, budget=scn.budget)
    final_sys = scn.system if stage is None else stage.system
    return {
        "max_m": scn.max_m,
        "budget": scn.budget,
        "stages": [] if stage is None else [{"stage": 1, "states": final_sys.n}],
        # not pleasant only when the budget stopped the stage
        "status": "pleasant" if report.pleasant else "budget-exceeded",
        "stabilized": report.pleasant,
        "final": _pleasant_json(final_sys, report),
    }


def pleasant(scn):
    return _pleasant_json(scn.system, is_pleasant(scn.system, budget=scn.budget))
