"""The ``avg`` and ``limit`` reports: truncated averages over the
scenario's boxes, and exact limits."""

from decimal import MAX_EMAX, MIN_EMIN, Context, Decimal
from fractions import Fraction

from ..averages import deviation_bound, exact_limit, truncated_average
from ..observables import frac_str, l2_square, norm_json
from ..system import base_shift_free, period_box


def obs_json(obs) -> list:
    return [frac_str(v) for v in obs.values]


def box_json(box) -> dict:
    return {"lengths": list(box.lengths), "base": list(box.base)}


def norm_csv(norm: dict) -> str:
    """The norm whose square norm_json wrote, as a CSV float; decimal reads
    a square past int's 4300 digits or float's range, inf past that."""
    try:
        return f"{float(Fraction(norm['square'])) ** 0.5:.12e}"
    except (ValueError, OverflowError):
        p, _, q = norm["square"].partition("/")
        ctx = Context(Emax=MAX_EMAX, Emin=MIN_EMIN)
        return f"{float(ctx.divide(Decimal(p), Decimal(q or 1)).sqrt(ctx)):.12e}"


def avg_csv(report):
    lines = ["tuple,box_lengths,box_base,deviation,bound,within_bound"]
    for e in report["results"]:
        if "box" not in e:
            continue
        lines.append(
            "|".join(e["tuple"]) + ","
            + " ".join(map(str, e["box"]["lengths"])) + ","
            + " ".join(map(str, e["box"]["base"])) + ","
            + norm_csv(e["deviation"]) + ","
            + norm_csv(e["bound"]) + ","
            + str(e["within_bound"]).lower()
        )
    return lines


def avg(scn):
    sys_ = scn.system
    shift_free = base_shift_free(scn)
    entries = []
    for names in scn.average_tuples:
        fs = [scn.observables[n] for n in names]
        limit = exact_limit(sys_, fs)
        for box in scn.boxes:
            truncated = truncated_average(sys_, fs, box)
            deviation = l2_square(truncated - limit, sys_.weights)
            bound = deviation_bound(sys_, fs, box)
            entries.append({
                "tuple": list(names),
                "box": box_json(box),
                "truncated": obs_json(truncated),
                "limit": obs_json(limit),
                "deviation": norm_json(deviation),
                "bound": norm_json(bound),
                "within_bound": deviation <= bound,
            })
        entries.append({
            "tuple": list(names),
            "base_point_trials": scn.trial_count,
            "full_period_box_equals_limit": shift_free,
        })
    return {"results": entries}


def limit(scn):
    entries = []
    for names in scn.average_tuples:
        fs = [scn.observables[n] for n in names]
        lim = exact_limit(scn.system, fs)
        entries.append({"tuple": list(names), "limit": obs_json(lim)})
    return {
        "period_box": list(period_box(scn.system).lengths),
        "results": entries,
    }
