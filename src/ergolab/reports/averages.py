"""The ``avg`` and ``limit`` reports: truncated averages over the
scenario's boxes, and exact limits."""

from fractions import Fraction

from ..averages import deviation_bound, exact_limit, truncated_average
from ..observables import frac_str, l2_square, norm_json
from ..scenario import base_shift_free
from ..system import period_box


def obs_json(obs) -> list:
    return [frac_str(v) for v in obs.values]


def box_json(box) -> dict:
    return {"lengths": list(box.lengths), "base": list(box.base)}


def avg_csv(report):
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
