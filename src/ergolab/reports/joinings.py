"""The ``joining`` and ``hk`` reports: the Furstenberg joining and the
Host-Kra tower, each measure written out exactly."""

from fractions import Fraction

from ..joinings import (
    diagonal_action_name,
    furstenberg_joining,
    host_kra_structural_check,
    host_kra_tower,
)
from ..observables import frac_str
from ..system import base_shift_free


class MeasureRows:
    """A joined measure's report rows, ``[{"mass": "p/q", "state": [...]},
    ...]`` with each mass weight / denom in lowest terms, in support order.
    The report writer hands it to ``json_text``, which writes the list as
    ``json.dumps(rows, indent=2, sort_keys=True)`` would at that indent,
    without building a dict per row."""

    __slots__ = ("jm",)

    def __init__(self, jm):
        self.jm = jm

    def json_text(self, indent: str) -> str:
        """The rows' JSON text, the list's own line break and indent given
        as indent: one row template, one mass string per distinct weight
        and one string per state index."""
        jm = self.jm
        row, entry, coord = indent + "  ", indent + "    ", indent + "      "
        head = "," + row + "{" + entry + '"mass": "'
        mid = '",' + entry + '"state": [' + coord
        tail = entry + "]" + row + "}"
        d = jm.denom
        prefix = {w: head + frac_str(Fraction(w, d)) + mid for w in set(jm.support_weights)}
        names = [str(x) for x in range(jm.base.n)]
        sep = "," + coord
        text = "".join([
            prefix[w] + sep.join(map(names.__getitem__, t)) + tail
            for t, w in zip(jm.support, jm.support_weights)
        ])
        return "[" + text[1:] + indent + "]"


def measure_json(jm) -> MeasureRows:
    """Each support tuple with its mass, as report rows."""
    return MeasureRows(jm)


def invariance_json(jm) -> dict:
    return {name: jm.is_invariant(name) for name in sorted(jm.actions)}


def joining(scn):
    jm = furstenberg_joining(scn.system)
    return {
        "power": jm.power,
        "support_size": len(jm.support),
        "marginals_equal_mu": jm.marginals_equal_base(),
        "invariant_under": invariance_json(jm),
        "diagonal_action": diagonal_action_name(jm),
        "base_shift_trials": scn.trial_count,
        "base_shift_independent": base_shift_free(scn),
        "measure": measure_json(jm),
    }


def hk(scn):
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
