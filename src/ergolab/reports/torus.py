"""The ``torus-demo`` report: the convergence table of a torus scenario."""

import random

from ..scenario import FolnerBox, random_base
from ..torus import character_limit, phase_table, torus_deviation_bound
from ..torus import torus_truncated_average


def torus_csv(report):
    return ["tuple,N,base,sample,abs_error,bound"] + [
        ",".join(row.values()) for row in report["rows"]
    ]


def torus_demo(scn):
    sys_ = scn.system
    # one generator for every tuple and box, drawn in the order of the rows
    rng = random.Random(scn.trial_seed)
    rows = []
    for names in scn.average_tuples:
        fs = [scn.observables[n] for n in names]
        lim = character_limit(sys_, fs)
        limits = [lim(t) for t in scn.samples]
        # the box-free part of every average of this tuple, built once
        table = phase_table(sys_, fs, scn.samples)
        for box in scn.boxes:
            bound = torus_deviation_bound(sys_, fs, box.lengths)
            bases = [box.base]
            bases += [random_base(rng, sys_.r, 1000) for _ in range(scn.trial_count)]
            for base in bases:
                shifted = FolnerBox(box.lengths, base)
                avgs = torus_truncated_average(sys_, fs, shifted, scn.samples, table=table)
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
