"""Time the torus kernels on a ladder of term combinations, ranks and base
points, so that two checkouts can be compared.

    python3 tools/torus_ladder.py [CHECKOUT] [--repeat K]

Each rung is a rotation system on the 2-torus shaped like the benchmark's
``gen-torus`` family: action i moves the first coordinate along axis j by a
rational plus i*(j+1) alpha and the second by a rational plus i*(j+2) beta,
alpha and beta independent irrationals, so some combinations resonate and
others do not.  Its d observables have t terms each, for t**d = 1, 9, 27
and 81 term combinations (d = 2 with t = 1, 3, 9; d = 3 with t = 3), at
rank r = 1, 2 and 3, on boxes of length 10**6 along every axis.

Per rung it prints, as one JSON object, the least time over K repetitions
of ``character_limit``, of ``torus_deviation_bound`` for the box, of
``phase_table`` (the box-free part of an average: one sample phase per
combination and sample) and of a sweep of ``torus_truncated_average`` over
1, 5 and 21 seeded base points at 5 samples, one call per base with the
rung's one table, as ``torus-demo`` makes them for a tuple.  Next to each
time are its exact work counts: the term combinations, the Dirichlet
factors (one per combination, axis and call) and the sample phases the
sweep computes (none past the table's; in a checkout without
``phase_table``, each call computes its own, one per combination, sample
and call).  The system is built once per rung, so a checkout that derives
data once per system pays for it in the first repetition only.

The program is the ``ergolab`` package under ``src/`` of CHECKOUT, by
default the checkout this file sits in.  Run each checkout in its own
interpreter, one after the other, on an otherwise idle machine.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
import time
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parents[1]
# (term combinations, d, terms per observable)
COMBOS = ((1, 2, 1), (9, 2, 3), (27, 3, 3), (81, 2, 9))
RANKS = (1, 2, 3)
BASES = (1, 5, 21)
SAMPLES = 5
LENGTH = 10 ** 6
SEED = 14


def rung_system(rng: random.Random, r: int, d: int, terms: int):
    from ergolab.torus import RotationEntry, TorusSystem, TrigObservable

    rotations = tuple(
        tuple(
            tuple(
                RotationEntry.exact(
                    Fraction(rng.randint(0, 5), 6), {name: Fraction(i * (j + a))}
                )
                for a, name in ((1, "alpha"), (2, "beta"))
            )
            for j in range(1, r + 1)
        )
        for i in range(1, d + 1)
    )
    sys_ = TorusSystem(
        m=2, r=r, d=d, rotations=rotations,
        symbol_values=(("alpha", 0.6180339887498949), ("beta", 0.41421356237309503)),
    )
    fs = []
    for _ in range(d):
        freqs = set()
        while len(freqs) < terms:
            freqs.add((rng.randint(-3, 3), rng.randint(-3, 3)))
        fs.append(TrigObservable(tuple(
            (k, complex(rng.uniform(-1, 1), rng.uniform(-1, 1))) for k in sorted(freqs)
        )))
    return sys_, fs


def _best(fn, repeats: int) -> float:
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return round(best, 6)


def rung(combos: int, d: int, terms: int, r: int, repeats: int) -> dict:
    from ergolab import torus
    from ergolab.averages import FolnerBox
    from ergolab.torus import (
        character_limit,
        torus_deviation_bound,
        torus_truncated_average,
    )

    phase_table = getattr(torus, "phase_table", None)

    rng = random.Random(f"{SEED}:{combos}:{r}")
    sys_, fs = rung_system(rng, r, d, terms)
    lengths = (LENGTH,) * r
    samples = [(rng.random(), rng.random()) for _ in range(SAMPLES)]
    bases = [tuple(rng.randint(-10 ** 9, 10 ** 9) for _ in range(r)) for _ in range(max(BASES))]
    out = {
        "combos": combos, "d": d, "terms_per_observable": terms, "r": r,
        "character_limit_min_s": _best(lambda: character_limit(sys_, fs), repeats),
        "torus_deviation_bound_min_s": _best(
            lambda: torus_deviation_bound(sys_, fs, lengths), repeats
        ),
        "torus_truncated_average": {},
    }
    given = {}
    if phase_table is not None:
        out["phase_table"] = {
            "min_s": _best(lambda: phase_table(sys_, fs, samples), repeats),
            "sample_phases": combos * SAMPLES,
        }
        given = {"table": phase_table(sys_, fs, samples)}
    for count in BASES:
        boxes = [FolnerBox(lengths, base) for base in bases[:count]]

        def sweep():
            for box in boxes:
                torus_truncated_average(sys_, fs, box, samples, **given)

        out["torus_truncated_average"][str(count)] = {
            "min_s": _best(sweep, repeats),
            "calls": count,
            "dirichlet_evaluations": combos * r * count,
            "sample_phases": 0 if given else combos * SAMPLES * count,
        }
    return out


def main(argv) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("checkout", nargs="?", default=str(HERE))
    ap.add_argument("--repeat", type=int, default=5, help="repetitions per rung")
    args = ap.parse_args(argv)
    sys.path.insert(0, str(Path(args.checkout).resolve() / "src"))
    report = {
        "python": sys.version.split()[0],
        "repeats": args.repeat,
        "samples": SAMPLES,
        "box_length": LENGTH,
        "rungs": [
            rung(combos, d, terms, r, args.repeat)
            for combos, d, terms in COMBOS
            for r in RANKS
        ],
    }
    print(json.dumps(report, indent=2))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
