"""Time the Host-Kra report's three computations on a ladder of cyclic
systems, so that two checkouts can be compared.

    python3 tools/hk_ladder.py [CHECKOUT] [--repeat K]

For Z/n with uniform weights and actions rotating by the given steps
(d = 2: n = 31 and 61, steps 1, 2; d = 3: n = 11, steps 1, 2, 3), each
repetition builds the tower with ``host_kra_tower``, then runs
``marginals_equal_base`` on every stage, then ``is_invariant`` for every
action of every stage, as ``ergolab hk`` does.  It prints one JSON object:
per system the least time of each phase over the repetitions (seconds,
summed over the stages), the top stage's support size and the verdicts.

The program is the ``ergolab`` package under ``src/`` of CHECKOUT, by
default the checkout this file sits in.  Run each checkout in its own
interpreter, one after the other, on an otherwise idle machine.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parents[1]
# (n, steps, repetitions)
LADDER = (
    (31, (1, 2), 5),
    (61, (1, 2), 3),
    (11, (1, 2, 3), 5),
)


def cyclic(n: int, steps):
    from ergolab.system import FiniteSystem

    gens = tuple((tuple((x + s) % n for x in range(n)),) for s in steps)
    return FiniteSystem(n=n, r=1, d=len(steps), weights=(Fraction(1, n),) * n,
                        generators=gens)


def rung(sys_, repeats: int) -> dict:
    from ergolab.joinings import host_kra_tower

    best = {"tower_min_s": [], "marginals_min_s": [], "invariance_min_s": []}
    for _ in range(repeats):
        t0 = time.perf_counter()
        tower = host_kra_tower(sys_)
        t1 = time.perf_counter()
        marginals = [jm.marginals_equal_base() for jm in tower]
        t2 = time.perf_counter()
        invariant = [jm.is_invariant(a) for jm in tower for a in sorted(jm.actions)]
        t3 = time.perf_counter()
        for key, dt in zip(best, (t1 - t0, t2 - t1, t3 - t2)):
            best[key].append(dt)
    out = {key: round(min(times), 5) for key, times in best.items()}
    out.update(
        repeats=repeats,
        top_support=len(tower[-1].support),
        marginals_equal_mu=all(marginals),
        invariant=all(invariant),
    )
    return out


def main(argv) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("checkout", nargs="?", default=str(HERE))
    ap.add_argument("--repeat", type=int, default=None,
                    help="repetitions per system (default: 5, 3 for n = 61)")
    args = ap.parse_args(argv)
    sys.path.insert(0, str(Path(args.checkout).resolve() / "src"))
    report = {}
    for n, steps, repeats in LADDER:
        label = f"cyclic n={n} steps={steps}"
        report[label] = rung(cyclic(n, steps), args.repeat or repeats)
    print(json.dumps(report, indent=2))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
