"""Fixed reference work that measures how fast the machine is right now.

The benchmark runs this script as a subprocess between ergolab jobs and
divides each job's wall time by the reference's wall time next to it.  On
a shared machine the speed of a CPU drifts by tens of percent within a
minute, and the job and the reference, run back to back, see the same
drift, so their ratio is far steadier than either time.

The work imitates an ergolab job without using ergolab: interpreter start,
imports, exact rational arithmetic and tuple-keyed dictionaries.  Changing
it changes every number the benchmark reports, so it stays as it is.
"""

import json
from fractions import Fraction


def work() -> int:
    total = Fraction(0)
    for k in range(1, 12000):
        total += Fraction(k % 7 + 1, k % 5 + 2) * Fraction(k % 3 + 1, k % 11 + 1)
    counts = {}
    for k in range(60000):
        key = (k % 97, k % 89)
        counts[key] = counts.get(key, 0) + 1
    return len(json.dumps([str(total), len(counts)]))


if __name__ == "__main__":
    work()
