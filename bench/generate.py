"""Seeded scenario generator for the benchmark workloads.

Every family is a fixed system shape (state count, rank, number of actions,
box sizes) whose states are relabelled by a seeded random permutation and
whose observables and weights are drawn from the seed.  The shape fixes the
amount of work, so runs on different seeds cost the same; the seed changes
only the labels and the rational values, so the program never sees the same
file twice across seeds.

The program receives only the files written here: ``write_scenarios`` puts
one JSON file per family into a directory and returns their paths.
"""

from __future__ import annotations

import json
import random
from fractions import Fraction
from pathlib import Path
from typing import Dict, List, Sequence, Tuple

Perm = Tuple[int, ...]


def _relabel(perm: Perm, sigma: Perm) -> Perm:
    """sigma o perm o sigma^-1: the same map with state x renamed sigma[x]."""
    out = [0] * len(perm)
    for x, y in enumerate(perm):
        out[sigma[x]] = sigma[y]
    return tuple(out)


def _rational(rng: random.Random, span: int = 3, max_denom: int = 6) -> str:
    q = Fraction(rng.randint(-span, span), rng.randint(1, max_denom))
    return str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"


def _finite(
    rng: random.Random,
    name: str,
    table: Dict[Tuple[int, int], Perm],
    weights: Sequence[Fraction],
    d: int,
    r: int,
    boxes: Sequence[Tuple[Sequence[int], Sequence[int]]],
    budget: int,
    trials: int = 20,
) -> dict:
    """A finite scenario: the given generators and weights relabelled by a
    seeded permutation, one indicator-sparse and one dense observable tuple."""
    n = len(weights)
    sigma = list(range(n))
    rng.shuffle(sigma)
    sigma = tuple(sigma)
    new_weights = [Fraction(0)] * n
    for x, w in enumerate(weights):
        new_weights[sigma[x]] = w
    generators = [
        {"action": i, "axis": j, "perm": list(_relabel(p, sigma))}
        for (i, j), p in sorted(table.items())
    ]
    hot = rng.randrange(n)
    observables = {
        # e_hot - mu(hot) has mean zero, so its limits are not all equal
        "h": [str(int(x == hot) - new_weights[hot]) for x in range(n)],
    }
    for k in range(1, d + 1):
        state = rng.randrange(n)
        observables[f"e{k}"] = [str(int(x == state)) for x in range(n)]
        observables[f"g{k}"] = [_rational(rng) for _ in range(n)]
    return {
        "name": name,
        "engine": "finite",
        "system": {
            "n": n,
            "r": r,
            "d": d,
            "weights": [str(w) for w in new_weights],
            "generators": generators,
        },
        "observables": observables,
        "average_tuples": [
            ["h"] + [f"e{k}" for k in range(2, d + 1)],
            [f"g{k}" for k in range(1, d + 1)],
        ],
        "boxes": [
            {"lengths": list(lengths), "base": list(base)} for lengths, base in boxes
        ],
        "base_point_trials": {"count": trials, "seed": rng.randrange(10 ** 6)},
        "options": {"budget": budget, "max_m": 1},
    }


def _shift(n: int, step: int) -> Perm:
    return tuple((x + step) % n for x in range(n))


def _base(rng: random.Random, r: int) -> List[int]:
    return [rng.randint(-50, 50) for _ in range(r)]


def cyclic(rng: random.Random, name: str, n: int, steps: Sequence[int],
           lengths: Sequence[int], budget: int) -> dict:
    """Z/n with uniform weights, action i rotating by steps[i-1]."""
    table = {(i, 1): _shift(n, s) for i, s in enumerate(steps, start=1)}
    boxes = [((N,), _base(rng, 1)) for N in lengths]
    return _finite(rng, name, table, [Fraction(1, n)] * n, len(steps), 1,
                   boxes, budget)


def product(rng: random.Random, name: str, a: int, b: int,
            lengths: Sequence[Tuple[int, int]], budget: int) -> dict:
    """Z/a x Z/b with uniform weights and rank 2: both actions shift the
    first factor by one along axis 1; along axis 2 action 1 shifts the
    second factor by one and action 2 by two."""
    n = a * b

    def move(da: int, db: int) -> Perm:
        return tuple(((x // b + da) % a) * b + (x % b + db) % b for x in range(n))

    table = {
        (1, 1): move(1, 0), (1, 2): move(0, 1),
        (2, 1): move(1, 0), (2, 2): move(0, 2),
    }
    boxes = [(L, _base(rng, 2)) for L in lengths]
    return _finite(rng, name, table, [Fraction(1, n)] * n, 2, 2, boxes, budget)


def two_cycles(rng: random.Random, name: str, a: int, b: int,
               lengths: Sequence[int], budget: int) -> dict:
    """Disjoint cycles of lengths a and b with weights constant on each cycle
    but different between them.  Action 1 rotates both cycles by one and
    action 2 is the identity, so the system is pleasant: the isotropy factor
    of action 1 already carries every limit."""
    n = a + b
    heavy = Fraction(rng.randint(2, 4), 5)  # share of the mass on cycle a
    weights = [heavy / a] * a + [(1 - heavy) / b] * b
    rot = tuple([(x + 1) % a for x in range(a)] + [a + (x - a + 1) % b for x in range(a, n)])
    table = {(1, 1): rot, (2, 1): tuple(range(n))}
    boxes = [((N,), _base(rng, 1)) for N in lengths]
    return _finite(rng, name, table, weights, 2, 1, boxes, budget)


def _trig(rng: random.Random, m: int, terms: int) -> list:
    freqs = set()
    while len(freqs) < terms:
        freqs.add(tuple(rng.randint(-3, 3) for _ in range(m)))
    return [
        {"freq": list(f), "coeff": [round(rng.uniform(-1, 1), 3), round(rng.uniform(-1, 1), 3)]}
        for f in sorted(freqs)
    ]


def torus(rng: random.Random, name: str, r: int, lengths: Sequence[Sequence[int]],
          samples: int, trials: int, terms: int) -> dict:
    """A rotation system on the 2-torus with d=2: along each lattice axis,
    action i moves the first torus coordinate by a rational plus an integer
    multiple of alpha and the second by one plus a multiple of beta, with
    alpha and beta independent irrationals, so some term combinations
    resonate and others do not."""
    m, d = 2, 2
    rotations = []
    for i in range(1, d + 1):
        for j in range(1, r + 1):
            vector = [
                {"rational": f"{rng.randint(0, 5)}/6",
                 "symbols": {"alpha" if a == 0 else "beta": str(i * (j + a))}}
                for a in range(m)
            ]
            rotations.append({"action": i, "axis": j, "vector": vector})
    return {
        "name": name,
        "engine": "torus",
        "system": {
            "m": m, "r": r, "d": d,
            "rotations": rotations,
            "symbol_values": {"alpha": 0.6180339887498949, "beta": 0.41421356237309503},
        },
        "observables": {"f1": _trig(rng, m, terms), "f2": _trig(rng, m, terms)},
        "average_tuples": [["f1", "f2"]],
        "boxes": [{"lengths": list(L), "base": _base(rng, r)} for L in lengths],
        "base_point_trials": {"count": trials, "seed": rng.randrange(10 ** 6)},
        "samples": [[round(rng.random(), 6) for _ in range(m)] for _ in range(samples)],
        "options": {},
    }


# family name -> function that makes its scenario from a seeded rng
FAMILIES = {
    "gen-cyclic23": lambda rng: cyclic(rng, "gen-cyclic23", 23, (1, 2), (40, 250, 1000), 10 ** 4),
    "gen-cyclic9-d3": lambda rng: cyclic(rng, "gen-cyclic9-d3", 9, (1, 2, 3), (30, 200), 10 ** 4),
    "gen-product3x7": lambda rng: product(rng, "gen-product3x7", 3, 7, ((10, 12), (24, 40)), 10 ** 4),
    "gen-two-cycles": lambda rng: two_cycles(rng, "gen-two-cycles", 8, 12, (50, 500), 10 ** 4),
    "gen-cyclic17": lambda rng: cyclic(rng, "gen-cyclic17", 17, (1, 2), (20, 100), 10 ** 3),
    "gen-torus-r1": lambda rng: torus(rng, "gen-torus-r1", 1, ((64,), (1000,)), 5, 3, 3),
    "gen-torus-r2": lambda rng: torus(rng, "gen-torus-r2", 2, ((8, 8), (32, 32)), 5, 3, 3),
}


def scenario_text(family: str, seed: int) -> str:
    """The JSON text of one family's scenario for a seed.  Each family draws
    from its own stream, so adding a family changes no other file."""
    rng = random.Random(f"{family}:{seed}")
    return json.dumps(FAMILIES[family](rng), indent=2, sort_keys=True) + "\n"


def write_scenarios(families: Sequence[str], seed: int, outdir: Path) -> Dict[str, Path]:
    """Write the named families' scenario files for a seed into outdir."""
    outdir.mkdir(parents=True, exist_ok=True)
    paths = {}
    for family in families:
        path = outdir / f"{family}.json"
        path.write_bytes(scenario_text(family, seed).encode("utf-8"))
        paths[family] = path
    return paths
