"""Finite measure-preserving Z^{rd} systems.

A system is a weighted finite state space together with r*d commuting
weight-preserving permutation generators, indexed by (action i, axis j)
with i in 1..d and j in 1..r.  All arithmetic is exact rational.  The
measure is checked once, in ints: FiniteSystem.int_weights, the weights
over their least common denominator, which every kernel reads.  State x
is named labels[x], str(x) by default, and no two states share a name.
The finite system section of a scenario is parsed here too.

A system's derived tables are built in full on first use and kept with it:
FiniteSystem.powers, each generator's powers up to its order (order * n
ints per generator, as a pass over the full period box holds anyway), off
which every T_i^n is read, and FiniteSystem.period_orbits, the full-period
orbit counts that the exact limit, the joining and the basis sweep contract.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from functools import cached_property
from typing import Dict, Iterable, Optional, Sequence, Tuple

from .errors import (
    MeasureNotPreserved,
    NonCommuting,
    NonProbabilityWeights,
    ValidationError,
)
from .scenario import FINITE_SYSTEM, FolnerBox, read_int, read_list, read_object
from .scenario import read_rational, read_str, read_table

Perm = Tuple[int, ...]


def over_common_denominator(
    values: Iterable[Fraction],
) -> Tuple[Tuple[int, ...], int]:
    """(w, D): integers w with values[k] == w[k] / D, for the least D."""
    values = tuple(values)
    denom = math.lcm(*(v.denominator for v in values))
    return tuple(v.numerator * (denom // v.denominator) for v in values), denom


def identity_perm(n: int) -> Perm:
    return tuple(range(n))


def compose(p: Perm, q: Perm) -> Perm:
    """(p o q)(x) = p[q[x]]."""
    return tuple(p[q[x]] for x in range(len(q)))


def invert(p: Perm) -> Perm:
    out = [0] * len(p)
    for x, y in enumerate(p):
        out[y] = x
    return tuple(out)


def _powers_of(g: Perm) -> Tuple[Perm, ...]:
    """g^0, g^1, ... up to the first power that is the identity again."""
    out = [identity_perm(len(g))]
    while (p := compose(g, out[-1])) != out[0]:
        out.append(p)
    return tuple(out)


class FiniteSystem:
    """n weighted states with the d-by-r table of commuting,
    weight-preserving permutations generators[i-1][j-1] (action i, axis j);
    every invariant is checked on construction.  Immutable, so the derived
    structure cached below stays valid; equal only to itself."""

    def __init__(
        self,
        n: int,
        r: int,
        d: int,
        weights: Tuple[Fraction, ...],
        generators: Tuple[Tuple[Perm, ...], ...],
        labels: Optional[Tuple[str, ...]] = None,
    ):
        # the shape first: a huge n with a short list builds no n labels
        if n < 1 or r < 1 or d < 1:
            raise ValidationError("n, r and d must all be positive")
        if len(weights) != n:
            raise ValidationError("weights length must equal state count")
        if len(generators) != d or any(len(row) != r for row in generators):
            raise ValidationError("expected a d-by-r table of generators")
        if labels is None:
            labels = tuple(map(str, range(n)))
        elif len(labels) != n:
            raise ValidationError("labels length must equal state count")
        self.__dict__.update(
            n=n, r=r, d=d, weights=weights, generators=generators, labels=labels
        )
        first = {}
        for x, name in enumerate(self.labels):
            if first.setdefault(name, x) != x:
                raise ValidationError(f"label {name!r} names two states")
        w, denom = over_common_denominator(self.weights)
        self.__dict__["int_weights"] = (w, denom)
        if any(v < 0 for v in w):
            raise NonProbabilityWeights("weights must be nonnegative")
        if sum(w) != denom:
            raise NonProbabilityWeights("weights must sum to exactly 1")
        flat = []
        for i, row in enumerate(self.generators, start=1):
            for j, p in enumerate(row, start=1):
                if len(p) != self.n or sorted(p) != list(range(self.n)):
                    raise ValidationError(
                        f"generator (action={i}, axis={j}) is not a "
                        f"permutation of 0..{self.n - 1}"
                    )
                for x in range(self.n):
                    if w[p[x]] != w[x]:
                        raise MeasureNotPreserved(i, j, x)
                flat.append(((i, j), p))
        for (ka, pa), (kb, pb) in itertools.combinations(flat, 2):
            ab = compose(pa, pb)
            ba = compose(pb, pa)
            if ab != ba:
                witness = next(x for x in range(self.n) if ab[x] != ba[x])
                raise NonCommuting(ka, kb, witness)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign {name!r}: a FiniteSystem is immutable")

    # -- derived structure ------------------------------------------------

    @cached_property
    def powers(self) -> Tuple[Tuple[Tuple[Perm, ...], ...], ...]:
        """powers[i-1][j-1][e] is generator (i, j) to the power e, for e from
        0 up to, not including, its order."""
        return tuple(tuple(_powers_of(p) for p in row) for row in self.generators)

    @cached_property
    def orders(self) -> Tuple[Tuple[int, ...], ...]:
        return tuple(tuple(map(len, row)) for row in self.powers)

    @cached_property
    def period_orbits(self) -> Dict[Tuple[int, ...], int]:
        """How often each orbit tuple (x, T_1^n x, ..., T_d^n x) occurs as n
        runs over one full period box, for every state x, null ones too;
        read only."""
        from .averages import orbit_counts, residues

        return orbit_counts(self, residues(self, period_box(self)))

    @cached_property
    def support(self) -> Tuple[int, ...]:
        return tuple(x for x, v in enumerate(self.int_weights[0]) if v > 0)

    def action_perm(self, i: int, nvec: Sequence[int]) -> Perm:
        """Permutation realising T_i^nvec."""
        p = identity_perm(self.n)
        for pw, e in zip(self.powers[i - 1], nvec):
            e %= len(pw)
            if e:
                p = compose(pw[e], p)
        return p


def period_box(sys: FiniteSystem) -> FolnerBox:
    """The box at base 0 whose edges are the axis-wise lcm of the generator
    orders over all d actions: the orbit map repeats after it."""
    return FolnerBox(tuple(math.lcm(*col) for col in zip(*sys.orders)))


# -- the finite branch of scenario.parse_scenario ---------------------------

def _parse_finite_system(raw) -> FiniteSystem:
    raw = read_object(raw, "system", FINITE_SYSTEM)
    r, d = read_int(raw["r"], "r"), read_int(raw["d"], "d")
    generators = read_table(
        raw["generators"], d, r, "perm",
        lambda p: read_list(p, "generator perm", read_int), "generator",
    )
    labels = raw["labels"]
    labels = None if labels is None else read_list(labels, "labels", read_str)
    # extend names each stage's states "(l_1,...,l_d)", which read back to
    # states only if no label holds a bracket or a comma
    for label in labels or ():
        if any(c in label for c in "(),"):
            raise ValidationError(f'label {label!r} contains "(", ")" or ","')
    return FiniteSystem(
        n=read_int(raw["n"], "n"),
        r=r,
        d=d,
        weights=read_list(raw["weights"], "weights", read_rational),
        generators=generators,
        labels=labels,
    )
