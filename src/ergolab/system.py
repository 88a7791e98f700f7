"""Finite measure-preserving Z^{rd} systems.

A system is a weighted finite state space together with r*d commuting
weight-preserving permutation generators, indexed by (action i, axis j)
with i in 1..d and j in 1..r.  All arithmetic is exact rational.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from functools import cached_property
from typing import Iterable, Optional, Sequence, Tuple

from .errors import (
    MeasureNotPreserved,
    NonCommuting,
    NonProbabilityWeights,
    ValidationError,
)
from .observables import ONE, ZERO
from .scenario import FolnerBox

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


def cycles(p: Perm):
    seen = [False] * len(p)
    out = []
    for x in range(len(p)):
        if seen[x]:
            continue
        cyc = [x]
        seen[x] = True
        y = p[x]
        while y != x:
            cyc.append(y)
            seen[y] = True
            y = p[y]
        out.append(tuple(cyc))
    return out


def perm_order(p: Perm) -> int:
    # cycle decomposition rather than repeated composition: O(n)
    return math.lcm(*(len(c) for c in cycles(p))) if p else 1


def perm_power(p: Perm, e: int) -> Perm:
    """p**e for any integer e, via cycle rotation."""
    n = len(p)
    out = [0] * n
    for cyc in cycles(p):
        k = len(cyc)
        s = e % k
        for t, x in enumerate(cyc):
            out[x] = cyc[(t + s) % k]
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
        self.__dict__.update(
            n=n, r=r, d=d, weights=weights, generators=generators, labels=labels
        )
        if self.n < 1 or self.r < 1 or self.d < 1:
            raise ValidationError("n, r and d must all be positive")
        if len(self.weights) != self.n:
            raise ValidationError("weights length must equal state count")
        if len(self.generators) != self.d or any(
            len(row) != self.r for row in self.generators
        ):
            raise ValidationError("expected a d-by-r table of generators")
        if self.labels is not None and len(self.labels) != self.n:
            raise ValidationError("labels length must equal state count")
        if any(w < 0 for w in self.weights):
            raise NonProbabilityWeights("weights must be nonnegative")
        if sum(self.weights, ZERO) != ONE:
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
                    if self.weights[p[x]] != self.weights[x]:
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

    def generator(self, i: int, j: int) -> Perm:
        return self.generators[i - 1][j - 1]

    @cached_property
    def orders(self) -> Tuple[Tuple[int, ...], ...]:
        return tuple(tuple(perm_order(p) for p in row) for row in self.generators)

    @cached_property
    def support(self) -> Tuple[int, ...]:
        return tuple(x for x in range(self.n) if self.weights[x] > 0)

    @cached_property
    def int_weights(self) -> Tuple[Tuple[int, ...], int]:
        """(w, D): the weights as w[x] / D over their least common denominator."""
        return over_common_denominator(self.weights)

    @cached_property
    def _power_cache(self) -> dict:
        return {}

    def generator_power(self, i: int, j: int, e: int) -> Perm:
        order = self.orders[i - 1][j - 1]
        key = (i, j, e % order)
        cache = self._power_cache
        if key not in cache:
            cache[key] = perm_power(self.generator(i, j), e)
        return cache[key]

    def action_perm(self, i: int, nvec: Sequence[int]) -> Perm:
        """Permutation realising T_i^nvec."""
        p = identity_perm(self.n)
        for j, e in enumerate(nvec, start=1):
            if e:
                p = compose(self.generator_power(i, j, e), p)
        return p

    def label(self, x: int) -> str:
        return self.labels[x] if self.labels is not None else str(x)


def period_box(sys: FiniteSystem) -> FolnerBox:
    """The box at base 0 whose edges are the axis-wise lcm of the generator
    orders over all d actions: the orbit map repeats after it."""
    return FolnerBox(tuple(math.lcm(*col) for col in zip(*sys.orders)))
