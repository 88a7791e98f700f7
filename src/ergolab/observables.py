"""State-indexed exact observables and their exact norms.

L^2 norms of rational vectors are square roots of rationals, so a norm is
carried around as its square, the Fraction l2_square returns, and every
comparison happens on the squares.  Nothing here ever rounds.
"""

from __future__ import annotations

from decimal import Decimal
from fractions import Fraction
from typing import NamedTuple, Tuple

from .errors import DimensionMismatch

ZERO = Fraction(0)
ONE = Fraction(1)


def _frac(v) -> Fraction:
    return v if isinstance(v, Fraction) else Fraction(v)


class Observable(NamedTuple):
    """Exact rational function on the states of a finite system."""

    values: Tuple[Fraction, ...]

    @staticmethod
    def constant(n: int, c) -> "Observable":
        return Observable((_frac(c),) * n)

    @staticmethod
    def indicator(n: int, states) -> "Observable":
        members = {states} if isinstance(states, int) else set(states)
        return Observable(tuple(ONE if x in members else ZERO for x in range(n)))

    def __len__(self) -> int:
        return len(self.values)

    def __add__(self, other: "Observable") -> "Observable":
        self._check(other)
        return Observable(tuple(a + b for a, b in zip(self.values, other.values)))

    def __sub__(self, other: "Observable") -> "Observable":
        self._check(other)
        return Observable(tuple(a - b for a, b in zip(self.values, other.values)))

    def __mul__(self, other) -> "Observable":
        if isinstance(other, Observable):
            self._check(other)
            return Observable(
                tuple(a * b for a, b in zip(self.values, other.values))
            )
        c = _frac(other)
        return Observable(tuple(a * c for a in self.values))

    __rmul__ = __mul__

    def _check(self, other: "Observable"):
        if len(other.values) != len(self.values):
            raise DimensionMismatch(
                f"observable lengths differ: {len(self.values)} vs "
                f"{len(other.values)}"
            )

    def compose_perm(self, perm) -> "Observable":
        """f o sigma, i.e. x -> f(sigma(x))."""
        return Observable(tuple(self.values[perm[x]] for x in range(len(perm))))


def linf_norm(f: Observable) -> Fraction:
    return max((abs(v) for v in f.values), default=ZERO)


def l2_square(f: Observable, weights: Tuple[Fraction, ...]) -> Fraction:
    if len(weights) != len(f.values):
        raise DimensionMismatch("weights and observable lengths differ")
    return sum((v * v * w for v, w in zip(f.values, weights)), ZERO)


# how a report writes an exact value, every digit: Decimal's str, unlike
# int's, writes past 4300 digits
def frac_str(q: Fraction) -> str:
    q = Fraction(q)
    num, den = Decimal(q.numerator), Decimal(q.denominator)
    return str(num) if den == 1 else f"{num}/{den}"


def norm_json(square: Fraction) -> dict:
    return {"square": frac_str(square)}
