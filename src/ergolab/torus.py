"""Floating-point backend for rotation systems on tori.

Rotation amounts are kept in an exact symbolic form (rational part plus a
rational combination of named irrational symbols, assumed rationally
independent) so resonance of integer character combinations is decided
exactly; only the lattice sums themselves are floating point, in a fixed
row-major order with compensated summation.
"""

from __future__ import annotations

import cmath
import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple

from .averages import FolnerBox
from .errors import UndecidableResonance, ValidationError
from .system import FiniteSystem

TWO_PI = 2.0 * math.pi


@dataclass(frozen=True)
class RotationEntry:
    """One coordinate of a rotation vector: rational + sum of coeff*symbol,
    or an inexact float (which forecloses exact resonance decisions)."""

    rational: Fraction = Fraction(0)
    symbols: Tuple[Tuple[str, Fraction], ...] = ()
    inexact: Optional[float] = None

    @staticmethod
    def exact(rational, symbols: Optional[Dict[str, Fraction]] = None) -> "RotationEntry":
        syms = tuple(
            sorted((k, Fraction(v)) for k, v in (symbols or {}).items() if v)
        )
        return RotationEntry(rational=Fraction(rational) % 1, symbols=syms)

    @staticmethod
    def from_float(value: float) -> "RotationEntry":
        return RotationEntry(inexact=value % 1.0)

    @property
    def is_exact(self) -> bool:
        return self.inexact is None

    def value(self, symbol_values: Dict[str, float]) -> float:
        if self.inexact is not None:
            return self.inexact
        v = float(self.rational)
        for name, coeff in self.symbols:
            try:
                v += float(coeff) * symbol_values[name]
            except KeyError as exc:
                raise ValidationError(f"no numeric value for symbol {name}") from exc
        return v % 1.0


@dataclass(frozen=True)
class TorusSystem:
    m: int
    r: int
    d: int
    # rotations[i-1][j-1] is an m-vector of entries: T_i along axis j
    rotations: Tuple[Tuple[Tuple[RotationEntry, ...], ...], ...]
    symbol_values: Tuple[Tuple[str, float], ...] = ()

    def __post_init__(self):
        if self.m < 1 or self.r < 1 or self.d < 1:
            raise ValidationError("m, r and d must all be positive")
        if len(self.rotations) != self.d or any(
            len(row) != self.r for row in self.rotations
        ):
            raise ValidationError("expected a d-by-r table of rotation vectors")
        for row in self.rotations:
            for vec in row:
                if len(vec) != self.m:
                    raise ValidationError("rotation vector has wrong dimension")

    @property
    def symbol_map(self) -> Dict[str, float]:
        return dict(self.symbol_values)

    def rotation(self, i: int, j: int) -> Tuple[RotationEntry, ...]:
        return self.rotations[i - 1][j - 1]

    def numeric_rotation(self, i: int, j: int) -> Tuple[float, ...]:
        sv = self.symbol_map
        return tuple(e.value(sv) for e in self.rotation(i, j))


@dataclass(frozen=True)
class TrigObservable:
    """Finite trig polynomial sum_k c_k exp(2 pi i k.t) on the m-torus."""

    terms: Tuple[Tuple[Tuple[int, ...], complex], ...]

    def __post_init__(self):
        freqs = [k for k, _ in self.terms]
        if len(set(freqs)) != len(freqs):
            raise ValidationError("duplicate frequencies in trig polynomial")

    @staticmethod
    def character(freq: Sequence[int], coeff: complex = 1.0) -> "TrigObservable":
        return TrigObservable(((tuple(freq), complex(coeff)),))

    def conjugate(self) -> "TrigObservable":
        return TrigObservable(
            tuple((tuple(-x for x in k), c.conjugate()) for k, c in self.terms)
        )

    def __call__(self, t: Sequence[float]) -> complex:
        total = 0j
        for k, c in self.terms:
            phase = sum(ki * ti for ki, ti in zip(k, t))
            total += c * cmath.exp(1j * TWO_PI * phase)
        return total

    @property
    def l2_norm(self) -> float:
        # Haar-orthonormality of the characters
        return math.sqrt(sum(abs(c) ** 2 for _, c in self.terms))

    @property
    def linf_bound(self) -> float:
        return sum(abs(c) for _, c in self.terms)


def _kahan_add(total: complex, comp: complex, term: complex):
    y = term - comp
    t = total + y
    comp = (t - total) - y
    return t, comp


def torus_truncated_average(
    sys: TorusSystem,
    fs: Sequence[TrigObservable],
    box: FolnerBox,
    samples: Sequence[Sequence[float]],
) -> List[complex]:
    """Direct lattice sum, row-major order, compensated summation."""
    if len(fs) != sys.d:
        raise ValidationError(f"need {sys.d} observables, got {len(fs)}")
    if len(box.lengths) != sys.r:
        raise ValidationError("box dimension differs from rank")
    # floats are exact binary rationals, so t + n * alpha mod 1 is computed
    # exactly, as integers over one power-of-two denominator, and only the
    # final division rounds; this keeps the error flat in the base point
    # instead of growing with |n|
    numeric = [
        [
            tuple(Fraction(v) for v in sys.numeric_rotation(i, j + 1))
            for j in range(sys.r)
        ]
        for i in range(1, sys.d + 1)
    ]
    starts = [tuple(Fraction(float(x)) for x in t) for t in samples]
    if any(len(t) != sys.m for t in starts):
        raise ValidationError("sample point has wrong dimension")
    fracs = [q for rows in numeric for vec in rows for q in vec]
    fracs += [q for t in starts for q in t]
    denom = math.lcm(1, *(q.denominator for q in fracs))

    def scaled(q: Fraction) -> int:
        return q.numerator * (denom // q.denominator)

    pts = list(box.points())
    # offsets[k][i][a]: coordinate a of n_k . alpha_i, scaled by denom
    offsets = [
        [
            tuple(
                sum(nj * scaled(rows[j][a]) for j, nj in enumerate(nvec))
                for a in range(sys.m)
            )
            for rows in numeric
        ]
        for nvec in pts
    ]
    out: List[complex] = []
    for t in starts:
        t_num = [scaled(q) for q in t]
        total, comp = 0j, 0j
        for off in offsets:
            prod = 1 + 0j
            for f, o in zip(fs, off):
                prod *= f([(s + x) % denom / denom for s, x in zip(t_num, o)])
            total, comp = _kahan_add(total, comp, prod)
        out.append(total / len(pts))
    return out


def _dot_entry(k: Sequence[int], vec: Sequence[RotationEntry]):
    """k . vec as (rational, symbol dict); None marks an inexact entry."""
    rational = Fraction(0)
    symbols: Dict[str, Fraction] = {}
    for ki, e in zip(k, vec):
        if ki == 0:
            continue
        if not e.is_exact:
            return None
        rational += ki * e.rational
        for name, coeff in e.symbols:
            symbols[name] = symbols.get(name, Fraction(0)) + ki * coeff
    return rational, {n: c for n, c in symbols.items() if c}


def character_limit(
    sys: TorusSystem,
    fs: Sequence[TrigObservable],
) -> TrigObservable:
    """Closed-form limit of the truncated averages.

    A product of character terms survives iff, along every axis, the total
    rotation frequency is an integer (no symbolic part, integral rational
    part); the surviving combination contributes its coefficient product at
    the summed frequency.
    """
    if len(fs) != sys.d:
        raise ValidationError(f"need {sys.d} observables, got {len(fs)}")
    acc: Dict[Tuple[int, ...], complex] = {}
    for combo in itertools.product(*(f.terms for f in fs)):
        resonant = True
        for j in range(1, sys.r + 1):
            rational = Fraction(0)
            symbols: Dict[str, Fraction] = {}
            for i, (k, _) in enumerate(combo, start=1):
                dot = _dot_entry(k, sys.rotation(i, j))
                if dot is None:
                    raise UndecidableResonance(
                        f"rotation of action {i}, axis {j} is inexact; cannot "
                        f"decide resonance for frequency {k}"
                    )
                rational += dot[0]
                for name, coeff in dot[1].items():
                    symbols[name] = symbols.get(name, Fraction(0)) + coeff
            symbols = {n: c for n, c in symbols.items() if c}
            if symbols or rational.denominator != 1:
                resonant = False
                break
        if not resonant:
            continue
        freq = tuple(
            sum(k[a] for k, _ in combo) for a in range(sys.m)
        )
        coeff = 1 + 0j
        for _, c in combo:
            coeff *= c
        acc[freq] = acc.get(freq, 0j) + coeff
    terms = tuple(
        (k, c) for k, c in sorted(acc.items()) if c != 0
    )
    return TrigObservable(terms)


def rational_rotation_to_finite(sys: TorusSystem):
    """Bridge: a system whose rotations are all rational lives on the grid
    (1/q)Z^m / Z^m and converts to a FiniteSystem with uniform weights.

    Returns (finite system, grid points as Fraction tuples in state order).
    """
    denoms = [1]
    for row in sys.rotations:
        for vec in row:
            for e in vec:
                if not e.is_exact or e.symbols:
                    raise ValidationError(
                        "only purely rational rotations convert to a finite system"
                    )
                denoms.append(e.rational.denominator)
    q = math.lcm(*denoms)
    grid = list(itertools.product(range(q), repeat=sys.m))
    index = {g: k for k, g in enumerate(grid)}
    n = len(grid)
    generators = []
    for i in range(1, sys.d + 1):
        row = []
        for j in range(1, sys.r + 1):
            step = tuple(int(e.rational * q) % q for e in sys.rotation(i, j))
            row.append(
                tuple(
                    index[tuple((g[a] + step[a]) % q for a in range(sys.m))]
                    for g in grid
                )
            )
        generators.append(tuple(row))
    finite = FiniteSystem(
        n=n,
        r=sys.r,
        d=sys.d,
        weights=(Fraction(1, n),) * n,
        generators=tuple(generators),
        labels=tuple(str(g) for g in grid),
    )
    points = [tuple(Fraction(a, q) for a in g) for g in grid]
    return finite, points
