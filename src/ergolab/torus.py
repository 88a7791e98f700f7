"""Floating-point backend for rotation systems on tori.

Rotation amounts are kept in an exact symbolic form (rational part plus a
rational combination of named irrational symbols, assumed rationally
independent) so resonance of integer character combinations is decided
exactly.  Box averages are evaluated in closed form: every combination of
one character term per observable contributes a product of per-axis
Dirichlet kernels.  Every phase is an int numerator over one denominator,
from the numeric rotations taken as exact rationals (a float symbol value
or rotation entry at its binary value) and made ints once per system, and
is reduced exactly before anything is rounded to float.  Box lengths past
float range and rotations below it are evaluated through the kernel's
limits, from the exact values, rather than rounded to inf or 0.

The torus scenario parsers live here too, so that a finite scenario loads
none of this module; they read their fields with scenario's public
readers, so importing this module loads scenario.
"""

from __future__ import annotations

import cmath
import itertools
import math
from collections import namedtuple
from fractions import Fraction
from functools import cached_property
from operator import mul
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

from .errors import UndecidableResonance, ValidationError
from .scenario import FolnerBox, read_finite_float, read_int, read_table

TWO_PI = 2.0 * math.pi


class RotationEntry(NamedTuple):
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

    def value(self, symbol_values: Dict[str, float]) -> Fraction:
        """The entry mod 1, exact in the binary values of the floats it
        involves: an inexact entry or the symbol values."""
        if self.inexact is not None:
            return Fraction(self.inexact)
        v = self.rational
        for name, coeff in self.symbols:
            try:
                v += coeff * Fraction(symbol_values[name])
            except KeyError as exc:
                raise ValidationError(f"no numeric value for symbol {name}") from exc
        return v % 1


class TorusSystem(namedtuple("TorusSystem", "m r d rotations symbol_values")):
    """d commuting Z^r-actions by rotations of the m-torus:
    rotations[i-1][j-1] is the m-vector of entries of T_i along axis j.
    Immutable, so the integer forms cached below stay valid."""

    def __new__(
        cls,
        m: int,
        r: int,
        d: int,
        rotations: Tuple[Tuple[Tuple[RotationEntry, ...], ...], ...],
        symbol_values: Tuple[Tuple[str, float], ...] = (),
    ):
        if m < 1 or r < 1 or d < 1:
            raise ValidationError("m, r and d must all be positive")
        if len(rotations) != d or any(len(row) != r for row in rotations):
            raise ValidationError("expected a d-by-r table of rotation vectors")
        for row in rotations:
            for vec in row:
                if len(vec) != m:
                    raise ValidationError("rotation vector has wrong dimension")
        return super().__new__(cls, m, r, d, rotations, symbol_values)

    @property
    def symbol_map(self) -> Dict[str, float]:
        return dict(self.symbol_values)

    def rotation(self, i: int, j: int) -> Tuple[RotationEntry, ...]:
        return self.rotations[i - 1][j - 1]

    def numeric_rotation(self, i: int, j: int) -> Tuple[Fraction, ...]:
        sv = self.symbol_map
        return tuple(e.value(sv) for e in self.rotation(i, j))

    @cached_property
    def int_rotations(self) -> Tuple[Tuple[Tuple[Tuple[int, ...], ...], ...], int]:
        """(a, D): every numeric rotation as ints over their least common
        denominator D, a[i-1][j-1][x] / D == numeric_rotation(i, j)[x]."""
        values = [
            [self.numeric_rotation(i, j) for j in range(1, self.r + 1)]
            for i in range(1, self.d + 1)
        ]
        den = math.lcm(*(v.denominator for row in values for vec in row for v in vec))
        return tuple(
            tuple(tuple(v.numerator * (den // v.denominator) for v in vec) for vec in row)
            for row in values
        ), den

    @cached_property
    def int_resonance(self) -> Tuple[tuple, int]:
        """(table, D): table[i-1][j-1][x] is None for an inexact entry, else
        (its rational part's numerator over D, the least common denominator
        of the rational parts; ((symbol, coefficient numerator), ...) over
        the least common denominator of all symbol coefficients)."""
        entries = [e for row in self.rotations for vec in row for e in vec if e.is_exact]
        rden = math.lcm(*(e.rational.denominator for e in entries))
        sden = math.lcm(*(c.denominator for e in entries for _, c in e.symbols))

        def exact(e: RotationEntry):
            if not e.is_exact:
                return None
            return e.rational.numerator * (rden // e.rational.denominator), tuple(
                (name, c.numerator * (sden // c.denominator)) for name, c in e.symbols
            )

        return tuple(
            tuple(tuple(map(exact, vec)) for vec in row) for row in self.rotations
        ), rden


class TrigObservable(namedtuple("TrigObservable", "terms")):
    """Finite trig polynomial sum_k c_k exp(2 pi i k.t) on the m-torus, its
    terms the (frequency, coefficient) pairs."""

    __slots__ = ()

    def __new__(cls, terms: Tuple[Tuple[Tuple[int, ...], complex], ...]):
        freqs = [k for k, _ in terms]
        if len(set(freqs)) != len(freqs):
            raise ValidationError("duplicate frequencies in trig polynomial")
        return super().__new__(cls, terms)

    @staticmethod
    def character(freq: Sequence[int], coeff: complex = 1.0) -> "TrigObservable":
        return TrigObservable(((tuple(freq), complex(coeff)),))

    def __call__(self, t: Sequence[float]) -> complex:
        """The value at t, each phase k.t reduced exactly as in the kernel."""
        (x,), den = _sample_phases([t])
        if any(len(k) != len(x) for k, _ in self.terms):
            raise ValidationError("sample point has wrong dimension")
        return sum((c * _e(sum(map(mul, k, x)), den) for k, c in self.terms), 0j)


def _centred(p: int, den: int) -> int:
    """The numerator, over den > 0, of the representative of p / den mod 1
    in (-1/2, 1/2]."""
    c = p % den
    return c - den if 2 * c > den else c


def _e(p: int, den: int) -> complex:
    """exp(2 pi i p / den), with p / den reduced exactly mod 1 first."""
    return cmath.exp(1j * TWO_PI * (_centred(p, den) / den))


def _sin_pi(p: int, den: int) -> float:
    """sin(pi p / den), with p / den reduced exactly mod 2 first."""
    c = _centred(p, den)
    s = math.sin(math.pi * (c / den))
    return -s if (p - c) // den % 2 else s


def _n_sin_pi(n: int, t: int, den: int) -> Tuple[float, int]:
    """(y, k) with y * 2**k = n sin(pi theta), for n >= 1 and a nonzero
    centred theta = t / den.

    Where the float product n * sin(pi * float(theta)) exists, it is y and
    k = 0.  A box length n >= 2**1024 has no float, so n is shifted into
    float range first.  A theta below 2**-1075 rounds to 0, but there
    sin(pi theta) is pi theta far within rounding, so y * 2**k is the exact
    pi n theta, with n theta rounded once at about 2**64.
    """
    theta = t / den
    if theta:
        try:
            return n * math.sin(math.pi * theta), 0
        except OverflowError:
            k = n.bit_length() - 64
            return (n >> k) * math.sin(math.pi * theta), k
    nt = n * t
    k = abs(nt).bit_length() - den.bit_length() - 64
    x = nt / (den << k) if k >= 0 else (nt << -k) / den
    return math.pi * x, k


# A k below this comes only from a theta below 2**-1075 with |n theta|
# below 2**-1000: both sines are then their arguments, and the kernel is 1.
_TINY_K = -1065


def _dirichlet(t: int, den: int, n: int, base: int) -> complex:
    """(1/n) * sum_{k=base}^{base+n-1} e(k theta) for the centred
    theta = t / den."""
    if t == 0:
        return 1 + 0j
    y, k = _n_sin_pi(n, t, den)
    ratio = 1.0 if k < _TINY_K else math.ldexp(_sin_pi(n * t, den) / y, -k)
    return _e(t * (2 * base + n - 1), 2 * den) * ratio


def _decay(t: int, den: int, n: int) -> float:
    """min(1, 1 / (n |sin(pi theta)|)) for a nonzero centred theta = t / den,
    the bound on the modulus of its Dirichlet kernel."""
    y, k = _n_sin_pi(n, t, den)
    return 1.0 if k < _TINY_K else min(1.0, math.ldexp(1.0 / abs(y), -k))


def _combos(fs: Sequence[TrigObservable]):
    """Each choice of one term per observable, as (frequencies, summed
    frequency, coefficient product)."""
    for combo in itertools.product(*(f.terms for f in fs)):
        ks = [k for k, _ in combo]
        coeff = math.prod((c for _, c in combo), start=1 + 0j)
        yield ks, tuple(map(sum, zip(*ks))), coeff


def _thetas(sys: TorusSystem, fs: Sequence[TrigObservable]):
    """_combos plus the numerators, over sys.int_rotations' denominator, of
    the centred total rotation theta_j = sum_i k_i . alpha_{i,j} along each
    axis j: exact in the numeric rotations, so a resonant combination has
    theta exactly 0."""
    alphas, den = sys.int_rotations
    for ks, freq, coeff in _combos(fs):
        thetas = [
            _centred(sum(sum(map(mul, k, rows[j])) for k, rows in zip(ks, alphas)), den)
            for j in range(sys.r)
        ]
        yield ks, freq, coeff, thetas


def _sample_phases(samples: Sequence[Sequence[float]]):
    """(points, S): the samples with every coordinate, at its binary value,
    an int over one power of two S."""
    ratios = [[float(x).as_integer_ratio() for x in t] for t in samples]
    den = max((q for t in ratios for _, q in t), default=1)
    return [tuple(p * (den // q) for p, q in t) for t in ratios], den


def _check_args(sys: TorusSystem, fs, lengths: Optional[Sequence[int]] = None):
    if len(fs) != sys.d:
        raise ValidationError(f"need {sys.d} observables, got {len(fs)}")
    if lengths is not None and len(lengths) != sys.r:
        raise ValidationError("box dimension differs from rank")


def torus_truncated_average(
    sys: TorusSystem,
    fs: Sequence[TrigObservable],
    box: FolnerBox,
    samples: Sequence[Sequence[float]],
) -> List[complex]:
    """Average of prod_i f_i(t + sum_j n_j alpha_{i,j}) over n in the box,
    at each sample t, in closed form.

    A combination of terms c_i e(k_i . t) contributes prod_i c_i * e(K . t)
    * prod_j D_j, where K = sum_i k_i and D_j is the Dirichlet kernel
    (1/N_j) sum_{n=b_j}^{b_j+N_j-1} e(n theta_j)
    = e(b_j theta_j + (N_j - 1) theta_j / 2) sin(pi N_j theta_j)
    / (N_j sin(pi theta_j)).  Every phase and sine argument is an int over
    one denominator, reduced exactly before it is rounded, so the error
    stays flat in the base point and in N; the cost is
    O(#combos * (r + #samples)), whatever the box size.
    """
    _check_args(sys, fs, box.lengths)
    starts, sden = _sample_phases(samples)
    if any(len(t) != sys.m for t in starts):
        raise ValidationError("sample point has wrong dimension")
    den = sys.int_rotations[1]
    out = [0j] * len(starts)
    for _, freq, coeff, thetas in _thetas(sys, fs):
        for t, n, b in zip(thetas, box.lengths, box.base):
            coeff *= _dirichlet(t, den, n, b)
        for s, x in enumerate(starts):
            out[s] += coeff * _e(sum(map(mul, freq, x)), sden)
    return out


def _resonant(sys: TorusSystem, ks: Sequence[Sequence[int]]) -> bool:
    """Whether sum_i k_i . alpha_{i,j} is an integer along every axis j:
    no symbolic part and an integral rational part, decided exactly."""
    table, rden = sys.int_resonance
    for j in range(sys.r):
        rational = 0
        symbols: Dict[str, int] = {}
        for i, k in enumerate(ks):
            for ka, e in zip(k, table[i][j]):
                if ka == 0:
                    continue
                if e is None:
                    raise UndecidableResonance(
                        f"rotation of action {i + 1}, axis {j + 1} is inexact; "
                        f"cannot decide resonance for frequency {k}"
                    )
                rational += ka * e[0]
                for name, coeff in e[1]:
                    symbols[name] = symbols.get(name, 0) + ka * coeff
        if any(symbols.values()) or rational % rden:
            return False
    return True


def character_limit(
    sys: TorusSystem,
    fs: Sequence[TrigObservable],
) -> TrigObservable:
    """Closed-form limit of the truncated averages.

    A product of character terms survives iff it is resonant; the surviving
    combination contributes its coefficient product at the summed frequency.
    """
    _check_args(sys, fs)
    acc: Dict[Tuple[int, ...], complex] = {}
    for ks, freq, coeff in _combos(fs):
        if _resonant(sys, ks):
            acc[freq] = acc.get(freq, 0j) + coeff
    terms = tuple(
        (k, c) for k, c in sorted(acc.items()) if c != 0
    )
    return TrigObservable(terms)


def torus_deviation_bound(
    sys: TorusSystem,
    fs: Sequence[TrigObservable],
    lengths: Sequence[int],
) -> float:
    """Certified bound on |torus_truncated_average - character_limit| at
    every sample, for a box with these edge lengths and any base point.

    A resonant combination reproduces its limit term; any other one deviates
    by at most |c| prod_j |D_j| <= |c| prod_j min(1, 1/(N_j |sin(pi theta_j)|)).
    """
    _check_args(sys, fs, lengths)
    den = sys.int_rotations[1]
    total = 0.0
    for ks, _, coeff, thetas in _thetas(sys, fs):
        if _resonant(sys, ks):
            continue
        term = abs(coeff)
        for t, n in zip(thetas, lengths):
            if t:
                term *= _decay(t, den, n)
        total += term
    return total


# -- the torus branch of scenario.parse_scenario ----------------------------


def _parse_entry(raw) -> RotationEntry:
    if isinstance(raw, str):
        return RotationEntry.exact(Fraction(raw))
    if isinstance(raw, dict):
        if "float" in raw:
            return RotationEntry.from_float(
                read_finite_float(raw["float"], "float rotation")
            )
        symbols = {
            str(k): Fraction(str(v)) for k, v in raw.get("symbols", {}).items()
        }
        return RotationEntry.exact(Fraction(str(raw.get("rational", "0"))), symbols)
    raise ValidationError(f"unparseable rotation entry: {raw!r}")


def _parse_torus_system(raw: dict) -> TorusSystem:
    m, r, d = (read_int(raw[k], k) for k in ("m", "r", "d"))
    rotations = read_table(
        raw["rotations"], d, r, "vector",
        lambda vec: tuple(_parse_entry(e) for e in vec), "rotation",
    )
    symbol_values = tuple(sorted(
        (str(k), read_finite_float(v, f"symbol value {k}"))
        for k, v in raw.get("symbol_values", {}).items()
    ))
    return TorusSystem(
        m=m, r=r, d=d, rotations=rotations, symbol_values=symbol_values
    )


def _parse_trig(raw, m: int) -> TrigObservable:
    terms = []
    for term in raw:
        freq = tuple(read_int(v, "frequency") for v in term["freq"])
        if len(freq) != m:
            raise ValidationError(
                f"frequency {freq} has length {len(freq)}, expected {m}"
            )
        re, im = (read_finite_float(v, "coefficient") for v in term["coeff"])
        terms.append((freq, complex(re, im)))
    return TrigObservable(tuple(terms))
