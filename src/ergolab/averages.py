"""Nonconventional averages over Folner boxes and their exact limits.

Every function here averages over all d actions of the system it is
given; ``ergolab.proof.restrict`` gives the system of fewer actions.  An
average contracts the orbit counts of its set's residues, from the orbit
layer in ``ergolab.system``; the orbit map is periodic with the axis periods
of period_box, so the Folner limit, for any base point, contracts the
system's full-period table, FiniteSystem.period_orbits.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Sequence

from .errors import DimensionMismatch, ValidationError
from .observables import Observable, ONE, l2_square, linf_norm
# FolnerBox for the callers that build the sets they average over
from .system import FiniteSystem, FolnerBox, LatticeSet, orbit_counts
from .system import over_common_denominator, period_box, residues


def _check_args(sys: FiniteSystem, fs):
    if len(fs) != sys.d:
        raise DimensionMismatch(f"got {len(fs)} observables for {sys.d} actions")
    for f in fs:
        if len(f) != sys.n:
            raise DimensionMismatch("observable length differs from state count")


def _histogram(sys: FiniteSystem, where: LatticeSet):
    """(residues(sys, where), |I|): a nonempty set's histogram and size."""
    hist = residues(sys, where)
    size = sum(hist.values())
    if not size:
        raise ValidationError("empty lattice point list")
    return hist, size


def truncated_average(
    sys: FiniteSystem,
    fs: Sequence[Observable],
    where: LatticeSet,
) -> Observable:
    """Pointwise average of prod_i f_i o T_i^n over the lattice points of a
    box or of an explicit point list, the escape hatch for non-box Folner
    sets."""
    _check_args(sys, fs)
    hist, size = _histogram(sys, where)
    return _contract(sys, fs, orbit_counts(sys, hist), size)


def exact_limit(sys: FiniteSystem, fs: Sequence[Observable]) -> Observable:
    """The L^2 limit of the truncated averages: the average over one full
    period box, contracted from the system's table of its orbit counts."""
    _check_args(sys, fs)
    return _contract(sys, fs, sys.period_orbits, period_box(sys).size)


def _contract(sys: FiniteSystem, fs, counts, size: int) -> Observable:
    """The average over a set of size |I| = size with orbit_counts counts.
    With f_i = w_i / D_i over its least denominator, the sums are ints, and
    state x gets one Fraction(total_x, |I| * prod_i D_i)."""
    nums, denoms = zip(*(over_common_denominator(f.values) for f in fs))
    total = [0] * sys.n
    for (x, *ys), c in counts.items():
        prod = c
        for w, y in zip(nums, ys):
            v = w[y]
            if not v:
                break
            prod *= v
        else:
            total[x] += prod
    denom = size * math.prod(denoms)
    return Observable(tuple(Fraction(t, denom) for t in total))


def deviation_bound(
    sys: FiniteSystem,
    fs: Sequence[Observable],
    where: LatticeSet,
) -> Fraction:
    """The square of a certified bound on ||truncated - limit||_2 over a box
    or a point list.

    If every residue of the period box P occurs at least m times (else m =
    0), the set holds m full period boxes, whose average is the limit; each
    of the other |I| - m|P| points gives a product of norm at most ||f_1||_2
    * prod_{i>=2} ||f_i||_inf.  So with rho = m|P|/|I|, which for a box is
    prod_j floor(N_j/P_j)*P_j/N_j,
    B = 2 * ||f_1||_2 * prod_{i>=2} ||f_i||_inf * (1 - rho), whose square
    is returned.
    """
    _check_args(sys, fs)
    hist, size = _histogram(sys, where)
    full = period_box(sys).size
    m = min(hist.values()) if len(hist) == full else 0
    coeff = Fraction(2) * math.prod(
        (linf_norm(f) for f in fs[1:]), start=ONE
    ) * (ONE - Fraction(m * full, size))
    return coeff * coeff * l2_square(fs[0], sys.weights)
