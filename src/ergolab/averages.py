"""Nonconventional averages over Folner boxes and their exact limits.

Every function here averages over all d actions of the system it is
given; ``ergolab.proof.restrict`` gives the system of fewer actions.  On a
finite system the orbit map n -> (T_1^n, ..., T_d^n) is periodic with the
axis periods of period_box, so the Folner limit is literally the average
over one full period box, for any base point.  residues, the one reader of
lattice points, reduces them modulo the period box; that is exact because
every axis period is a multiple of each generator order on that axis,
modulo which exponents act.  A box's residues have a closed form per axis,
so a box of any length costs O(|P|); only an explicit point list is
walked.  The orbit counts every consumer contracts are a function of these
residues, so a base point enters only through them: a full period box at
any base hits each residue once, so it has the counts, averages and
joinings of the box at 0.  The exact limit therefore contracts the
system's full-period table, FiniteSystem.period_orbits, built once per
system, as basis_counts and the Furstenberg joining do.
"""

from __future__ import annotations

import math
from collections import Counter
from fractions import Fraction
from typing import Dict, Iterable, List, Sequence, Tuple, Union

from .errors import DimensionMismatch, ValidationError
from .observables import Observable, ONE, l2_square, linf_norm
from .system import FiniteSystem, FolnerBox, over_common_denominator, period_box

# an averaging set: a box, or an explicit finite list of lattice points
LatticeSet = Union[FolnerBox, Iterable[Sequence[int]]]


def _check_args(sys: FiniteSystem, fs):
    if len(fs) != sys.d:
        raise DimensionMismatch(f"got {len(fs)} observables for {sys.d} actions")
    for f in fs:
        if len(f) != sys.n:
            raise DimensionMismatch("observable length differs from state count")


def residues(sys: FiniteSystem, where: LatticeSet) -> Dict[Tuple[int, ...], int]:
    """The histogram of an averaging set: how often each residue modulo
    period_box(sys) occurs among its lattice points, in the order a walk
    over them first meets each.  The one reader of a box or a point list.
    On an axis of period P, length N and base b, a box hits the residue of
    offset o = 0..min(N, P)-1, which is (b + o) mod P, N // P + [o < N mod
    P] times, and its counts are the product over axes: O(|P|) whatever N.
    Only an explicit point list is walked."""
    periods = period_box(sys).lengths
    if isinstance(where, FolnerBox):
        if len(where.lengths) != sys.r:
            raise DimensionMismatch("box has wrong dimension")
        hist = {(): 1}
        for N, b, P in zip(where.lengths, where.base, periods):
            q, rem = divmod(N, P)
            hist = {
                key + ((b + o) % P,): c * (q + (o < rem))
                for key, c in hist.items()
                for o in range(min(N, P))
            }
        return hist
    reduced: Counter = Counter()
    for nvec in where:
        if len(nvec) != sys.r:
            raise DimensionMismatch("lattice point has wrong dimension")
        reduced[tuple(e % P for e, P in zip(nvec, periods))] += 1
    return reduced


def _histogram(sys: FiniteSystem, where: LatticeSet):
    """(residues(sys, where), |I|): a nonempty set's histogram and size."""
    hist = residues(sys, where)
    size = sum(hist.values())
    if not size:
        raise ValidationError("empty lattice point list")
    return hist, size


def orbit_counts(
    sys: FiniteSystem, hist: Dict[Tuple[int, ...], int]
) -> Dict[Tuple[int, ...], int]:
    """How often each orbit tuple (x, T_1^n x, ..., T_d^n x) occurs as n
    runs over a set with residue histogram hist and x over all states: at
    most |P|*n orbit work, whatever the set."""
    counts: Dict[Tuple[int, ...], int] = {}
    for nvec, mult in hist.items():
        perms = [sys.action_perm(i, nvec) for i in range(1, sys.d + 1)]
        for key in zip(range(sys.n), *perms):
            counts[key] = counts.get(key, 0) + mult
    return counts


def basis_counts(sys: FiniteSystem) -> Dict[Tuple[int, ...], Dict[int, List]]:
    """Full-period-box counts of all d actions as {(y_2..y_d): {x: [(y_1,
    count)]}}, for x in the support.  Contracting a list with f_1 gives |P|
    times the exact limit of (f_1, e_{y_2}, ..., e_{y_d}) at x."""
    grouped: Dict[Tuple[int, ...], Dict[int, List]] = {}
    for (x, y1, *rest), c in sys.period_orbits.items():
        if sys.weights[x]:
            grouped.setdefault(tuple(rest), {}).setdefault(x, []).append((y1, c))
    return grouped


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
