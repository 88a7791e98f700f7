"""Pleasantness: the distinguished factor, defect computation, and the
one-step extension built from the Furstenberg self-joining.

The infinitary inverse limit is replaced by bounded iteration with a
stabilization verdict.
"""

from __future__ import annotations

from fractions import Fraction
from typing import List, NamedTuple, Optional, Tuple

from .averages import basis_counts
from .errors import BudgetExceeded, ValidationError
from .factors import Partition, action_isotropy, difference_isotropy, join
from .observables import ExactNorm
from .system import FiniteSystem, period_box


class ExtensionStage(NamedTuple):
    system: FiniteSystem
    factor_map: Tuple[int, ...]  # state upstairs -> state downstairs
    support_tuples: Tuple[Tuple[int, ...], ...]


class PleasantnessReport(NamedTuple):
    """The defect, the pleasant factor and the witness: the basis states
    (x_1, ..., x_d) of a maximal defect, or None.  The system is pleasant
    exactly when the defect is zero."""

    defect: ExactNorm
    factor: Partition
    witness: Optional[Tuple[int, ...]]

    @property
    def pleasant(self) -> bool:
        return self.defect.is_zero


def pleasant_factor(sys: FiniteSystem) -> Partition:
    """Join of the T_1-isotropy partition with the T_i = T_1 difference
    isotropies for i = 2..d."""
    parts = [action_isotropy(sys, 1)]
    parts.extend(difference_isotropy(sys, i, 1) for i in range(2, sys.d + 1))
    return join(parts)


def is_pleasant(sys: FiniteSystem, budget: int) -> PleasantnessReport:
    """Exact pleasantness test over the indicator basis.

    Multilinearity of the limit plus completeness of indicators makes the
    basis check equivalent to the all-of-L^inf quantifier: the defect is
    the max over basis tuples of ||limit(h, e_{x2}, ..., e_{xd})||_2, where
    h = e_{x1} - E[e_{x1}|Xi] = e_{x1} - a 1_C, C is the Xi-cell of x1 and
    a = mu(x1)/mu(C).  At x, |P| times that limit contracts x's list of
    orbit counts c_y (``basis_counts``) with h.  Two entries y, T_1^k y of
    one list have T_i^k y = y for i >= 2, so they share their T_1-orbit
    and every T_i T_1^-1-orbit: the list lies in one Xi-cell, so its count
    mass S_x lies wholly inside C or outside it.  With Q_C = sum mu(x) S_x^2
    over the lists in C, |P|^2 times the square norm expands to

        a^2 Q_C + sum over the x whose list holds x1 of mu(x) c (c - 2a S_x),

    so one pass over a rest's lists gives it for every x1.  Writing
    mu = w/D with integers w, and W_C for the w-mass of C, D W_C^2 times
    it is an integer: candidates compare by cross multiplication and one
    Fraction is built at the end.  An x1 alone on the support in its cell
    has h = 0 on the support, where every list lives, so each of its
    squares is 0 and it is skipped.  The witness is the first maximal
    tuple in lexicographic order.
    """
    if sys.n ** sys.d > budget:
        raise BudgetExceeded(sys.n ** sys.d, budget)
    xi = pleasant_factor(sys)
    cell_of = xi.cell_of
    w, denom = sys.int_weights
    mass = [sum(w[x] for x in cell) for cell in xi.cells]
    candidates = [x for x in sys.support if mass[cell_of[x]] != w[x]]
    # per x1: the largest scaled square and the first rest reaching it
    best, best_rest = [0] * sys.n, [None] * sys.n
    grouped = basis_counts(sys)
    for rest in sorted(grouped):
        q, cross = [0] * len(mass), [0] * sys.n
        for x, pairs in grouped[rest].items():
            # the list lies in one Xi-cell, and every y on it has x's weight
            wx, k = w[x], cell_of[pairs[0][0]]
            s = sum(c for _, c in pairs)
            q[k] += wx * s * s
            for y, c in pairs:
                cross[y] += wx * c * (c * mass[k] - 2 * wx * s)
        for x1 in candidates:
            k = cell_of[x1]
            sq = w[x1] * w[x1] * q[k] + mass[k] * cross[x1]
            if sq > best[x1]:
                best[x1], best_rest[x1] = sq, rest
    top, top_mass, witness = 0, 1, None
    for x1 in candidates:
        m = mass[cell_of[x1]]
        if best[x1] * top_mass * top_mass > top * m * m:
            top, top_mass, witness = best[x1], m, (x1,) + best_rest[x1]
    defect_sq = Fraction(
        top, denom * top_mass * top_mass * period_box(sys).size ** 2
    )
    return PleasantnessReport(
        defect=ExactNorm(defect_sq),
        factor=xi,
        witness=witness,
    )


def one_step_extension(sys: FiniteSystem, budget: int) -> ExtensionStage:
    """The extension whose state space is the support of mu^{*d}, with
    T_1 lifted to the product T_1 x T_2 x ... x T_d and T_i (i >= 2) to its
    full diagonal.  The factor map is the first-coordinate projection.
    The stage has one state per support tuple, so its n^d basis tuples are
    checked against the budget before anything is lifted: BudgetExceeded
    if they exceed it."""
    from .joinings import diagonal_action_name, furstenberg_joining

    jm = furstenberg_joining(sys)
    supp = jm.support
    if len(supp) ** sys.d > budget:
        raise BudgetExceeded(len(supp) ** sys.d, budget)
    weights = tuple(Fraction(w, jm.denom) for w in jm.support_weights)
    names = [diagonal_action_name(jm)] + [f"S{i}" for i in range(2, sys.d + 1)]
    generators = tuple(jm.lift(jm.actions[name]) for name in names)
    labels = tuple(
        "(" + ",".join(sys.label(x) for x in t) + ")" for t in supp
    )
    ext = FiniteSystem(
        n=len(supp),
        r=sys.r,
        d=sys.d,
        weights=weights,
        generators=generators,
        labels=labels,
    )
    factor_map = tuple(t[0] for t in supp)
    return ExtensionStage(
        system=ext, factor_map=factor_map, support_tuples=tuple(supp)
    )


class ExtensionRun(NamedTuple):
    stages: Tuple[ExtensionStage, ...]
    final_report: PleasantnessReport
    status: str  # "pleasant" | "budget-exceeded" | "max-m-reached"


def iterate_extensions(sys: FiniteSystem, max_m: int, budget: int) -> ExtensionRun:
    """Apply one_step_extension until pleasant, the stage budget is hit, or
    max_m stages have been built.  Budget overrun is reported, not raised."""
    if max_m < 1:
        raise ValidationError("max_m must be at least 1")
    stages: List[ExtensionStage] = []
    current = sys
    report = is_pleasant(current, budget=budget)
    status = "pleasant" if report.pleasant else "max-m-reached"
    while not report.pleasant and len(stages) < max_m:
        try:
            stage = one_step_extension(current, budget=budget)
        except (BudgetExceeded, MemoryError):
            status = "budget-exceeded"
            break
        stages.append(stage)
        current = stage.system
        report = is_pleasant(current, budget=budget)
        status = "pleasant" if report.pleasant else "max-m-reached"
    return ExtensionRun(
        stages=tuple(stages),
        final_report=report,
        status=status,
    )
