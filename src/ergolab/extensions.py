"""Pleasantness: the distinguished factor, defect computation, and the
one-step extension built from the Furstenberg self-joining.

The paper reaches a pleasant extension through an inverse limit of one-step
extensions.  On a finite system the first one-step extension is already
pleasant (the proof is ROADMAP item 20), so ``extend_to_pleasant`` builds one
stage and checks that theorem on it.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple, Optional, Tuple

from .errors import BudgetExceeded, InternalInvariantViolation
from .factors import Partition, action_isotropy, difference_isotropy, join
from .system import FiniteSystem, basis_counts, period_box


class ExtensionStage(NamedTuple):
    system: FiniteSystem
    factor_map: Tuple[int, ...]  # state upstairs -> state downstairs


class PleasantnessReport(NamedTuple):
    """The defect's square, the pleasant factor and the witness: the basis
    states (x_1, ..., x_d) of a maximal defect, or None.  The system is
    pleasant exactly when the defect is zero."""

    defect_square: Fraction
    factor: Partition
    witness: Optional[Tuple[int, ...]]

    @property
    def pleasant(self) -> bool:
        return self.defect_square == 0


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
    grouped = basis_counts(sys) if candidates else {}
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
    return PleasantnessReport(
        defect_square=Fraction(
            top, denom * top_mass * top_mass * period_box(sys).size ** 2
        ),
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
    labels = tuple("(" + ",".join(sys.labels[x] for x in t) + ")" for t in supp)
    ext = FiniteSystem(
        n=len(supp),
        r=sys.r,
        d=sys.d,
        weights=weights,
        generators=generators,
        labels=labels,
    )
    return ExtensionStage(system=ext, factor_map=tuple(t[0] for t in supp))


def extend_to_pleasant(
    sys: FiniteSystem, budget: int
) -> Tuple[Optional[ExtensionStage], PleasantnessReport]:
    """(None, the system's report) when the system is pleasant or its first
    extension stage overruns the budget, which is reported, not raised;
    otherwise (that stage, its report).  A first stage is always pleasant,
    so one that is not raises InternalInvariantViolation."""
    report = is_pleasant(sys, budget=budget)
    if report.pleasant:
        return None, report
    try:
        stage = one_step_extension(sys, budget=budget)
    except (BudgetExceeded, MemoryError):
        return None, report
    stage_report = is_pleasant(stage.system, budget=budget)
    if not stage_report.pleasant:
        raise InternalInvariantViolation(
            f"the first extension stage ({stage.system.n} states) is not "
            f"pleasant: defect square {stage_report.defect_square}"
        )
    return stage, stage_report
