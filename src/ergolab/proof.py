"""The steps of the paper's proof, run exactly on a finite system.

The theorem is proved by induction on d, the number of actions.  Each step
below is a function here, or lives in the module a command runs it in:

* Extension (``one_step_extension``, from extensions): one step toward a
  pleasant extension, whose states are the support of the Furstenberg
  self-joining mu^{*d}; ``pull_back`` lifts an observable through its
  factor map, and the limit upstairs is the pullback of the limit below.
* Contraction (``contractive_check``): ||average||_2 <= ||f_1||_2 *
  prod_{i>=2} ||f_i||_inf, so the limit is continuous in f_1 and f_1 may
  be approximated.
* van der Corput (``vdc_correlation``, ``vdc_identity_check``): the square
  norm of the limit is the average over shifts delta of the correlations
  gamma(delta) = lim_n <u_{n+delta}, u_n>, u_n = prod_i f_i o T_i^n.
* Characteristic factor (``vdc_condition_check``, ``joining_integral``,
  ``orbit_cells``, ``hk_condition_check``): when f_1 integrates to zero
  against the Furstenberg self-joining, or the last Host-Kra self-joining,
  tested against every invariant function, every limit with this f_1 is 0.
* Pleasant reduction (``cond_expect``, from factors, ``is_measurable``,
  ``pleasant_decompose``, ``reduce_pleasant_limit``, ``restrict``): on a
  pleasant system the limit keeps its value when f_1 is replaced by
  E[f_1 | Xi], Xi the join of the T_1-isotropy and the T_i = T_1
  isotropies; E[f_1 | Xi] is a finite sum of products g_1 * ... * g_d,
  each g_i measurable for its constituent, and each product reduces the
  limit to one over the system restricted to the d - 1 actions T_2..T_d.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Dict, Iterable, List, NamedTuple, Sequence, Tuple

from .averages import _check_args, exact_limit, truncated_average
from .errors import (
    DimensionMismatch, InternalInvariantViolation, InvarianceViolated, NotMeasurable,
    ValidationError,
)
from .extensions import ExtensionStage
from .factors import (
    Partition, action_isotropy, difference_isotropy, join, orbit_partition,
)
from .joinings import (
    JoinedMeasure, StateTuple, diagonal_action_name, furstenberg_joining, host_kra_tower,
)
from .observables import Observable, ONE, ZERO, l2_square, linf_norm
from .system import (
    FiniteSystem, LatticeSet, basis_counts, over_common_denominator, period_box, residues,
)

__all__ = [
    "VdcWitness", "contractive_check", "hk_condition_check", "is_measurable",
    "joining_integral", "orbit_cells", "pleasant_decompose", "pull_back",
    "reduce_pleasant_limit", "restrict", "vdc_condition_check", "vdc_correlation",
    "vdc_identity_check",
]


def pull_back(stage: ExtensionStage, f: Observable) -> Observable:
    """Lift an observable on the previous system through the factor map."""
    return Observable(tuple(f.values[x] for x in stage.factor_map))


def restrict(sys: FiniteSystem, actions: Iterable[int]) -> FiniteSystem:
    """The system whose action k is action actions[k-1] of sys, on the same
    states, weights and labels: its averages are those of sys over that
    subset of its actions, in that order."""
    acts = tuple(actions)
    if any(not 1 <= i <= sys.d for i in acts):
        raise ValidationError(f"action index out of range 1..{sys.d}")
    generators = tuple(sys.generators[i - 1] for i in acts)
    return FiniteSystem(sys.n, sys.r, len(acts), sys.weights, generators, sys.labels)


def contractive_check(
    sys: FiniteSystem,
    fs: Sequence[Observable],
    where: LatticeSet,
) -> Tuple[Fraction, Fraction, bool]:
    """||avg||_2 against ||f_1||_2 * prod_{i>=2} ||f_i||_inf, as squares;
    must hold."""
    lhs_square = l2_square(truncated_average(sys, fs, where), sys.weights)
    coeff = math.prod((linf_norm(f) for f in fs[1:]), start=ONE)
    rhs_square = coeff * coeff * l2_square(fs[0], sys.weights)
    return lhs_square, rhs_square, lhs_square <= rhs_square


def vdc_correlation(
    sys: FiniteSystem,
    fs: Sequence[Observable],
    m: Sequence[int],
) -> Fraction:
    """gamma(m): the exact limit over n of <u_{n+m}, u_n>_mu where
    u_n = prod_i f_i o T_i^n.  Equals the integral of the exact limit of the
    shifted-product observables f_i * (f_i o T_i^m)."""
    _check_args(sys, fs)
    if len(m) != sys.r:
        raise DimensionMismatch("shift has wrong dimension")
    hs = [
        f * f.compose_perm(sys.action_perm(i, m))
        for i, f in enumerate(fs, start=1)
    ]
    lim = exact_limit(sys, hs)
    return sum((v * w for v, w in zip(lim.values, sys.weights)), ZERO)


def vdc_identity_check(
    sys: FiniteSystem,
    fs: Sequence[Observable],
) -> Tuple[Fraction, Fraction, bool]:
    """Periodic-sequence van der Corput identity:
    ||limit||_2^2 == (1/|P|) sum_{delta in P-box} gamma(delta), exactly."""
    _check_args(sys, fs)
    pbox = period_box(sys)
    lim = exact_limit(sys, fs)
    lhsq = l2_square(lim, sys.weights)
    total = ZERO
    for delta in residues(sys, pbox):
        total += vdc_correlation(sys, fs, delta)
    rhsq = total / pbox.size
    return lhsq, rhsq, lhsq == rhsq


def joining_integral(
    jm: JoinedMeasure,
    fs: Sequence[Observable],
    g=None,
) -> Fraction:
    """Integral of f_1(x_1) * ... * f_d(x_d) * g(x) against the joined mass.
    g may be None (constant 1) or a dict from state tuples to rationals
    (default 0).  With each f_i and g over its least denominator, the sum
    over the support is an int, and one Fraction is built at the end."""
    if len(fs) != jm.power:
        raise DimensionMismatch("need one observable per coordinate")
    for f in fs:
        if len(f) != jm.base.n:
            raise DimensionMismatch("observable length differs from base states")
    nums, denoms = zip(*(over_common_denominator(f.values) for f in fs))
    if g is None:
        gnums, gdenom = (1,) * len(jm.support), 1
    else:
        gnums, gdenom = over_common_denominator(g.get(t, ZERO) for t in jm.support)
    total = 0
    for t, w, gv in zip(jm.support, jm.support_weights, gnums):
        prod = w * gv
        for v, x in zip(nums, t):
            if not prod:
                break
            prod *= v[x]
        total += prod
    return Fraction(total, jm.denom * gdenom * math.prod(denoms))


def orbit_cells(jm: JoinedMeasure, name: str) -> List[Tuple[StateTuple, ...]]:
    """Orbits of the support under the named action; their indicators span
    the invariant functions on the support."""
    supp = jm.support
    part = orbit_partition(len(supp), jm.lift(jm.actions[name]))
    return [tuple(supp[k] for k in cell) for cell in part.cells]


class VdcWitness(NamedTuple):
    basis_states: StateTuple  # chosen basis states for f_2..f_d
    cell_representative: StateTuple
    integral: Fraction


def vdc_condition_check(sys: FiniteSystem, f1: Observable):
    """Exhaustive finite form of the joining-controls-averages condition.

    Enumerates the indicator basis for f_2..f_d and the indicators of the
    diagonal-action orbit cells (a spanning set for the invariant g).  When
    all integrals vanish, additionally verifies the conclusion: every
    indicator-basis exact limit with this f_1 is the zero observable.
    Returns (bool, witness-or-None).
    """
    jm = furstenberg_joining(sys)
    supp = jm.support
    part = orbit_partition(len(supp), jm.lift(jm.actions[diagonal_action_name(jm)]))
    nonzero = _first_nonzero_integral(jm, f1, 0, part.cell_of)
    if nonzero:
        (rest, k), val = nonzero
        return False, VdcWitness(rest, supp[part.cells[k][0]], val)
    # verified conclusion: the lemma promises the limits vanish
    _check_basis_limits_vanish(
        sys, f1, "joining condition held but a basis limit is nonzero"
    )
    return True, None


def _first_nonzero_integral(
    jm: JoinedMeasure, f1: Observable, coord: int, cell_of=None
):
    """The integral of f_1 at coordinate coord against the joined mass, per
    cell of the support: support tuple t lies in the cell (t without that
    coordinate, cell_of[index of t], or 0 when cell_of is None).  Returns the
    first (cell, integral) in cell order whose integral is nonzero, or None.
    With f_1 = v / F in ints, each cell sums weight times v, over D F."""
    if len(f1) != jm.base.n:
        raise DimensionMismatch("observable length differs from state count")
    values, scale = over_common_denominator(f1.values)
    acc: Dict[Tuple, int] = {}
    for s, (t, w) in enumerate(zip(jm.support, jm.support_weights)):
        v = values[t[coord]]
        if v:
            cell = (t[:coord] + t[coord + 1 :], cell_of[s] if cell_of else 0)
            acc[cell] = acc.get(cell, 0) + w * v
    return next(
        ((cell, Fraction(v, jm.denom * scale)) for cell, v in sorted(acc.items()) if v),
        None,
    )


def _check_basis_limits_vanish(sys: FiniteSystem, f1: Observable, message: str):
    """Raise unless every indicator-basis exact limit with this f_1 vanishes
    on the support."""
    for by_x in basis_counts(sys).values():
        for pairs in by_x.values():
            if sum(c * f1.values[y] for y, c in pairs):
                raise InternalInvariantViolation(message)


def hk_condition_check(sys: FiniteSystem, f1: Observable) -> bool:
    """Host-Kra analogue of the joining condition: all integrals of
    f_1 o pi_empty against indicator choices on the other 2^d - 1
    coordinates vanish.  When true, verifies the vanishing of the
    indicator-basis exact limits with this f_1."""
    jm = host_kra_tower(sys)[-1]
    if _first_nonzero_integral(jm, f1, jm.labels.index(frozenset())):
        return False
    _check_basis_limits_vanish(
        sys, f1, "Host-Kra condition held but a basis limit is nonzero"
    )
    return True


def is_measurable(f: Observable, part: Partition) -> bool:
    return all(
        len({f.values[x] for x in cell}) == 1 for cell in part.cells
    )


def pleasant_decompose(
    sys: FiniteSystem,
    f: Observable,
    constituents: Sequence[Partition],
) -> List[Tuple[Observable, ...]]:
    """Write an observable measurable w.r.t. the join of the constituent
    partitions as an exact finite sum of products g_1 * g_2 * ... * g_d
    with g_i measurable w.r.t. the i-th constituent.

    Finite spaces need no approximation: a join cell is the intersection of
    one cell from each constituent, so its indicator factors exactly.
    """
    if len(constituents) != sys.d:
        raise NotMeasurable("need one constituent partition per action")
    joined = join(list(constituents))
    if not is_measurable(f, joined):
        raise NotMeasurable("observable is not measurable w.r.t. the join")
    if len(set(f.values)) == 1:
        return [
            tuple(
                [Observable.constant(sys.n, f.values[0])]
                + [Observable.constant(sys.n, 1)] * (sys.d - 1)
            )
        ]
    tuples: List[Tuple[Observable, ...]] = []
    for cell in joined.cells:
        v = f.values[cell[0]]
        if v == 0:
            continue
        rep = cell[0]
        gs = []
        for slot, part in enumerate(constituents):
            ind = Observable.indicator(sys.n, part.cells[part.cell_of[rep]])
            gs.append(v * ind if slot == 0 else ind)
        tuples.append(tuple(gs))
    if not tuples:
        tuples.append(
            tuple(Observable.constant(sys.n, 0) for _ in range(sys.d))
        )
    return tuples


def reduce_pleasant_limit(
    sys: FiniteSystem,
    tuples: Sequence[Tuple[Observable, ...]],
    fs_rest: Sequence[Observable],
) -> Observable:
    """Evaluate the limit for f_1 = sum_k prod_i g_{i,k} by pulling g_1 out
    and folding g_i into f_i, reducing to d-1 actions:

        sum_k g_{1,k} * limit_{2..d}(g_{2,k} f_2, ..., g_{d,k} f_d).

    Asserts exact agreement with the unreduced limit.
    """
    if len(fs_rest) != sys.d - 1:
        raise InvarianceViolated("need d-1 companion observables")
    xi1 = action_isotropy(sys, 1)
    diffs = [difference_isotropy(sys, i, 1) for i in range(2, sys.d + 1)]
    for gs in tuples:
        if len(gs) != sys.d:
            raise InvarianceViolated("tuple arity differs from action count")
        if not is_measurable(gs[0], xi1):
            raise InvarianceViolated("g_1 is not T_1-invariant")
        for g, part in zip(gs[1:], diffs):
            if not is_measurable(g, part):
                raise InvarianceViolated("g_i is not (T_i = T_1)-invariant")
    rest = restrict(sys, range(2, sys.d + 1)) if sys.d > 1 else None
    reduced = Observable.constant(sys.n, 0)
    for gs in tuples:
        if rest is None:
            reduced = reduced + gs[0]
        else:
            inner_fs = [g * f for g, f in zip(gs[1:], fs_rest)]
            reduced = reduced + gs[0] * exact_limit(rest, inner_fs)
    f1 = Observable.constant(sys.n, 0)
    for gs in tuples:
        prod = gs[0]
        for g in gs[1:]:
            prod = prod * g
        f1 = f1 + prod
    direct = exact_limit(sys, [f1] + list(fs_rest))
    if direct.values != reduced.values:
        raise InternalInvariantViolation(
            "reduced limit disagrees with the direct limit"
        )
    return reduced
