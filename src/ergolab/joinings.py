"""Self-joinings: the Furstenberg joining, relatively independent joinings,
and the Host-Kra tower.

A joined measure lives on X^k with states as index tuples, stored sparsely.
An action moves each coordinate by one base action or fixes it, so it is a
tuple of base action indices, 0 for a fixed coordinate; lift turns it into
permutations of a support, the one form every joined-action consumer uses.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

from .averages import basis_counts, orbit_counts
from .errors import (
    DimensionMismatch,
    InternalInvariantViolation,
    ValidationError,
    ZeroWeightCell,
)
from .factors import Partition, orbit_partition
from .observables import Observable, ZERO, ONE
from .system import (
    FiniteSystem,
    FolnerBox,
    Perm,
    compose,
    identity_perm,
    invert,
    period_box,
)

StateTuple = Tuple[int, ...]


def lift(
    base: FiniteSystem, supp: Sequence[StateTuple], coords: Sequence[int]
) -> Tuple[Perm, ...]:
    """The r axis generators of the joined action coords (coordinate c moved
    by base action coords[c], 0 = fixed) as permutations of the indices of
    the sorted support supp.  KeyError if an image leaves the support."""
    index = {t: k for k, t in enumerate(supp)}
    fixed = (identity_perm(base.n),) * base.r
    rows = [base.generators[a - 1] if a else fixed for a in coords]
    return tuple(
        tuple(index[tuple(p[x] for p, x in zip(perms, t))] for t in supp)
        for perms in zip(*rows)
    )


class JoinedMeasure:
    """Sparse exact probability measure on X^power with named actions."""

    def __init__(
        self,
        base: FiniteSystem,
        power: int,
        mass: Dict[StateTuple, Fraction],
        actions: Dict[str, Tuple[int, ...]],
        labels: Optional[Tuple[frozenset, ...]] = None,
    ):
        self.base = base
        self.power = power
        self.mass = {t: m for t, m in mass.items() if m != 0}
        self.actions = dict(actions)
        self.labels = labels
        if any(m < 0 for m in self.mass.values()):
            raise ValidationError("joined masses must be nonnegative")
        if sum(self.mass.values(), ZERO) != ONE:
            raise ValidationError("joined masses must sum to exactly 1")
        if any(len(t) != power for t in self.mass):
            raise ValidationError("state tuple length differs from power")
        for name, coords in self.actions.items():
            if len(coords) != power:
                raise ValidationError(f"action {name} has wrong arity")
        if labels is not None and len(labels) != power:
            raise ValidationError("labels length differs from power")

    @cached_property
    def support(self) -> List[StateTuple]:
        return sorted(self.mass)

    def marginal(self, c: int) -> Tuple[Fraction, ...]:
        out = [ZERO] * self.base.n
        for t, m in self.mass.items():
            out[t[c]] += m
        return tuple(out)

    def marginals_equal_base(self) -> bool:
        return all(
            self.marginal(c) == self.base.weights for c in range(self.power)
        )

    def is_invariant(self, name: str) -> bool:
        """Invariance under the generators of the named action (hence under
        the whole group): every tuple's image carries the tuple's mass."""
        coords = self.actions[name]
        try:
            perms = lift(self.base, self.support, coords)
        except KeyError:
            return False
        masses = [self.mass[t] for t in self.support]
        return all([masses[y] for y in p] == masses for p in perms)


def furstenberg_joining(
    sys: FiniteSystem, base_point: Optional[Sequence[int]] = None
) -> JoinedMeasure:
    """mu^{*d}: average over a full period box of the pushforwards of the
    diagonal measure under S_{d+1}^n = (T_1^n, ..., T_d^n).  Independent of
    the box base point."""
    d = sys.d
    acts = tuple(range(1, d + 1))
    pbox = period_box(sys, acts)
    box = FolnerBox(pbox.lengths, base_point)
    mass: Dict[StateTuple, Fraction] = {}
    for (x, *t), c in orbit_counts(sys, acts, box.points()).items():
        if sys.weights[x]:
            t = tuple(t)
            mass[t] = mass.get(t, ZERO) + sys.weights[x] * c
    mass = {t: m / pbox.size for t, m in mass.items()}
    actions = {f"S{i}": (i,) * d for i in range(1, d + 1)}
    actions[f"S{d + 1}"] = tuple(range(1, d + 1))
    return JoinedMeasure(sys, d, mass, actions)


def diagonal_action_name(jm: JoinedMeasure) -> str:
    return f"S{jm.base.d + 1}"


def joining_integral(
    jm: JoinedMeasure,
    fs: Sequence[Observable],
    g=None,
) -> Fraction:
    """Integral of f_1(x_1) * ... * f_d(x_d) * g(x) against the joined mass.
    g may be None (constant 1) or a dict from state tuples to rationals
    (default 0)."""
    if len(fs) != jm.power:
        raise DimensionMismatch("need one observable per coordinate")
    for f in fs:
        if len(f) != jm.base.n:
            raise DimensionMismatch("observable length differs from base states")
    total = ZERO
    for t, m in jm.mass.items():
        prod = m
        for f, x in zip(fs, t):
            v = f.values[x]
            if v == 0:
                prod = ZERO
                break
            prod *= v
        if prod:
            gv = ONE if g is None else g.get(t, ZERO)
            if gv:
                total += prod * gv
    return total


def orbit_cells(jm: JoinedMeasure, name: str) -> List[Tuple[StateTuple, ...]]:
    """Orbits of the support under the named action; their indicators span
    the invariant functions on the support."""
    supp = jm.support
    part = orbit_partition(len(supp), lift(jm.base, supp, jm.actions[name]))
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
    supp, coords = jm.support, jm.actions[diagonal_action_name(jm)]
    part = orbit_partition(len(supp), lift(sys, supp, coords))
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
    first (cell, integral) in cell order whose integral is nonzero, or None."""
    if len(f1) != jm.base.n:
        raise DimensionMismatch("observable length differs from state count")
    acc: Dict[Tuple, Fraction] = {}
    for s, t in enumerate(jm.support):
        v = f1.values[t[coord]]
        if v:
            cell = (t[:coord] + t[coord + 1 :], cell_of[s] if cell_of else 0)
            acc[cell] = acc.get(cell, ZERO) + jm.mass[t] * v
    return next(((cell, v) for cell, v in sorted(acc.items()) if v), None)


def _check_basis_limits_vanish(sys: FiniteSystem, f1: Observable, message: str):
    """Raise unless every indicator-basis exact limit with this f_1 vanishes
    on the support."""
    for by_x in basis_counts(sys).values():
        for pairs in by_x.values():
            if sum(c * f1.values[y] for y, c in pairs):
                raise InternalInvariantViolation(message)


def rel_indep_joining(sys: FiniteSystem, part: Partition) -> JoinedMeasure:
    """mu tensor_Xi mu: couples two copies to share a Xi-cell and be
    conditionally independent given it."""
    if part.n != sys.n:
        raise ValidationError("partition is over a different state set")
    cells = [[(x,) for x in cell if sys.weights[x] > 0] for cell in part.cells]
    masses = {(x,): sys.weights[x] for x in sys.support}
    mass = _rel_indep_pairs(masses, [cell for cell in cells if cell])
    return JoinedMeasure(sys, 2, mass, actions={})


def _rel_indep_pairs(
    masses: Dict[StateTuple, Fraction],
    cells: Sequence[Sequence[StateTuple]],
) -> Dict[StateTuple, Fraction]:
    """The relatively independent self-product of a sparse measure over a
    partition of its support into cells of state tuples."""
    out: Dict[StateTuple, Fraction] = {}
    for cell in cells:
        w = sum((masses[u] for u in cell), ZERO)
        if w == 0:
            raise ZeroWeightCell("relatively independent step hit a null cell")
        for u in cell:
            for v in cell:
                out[u + v] = masses[u] * masses[v] / w
    return out


def host_kra_tower(sys: FiniteSystem) -> List[JoinedMeasure]:
    """The tower mu^{[1]}, ..., mu^{[d]} of relatively independent
    self-joinings, with coordinates labelled by subsets of {1..d}.

    Stage 1 joins over the T_1-isotropy factor and lifts T_1 to T_1 x id,
    T_i to T_i x T_i; stage k joins over the isotropy of
    T_1^{[k-1]} (T_k^{[k-1]})^{-1} and lifts T_1^{[k-1]} to
    T_1^{[k-1]} x T_k^{[k-1]}, T_i^{[k-1]} to its diagonal square.
    """
    d = sys.d
    # stage 0: the system itself as a power-1 joined measure
    masses: Dict[StateTuple, Fraction] = {
        (x,): sys.weights[x] for x in sys.support
    }
    labels: Tuple[frozenset, ...] = (frozenset(),)
    acts: Dict[str, Tuple[int, ...]] = {f"T{i}": (i,) for i in range(1, d + 1)}
    stages: List[JoinedMeasure] = []
    for k in range(1, d + 1):
        supp = sorted(masses)
        # the stage measure is invariant under T_1 and T_k, so both lift
        perms = lift(sys, supp, acts["T1"])
        if k > 1:
            perms = [
                compose(p, invert(q))
                for p, q in zip(perms, lift(sys, supp, acts[f"T{k}"]))
            ]
        part = orbit_partition(len(supp), perms)
        masses = _rel_indep_pairs(
            masses, [[supp[s] for s in cell] for cell in part.cells]
        )
        labels = labels + tuple(a | {k} for a in labels)
        # the first stage lifts T_1 to T_1 x id
        t1_lift = (0,) * len(acts["T1"]) if k == 1 else acts[f"T{k}"]
        acts = {
            "T1": acts["T1"] + t1_lift,
            **{f"T{i}": acts[f"T{i}"] * 2 for i in range(2, d + 1)},
        }
        stages.append(JoinedMeasure(sys, 2 ** k, masses, acts, labels=labels))
    return stages


def host_kra_expected_t1(labels: Sequence[frozenset]) -> Tuple[int, ...]:
    """Closed form for the first lifted action: coordinate alpha moves by
    T_1 if alpha is empty, stays fixed if alpha == {1}, and moves by
    T_{max alpha} otherwise."""
    out = []
    for a in labels:
        if not a:
            out.append(1)
        elif a == frozenset({1}):
            out.append(0)
        else:
            out.append(max(a))
    return tuple(out)


def host_kra_structural_check(jm: JoinedMeasure) -> bool:
    """The constructed T_1^{[d]} must match the closed form, coordinate by
    coordinate, and T_i^{[d]} must be the full diagonal for i >= 2."""
    if jm.labels is None:
        raise ValidationError("joined measure carries no coordinate labels")
    if jm.actions["T1"] != host_kra_expected_t1(jm.labels):
        return False
    d = jm.base.d
    for i in range(2, d + 1):
        if jm.actions[f"T{i}"] != (i,) * jm.power:
            return False
    return True


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
