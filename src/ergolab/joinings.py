"""Self-joinings: the Furstenberg joining, relatively independent joinings,
and the Host-Kra tower.

A joined measure lives on X^k with states as index tuples, stored as its
support, the tuples of positive mass in strictly increasing order, and
their positive integer weights over the least denominator D.  Sums and
comparisons of masses are int arithmetic; a Fraction is built only where a
mass is read.  A relatively independent step over cells C of weight A_C
lists the pairs u + v of one cell in order of u, then v, turning the
weights a_u, a_v into a_u a_v (L / A_C) over D L, where L is the lcm of
the A_C, and then divides out the gcd again.

An action moves each coordinate by one base action or fixes it, so it is a
tuple of base action indices, 0 for a fixed coordinate; JoinedMeasure.lift
turns it into permutations of the support's indices, the one form every
joined-action consumer uses.  A relatively independent product's support
is the pairs (u, v) of one cell below, so its lifts are read off the
lifts below on index pairs, without hashing a tuple.
"""

from __future__ import annotations

import math
from collections.abc import Mapping
from fractions import Fraction
from functools import cached_property
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

from .errors import ValidationError
from .system import (
    FiniteSystem,
    Perm,
    compose,
    identity_perm,
    invert,
    period_box,
)

if TYPE_CHECKING:
    # each builder imports what it runs: hk loads no averages, joining no factors
    from .factors import Partition

StateTuple = Tuple[int, ...]


class Masses(Mapping):
    """Read-only view of a joined measure's weights as Fraction masses,
    each built when it is read."""

    __slots__ = ("_jm",)

    def __init__(self, jm: "JoinedMeasure"):
        self._jm = jm

    def __getitem__(self, t: StateTuple) -> Fraction:
        jm = self._jm
        return Fraction(jm.support_weights[jm._index[t]], jm.denom)

    def __iter__(self):
        return iter(self._jm.support)

    def __len__(self) -> int:
        return len(self._jm.support)


class JoinedMeasure:
    """Sparse exact probability measure on X^power with named actions.

    support_weights[k] / denom is the mass of support[k].  The builder
    passes the support in strictly increasing order; the weights must be
    positive ints summing to denom, and their gcd is divided out, so denom
    is the least denominator of the masses.  ``mass`` reads the measure
    back as Fractions.
    """

    def __init__(
        self,
        base: FiniteSystem,
        power: int,
        support: List[StateTuple],
        support_weights: List[int],
        denom: int,
        actions: Dict[str, Tuple[int, ...]],
        labels: Optional[Tuple[frozenset, ...]] = None,
    ):
        self.base = base
        self.power = power
        self.actions = dict(actions)
        self.labels = labels
        if len(support_weights) != len(support):
            raise ValidationError("support and weights differ in length")
        if min(support_weights, default=1) < 1:
            raise ValidationError("joined weights must be positive")
        if denom < 1 or sum(support_weights) != denom:
            raise ValidationError("joined masses must sum to exactly 1")
        if any(len(t) != power for t in support):
            raise ValidationError("state tuple length differs from power")
        for name, coords in self.actions.items():
            if len(coords) != power:
                raise ValidationError(f"action {name} has wrong arity")
        if labels is not None and len(labels) != power:
            raise ValidationError("labels length differs from power")
        g = math.gcd(*support_weights)
        if g > 1:
            support_weights = [w // g for w in support_weights]
        self.support: List[StateTuple] = support
        self.support_weights: List[int] = support_weights
        self.denom: int = denom // g
        # coords -> lifted perms; (measure below, cells, start, rank) for a
        # relatively independent product (see _rel_indep_step)
        self._lifts: Dict[Tuple[int, ...], Tuple[Perm, ...]] = {}
        self._pairing = None

    @cached_property
    def mass(self) -> Masses:
        return Masses(self)

    @cached_property
    def _index(self) -> Dict[StateTuple, int]:
        return {t: k for k, t in enumerate(self.support)}

    def marginals_equal_base(self) -> bool:
        """Whether every coordinate's marginal is the base measure, in ints:
        a coordinate's weights summed per state, s over D, match the base
        weights b over D' when s D' == b D."""
        base, base_denom = self.base.int_weights
        for c in range(self.power):
            sums = [0] * self.base.n
            for t, w in zip(self.support, self.support_weights):
                sums[t[c]] += w
            if any(s * base_denom != b * self.denom for s, b in zip(sums, base)):
                return False
        return True

    def is_invariant(self, name: str) -> bool:
        """Invariance under the generators of the named action (hence under
        the whole group): every tuple's image carries the tuple's mass."""
        try:
            perms = self.lift(self.actions[name])
        except KeyError:
            return False
        ws = self.support_weights
        return all([ws[y] for y in p] == ws for p in perms)

    def lift(self, coords: Sequence[int]) -> Tuple[Perm, ...]:
        """The r axis generators of the joined action coords (coordinate c
        moved by base action coords[c], 0 = fixed) as permutations of the
        indices of the support, cached per coords.  KeyError if an image
        leaves the support."""
        coords = tuple(coords)
        if coords not in self._lifts:
            self._lifts[coords] = (
                self._lift_pairs(coords) if self._pairing
                else self._lift_tuples(coords)
            )
        return self._lifts[coords]

    def _lift_tuples(self, coords: Tuple[int, ...]) -> Tuple[Perm, ...]:
        base, index = self.base, self._index
        fixed = (identity_perm(base.n),) * base.r
        rows = [base.generators[a - 1] if a else fixed for a in coords]
        return tuple(
            tuple(index[tuple(p[x] for p, x in zip(perms, t))] for t in self.support)
            for perms in zip(*rows)
        )

    def _lift_pairs(self, coords: Tuple[int, ...]) -> Tuple[Perm, ...]:
        """Lift through the measure below: the pair (u, v), at index
        start[i] + rank[j] for u, v at indices i, j below, moves to
        (p u, q v), with p and q the lifts of the two halves of coords.
        That pair is on the support iff p u and q v share a cell, so q
        must carry each cell into one cell, the one p carries it to."""
        below, cells, start, rank = self._pairing
        cell_of, half = cells.cell_of, self.power // 2
        out = []
        for p, q in zip(below.lift(coords[:half]), below.lift(coords[half:])):
            image_cell, image_ranks = [], []
            for cell in cells.cells:
                image = [q[j] for j in cell]
                k = cell_of[image[0]]
                if any(cell_of[y] != k for y in image):
                    raise KeyError(coords)
                image_cell.append(k)
                image_ranks.append([rank[y] for y in image])
            perm: List[int] = []
            for i, k in enumerate(cell_of):
                u = p[i]
                if cell_of[u] != image_cell[k]:
                    raise KeyError(coords)
                s = start[u]
                perm.extend([s + r for r in image_ranks[k]])
            out.append(tuple(perm))
        return tuple(out)


def _point_masses(sys: FiniteSystem, actions, labels=None) -> JoinedMeasure:
    """The system's own measure as a power-1 joined measure."""
    ws, denom = sys.int_weights
    supp = sys.support
    return JoinedMeasure(
        sys, 1, [(x,) for x in supp], [ws[x] for x in supp], denom, actions, labels
    )


def furstenberg_joining(sys: FiniteSystem) -> JoinedMeasure:
    """mu^{*d}: average over a full period box of the pushforwards of the
    diagonal measure under S_{d+1}^n = (T_1^n, ..., T_d^n).  With mu = w / D,
    tuple t gets the orbit counts of the states x reaching it, weighted by
    w_x, over D |P|: a sum over the system's period_orbits table."""
    d = sys.d
    ws, denom = sys.int_weights
    weight: Dict[StateTuple, int] = {}
    for (x, *t), c in sys.period_orbits.items():
        if ws[x]:
            t = tuple(t)
            weight[t] = weight.get(t, 0) + ws[x] * c
    actions = {f"S{i}": (i,) * d for i in range(1, d + 1)}
    actions[f"S{d + 1}"] = tuple(range(1, d + 1))
    support = sorted(weight)
    return JoinedMeasure(
        sys, d, support, [weight[t] for t in support],
        denom * period_box(sys).size, actions,
    )


def diagonal_action_name(jm: JoinedMeasure) -> str:
    return f"S{jm.base.d + 1}"


def _rel_indep_step(
    below: JoinedMeasure, cells: Partition, actions, labels
) -> JoinedMeasure:
    """The relatively independent self-product of a joined measure over a
    partition of its support indices: the tuples u + v with u, v in one
    cell C, of mass m(u) m(v) / m(C), in ints as in the module docstring.
    The support is built in sorted order, u then v, and every action lifts
    through the measure below."""
    supp, ws = below.support, below.support_weights
    cell_weight = [sum(ws[j] for j in cell) for cell in cells.cells]
    lcm = math.lcm(*cell_weight)
    members = [[supp[j] for j in cell] for cell in cells.cells]
    member_ws = [[ws[j] for j in cell] for cell in cells.cells]
    pairs: List[StateTuple] = []
    pair_ws: List[int] = []
    start = []
    for u, a, k in zip(supp, ws, cells.cell_of):
        start.append(len(pairs))
        s = a * (lcm // cell_weight[k])
        pairs.extend([u + v for v in members[k]])
        pair_ws.extend([s * b for b in member_ws[k]])
    rank = [0] * len(supp)
    for cell in cells.cells:
        for r, j in enumerate(cell):
            rank[j] = r
    jm = JoinedMeasure(
        below.base, 2 * below.power, pairs, pair_ws, below.denom * lcm, actions,
        labels,
    )
    jm._pairing = (below, cells, start, rank)
    return jm


def host_kra_tower(sys: FiniteSystem) -> List[JoinedMeasure]:
    """The tower mu^{[1]}, ..., mu^{[d]} of relatively independent
    self-joinings, with coordinates labelled by subsets of {1..d}.

    Stage 1 joins over the T_1-isotropy factor and lifts T_1 to T_1 x id,
    T_i to T_i x T_i; stage k joins over the isotropy of
    T_1^{[k-1]} (T_k^{[k-1]})^{-1} and lifts T_1^{[k-1]} to
    T_1^{[k-1]} x T_k^{[k-1]}, T_i^{[k-1]} to its diagonal square.

    So T_1 is lifted off the diagonal, to T_1 x id at stage 1: this is not
    Host's cube measure mu^{[k]}, whose S_k acts diagonally on every
    coordinate.  Host's seminorm bound on the limit, checked against this
    top stage, failed on 6 of 400 random draws.
    """
    from .factors import orbit_partition

    d = sys.d
    acts: Dict[str, Tuple[int, ...]] = {f"T{i}": (i,) for i in range(1, d + 1)}
    # stage 0: the system itself as a power-1 joined measure
    jm = _point_masses(sys, acts, labels=(frozenset(),))
    stages: List[JoinedMeasure] = []
    for k in range(1, d + 1):
        # the stage measure is invariant under T_1 and T_k, so both lift
        perms = jm.lift(acts["T1"])
        if k > 1:
            perms = [
                compose(p, invert(q))
                for p, q in zip(perms, jm.lift(acts[f"T{k}"]))
            ]
        cells = orbit_partition(len(jm.support), perms)
        labels = jm.labels + tuple(a | {k} for a in jm.labels)
        # the first stage lifts T_1 to T_1 x id
        t1_lift = (0,) * len(acts["T1"]) if k == 1 else acts[f"T{k}"]
        acts = {
            "T1": acts["T1"] + t1_lift,
            **{f"T{i}": acts[f"T{i}"] * 2 for i in range(2, d + 1)},
        }
        jm = _rel_indep_step(jm, cells, acts, labels)
        stages.append(jm)
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
