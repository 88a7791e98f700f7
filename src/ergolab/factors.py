"""Factor lattice: orbit partitions, joins, conditional expectations.

On a finite probability space every (mu-complete) sigma-subalgebra is a
partition of the states, so factors are represented that way.  Partitions
are canonical (cells sorted by least element) so equality is structural.
"""

from __future__ import annotations

from typing import Hashable, NamedTuple, Sequence, Tuple

from .errors import ValidationError, ZeroWeightCell
from .observables import Observable, ZERO
from .system import FiniteSystem, Perm, compose, invert


class Partition(NamedTuple):
    cell_of: Tuple[int, ...]
    cells: Tuple[Tuple[int, ...], ...]

    @staticmethod
    def from_cell_ids(ids: Sequence[Hashable]) -> "Partition":
        """Cells in order of least member, members sorted: both hold as the
        ids, of any hashable kind, are read in state order."""
        groups: dict = {}
        for x, c in enumerate(ids):
            groups.setdefault(c, []).append(x)
        cells = tuple(map(tuple, groups.values()))
        cell_of = [0] * len(ids)
        for k, cell in enumerate(cells):
            for x in cell:
                cell_of[x] = k
        return Partition(tuple(cell_of), cells)

    @property
    def n(self) -> int:
        return len(self.cell_of)


def orbit_partition(n: int, perms: Sequence) -> Partition:
    """Orbits of the group generated by the given permutations of 0..n-1."""
    parent = list(range(n))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for p in perms:
        for x in range(n):
            a, b = find(x), find(p[x])
            if a != b:
                parent[b] = a
    return Partition.from_cell_ids([find(x) for x in range(n)])


def isotropy_partition(sys: FiniteSystem, perms: Sequence[Perm]) -> Partition:
    """Orbit partition of the group generated by the given permutations of
    the states.  Empty list means the trivial group."""
    return orbit_partition(sys.n, perms)


def _check_action(sys: FiniteSystem, i: int):
    if not 1 <= i <= sys.d:
        raise ValidationError(f"action index {i} out of range 1..{sys.d}")


def action_isotropy(sys: FiniteSystem, i: int) -> Partition:
    """The T_i-isotropy partition (orbits of the action-i generators)."""
    _check_action(sys, i)
    return isotropy_partition(sys, sys.generators[i - 1])


def difference_isotropy(sys: FiniteSystem, i: int, j: int) -> Partition:
    """Isotropy of the difference action T_i T_j^{-1}, i.e. orbits of the r
    permutations g_{i,k} o g_{j,k}^{-1}."""
    if i == j:
        raise ValidationError("difference isotropy needs two distinct actions")
    _check_action(sys, i)
    _check_action(sys, j)
    return isotropy_partition(sys, [
        compose(p, invert(q))
        for p, q in zip(sys.generators[i - 1], sys.generators[j - 1])
    ])


def join(parts: Sequence[Partition]) -> Partition:
    """Common refinement: cells are nonempty intersections of input cells."""
    if not parts:
        raise ValidationError("join needs at least one partition")
    n = parts[0].n
    if any(p.n != n for p in parts):
        raise ValidationError("partitions are over different state sets")
    # state x's id is the tuple of its cells in parts
    return Partition.from_cell_ids(list(zip(*(p.cell_of for p in parts))))


def cond_expect(sys: FiniteSystem, f: Observable, part: Partition) -> Observable:
    """Weight-weighted cell average, constant on each cell."""
    if len(f) != sys.n or part.n != sys.n:
        raise ValidationError("observable/partition size mismatch")
    cell_avgs = []
    for cell in part.cells:
        w = sum((sys.weights[x] for x in cell), ZERO)
        if w == 0:
            raise ZeroWeightCell(f"cell {cell} has zero weight")
        cell_avgs.append(sum((f.values[x] * sys.weights[x] for x in cell), ZERO) / w)
    return Observable(tuple(cell_avgs[part.cell_of[x]] for x in range(sys.n)))
