import random
from fractions import Fraction

import pytest

import oracle
from ergolab.errors import ZeroWeightCell
from ergolab.factors import (
    Partition,
    action_isotropy,
    cond_expect,
    difference_isotropy,
    isotropy_partition,
    join,
)
from ergolab.observables import Observable
from ergolab.proof import is_measurable

from conftest import cyclic_system, random_observable


def test_from_cell_ids_is_canonical_without_sorting():
    """Cells come in order of least member, members sorted, for any labels."""
    rng = random.Random(21)
    for _ in range(100):
        n = rng.randint(1, 12)
        labels = rng.sample(range(-50, 50), rng.randint(1, n))
        ids = [rng.choice(labels) for _ in range(n)]
        part = Partition.from_cell_ids(ids)
        # disjoint sorted tuples sort by their least members
        assert part.cells == tuple(sorted(
            tuple(sorted(x for x in range(n) if ids[x] == c)) for c in set(ids)
        ))
        assert all(x in part.cells[k] for x, k in enumerate(part.cell_of))


def test_trivial_subgroup_gives_singletons():
    sys_ = cyclic_system(5, [1, 2])
    assert isotropy_partition(sys_, []) == oracle.singletons(5)


def test_cyclic6_plus2_subgroup_orbits():
    sys_ = cyclic_system(6, [2, 3])
    part = isotropy_partition(sys_, [sys_.generators[0][0]])  # +2
    assert part.cells == ((0, 2, 4), (1, 3, 5))


def test_difference_isotropy_cyclic5_is_trivial():
    # +2 - (+1) = +1 is transitive, so a single cell
    sys_ = cyclic_system(5, [1, 2])
    part = difference_isotropy(sys_, 2, 1)
    assert part == oracle.one_cell(5)
    assert action_isotropy(sys_, 1) == oracle.one_cell(5)
    assert action_isotropy(sys_, 2) == oracle.one_cell(5)


def test_difference_isotropy_cyclic6_even_steps():
    sys_ = cyclic_system(6, [2, 4])
    part = difference_isotropy(sys_, 2, 1)
    assert part.cells == ((0, 2, 4), (1, 3, 5))


def test_join_to_singletons():
    a = Partition.from_cell_ids([0, 1, 0, 1, 0, 1])  # {0,2,4},{1,3,5}
    b = Partition.from_cell_ids([0, 1, 2, 0, 1, 2])  # {0,3},{1,4},{2,5}
    assert join([a, b]) == oracle.singletons(6)


def test_join_is_idempotent_and_refines(rng):
    for _ in range(30):
        n = rng.randint(2, 10)
        a = Partition.from_cell_ids([rng.randint(0, 2) for _ in range(n)])
        b = Partition.from_cell_ids([rng.randint(0, 2) for _ in range(n)])
        j = join([a, b])
        assert join([j, a]) == j
        assert oracle.refines(j, a) and oracle.refines(j, b)


def test_cond_expect_constant_fixed_point():
    sys_ = cyclic_system(4, [1, 2])
    f = Observable.constant(4, Fraction(3, 7))
    part = Partition.from_cell_ids([0, 1, 0, 1])
    assert cond_expect(sys_, f, part) == f


def test_cond_expect_singletons_fixed_point(rng):
    sys_ = cyclic_system(6, [1, 2])
    f = random_observable(rng, 6)
    assert cond_expect(sys_, f, oracle.singletons(6)) == f


def test_cond_expect_cell_average():
    sys_ = cyclic_system(4, [1, 2])
    f = Observable.indicator(4, 0)
    part = Partition.from_cell_ids([0, 1, 0, 1])
    out = cond_expect(sys_, f, part)
    assert out.values == (Fraction(1, 2), Fraction(0), Fraction(1, 2), Fraction(0))


def test_cond_expect_zero_weight_cell_raises():
    sys_ = cyclic_system(
        4, [2, 2], weights=[Fraction(1, 2), Fraction(0), Fraction(1, 2), Fraction(0)]
    )
    f = Observable.indicator(4, 0)
    with pytest.raises(ZeroWeightCell):
        cond_expect(sys_, f, oracle.singletons(4))


def test_cond_expect_tower_and_integral(rng):
    sys_ = cyclic_system(6, [1, 2])
    coarse = oracle.one_cell(6)
    fine = Partition.from_cell_ids([0, 1, 0, 1, 0, 1])
    for _ in range(40):
        f = random_observable(rng, 6)
        ef = cond_expect(sys_, f, fine)
        # projection: idempotent, integral-preserving, tower property
        assert cond_expect(sys_, ef, fine) == ef
        assert oracle.integral(ef, sys_.weights) == oracle.integral(f, sys_.weights)
        assert cond_expect(sys_, ef, coarse) == cond_expect(sys_, f, coarse)
        assert is_measurable(ef, fine)


def test_is_measurable_edges():
    one_cell = oracle.one_cell(4)
    assert is_measurable(Observable.constant(4, Fraction(5)), one_cell)
    assert not is_measurable(Observable.indicator(4, 0), one_cell)
