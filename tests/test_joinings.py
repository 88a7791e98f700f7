import itertools
from fractions import Fraction

import pytest

import oracle
from ergolab.averages import exact_limit
from ergolab.errors import ValidationError
from ergolab.factors import Partition, cond_expect
from ergolab.joinings import (
    JoinedMeasure,
    diagonal_action_name,
    furstenberg_joining,
    host_kra_expected_t1,
    host_kra_structural_check,
    host_kra_tower,
)
from ergolab.observables import Observable
from ergolab.proof import (
    hk_condition_check,
    joining_integral,
    orbit_cells,
    vdc_condition_check,
)
from ergolab.system import FiniteSystem
from ergolab.extensions import one_step_extension, pleasant_factor

from conftest import cyclic_system, random_observable


def test_furstenberg_cyclic5_uniform_on_pairs():
    # (x+n, x+2n) sweeps Z/5 x Z/5 uniformly
    sys_ = cyclic_system(5, [1, 2])
    jm = furstenberg_joining(sys_)
    assert len(jm.support) == 25
    assert all(m == Fraction(1, 25) for m in jm.mass.values())


def test_furstenberg_oracle_cyclic4():
    sys_ = cyclic_system(4, [1, 2])
    expected = {}
    for x in range(4):
        for n in range(4):
            t = ((x + n) % 4, (x + 2 * n) % 4)
            expected[t] = expected.get(t, Fraction(0)) + Fraction(1, 16)
    jm = furstenberg_joining(sys_)
    assert jm.mass == expected


def test_furstenberg_properties(finite_corpus, rng):
    for scn in finite_corpus:
        sys_ = scn.system
        jm = furstenberg_joining(sys_)
        assert jm.marginals_equal_base()
        for name in jm.actions:
            assert jm.is_invariant(name)
        for _ in range(5):
            shift = tuple(rng.randint(-30, 30) for _ in range(sys_.r))
            assert oracle.furstenberg_mass(sys_, shift) == jm.mass


def test_joining_integral_constants():
    sys_ = cyclic_system(5, [1, 2])
    jm = furstenberg_joining(sys_)
    c1, c2 = Fraction(3, 4), Fraction(-2, 7)
    fs = [Observable.constant(5, c1), Observable.constant(5, c2)]
    assert joining_integral(jm, fs) == c1 * c2


def test_joining_integral_diagonal_indicator():
    sys_ = cyclic_system(5, [1, 2])
    jm = furstenberg_joining(sys_)
    f1 = Observable.indicator(5, 0) - Observable.constant(5, Fraction(1, 5))
    f2 = Observable.indicator(5, 0)
    diag = {t: Fraction(1) for t in jm.support if t[0] == t[1]}
    # oracle: direct sum over the 25 uniform support points
    expected = Fraction(0)
    for (a, b), m in jm.mass.items():
        if a == b:
            expected += m * f1.values[a] * f2.values[b]
    assert joining_integral(jm, [f1, f2], diag) == expected
    assert expected != 0


def test_joining_integral_matches_fraction_sum(finite_corpus, rng):
    """The int sum over the support equals the Fraction sum over the mass,
    with g = None and with a seeded g dict that misses about half the
    support (a missing tuple counts as 0), on every bundled finite
    scenario's Furstenberg joining and top Host-Kra stage."""
    for scn in finite_corpus:
        sys_ = scn.system
        for jm in (furstenberg_joining(sys_), host_kra_tower(sys_)[-1]):
            fs = [random_observable(rng, sys_.n) for _ in range(jm.power)]
            g = {
                t: Fraction(rng.randint(-5, 5), rng.randint(1, 7))
                for t in jm.support
                if rng.random() < 0.5
            }
            g[(-1,) * jm.power] = Fraction(1)  # off the support: never read
            for gv in (None, g):
                want = Fraction(0)
                for t, m in jm.mass.items():
                    term = m if gv is None else m * gv.get(t, 0)
                    for f, x in zip(fs, t):
                        term *= f.values[x]
                    want += term
                assert joining_integral(jm, fs, gv) == want, (scn.name, gv is None)


def test_vdc_condition_zero_observable():
    sys_ = cyclic_system(5, [1, 2])
    ok, witness = vdc_condition_check(sys_, Observable.constant(5, 0))
    assert ok and witness is None


def test_vdc_condition_counterexample_witness():
    sys_ = cyclic_system(5, [1, 2])
    f1 = Observable.indicator(5, 0) - Observable.constant(5, Fraction(1, 5))
    ok, witness = vdc_condition_check(sys_, f1)
    assert not ok
    assert witness is not None and witness.integral != 0
    # consistent with the nonvanishing limit for this f_1
    lim = exact_limit(sys_, [f1, Observable.indicator(5, 0)])
    assert not lim.is_zero
    # the witness's integral, summed in Fractions over its cell
    jm = furstenberg_joining(sys_)
    cell = next(
        c for c in orbit_cells(jm, diagonal_action_name(jm))
        if witness.cell_representative in c
    )
    assert witness.integral == sum(
        jm.mass[t] * f1.values[t[0]]
        for t in cell if t[1:] == witness.basis_states
    )


def test_vdc_condition_true_on_pleasant_extension():
    base = cyclic_system(5, [1, 2])
    ext = one_step_extension(base, budget=10 ** 6).system
    xi = pleasant_factor(ext)
    e0 = Observable.indicator(ext.n, 0)
    f1 = e0 - cond_expect(ext, e0, xi)
    ok, witness = vdc_condition_check(ext, f1)
    assert ok and witness is None


def test_orbit_cells_cover_support():
    sys_ = cyclic_system(5, [1, 2])
    jm = furstenberg_joining(sys_)
    cells = orbit_cells(jm, diagonal_action_name(jm))
    seen = sorted(t for cell in cells for t in cell)
    assert seen == jm.support


def test_rel_indep_parity_cells():
    sys_ = cyclic_system(6, [2, 4])
    part = Partition.from_cell_ids([0, 1, 0, 1, 0, 1])
    jm = oracle.rel_indep_joining(sys_, part)
    for (a, b), m in jm.mass.items():
        assert (a - b) % 2 == 0
        assert m == Fraction(1, 18)
    assert len(jm.mass) == 18
    assert jm.marginals_equal_base()


def test_is_invariant_checks_every_axis():
    """A rank-2 action whose one axis fixes every state and whose other
    rotates: a non-uniform measure is invariant under the first only."""
    rotate, still = (1, 2, 3, 0), (0, 1, 2, 3)
    masses = {(x,): Fraction(x + 1, 10) for x in range(4)}
    for gens in [(still, rotate), (rotate, still)]:
        sys_ = FiniteSystem(n=4, r=2, d=1, weights=(Fraction(1, 4),) * 4,
                            generators=(gens,))
        jm = oracle.joined_measure(sys_, 1, masses, {"T1": (1,), "id": (0,)})
        assert not jm.is_invariant("T1")
        assert jm.is_invariant("id")


def test_host_kra_cyclic5_stage1_is_product():
    # Sigma^{T_1} trivial (+1 transitive), so mu^[1] = mu x mu
    sys_ = cyclic_system(5, [1, 2])
    tower = host_kra_tower(sys_)
    stage1 = tower[0]
    assert stage1.mass == {
        (a, b): Fraction(1, 25) for a in range(5) for b in range(5)
    }


def test_host_kra_marginals_and_invariance(finite_corpus):
    for scn in finite_corpus:
        tower = host_kra_tower(scn.system)
        assert len(tower) == scn.system.d
        for jm in tower:
            assert jm.marginals_equal_base()
            for name in jm.actions:
                assert jm.is_invariant(name)


def test_host_kra_structural_closed_form(finite_corpus):
    for scn in finite_corpus:
        jm = host_kra_tower(scn.system)[-1]
        assert host_kra_structural_check(jm)


def test_host_kra_expected_t1_values():
    labels = [frozenset(), frozenset({1}), frozenset({2}), frozenset({1, 2})]
    assert host_kra_expected_t1(labels) == (1, 0, 2, 2)


def test_host_kra_stage2_oracle_cyclic5():
    # independent brute force of the second stage over the product measure
    sys_ = cyclic_system(5, [1, 2])
    tower = host_kra_tower(sys_)
    stage1, stage2 = tower
    # stage-1 difference action T_1 x id minus T_2 x T_2 = (-1, -2): transitive
    # on each coordinate pair orbit; compute its orbits directly
    supp = sorted(stage1.mass)
    orbit_id = {}
    for t in supp:
        if t in orbit_id:
            continue
        cur, k = t, len(orbit_id)
        while cur not in orbit_id:
            orbit_id[cur] = k
            cur = ((cur[0] + 1 - 2) % 5, (cur[1] - 2) % 5)
    masses = {}
    weight = {}
    for t, m in stage1.mass.items():
        weight[orbit_id[t]] = weight.get(orbit_id[t], Fraction(0)) + m
    for u in supp:
        for v in supp:
            if orbit_id[u] == orbit_id[v]:
                masses[u + v] = (
                    stage1.mass[u] * stage1.mass[v] / weight[orbit_id[u]]
                )
    assert stage2.mass == masses


def test_hk_condition_check_cases():
    sys_ = cyclic_system(5, [1, 2])
    assert hk_condition_check(sys_, Observable.constant(5, 0))
    f1 = Observable.indicator(5, 0) - Observable.constant(5, Fraction(1, 5))
    assert not hk_condition_check(sys_, f1)


@pytest.mark.parametrize(
    "mass, message",
    [
        (([(0, 1), (1, 0)], [9, -3], 6), "must be positive"),
        (([(0, 1), (1, 0)], [3, 2], 6), "sum to exactly 1"),
        (([], [], 6), "sum to exactly 1"),
        (([(0, 1), (1,)], [3, 3], 6), "differs from power"),
        (([(0, 1), (1, 0)], [3, 0], 3), "must be positive"),
        (([(0, 1), (1, 0)], [6], 6), "differ in length"),
    ],
)
def test_joined_measure_rejects(mass, message):
    """mass is (support, weights, denom); a zero weight is rejected, not
    dropped."""
    sys_ = cyclic_system(5, [1, 2])
    with pytest.raises(ValidationError, match=message):
        JoinedMeasure(sys_, 2, *mass, {})


def test_joined_measure_weights_over_least_denominator():
    sys_ = cyclic_system(5, [1, 2])
    jm = JoinedMeasure(sys_, 2, [(0, 1), (1, 0)], [6, 2], 8, {})
    assert (jm.support_weights, jm.denom) == ([3, 1], 4)
    assert jm.mass == {(0, 1): Fraction(3, 4), (1, 0): Fraction(1, 4)}
    assert jm.support == [(0, 1), (1, 0)] and len(jm.mass) == 2
