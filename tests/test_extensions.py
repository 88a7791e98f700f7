from fractions import Fraction

import pytest

import oracle
from ergolab.averages import exact_limit
from ergolab.errors import (
    BudgetExceeded,
    InvarianceViolated,
    NotMeasurable,
)
from ergolab.extensions import (
    is_pleasant,
    iterate_extensions,
    one_step_extension,
    pleasant_factor,
)
from ergolab.factors import action_isotropy, cond_expect, difference_isotropy
from ergolab.joinings import JoinedMeasure
from ergolab.observables import Observable
from ergolab.proof import (
    is_measurable,
    pleasant_decompose,
    pull_back,
    reduce_pleasant_limit,
    restrict,
)

from conftest import cell_valued_observable, cyclic_system, random_observable


@pytest.fixture(scope="module")
def ext25():
    return one_step_extension(cyclic_system(5, [1, 2]), budget=10 ** 6)


def test_pleasant_factor_d1_is_isotropy():
    sys_ = cyclic_system(6, [2])
    assert pleasant_factor(sys_) == action_isotropy(sys_, 1)


def test_pleasant_factor_cyclic5_trivial():
    sys_ = cyclic_system(5, [1, 2])
    assert pleasant_factor(sys_) == oracle.one_cell(5)


def test_pleasant_factor_extension_discrete(ext25):
    # cosets of <(1,2)> meet second-coordinate rows in single points (odd n)
    assert oracle.is_discrete(pleasant_factor(ext25.system))


def test_d1_always_pleasant(rng):
    for _ in range(5):
        n = rng.randint(2, 7)
        sys_ = cyclic_system(n, [rng.randint(1, n)])
        rep = is_pleasant(sys_, budget=10 ** 6)
        assert rep.pleasant and rep.defect.is_zero
        # the d=1 limit is exactly the conditional expectation
        f = random_observable(rng, n)
        xi = action_isotropy(sys_, 1)
        assert exact_limit(sys_, [f]) == cond_expect(sys_, f, xi)


def test_cyclic5_not_pleasant():
    sys_ = cyclic_system(5, [1, 2])
    rep = is_pleasant(sys_, budget=10 ** 6)
    assert not rep.pleasant
    assert rep.defect.square > 0
    assert rep.witness is not None
    # the canonical witness pair produces the nonzero limit (1/5) 1_0 - 1/25
    f1 = Observable.indicator(5, 0) - Observable.constant(5, Fraction(1, 5))
    f2 = Observable.indicator(5, 0)
    lim = exact_limit(sys_, [f1, f2])
    assert lim.values == tuple(
        (Fraction(1, 5) if x == 0 else Fraction(0)) - Fraction(1, 25)
        for x in range(5)
    )


def test_extension_shape(ext25):
    ext = ext25.system
    assert ext.n == 25
    assert all(w == Fraction(1, 25) for w in ext.weights)
    # T'_1 = (+1, +2) and T'_2 = (+2, +2) on pairs
    idx = {t: k for k, t in enumerate(ext25.support_tuples)}
    for (a, b), k in idx.items():
        assert ext.generator(1, 1)[k] == idx[((a + 1) % 5, (b + 2) % 5)]
        assert ext.generator(2, 1)[k] == idx[((a + 2) % 5, (b + 2) % 5)]
    # factor map is the first coordinate
    assert ext25.factor_map == tuple(t[0] for t in ext25.support_tuples)


def test_extension_is_pleasant(ext25):
    rep = is_pleasant(ext25.system, budget=10 ** 6)
    assert rep.pleasant and rep.defect.square == 0


def test_extension_d1_is_same_dynamics():
    sys_ = cyclic_system(5, [2])
    stage = one_step_extension(sys_, budget=10 ** 6)
    assert stage.system.n == 5
    assert stage.system.generators == sys_.generators


def test_budget_enforced():
    sys_ = cyclic_system(5, [1, 2])
    with pytest.raises(BudgetExceeded):
        is_pleasant(sys_, budget=10)


@pytest.mark.parametrize("n, steps", [(5, [1, 2]), (4, [1, 2, 3]), (6, [2])])
def test_budget_counts_basis_tuples(n, steps):
    """The budget bounds the n^d basis tuples, however cheap the kernel."""
    sys_ = cyclic_system(n, steps)
    is_pleasant(sys_, budget=n ** len(steps))
    with pytest.raises(BudgetExceeded):
        is_pleasant(sys_, budget=n ** len(steps) - 1)


def test_iterate_budget_boundary_at_a_stage():
    """Stage 1 of cyclic-5 has 25 states, so 25^2 basis tuples: that budget
    builds and tests the stage, one less stops before it."""
    sys_ = cyclic_system(5, [1, 2])
    run = iterate_extensions(sys_, max_m=1, budget=25 ** 2)
    assert run.status == "pleasant"
    assert [stage.system.n for stage in run.stages] == [25]
    run = iterate_extensions(sys_, max_m=1, budget=25 ** 2 - 1)
    assert run.status == "budget-exceeded"
    assert run.stages == ()
    assert run.final_report == is_pleasant(sys_, budget=10 ** 6)


def test_rejected_stage_is_never_lifted(monkeypatch):
    """The budget is checked on the joining's support, before any lift."""
    calls = []
    lift = JoinedMeasure.lift

    def counting_lift(self, coords):
        calls.append(coords)
        return lift(self, coords)

    monkeypatch.setattr(JoinedMeasure, "lift", counting_lift)
    sys_ = cyclic_system(5, [1, 2])
    run = iterate_extensions(sys_, max_m=1, budget=25 ** 2 - 1)
    assert run.status == "budget-exceeded" and run.stages == ()
    assert calls == []
    run = iterate_extensions(sys_, max_m=1, budget=25 ** 2)
    assert run.status == "pleasant"
    assert len(calls) == sys_.d


def test_iterate_builds_each_stage_with_one_step_extension(monkeypatch):
    """Every stage iterate_extensions builds, and every stage it rejects on
    budget, goes through one_step_extension."""
    import ergolab.extensions as extensions

    calls = []
    step = extensions.one_step_extension

    def counting_step(sys_, budget):
        calls.append(sys_.n)
        return step(sys_, budget=budget)

    monkeypatch.setattr(extensions, "one_step_extension", counting_step)
    run = iterate_extensions(cyclic_system(5, [1, 2]), max_m=2, budget=10 ** 6)
    assert run.status == "pleasant"
    assert calls == [5]
    run = iterate_extensions(cyclic_system(5, [1, 2]), max_m=2, budget=25 ** 2 - 1)
    assert run.status == "budget-exceeded"
    assert calls == [5, 5]


def test_iterate_stops_immediately_when_pleasant():
    sys_ = cyclic_system(6, [2])  # d=1, always pleasant
    run = iterate_extensions(sys_, max_m=1, budget=10 ** 6)
    assert run.status == "pleasant"
    assert run.stages == ()
    assert run.final_report.pleasant


def test_iterate_cyclic5_pleasant_at_m1():
    run = iterate_extensions(cyclic_system(5, [1, 2]), max_m=2, budget=10 ** 6)
    assert run.status == "pleasant"
    assert len(run.stages) == 1
    assert run.stages[0].system.n == 25
    assert run.final_report.pleasant


def test_iterate_budget_reported_not_raised():
    run = iterate_extensions(cyclic_system(5, [1, 2]), max_m=3, budget=30)
    assert run.status == "budget-exceeded"
    assert not run.final_report.pleasant


def test_iterate_cyclic4_runs_to_verdict():
    # even modulus: no a-priori claim, just a well-formed deterministic verdict
    run = iterate_extensions(cyclic_system(4, [1, 2]), max_m=2, budget=10 ** 6)
    assert run.status in ("pleasant", "max-m-reached", "budget-exceeded")
    again = iterate_extensions(cyclic_system(4, [1, 2]), max_m=2, budget=10 ** 6)
    assert again.status == run.status
    assert again.final_report.defect.square == run.final_report.defect.square


def test_pull_back(ext25):
    f = Observable.indicator(5, 0)
    lifted = pull_back(ext25, f)
    for k, t in enumerate(ext25.support_tuples):
        assert lifted.values[k] == f.values[t[0]]


def constituents_of(sys_):
    return [action_isotropy(sys_, 1)] + [
        difference_isotropy(sys_, i, 1) for i in range(2, sys_.d + 1)
    ]


def test_decompose_constant(ext25):
    ext = ext25.system
    f = Observable.constant(ext.n, Fraction(5, 3))
    tuples = pleasant_decompose(ext, f, constituents_of(ext))
    assert len(tuples) == 1
    resum = tuples[0][0]
    for g in tuples[0][1:]:
        resum = resum * g
    assert resum == f


def test_decompose_not_measurable():
    sys_ = cyclic_system(5, [1, 2])  # all constituents trivial
    f = Observable.indicator(5, 0)
    with pytest.raises(NotMeasurable):
        pleasant_decompose(sys_, f, constituents_of(sys_))


def test_decompose_resums_exactly(ext25, rng):
    ext = ext25.system
    cons = constituents_of(ext)
    for _ in range(20):
        f = random_observable(rng, ext.n)
        tuples = pleasant_decompose(ext, f, cons)
        resum = Observable.constant(ext.n, 0)
        for gs in tuples:
            prod = gs[0]
            for g in gs[1:]:
                prod = prod * g
            resum = resum + prod
        assert resum == f
        for gs in tuples:
            assert is_measurable(gs[0], cons[0])
            for g, part in zip(gs[1:], cons[1:]):
                assert is_measurable(g, part)


def test_reduce_trivial_g1_constant(ext25, rng):
    ext = ext25.system
    g1 = Observable.constant(ext.n, Fraction(7, 2))
    ones = Observable.constant(ext.n, 1)
    f2 = random_observable(rng, ext.n)
    out = reduce_pleasant_limit(ext, [(g1, ones)], [f2])
    expected = g1 * exact_limit(restrict(ext, [2]), [f2])
    assert out == expected


def test_reduce_invariance_checked(ext25, rng):
    ext = ext25.system
    bad = Observable.indicator(ext.n, 0)  # not T'_1 invariant
    ones = Observable.constant(ext.n, 1)
    with pytest.raises(InvarianceViolated):
        reduce_pleasant_limit(ext, [(bad, ones)], [random_observable(rng, ext.n)])


def test_reduce_fuzz(ext25, rng):
    ext = ext25.system
    cons = constituents_of(ext)
    for _ in range(25):
        tuples = [
            tuple(cell_valued_observable(rng, part) for part in cons)
            for _ in range(rng.randint(1, 3))
        ]
        f2 = random_observable(rng, ext.n)
        # the function itself asserts agreement with the direct limit
        reduce_pleasant_limit(ext, tuples, [f2])
