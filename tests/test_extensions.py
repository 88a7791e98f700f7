import random
from fractions import Fraction

import pytest

import oracle
from ergolab.averages import exact_limit
from ergolab.errors import (
    BudgetExceeded,
    InternalInvariantViolation,
    InvarianceViolated,
    NotMeasurable,
)
from ergolab.extensions import (
    ExtensionStage,
    extend_to_pleasant,
    is_pleasant,
    one_step_extension,
    pleasant_factor,
)
from ergolab.factors import action_isotropy, cond_expect, difference_isotropy
from ergolab.joinings import JoinedMeasure, furstenberg_joining
from ergolab.observables import Observable
from ergolab.proof import (
    is_measurable,
    pleasant_decompose,
    pull_back,
    reduce_pleasant_limit,
    restrict,
)
from ergolab.reports.extensions import extend
from ergolab.scenario import bundled_scenario_dir, load_scenario
from ergolab.system import FiniteSystem

from conftest import cell_valued_observable, cyclic_system, random_observable, run_cli


@pytest.fixture(scope="module")
def ext25():
    return one_step_extension(cyclic_system(5, [1, 2]), budget=10 ** 6)


@pytest.fixture(scope="module")
def supp25():
    """The Furstenberg joining's support, whose k-th tuple is ext25's
    state k."""
    return furstenberg_joining(cyclic_system(5, [1, 2])).support


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
        assert rep.pleasant and rep.defect_square == 0
        # the d=1 limit is exactly the conditional expectation
        f = random_observable(rng, n)
        xi = action_isotropy(sys_, 1)
        assert exact_limit(sys_, [f]) == cond_expect(sys_, f, xi)


def test_cyclic5_not_pleasant():
    sys_ = cyclic_system(5, [1, 2])
    rep = is_pleasant(sys_, budget=10 ** 6)
    assert not rep.pleasant
    assert rep.defect_square > 0
    assert rep.witness is not None
    # the canonical witness pair produces the nonzero limit (1/5) 1_0 - 1/25
    f1 = Observable.indicator(5, 0) - Observable.constant(5, Fraction(1, 5))
    f2 = Observable.indicator(5, 0)
    lim = exact_limit(sys_, [f1, f2])
    assert lim.values == tuple(
        (Fraction(1, 5) if x == 0 else Fraction(0)) - Fraction(1, 25)
        for x in range(5)
    )


def test_extension_shape(ext25, supp25):
    ext = ext25.system
    assert ext.n == 25
    assert all(w == Fraction(1, 25) for w in ext.weights)
    # T'_1 = (+1, +2) and T'_2 = (+2, +2) on pairs
    idx = {t: k for k, t in enumerate(supp25)}
    for (a, b), k in idx.items():
        assert ext.generators[0][0][k] == idx[((a + 1) % 5, (b + 2) % 5)]
        assert ext.generators[1][0][k] == idx[((a + 2) % 5, (b + 2) % 5)]
    # factor map is the first coordinate
    assert ext25.factor_map == tuple(t[0] for t in supp25)


def test_extension_is_pleasant(ext25):
    rep = is_pleasant(ext25.system, budget=10 ** 6)
    assert rep.pleasant and rep.defect_square == 0


def test_discrete_factor_sweeps_no_basis(ext25, monkeypatch):
    """Xi of the extension is discrete on the support, so no state is a
    candidate for the witness: the defect is 0 with no basis swept."""
    import ergolab.extensions as extensions

    def no_sweep(sys_):
        raise AssertionError("basis_counts swept a discrete factor")

    monkeypatch.setattr(extensions, "basis_counts", no_sweep)
    rep = is_pleasant(ext25.system, budget=10 ** 6)
    assert rep.defect_square == 0 and rep.witness is None


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


def test_extend_budget_boundary_at_a_stage():
    """Stage 1 of cyclic-5 has 25 states, so 25^2 basis tuples: that budget
    builds and tests the stage, one less stops before it."""
    sys_ = cyclic_system(5, [1, 2])
    stage, report = extend_to_pleasant(sys_, budget=25 ** 2)
    assert stage.system.n == 25 and report.pleasant
    stage, report = extend_to_pleasant(sys_, budget=25 ** 2 - 1)
    assert stage is None
    assert report == is_pleasant(sys_, budget=10 ** 6)


def test_rejected_stage_is_never_lifted(monkeypatch):
    """The budget is checked on the joining's support, before any lift."""
    calls = []
    lift = JoinedMeasure.lift

    def counting_lift(self, coords):
        calls.append(coords)
        return lift(self, coords)

    monkeypatch.setattr(JoinedMeasure, "lift", counting_lift)
    sys_ = cyclic_system(5, [1, 2])
    stage, _ = extend_to_pleasant(sys_, budget=25 ** 2 - 1)
    assert stage is None
    assert calls == []
    stage, report = extend_to_pleasant(sys_, budget=25 ** 2)
    assert stage is not None and report.pleasant
    assert len(calls) == sys_.d


def test_extend_builds_its_stage_with_one_step_extension(monkeypatch):
    """The stage extend_to_pleasant builds, and the stage it rejects on
    budget, each go through one_step_extension."""
    import ergolab.extensions as extensions

    calls = []
    step = extensions.one_step_extension

    def counting_step(sys_, budget):
        calls.append(sys_.n)
        return step(sys_, budget=budget)

    monkeypatch.setattr(extensions, "one_step_extension", counting_step)
    stage, _ = extend_to_pleasant(cyclic_system(5, [1, 2]), budget=10 ** 6)
    assert stage is not None
    assert calls == [5]
    stage, _ = extend_to_pleasant(cyclic_system(5, [1, 2]), budget=25 ** 2 - 1)
    assert stage is None
    assert calls == [5, 5]


def test_extend_builds_nothing_when_pleasant(monkeypatch):
    import ergolab.extensions as extensions

    def no_step(sys_, budget):
        raise AssertionError("a pleasant system was extended")

    monkeypatch.setattr(extensions, "one_step_extension", no_step)
    sys_ = cyclic_system(6, [2])  # d=1, always pleasant
    stage, report = extend_to_pleasant(sys_, budget=10 ** 6)
    assert stage is None
    assert report.pleasant


def test_extend_cyclic5_pleasant_in_one_step():
    stage, report = extend_to_pleasant(cyclic_system(5, [1, 2]), budget=10 ** 6)
    assert stage.system.n == 25
    assert report.pleasant
    assert report == is_pleasant(stage.system, budget=10 ** 6)


def test_extend_budget_reported_not_raised():
    stage, report = extend_to_pleasant(cyclic_system(5, [1, 2]), budget=30)
    assert stage is None
    assert not report.pleasant


def test_extend_cyclic4_pleasant_in_one_step():
    # even modulus: Xi of the stage is not discrete, yet the stage is pleasant
    stage, report = extend_to_pleasant(cyclic_system(4, [1, 2]), budget=10 ** 6)
    assert stage.system.n == 16
    assert report.pleasant and report.defect_square == 0


def test_a_stage_that_is_not_pleasant_is_a_bug(monkeypatch, tmp_path):
    """A first stage is always pleasant, so one that is not raises
    InternalInvariantViolation, which extend reports as exit 3."""
    import ergolab.extensions as extensions

    def base_as_stage(sys_, budget):
        return ExtensionStage(system=sys_, factor_map=tuple(range(sys_.n)))

    monkeypatch.setattr(extensions, "one_step_extension", base_as_stage)
    with pytest.raises(InternalInvariantViolation):
        extend_to_pleasant(cyclic_system(5, [1, 2]), budget=10 ** 6)
    scenario = bundled_scenario_dir() / "cyclic-5.json"
    result = run_cli(["extend", "--scenario", str(scenario), "--out", str(tmp_path)])
    assert result.exit_code == 3
    assert result.stdout == ""
    assert result.stderr.startswith("internal invariant violation (bug): ")
    assert result.stderr.count("\n") == 1 and result.stderr.endswith("\n")


# each bundled finite scenario's extend stage sizes; cyclic-6 is pleasant
BUNDLED_STAGES = {
    "cyclic-4": [16], "cyclic-5": [25], "cyclic-6": [], "cyclic-7": [49],
    "cyclic-9": [81], "product-2x3": [18],
}


@pytest.mark.parametrize("name", sorted(BUNDLED_STAGES))
def test_bundled_scenarios_extend_to_pleasant(name):
    report = extend(load_scenario(bundled_scenario_dir() / f"{name}.json"))
    assert report["status"] == "pleasant" and report["final"]["pleasant"]
    assert [s["states"] for s in report["stages"]] == BUNDLED_STAGES[name]


def random_translation_system(rng):
    """A disjoint union of one or two components Z/a x Z/b (a <= 6, b <= 3,
    n <= 14), each generator a random translation on each component, with
    the states relabelled at random; r in {1, 2}, d in {2, 3}, and weights
    constant on each component, one of two components possibly null."""
    while True:
        shapes = [(rng.randint(1, 6), rng.randint(1, 3))
                  for _ in range(rng.randint(1, 2))]
        if sum(a * b for a, b in shapes) <= 14:
            break
    r, d = rng.randint(1, 2), rng.randint(2, 3)
    states = [(k, u, v) for k, (a, b) in enumerate(shapes)
              for u in range(a) for v in range(b)]
    names = list(range(len(states)))
    rng.shuffle(names)
    name = dict(zip(states, names))

    def translation():
        shifts = [(rng.randrange(a), rng.randrange(b)) for a, b in shapes]
        perm = [0] * len(states)
        for k, u, v in states:
            (a, b), (s, t) = shapes[k], shifts[k]
            perm[name[k, u, v]] = name[k, (u + s) % a, (v + t) % b]
        return tuple(perm)

    mass = [rng.randint(1, 3) for _ in shapes]
    if len(shapes) == 2 and rng.random() < 0.25:
        mass[rng.randrange(2)] = 0
    weights = [0] * len(states)
    for k, u, v in states:
        a, b = shapes[k]
        weights[name[k, u, v]] = Fraction(mass[k], sum(mass) * a * b)
    return FiniteSystem(
        n=len(states), r=r, d=d, weights=tuple(weights),
        generators=tuple(tuple(translation() for _ in range(r)) for _ in range(d)),
    )


def test_one_step_theorem_on_random_translation_systems():
    """Item 20 of ROADMAP.md: on a finite system every first extension stage
    is pleasant.  Checked on the first 200 non-pleasant draws whose stage
    fits a 3*10^6 budget."""
    rng, budget, stages = random.Random(20), 3 * 10 ** 6, 0
    while stages < 200:
        sys_ = random_translation_system(rng)
        if is_pleasant(sys_, budget=budget).pleasant:
            continue
        try:
            stage = one_step_extension(sys_, budget=budget)
        except BudgetExceeded:
            continue
        assert is_pleasant(stage.system, budget=budget).pleasant
        stages += 1


def test_pull_back(ext25, supp25):
    f = Observable.indicator(5, 0)
    lifted = pull_back(ext25, f)
    for k, t in enumerate(supp25):
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
