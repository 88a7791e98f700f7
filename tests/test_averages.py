import itertools
import random
from fractions import Fraction

import pytest

import oracle
from ergolab.averages import (
    FolnerBox,
    deviation_bound,
    exact_limit,
    residues,
    truncated_average,
)
from ergolab.errors import DimensionMismatch, ValidationError
from ergolab.extensions import basis_counts
from ergolab.joinings import furstenberg_joining
from ergolab.observables import Observable, l2_square
from ergolab.proof import (
    contractive_check, restrict, vdc_correlation, vdc_identity_check,
)
from ergolab.scenario import bundled_scenario_dir, load_scenario
from ergolab.system import FiniteSystem, period_box

from conftest import (
    cyclic_system,
    generated_finite_scenarios,
    random_observable,
    run_cli,
)


def oracle_average(sys_, fs, pts):
    """Straight-line reimplementation: no shared code with the library
    beyond generator lookup."""
    total = [Fraction(0)] * sys_.n
    for nvec in pts:
        for x in range(sys_.n):
            prod = Fraction(1)
            for i, f in enumerate(fs, start=1):
                y = x
                for j, e in enumerate(nvec, start=1):
                    p = sys_.generator(i, j)
                    if e >= 0:
                        for _ in range(e):
                            y = p[y]
                    else:
                        inv = [0] * sys_.n
                        for a, b in enumerate(p):
                            inv[b] = a
                        for _ in range(-e):
                            y = inv[y]
                prod *= f.values[y]
            total[x] += prod
    return tuple(t / len(pts) for t in total)


def test_constant_observables_any_box(rng):
    for _ in range(10):
        sys_ = cyclic_system(rng.randint(2, 7), [1, rng.randint(1, 3)])
        c1 = Fraction(rng.randint(-3, 3), rng.randint(1, 4))
        c2 = Fraction(rng.randint(-3, 3), rng.randint(1, 4))
        fs = [Observable.constant(sys_.n, c1), Observable.constant(sys_.n, c2)]
        box = FolnerBox((rng.randint(1, 6),), (rng.randint(-5, 5),))
        avg = truncated_average(sys_, fs, box)
        assert avg == Observable.constant(sys_.n, c1 * c2)
        assert exact_limit(sys_, fs) == Observable.constant(sys_.n, c1 * c2)


def test_cyclic4_truncated_box():
    # only the n = 0 term survives at x = 0
    sys_ = cyclic_system(4, [1, 2])
    f = Observable.indicator(4, 0)
    avg = truncated_average(sys_, [f, f], FolnerBox((4,)))
    assert avg.values == (Fraction(1, 4), 0, 0, 0)


def test_cyclic5_exact_limit():
    # n = -x and 2n = -x mod 5 force x = n = 0
    sys_ = cyclic_system(5, [1, 2])
    f = Observable.indicator(5, 0)
    lim = exact_limit(sys_, [f, f])
    assert lim.values == (Fraction(1, 5), 0, 0, 0, 0)


def test_truncated_average_against_oracle(rng):
    for _ in range(25):
        n = rng.randint(2, 6)
        sys_ = cyclic_system(n, [rng.randint(1, n), rng.randint(1, n)])
        fs = [random_observable(rng, n) for _ in range(2)]
        box = FolnerBox((rng.randint(1, 5),), (rng.randint(-4, 4),))
        avg = truncated_average(sys_, fs, box)
        assert avg.values == oracle_average(sys_, fs, oracle.box_points(box))


def test_explicit_point_list_escape_hatch(rng):
    sys_ = cyclic_system(6, [1, 2])
    fs = [random_observable(rng, 6) for _ in range(2)]
    pts = [(rng.randint(-9, 9),) for _ in range(7)]
    avg = truncated_average(sys_, fs, pts)
    assert avg.values == oracle_average(sys_, fs, pts)
    with pytest.raises(ValidationError):
        truncated_average(sys_, fs, [])
    # dimensions are checked before points are reduced modulo the period
    for bad in ([(1, 2)], [(0,), ()]):
        with pytest.raises(DimensionMismatch):
            truncated_average(sys_, fs, bad)


def test_argument_checking():
    sys_ = cyclic_system(5, [1, 2])
    f = Observable.indicator(5, 0)
    with pytest.raises(DimensionMismatch):
        exact_limit(sys_, [f])
    with pytest.raises(DimensionMismatch):
        exact_limit(sys_, [f, Observable.indicator(4, 0)])


@pytest.mark.parametrize("bad", [0, -1, 3])
def test_action_index_out_of_range(bad):
    """An action index outside 1..d is rejected, not wrapped onto action d
    by negative indexing or left to a bare IndexError; an empty subset is
    rejected as a system of no actions."""
    sys_ = cyclic_system(5, [1, 2])  # d = 2
    for acts in ([bad], [1, bad], [bad, 2]):
        with pytest.raises(ValidationError, match="action index out of range 1..2"):
            restrict(sys_, acts)
    with pytest.raises(ValidationError, match="must all be positive"):
        restrict(sys_, [])


def test_restrict_reordered_subset():
    """restrict(sys, [2, 1]) swaps the actions and keeps the states, their
    weights and labels; its averages are the whole system's with the
    observables swapped."""
    product = load_scenario(bundled_scenario_dir() / "product-2x3.json").system
    # a 2-cycle and a 3-cycle of unequal weight, with labels
    two_cycles = FiniteSystem(
        5, 1, 2, (Fraction(1, 6),) * 2 + (Fraction(2, 9),) * 3,
        (((1, 0, 3, 4, 2),), ((0, 1, 4, 2, 3),)), ("a0", "a1", "b0", "b1", "b2"),
    )
    rng = random.Random(16)
    for sys_ in (cyclic_system(7, [1, 3]), product, two_cycles):
        swapped = restrict(sys_, [2, 1])
        assert (swapped.n, swapped.r, swapped.d) == (sys_.n, sys_.r, 2)
        assert swapped.generators == (sys_.generators[1], sys_.generators[0])
        assert swapped.weights == sys_.weights and swapped.labels == sys_.labels
        f1, f2 = (random_observable(rng, sys_.n) for _ in range(2))
        assert exact_limit(swapped, [f1, f2]) == exact_limit(sys_, [f2, f1])
        box = FolnerBox(tuple(rng.randint(1, 9) for _ in range(sys_.r)))
        assert truncated_average(swapped, [f1, f2], box) == oracle.truncated_average(
            sys_, [f1, f2], oracle.box_points(box), [2, 1]
        )


def test_wrong_dimension_lattice_vectors_rejected():
    """A box, point or shift of the wrong rank is an error, not cut short or
    padded by zip; the bound of an empty point list is an error too."""
    sys_ = cyclic_system(5, [1, 2])  # r = 1
    f = Observable.indicator(5, 0)
    for where in (FolnerBox((7, 3)), [(1,), (1, 2)], [()]):
        with pytest.raises(DimensionMismatch):
            deviation_bound(sys_, [f, f], where)
    with pytest.raises(ValidationError, match="empty lattice point list"):
        deviation_bound(sys_, [f, f], [])
    for m in [(1, 4), ()]:
        with pytest.raises(DimensionMismatch):
            vdc_correlation(sys_, [f, f], m)


def test_limit_base_point_free(rng):
    sys_ = cyclic_system(6, [2, 3])
    fs = [random_observable(rng, 6) for _ in range(2)]
    lim = exact_limit(sys_, fs)
    P = period_box(sys_).lengths
    for _ in range(10):
        base = (rng.randint(-20, 20),)
        shifted = truncated_average(sys_, fs, FolnerBox(P, base))
        assert shifted == lim


def test_deviation_bound_cyclic5_n7():
    sys_ = cyclic_system(5, [1, 2])
    f1 = Observable.indicator(5, 0) - Observable.constant(5, Fraction(1, 5))
    f2 = Observable.indicator(5, 0)
    box = FolnerBox((7,))
    bound = deviation_bound(sys_, [f1, f2], box)
    # 2 * (1 - 5/7) = 4/7 times ||f_1||_2
    assert bound.square == Fraction(16, 49) * l2_square(f1, sys_.weights)
    truncated = truncated_average(sys_, [f1, f2], box)
    limit = exact_limit(sys_, [f1, f2])
    assert (truncated - limit).l2(sys_.weights) <= bound


def test_box_bound_is_the_per_axis_product(finite_corpus):
    """On every box of the bundled scenarios and of the generated finite
    families at seeds 1-3, and on random boxes (edges below the period,
    10^9 + 3 long, negative bases), the bound read from the histogram is
    the per-axis product prod_j floor(N_j/P_j)*P_j/N_j, exactly."""
    rng = random.Random(2001)
    for scn in finite_corpus + generated_finite_scenarios((1, 2, 3)):
        sys_ = scn.system
        P = period_box(sys_).lengths
        boxes = list(scn.boxes) + [
            FolnerBox(tuple(rng.randint(1, 3 * p) for p in P),
                      tuple(rng.randint(-60, 60) for _ in P))
            for _ in range(4)
        ]
        boxes += [
            FolnerBox(tuple(rng.randint(1, p) for p in P), (-7,) * sys_.r),
            FolnerBox((10 ** 9 + 3,) * sys_.r, (-(10 ** 6),) * sys_.r),
            FolnerBox(tuple(p * 3 for p in P), tuple(-p - 1 for p in P)),
        ]
        for names in scn.average_tuples:
            fs = [scn.observables[n] for n in names]
            for box in boxes:
                got = deviation_bound(sys_, fs, box)
                assert got == oracle.box_deviation_bound(sys_, fs, box), box


def test_point_list_bound_is_certified(finite_corpus):
    """Random point lists with duplicates and negative coordinates, bare and
    on top of k shifted full period boxes, stay within their bound; k full
    period boxes alone, shuffled, get bound 0 and average to the limit."""
    rng = random.Random(2002)
    tight = 0
    for scn in finite_corpus:
        sys_ = scn.system
        P = period_box(sys_).lengths
        for names in scn.average_tuples:
            fs = [scn.observables[n] for n in names]
            lim = exact_limit(sys_, fs)
            for k in (0, 1, 2, 3):
                fulls = [
                    pt
                    for _ in range(k)
                    for pt in oracle.box_points(
                        FolnerBox(P, tuple(rng.randint(-40, 40) for _ in P))
                    )
                ]
                extra = [
                    tuple(rng.randint(-3 * p, 3 * p) for p in P)
                    for _ in range(rng.randint(1, 2 * len(fulls) + 3))
                ]
                extra += rng.sample(extra, len(extra) // 2)
                pts = fulls + extra
                rng.shuffle(pts)
                bound = deviation_bound(sys_, fs, pts)
                dev = (truncated_average(sys_, fs, pts) - lim).l2(sys_.weights)
                assert dev <= bound
                tight += k > 0 and bound < deviation_bound(sys_, fs, extra)
                if k:
                    rng.shuffle(fulls)
                    assert deviation_bound(sys_, fs, fulls).is_zero
                    assert truncated_average(sys_, fs, fulls) == lim
    assert tight > 0


def test_deviation_zero_at_period_multiples(rng):
    sys_ = cyclic_system(5, [1, 2])
    fs = [random_observable(rng, 5) for _ in range(2)]
    limit = exact_limit(sys_, fs)
    for k in (1, 2, 3):
        box = FolnerBox((5 * k,), (rng.randint(-9, 9),))
        assert (truncated_average(sys_, fs, box) - limit).l2(sys_.weights).is_zero
        assert deviation_bound(sys_, fs, box).is_zero


def test_contractive_trivial_cases():
    sys_ = cyclic_system(6, [1, 2])
    ones = Observable.constant(6, 1)
    lhs, rhs, ok = contractive_check(sys_, [ones, ones], FolnerBox((4,)))
    assert ok and lhs.square == 1 and rhs.square == 1
    zero = Observable.constant(6, 0)
    lhs, _, ok = contractive_check(sys_, [zero, ones], FolnerBox((4,)))
    assert ok and lhs.is_zero


def test_contractive_fuzz(rng):
    for _ in range(60):
        sys_ = cyclic_system(6, [rng.randint(1, 6), rng.randint(1, 6)])
        fs = [random_observable(rng, 6) for _ in range(2)]
        box = FolnerBox((rng.randint(1, 8),), (rng.randint(-6, 6),))
        _, _, ok = contractive_check(sys_, fs, box)
        assert ok


def test_vdc_correlation_trivial():
    sys_ = cyclic_system(5, [1, 2])
    ones = Observable.constant(5, 1)
    assert vdc_correlation(sys_, [ones, ones], (0,)) == 1
    zero = Observable.constant(5, 0)
    f = Observable.indicator(5, 0)
    for m in range(-3, 4):
        assert vdc_correlation(sys_, [zero, f], (m,)) == 0


def test_vdc_correlation_cyclic5_m1():
    sys_ = cyclic_system(5, [1, 2])
    f = Observable.indicator(5, 0)
    # oracle: limit over n of (1/5) sum_x prod_i f(x+i*n) f(x+i*(n+1))
    total = Fraction(0)
    for n in range(5):
        for x in range(5):
            term = Fraction(1)
            for i in (1, 2):
                term *= f.values[(x + i * n) % 5] * f.values[(x + i * (n + 1)) % 5]
            total += term
    expected = total / 25
    assert vdc_correlation(sys_, [f, f], (1,)) == expected


def test_vdc_identity_trivial():
    sys_ = cyclic_system(5, [1, 2])
    c1, c2 = Fraction(2, 3), Fraction(-1, 2)
    fs = [Observable.constant(5, c1), Observable.constant(5, c2)]
    lhsq, rhsq, ok = vdc_identity_check(sys_, fs)
    assert ok and lhsq == (c1 * c2) ** 2 == rhsq
    zero = Observable.constant(5, 0)
    lhsq, rhsq, ok = vdc_identity_check(sys_, [zero, fs[1]])
    assert ok and lhsq == 0 == rhsq


def test_vdc_identity_counterexample_data():
    sys_ = cyclic_system(5, [1, 2])
    f1 = Observable.indicator(5, 0) - Observable.constant(5, Fraction(1, 5))
    f2 = Observable.indicator(5, 0)
    lhsq, rhsq, ok = vdc_identity_check(sys_, [f1, f2])
    assert ok and lhsq == rhsq


def test_vdc_identity_fuzz(rng):
    for _ in range(30):
        n = rng.randint(2, 6)
        sys_ = cyclic_system(n, [rng.randint(1, n), rng.randint(1, n)])
        fs = [random_observable(rng, n) for _ in range(2)]
        _, _, ok = vdc_identity_check(sys_, fs)
        assert ok


def _residue_systems():
    """(system, action subset) pairs of ranks 1 and 2, periods 1 to 7: the
    residues of the restricted system against the oracle's subset periods."""
    product = load_scenario(bundled_scenario_dir() / "product-2x3.json").system
    return [
        (cyclic_system(3, [0, 0]), (1, 2)),  # P = 1
        (cyclic_system(4, [1, 2]), (1, 2)),
        (cyclic_system(6, [2, 3]), (1, 2)),
        (cyclic_system(6, [2, 3]), (2,)),
        (cyclic_system(7, [1, 3]), (2, 1)),
        (product, (1, 2)),
        (product, (2,)),
    ]


def test_box_residues_match_point_walk(rng):
    """The per-axis closed form gives the walk's counts, in the order the
    walk first meets each residue: every length 1..3P on rank 1 (multiples
    of P and N < P included) at every base in [-60, 60], and every pair of
    lengths on rank 2 at random bases there and at the two ends."""
    for sys_, acts in _residue_systems():
        sub = restrict(sys_, acts)
        periods = period_box(sub).lengths
        lengths = itertools.product(*(range(1, 3 * P + 1) for P in periods))
        for ls in lengths:
            if sys_.r == 1:
                bases = [(b,) for b in range(-60, 61)]
            else:
                bases = [(-60,) * sys_.r, (60,) * sys_.r] + [
                    tuple(rng.randint(-60, 60) for _ in ls) for _ in range(4)
                ]
            for base in bases:
                box = FolnerBox(ls, base)
                got = residues(sub, box)
                want = oracle.residues(sys_, acts, oracle.box_points(box))
                assert list(got.items()) == list(want.items()), (box, periods)


def test_box_residues_never_walk_points(tmp_path):
    """Averages, bounds, limits, basis counts, joinings and every finite
    report take a box's residues in closed form: a box has no point walk
    to call, and a box of 10^12 points is averaged and bounded at once."""
    assert not hasattr(FolnerBox, "points")
    sys_ = cyclic_system(6, [2, 3])
    f = Observable.indicator(6, 1)
    big = FolnerBox((10 ** 12,), (-(10 ** 9) - 1,))
    assert truncated_average(sys_, [f, f], big).values[1] > 0
    assert not deviation_bound(sys_, [f, f], big).is_zero
    full = FolnerBox(period_box(sys_).lengths, (-5,))
    assert exact_limit(sys_, [f, f]) == truncated_average(sys_, [f, f], full)
    assert basis_counts(sys_)
    assert furstenberg_joining(sys_).support
    for name in ("cyclic-5", "product-2x3"):
        for command in ("avg", "limit", "joining", "hk", "pleasant", "extend"):
            path = bundled_scenario_dir() / f"{name}.json"
            result = run_cli([command, "--scenario", str(path), "--out", str(tmp_path)])
            assert result.exit_code == 0, (name, command, result.stderr)


@pytest.mark.parametrize("N", [10 ** 9, 10 ** 9 + 3])
def test_huge_box_average_is_exact(N):
    """On cyclic-5 at base -10^6, the box is floor(N/P) full periods, each
    averaging to the limit, then a remainder box summed by the oracle."""
    scn = load_scenario(bundled_scenario_dir() / "cyclic-5.json")
    sys_ = scn.system
    fs = [scn.observables[name] for name in scn.average_tuples[0]]
    (P,), base = period_box(sys_).lengths, -(10 ** 6)
    q, rem = divmod(N, P)
    tail = [0] * sys_.n
    if rem:
        rest = oracle.box_points(FolnerBox((rem,), (base + q * P,)))
        tail = [v * rem for v in oracle.truncated_average(sys_, fs, rest).values]
    limit = oracle.exact_limit(sys_, fs).values
    want = tuple((q * P * lv + t) / N for lv, t in zip(limit, tail))
    assert truncated_average(sys_, fs, FolnerBox((N,), (base,))).values == want
    with pytest.raises(DimensionMismatch):
        truncated_average(sys_, fs, FolnerBox((N, N), (base, base)))
    with pytest.raises(DimensionMismatch):
        residues(sys_, FolnerBox((N, 1)))
