import random
import tracemalloc
from fractions import Fraction

import pytest

import oracle
from ergolab.errors import (
    MeasureNotPreserved,
    NonCommuting,
    NonProbabilityWeights,
    ValidationError,
)
from ergolab.scenario import parse_scenario
from ergolab.system import (
    FiniteSystem,
    FolnerBox,
    compose,
    identity_perm,
    invert,
    period_box,
)

from conftest import cyclic_system


def brute_order(p):
    q = p
    k = 1
    ident = identity_perm(len(p))
    while q != ident:
        q = compose(p, q)
        k += 1
    return k


def test_one_generator_powers_match_repeated_composition():
    rng = random.Random(11)
    for _ in range(50):
        n = rng.randint(1, 9)
        p = list(range(n))
        rng.shuffle(p)
        p = tuple(p)
        sys_ = FiniteSystem(n=n, r=1, d=1, weights=(Fraction(1, n),) * n,
                            generators=((p,),))
        assert sys_.orders == ((brute_order(p),),)
        assert len(sys_.powers[0][0]) == brute_order(p)
        q = identity_perm(n)
        for e in range(brute_order(p)):
            assert sys_.powers[0][0][e] == q
            q = compose(p, q)


def test_rank2_action_perm_matches_repeated_composition():
    # Z/4 x Z/3 on x = 3a + b: axis 1 steps a by 1, axis 2 steps b by 2
    step_a = tuple(3 * ((x // 3 + 1) % 4) + x % 3 for x in range(12))
    step_b = tuple(3 * (x // 3) + (x % 3 + 2) % 3 for x in range(12))
    sys_ = FiniteSystem(n=12, r=2, d=1, weights=(Fraction(1, 12),) * 12,
                        generators=((step_a, step_b),))
    assert sys_.orders == ((4, 3),)

    def power(p, e):
        q, g = identity_perm(len(p)), p if e >= 0 else invert(p)
        for _ in range(abs(e)):
            q = compose(g, q)
        return q

    for e1 in range(-3, 2 * 4 + 1):
        for e2 in range(-3, 2 * 3 + 1):
            assert sys_.action_perm(1, (e1, e2)) == compose(
                power(step_b, e2), power(step_a, e1)
            ), (e1, e2)


def test_identity_generators_have_unit_orders():
    sys_ = FiniteSystem(
        n=4,
        r=2,
        d=1,
        weights=(Fraction(1, 4),) * 4,
        generators=((identity_perm(4), identity_perm(4)),),
    )
    assert sys_.orders == ((1, 1),)
    assert period_box(sys_).lengths == (1, 1)


def test_noncommuting_generators_rejected():
    swap = (1, 0, 2)
    cycle = (1, 2, 0)
    with pytest.raises(NonCommuting) as exc:
        FiniteSystem(
            n=3,
            r=1,
            d=2,
            weights=(Fraction(1, 3),) * 3,
            generators=((swap,), (cycle,)),
        )
    assert exc.value.state == 0


def test_measure_preservation_enforced():
    with pytest.raises(MeasureNotPreserved):
        FiniteSystem(
            n=2,
            r=1,
            d=1,
            weights=(Fraction(1, 3), Fraction(2, 3)),
            generators=(((1, 0),),),
        )


def test_weights_must_be_probability():
    with pytest.raises(NonProbabilityWeights):
        FiniteSystem(
            n=2,
            r=1,
            d=1,
            weights=(Fraction(1, 2), Fraction(1, 3)),
            generators=((identity_perm(2),),),
        )


def test_default_labels_are_the_state_numbers():
    sys_ = cyclic_system(12, [1, 5])
    assert sys_.labels == ("0", "1", "2", "3", "4", "5", "6", "7", "8", "9", "10", "11")


@pytest.mark.parametrize("n, weights, generators, labels, message", [
    (0, (), (), (), "n, r and d must all be positive"),
    (2, (Fraction(1),), (), (), "weights length must equal state count"),
    (1, (Fraction(1),), ((), ()), (), "expected a d-by-r table of generators"),
    (1, (Fraction(1),), (((0,),),), ("a", "b"), "labels length must equal state count"),
])
def test_shape_checks_come_in_order(n, weights, generators, labels, message):
    """Each shape check fails first on a system that breaks it and every
    later one."""
    with pytest.raises(ValidationError) as exc:
        FiniteSystem(n=n, r=1, d=1, weights=weights, generators=generators,
                      labels=labels)
    assert str(exc.value) == message


def test_shape_is_checked_before_the_default_labels():
    """A system of n = 10**6 states with one weight fails before its n
    default labels are built: the peak stays below 1 MB, where building
    them first took about 60 MB."""
    tracemalloc.start()
    try:
        with pytest.raises(ValidationError, match="weights length must equal"):
            FiniteSystem(n=10 ** 6, r=1, d=1, weights=(Fraction(1),),
                         generators=((identity_perm(1),),))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 20


def test_repeated_labels_rejected():
    """The error names the first label that repeats an earlier one."""
    for labels in [("a", "a", "a", "b", "b"), ("b", "a", "a", "b", "c")]:
        with pytest.raises(ValidationError) as exc:
            FiniteSystem(n=5, r=1, d=1, weights=(Fraction(1, 5),) * 5,
                         generators=((identity_perm(5),),), labels=labels)
        assert str(exc.value) == "label 'a' names two states"
    # an extension stage's names hold brackets and commas: only repeats fail
    stage = FiniteSystem(n=2, r=1, d=1, weights=(Fraction(1, 2),) * 2,
                         generators=((identity_perm(2),),), labels=("(a,b)", "(b,a)"))
    assert stage.labels == ("(a,b)", "(b,a)")


def test_int_weights_are_set_on_construction():
    """The ints every kernel reads are there before any kernel runs."""
    weights = (Fraction(1, 6), Fraction(1, 3), Fraction(1, 6), Fraction(1, 3))
    sys_ = FiniteSystem(n=4, r=1, d=1, weights=weights, generators=(((2, 3, 0, 1),),))
    assert vars(sys_)["int_weights"] == ((1, 2, 1, 2), 6)
    assert sys_.support == (0, 1, 2, 3)


def _measure_case(rng):
    """(weights, generators): a d-by-r table of powers of one permutation,
    so they commute, and weights constant on its cycles, then perturbed at
    random into weights that are negative, zero, off total or moved off
    their cycle's value, and now and then one generator that is no
    permutation."""
    n = rng.randint(1, 6)
    sigma = list(range(n))
    rng.shuffle(sigma)
    powers = [identity_perm(n)]
    for _ in range(5):
        powers.append(compose(tuple(sigma), powers[-1]))
    r, d = rng.randint(1, 2), rng.randint(1, 3)
    generators = [[rng.choice(powers) for _ in range(r)] for _ in range(d)]
    # each state's cycle of sigma, by its least member
    cycle = [min(p[x] for p in powers) for x in range(n)]
    mass = {c: rng.randint(0, 3) for c in cycle}
    total = sum(mass[c] for c in cycle) or None
    weights = [Fraction(mass[c], total) if total else Fraction(1, n) for c in cycle]
    x, y = rng.randrange(n), rng.randrange(n)
    move = rng.choice([0, 0, 1, 2])
    if move == 1:
        q = weights[y] * Fraction(rng.randint(1, 5), 4)
        weights[x] += q
        weights[y] -= q
    elif move == 2:
        weights[x] = rng.choice([-weights[x], Fraction(0), weights[x] * 2])
    if rng.random() < 0.1:
        generators[rng.randrange(d)][rng.randrange(r)] = (0,) * n
    return tuple(weights), tuple(map(tuple, generators))


def _outcome(check, *args):
    try:
        check(*args)
    except ValidationError as exc:
        return type(exc), str(exc)
    return None


def test_int_measure_checks_match_the_fraction_checks():
    """Over random weights and generator tables, the system accepts exactly
    when the Fraction checks do, and otherwise raises the same class with
    the same message."""
    rng = random.Random(35)
    seen = set()
    for _ in range(2000):
        weights, generators = _measure_case(rng)
        want = _outcome(oracle.check_measure, weights, generators)
        got = _outcome(FiniteSystem, len(weights), len(generators[0]),
                       len(generators), weights, generators)
        assert got == want, (weights, generators)
        seen.add(want if want is None or want[0] is NonProbabilityWeights else want[0])
    assert seen == {
        None,
        (NonProbabilityWeights, "weights must be nonnegative"),
        (NonProbabilityWeights, "weights must sum to exactly 1"),
        MeasureNotPreserved,
        ValidationError,
    }


def test_period_box_cyclic5():
    # both +1 and +2 have order 5 by brute force
    sys_ = cyclic_system(5, [1, 2])
    assert brute_order(sys_.generators[0][0]) == 5
    assert brute_order(sys_.generators[1][0]) == 5
    assert period_box(sys_).lengths == (5,)


def test_period_box_cyclic6_mixed_steps():
    # lcm(order(+2), order(+3)) = lcm(3, 2) = 6
    sys_ = cyclic_system(6, [2, 3])
    assert brute_order(sys_.generators[0][0]) == 3
    assert brute_order(sys_.generators[1][0]) == 2
    assert period_box(sys_).lengths == (6,)


def test_folner_box_stores_its_base():
    assert FolnerBox((3, 2)).base == (0, 0)
    assert FolnerBox((3, 2), [-1, 4]).base == (-1, 4)
    assert oracle.box_points(FolnerBox((2, 1), (0, -3))) == [(0, -3), (1, -3)]
    for base in [(1,), (), []]:
        # an empty base point is a wrong-length one, not the origin
        with pytest.raises(ValidationError):
            FolnerBox((3, 2) if base else (5,), base)


def test_act_zero_element_fixes_everything():
    sys_ = cyclic_system(5, [1, 2])
    zero = (0,) * (sys_.r * sys_.d)
    for x in range(5):
        assert oracle.act(sys_, zero, x) == x


def test_act_agrees_with_generator_arithmetic():
    rng = random.Random(13)
    sys_ = cyclic_system(7, [1, 3])
    for _ in range(100):
        e1 = rng.randint(-10, 10)
        e2 = rng.randint(-10, 10)
        g = (e1, e2)
        for x in range(7):
            assert oracle.act(sys_, g, x) == (x + e1 + 3 * e2) % 7


def test_full_perm_is_additive():
    rng = random.Random(14)
    sys_ = cyclic_system(6, [2, 3])
    for _ in range(50):
        a = tuple(rng.randint(-5, 5) for _ in range(2))
        b = tuple(rng.randint(-5, 5) for _ in range(2))
        ab = tuple(x + y for x, y in zip(a, b))
        assert oracle.full_perm(sys_, ab) == compose(
            oracle.full_perm(sys_, a), oracle.full_perm(sys_, b)
        )


def test_pushforward_zero_element_is_identity():
    sys_ = cyclic_system(5, [1, 2])
    m = (Fraction(1, 2), Fraction(1, 4), Fraction(1, 8), Fraction(1, 16), Fraction(1, 16))
    zero = (0, 0)
    assert oracle.state_pushforward(sys_, zero, m) == m


def test_pushforward_moves_point_mass():
    sys_ = cyclic_system(5, [1, 2])
    for x in range(5):
        m = tuple(Fraction(1) if y == x else Fraction(0) for y in range(5))
        g = (1, 1)
        out = oracle.state_pushforward(sys_, g, m)
        target = oracle.act(sys_, g, x)
        assert out[target] == 1
        assert sum(out) == 1


def validate_system(raw):
    """The system of a finite scenario whose system description is raw."""
    return parse_scenario({"name": "s", "engine": "finite", "system": raw}).system


def test_validate_system_round_trip():
    raw = {
        "n": 5,
        "r": 1,
        "d": 2,
        "weights": ["1/5"] * 5,
        "generators": [
            {"action": 1, "axis": 1, "perm": [1, 2, 3, 4, 0]},
            {"action": 2, "axis": 1, "perm": [2, 3, 4, 0, 1]},
        ],
    }
    sys_ = validate_system(raw)
    assert sys_.n == 5 and sys_.d == 2
    assert sys_.generators[1][0] == (2, 3, 4, 0, 1)


def test_validate_system_missing_generator():
    raw = {
        "n": 2,
        "r": 1,
        "d": 2,
        "weights": ["1/2", "1/2"],
        "generators": [{"action": 1, "axis": 1, "perm": [1, 0]}],
    }
    with pytest.raises(ValidationError):
        validate_system(raw)


def test_validate_system_bad_perm():
    raw = {
        "n": 3,
        "r": 1,
        "d": 1,
        "weights": ["1/3"] * 3,
        "generators": [{"action": 1, "axis": 1, "perm": [0, 0, 1]}],
    }
    with pytest.raises(ValidationError):
        validate_system(raw)


def test_validate_system_missing_key():
    raw = {
        "n": 2,
        "r": 1,
        "d": 1,
        "weights": ["1/2", "1/2"],
        "generators": [{"action": 1, "axis": 1}],
    }
    with pytest.raises(ValidationError, match="perm"):
        validate_system(raw)
    del raw["generators"]
    with pytest.raises(ValidationError, match="generators"):
        validate_system(raw)
