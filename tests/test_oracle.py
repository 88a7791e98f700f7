"""Differential tests: the orbit-count contractions against the per-point
and per-tuple reference loops of tests/oracle.py, with exact equality, and
the closed-form torus box sum against the Fraction lattice loop, within a
tolerance fixed in advance."""

import itertools
import math
import random
from fractions import Fraction

import pytest

import oracle
from ergolab.averages import FolnerBox, exact_limit, truncated_average
from ergolab.extensions import is_pleasant, one_step_extension
from ergolab.joinings import JoinedMeasure, furstenberg_joining, host_kra_tower
from ergolab.factors import Partition
from ergolab.observables import Observable
from ergolab.proof import orbit_cells, restrict
from ergolab.system import FiniteSystem, period_box
from ergolab.errors import ErgolabError
from ergolab.torus import (
    RotationEntry,
    TorusSystem,
    TrigObservable,
    character_limit,
    torus_deviation_bound,
    torus_truncated_average,
)

from conftest import cyclic_system, generated_finite_scenarios, random_observable


def _translations(shape, steps):
    """Translation generators of Z/shape[0] x ... x Z/shape[-1] (states in
    row-major order): steps[i][j] is the translation vector of action i+1,
    axis j+1."""
    states = list(itertools.product(*(range(m) for m in shape)))
    index = {s: k for k, s in enumerate(states)}

    def perm(vec):
        return tuple(
            index[tuple((a + v) % m for a, v, m in zip(s, vec, shape))]
            for s in states
        )

    return tuple(tuple(perm(vec) for vec in row) for row in steps)


def rank2_product():
    """Z/2 x Z/4 with two commuting rank-2 actions."""
    gens = _translations((2, 4), [[(1, 0), (0, 1)], [(1, 1), (0, 3)]])
    return FiniteSystem(n=8, r=2, d=2, weights=(Fraction(1, 8),) * 8,
                        generators=gens)


def two_cycles(a=3, b=4, weight_a=Fraction(1, 3)):
    """Two rotated cycles of lengths a and b; the weight is constant on each
    cycle, weight_a in total on the first."""
    def rotate(sa, sb):
        return tuple(
            [(x + sa) % a for x in range(a)] + [a + (x + sb) % b for x in range(b)]
        )

    weights = (weight_a / a,) * a + ((1 - weight_a) / b,) * b
    gens = ((rotate(1, 1),), (rotate(2, 3),))
    return FiniteSystem(n=a + b, r=1, d=2, weights=weights, generators=gens)


def cyclic_family():
    """Cyclic systems with d = 2, n <= 9 and d = 3, n <= 5.  Step pairs
    s <= t with s < 4 cover a zero, a unit and a non-unit first step
    without the cost of every pair."""
    systems = [
        cyclic_system(n, [s, t])
        for n in range(2, 10)
        for s in range(min(n, 4))
        for t in range(s, n)
    ]
    systems += [
        cyclic_system(n, [1, s, t])
        for n in range(2, 6)
        for s in range(n)
        for t in range(s, n)
    ]
    return systems


@pytest.fixture(scope="module")
def systems(finite_corpus):
    return (
        [scn.system for scn in finite_corpus]
        + cyclic_family()
        + [rank2_product(), two_cycles(), two_cycles(5, 2, Fraction(3, 4))]
        # one cycle of null states, after and before the other
        + [two_cycles(3, 4, Fraction(1)), two_cycles(4, 3, Fraction(0))]
    )


# primes above 10^4, split among the observables of one average, so each
# observable's least denominator is coprime to every other's
PRIMES = (10007, 10009, 10037, 10039, 10061, 10067, 10069, 10079, 10091)


def coprime_observable(rng, n, primes):
    """Values k / p for p among the given primes and k in [-9, 9], at least
    one of them 0 and one negative when n > 1."""
    values = [Fraction(rng.randint(-9, 9), rng.choice(primes)) for _ in range(n)]
    values[rng.randrange(n)] = Fraction(0)
    if n > 1:
        values[rng.randrange(n)] = Fraction(-rng.randint(1, 9), rng.choice(primes))
    return Observable.from_values(values)


def test_truncated_average_matches_per_point_loop(systems):
    rng = random.Random(41)
    for sys_ in systems:
        periods = period_box(sys_).lengths
        fs = [random_observable(rng, sys_.n) for _ in range(sys_.d)]
        # one period plus one (never a multiple of a period above 1), then
        # random lengths, both at negative base points
        for lengths in (
            tuple(p + 1 for p in periods),
            tuple(rng.randint(1, 2 * p + 1) for p in periods),
        ):
            box = FolnerBox(lengths, tuple(rng.randint(-60, -1) for _ in periods))
            assert truncated_average(sys_, fs, box) == oracle.truncated_average(
                sys_, fs, oracle.box_points(box)
            )
        pts = [tuple(rng.randint(-40, 40) for _ in range(sys_.r)) for _ in range(5)]
        pts += rng.sample(pts, 3) + pts[:1]
        assert truncated_average(sys_, fs, pts) == oracle.truncated_average(
            sys_, fs, pts
        )
        assert exact_limit(sys_, fs) == oracle.exact_limit(sys_, fs)
        # averages of the restricted system against the oracle's walk over
        # the same action subset of the whole system
        acts = [sys_.d]
        lengths = tuple(rng.randint(1, 3 * p) for p in periods)
        box = FolnerBox(lengths, tuple(rng.randint(-9, 9) for _ in range(sys_.r)))
        assert truncated_average(
            restrict(sys_, acts), fs[:1], box
        ) == oracle.truncated_average(sys_, fs[:1], oracle.box_points(box), acts)
        # a random ordered action subset, observables over large pairwise
        # coprime denominators with zeros and negative values, and random
        # boxes up to two periods plus one long
        acts = rng.sample(range(1, sys_.d + 1), rng.randint(1, sys_.d))
        sub = restrict(sys_, acts)
        gs = [
            coprime_observable(rng, sys_.n, PRIMES[k::len(acts)])
            for k in range(len(acts))
        ]
        for _ in range(3):
            periods = period_box(sub).lengths
            lengths = tuple(rng.randint(1, 2 * p + 1) for p in periods)
            box = FolnerBox(lengths, tuple(rng.randint(-60, 60) for _ in periods))
            assert truncated_average(sub, gs, box) == oracle.truncated_average(
                sys_, gs, oracle.box_points(box), acts
            )


def extension_stages():
    """One extension step of the d = 2 cyclic systems with n <= 6 and of the
    two-cycle and rank-2 systems, with Furstenberg masses as weights (the
    two-cycle stages have cells of unequal mass).  The 36-state stages of
    n = 6 are left out; the per-tuple oracle takes about 3 s on each."""
    bases = [sys_ for sys_ in cyclic_family() if sys_.d == 2 and sys_.n <= 6]
    bases += [two_cycles(), two_cycles(5, 2, Fraction(3, 4)), rank2_product()]
    stages = [one_step_extension(sys_, budget=10 ** 6).system for sys_ in bases]
    return [stage for stage in stages if stage.n <= 32]


def test_is_pleasant_matches_per_tuple_loop(systems):
    # unpleasant, with two cells of unequal mass holding the two largest
    # candidates, one way round and the other
    unequal_cells = [two_cycles(4, 4, Fraction(1, 2)),
                     two_cycles(3, 5, Fraction(3, 10))]
    unpleasant = 0
    for sys_ in systems + unequal_cells + extension_stages():
        rep = is_pleasant(sys_, budget=10 ** 6)
        defect_sq, witness = oracle.is_pleasant(sys_)
        assert rep.defect.square == defect_sq
        assert rep.witness == witness
        unpleasant += not rep.pleasant
    assert unpleasant > 0


def test_furstenberg_mass_matches_per_point_loop(systems):
    """The joining against the unreduced walk over the period box at
    shifted bases: every base gives the same measure."""
    rng = random.Random(43)
    for sys_ in systems:
        mass = furstenberg_joining(sys_).mass
        for _ in range(3):
            base = tuple(rng.randint(-50, 50) for _ in range(sys_.r))
            assert mass == oracle.furstenberg_mass(sys_, base)


def _is_invariant_cases(sys_, rng):
    jm = furstenberg_joining(sys_)
    names = list(jm.actions)
    for k in range(3):
        coords = tuple(rng.randint(0, sys_.d) for _ in range(jm.power))
        jm.actions[f"X{k}"] = coords
        names.append(f"X{k}")
    yield jm, names
    # a measure that is not invariant under anything moving its atom
    t = jm.support[0]
    point = oracle.joined_measure(sys_, jm.power, {t: Fraction(1)}, jm.actions)
    yield point, names
    # full support, so every image is an atom: only unequal masses can
    # break invariance
    raw = [rng.randint(1, 3) for _ in range(sys_.n)]
    total = sum(raw) ** jm.power
    skewed = {
        t: Fraction(math.prod(raw[x] for x in t), total)
        for t in itertools.product(range(sys_.n), repeat=jm.power)
    }
    yield oracle.joined_measure(sys_, jm.power, skewed, jm.actions), names
    for stage in host_kra_tower(sys_):
        yield stage, list(stage.actions)


def test_is_invariant_matches_pushforward(systems):
    rng = random.Random(44)
    seen = set()
    for sys_ in systems[:60] + systems[-5:]:
        for jm, names in _is_invariant_cases(sys_, rng):
            for name in names:
                verdict = jm.is_invariant(name)
                assert verdict == oracle.is_invariant(jm, name)
                seen.add(verdict)
    assert seen == {True, False}


def _lift_or_none(lift, jm, coords):
    try:
        return lift(jm, coords)
    except KeyError:
        return None


def test_lift_matches_per_tuple_map(systems):
    """Host-Kra stages lift through the stage below on index pairs; every
    stage action and random coordinate choices (most of which leave the
    support, through either half of a pair) against the tuple-to-index map,
    and the Furstenberg joining's own map; likewise a relatively independent
    joining over cells that are not orbits."""
    rng = random.Random(47)
    outcomes = set()
    for sys_ in systems[:60] + systems[-5:]:
        # two intervals, which no action need respect: either half of a
        # pair may split a cell while its least member stays inside
        cells = Partition.from_cell_ids([2 * x // sys_.n for x in range(sys_.n)])
        joinings = [furstenberg_joining(sys_), oracle.rel_indep_joining(sys_, cells)]
        for jm in joinings + host_kra_tower(sys_):
            coords = list(jm.actions.values()) + [
                tuple(rng.randint(0, sys_.d) for _ in range(jm.power))
                for _ in range(4)
            ]
            for c in coords:
                got = _lift_or_none(JoinedMeasure.lift, jm, c)
                assert got == _lift_or_none(oracle.lift, jm, c)
                outcomes.add(got is None)
    assert outcomes == {True, False}


def _reweighted(sys_, weights):
    """sys_ with other weights, which its generators must preserve."""
    return FiniteSystem(n=sys_.n, r=sys_.r, d=sys_.d, weights=weights,
                        generators=sys_.generators)


def test_marginals_match_fraction_sums(systems):
    rng = random.Random(46)
    seen = set()
    for sys_ in systems[:60] + systems[-5:]:
        cases = [jm for jm, _ in _is_invariant_cases(sys_, rng)]
        # the tower of one weighting read against another's weights
        uniform = _reweighted(sys_, (Fraction(1, sys_.n),) * sys_.n)
        cases += [
            oracle.joined_measure(uniform, stage.power, stage.mass, stage.actions)
            for stage in host_kra_tower(sys_)
        ]
        # one coordinate carries the base measure, the others sit at a state
        power = sys_.d
        for c in range(power):
            pinned = {
                (0,) * c + (x,) + (0,) * (power - 1 - c): sys_.weights[x]
                for x in sys_.support
            }
            cases.append(oracle.joined_measure(sys_, power, pinned, {}))
        for jm in cases:
            verdict = jm.marginals_equal_base()
            assert verdict == oracle.marginals_equal_base(jm)
            seen.add(verdict)
    assert seen == {True, False}


def test_host_kra_denominator_is_least(systems):
    """Each stage's denominator is the lcm of its masses' denominators, so
    the integer weights were divided by their gcd at every step; every
    stage and every Furstenberg joining lists its support strictly
    increasing, each tuple once, with positive weights."""
    for sys_ in systems:
        tower = host_kra_tower(sys_)
        for stage in tower:
            assert stage.denom == math.lcm(
                *(m.denominator for m in stage.mass.values())
            )
            assert sum(stage.support_weights) == stage.denom
        for jm in tower + [furstenberg_joining(sys_)]:
            assert all(u < v for u, v in zip(jm.support, jm.support[1:]))
            assert len(jm.support_weights) == len(jm.support)
            assert all(w > 0 for w in jm.support_weights)


def test_host_kra_tower_matches_unit_vector_orbits(systems):
    """Every stage's mass and action orbits against orbits found by moving
    tuples along unit vectors with action_perm, one tuple at a time."""
    for sys_ in systems:
        tower = host_kra_tower(sys_)
        expected = oracle.host_kra_masses(sys_)
        assert len(tower) == len(expected) == sys_.d
        for stage, (mass, actions) in zip(tower, expected):
            assert stage.mass == mass
            assert stage.actions == actions
            for name, coords in actions.items():
                assert orbit_cells(stage, name) == oracle.action_orbits(
                    sys_, mass, coords
                )


# where reports write a measure: joining's top-level key, an hk stage's key
REPORT_INDENTS = ("\n  ", "\n      ")


def test_measure_rows_match_dict_rows(systems):
    """A joined measure's report rows, written in one pass, are the writer's
    text of one dict per support tuple, at the indents reports use: every
    Furstenberg joining and every Host-Kra stage of at most 4,096 tuples
    (the ones ``hk`` writes) of the test systems, the bundled finite
    scenarios and the generated finite families at seeds 1-2, and point
    masses whose mass reads "1"."""
    from ergolab.cli import _json_text
    from ergolab.reports.joinings import measure_json

    base = cyclic_system(12, (1,))
    measures = [
        JoinedMeasure(base, 1, [(11,)], [1], 1, {}),
        JoinedMeasure(base, 3, [(0, 1, 10), (2, 3, 11), (9, 9, 9)], [6, 3, 3], 12, {}),
    ]
    scenarios = generated_finite_scenarios((1, 2))
    for sys_ in systems + [scn.system for scn in scenarios]:
        measures.append(furstenberg_joining(sys_))
        measures += [jm for jm in host_kra_tower(sys_) if len(jm.support) <= 4096]
    for jm in measures:
        rows = oracle.measure_json(jm)
        for indent in REPORT_INDENTS:
            assert _json_text(measure_json(jm), indent) == _json_text(rows, indent)
    assert {row["mass"] for row in oracle.measure_json(measures[0])} == {"1"}
    assert max(len(jm.support) for jm in measures) > 2000


def _torus_rank2():
    """A rank-2 rotation system on the 2-torus mixing exact rationals,
    symbolic irrationals and a float entry."""
    alpha = {"alpha": Fraction(1)}
    entries = [
        [
            (RotationEntry.exact(Fraction(1, 3), alpha), RotationEntry.exact(Fraction(1, 6))),
            (RotationEntry.from_float(0.123456789), RotationEntry.exact(0, alpha)),
        ],
        [
            (RotationEntry.exact(Fraction(1, 2)), RotationEntry.exact(Fraction(2, 5), alpha)),
            (RotationEntry.exact(0, {"alpha": Fraction(3)}), RotationEntry.exact(Fraction(5, 7))),
        ],
    ]
    sys_ = TorusSystem(
        m=2, r=2, d=2,
        rotations=tuple(tuple(row) for row in entries),
        symbol_values=(("alpha", 0.6180339887498949),),
    )
    fs = [
        TrigObservable((((1, 0), 1 + 0j), ((0, -2), 0.5 - 0.25j))),
        TrigObservable((((-1, 1), 2 + 1j),)),
    ]
    return sys_, fs


def _near_integer_pair():
    """Rotations 1/2 and 1/3 with frequencies (2, 3): 3 * float(1/3) is
    exactly 1 - 2**-54, so theta is that close to an integer without being one."""
    half = RotationEntry.exact(Fraction(1, 2))
    third = RotationEntry.exact(Fraction(1, 3))
    sys_ = TorusSystem(m=1, r=1, d=2, rotations=(((half,),), ((third,),)))
    return sys_, [TrigObservable.character((2,)), TrigObservable.character((3,))]


def _assert_close(sys_, fs, box, samples):
    tol = 1e-12 * math.prod(oracle.linf_bound(f) for f in fs)
    closed = torus_truncated_average(sys_, fs, box, samples)
    expected = oracle.torus_truncated_average(sys_, fs, box, samples)
    assert len(closed) == len(expected)
    for a, b in zip(closed, expected):
        assert abs(a - b) <= tol, (box, a, b)


def test_torus_sum_matches_fraction_loop(torus_scenario):
    rng = random.Random(45)
    sys_ = torus_scenario.system
    fs = [torus_scenario.observables[n] for n in torus_scenario.average_tuples[0]]
    samples = list(torus_scenario.samples) + [(rng.random(),) for _ in range(3)]
    for N, base in [(1, 0), (7, -5), (40, 123456), (33, -987654),
                    (2000, 10 ** 6), (1999, -10 ** 6)]:
        _assert_close(sys_, fs, FolnerBox((N,), (base,)), samples)
    sys_, fs = _near_integer_pair()
    samples = [(k / 6,) for k in range(6)] + [(rng.random(),)]
    for N, base in [(1, 0), (6, 0), (7, 3), (2000, 10 ** 6), (1001, -10 ** 6)]:
        _assert_close(sys_, fs, FolnerBox((N,), (base,)), samples)
    sys_, fs = _torus_rank2()
    samples = [(rng.random(), rng.random()) for _ in range(3)]
    for lengths, base in [((3, 5), (0, 0)), ((6, 4), (-77, 1000)),
                          ((1, 2), (10 ** 6, -10 ** 6)), ((40, 40), (10 ** 6, -10 ** 6))]:
        _assert_close(sys_, fs, FolnerBox(lengths, base), samples)


SYMBOLS = ("alpha", "beta", "gamma")


def _random_torus(rng):
    """A random rotation system with m, r and d in 1..3, in one of three
    flavours: purely rational (many resonances), integer multiples of one
    symbol plus a rational (the counterexample's shape, resonances by
    cancellation), or any mix of rationals, symbols and inexact floats.
    Symbol values and float entries carry full 53-bit mantissas."""
    m, r, d = (rng.randint(1, 3) for _ in range(3))
    flavour = rng.choice(("rational", "multiples", "mixed"))

    def entry(i):
        rational = Fraction(rng.randint(-12, 12), rng.randint(1, 4))
        if flavour == "rational":
            return RotationEntry.exact(rational)
        if flavour == "multiples":
            return RotationEntry.exact(rational, {"alpha": Fraction(i * rng.randint(1, 2))})
        if rng.random() < 0.25:
            return RotationEntry.from_float(rng.uniform(-2.0, 2.0))
        names = rng.sample(SYMBOLS, rng.randint(0, 2))
        return RotationEntry.exact(
            rational, {s: Fraction(rng.randint(-5, 5), rng.randint(1, 6)) for s in names}
        )

    rotations = tuple(
        tuple(tuple(entry(i) for _ in range(m)) for _ in range(r))
        for i in range(1, d + 1)
    )
    symbol_values = tuple((s, rng.random()) for s in SYMBOLS if rng.random() < 0.97)
    sys_ = TorusSystem(m=m, r=r, d=d, rotations=rotations, symbol_values=symbol_values)
    fs = []
    for _ in range(d):
        freqs = {tuple(rng.randint(-3, 3) for _ in range(m)) for _ in range(rng.randint(1, 3))}
        fs.append(TrigObservable(tuple(
            (k, complex(rng.uniform(-1, 1), rng.uniform(-1, 1))) for k in sorted(freqs)
        )))
    return sys_, fs


def _outcome(fn, *args):
    """fn's value, or the type and message of the ErgolabError it raises."""
    try:
        return fn(*args)
    except ErgolabError as exc:
        return type(exc), str(exc)


def test_integer_torus_kernel_equals_fraction_closed_form():
    """The integer kernel against the Fraction closed form it replaced, with
    exact ==: averages, bounds and limits, or the same error with the same
    message, on a seeded corpus with bases up to 10^12 in size, box lengths
    up to 10^18 and samples with full 53-bit mantissas."""
    rng = random.Random(1414)
    seen, resonant = set(), 0
    for _ in range(120):
        sys_, fs = _random_torus(rng)
        samples = [
            tuple(rng.choice((rng.random(), rng.uniform(-1e6, 1e6))) for _ in range(sys_.m))
            for _ in range(rng.randint(1, 3))
        ]
        limit = _outcome(character_limit, sys_, fs)
        assert limit == _outcome(oracle.closed_form_character_limit, sys_, fs)
        resonant += isinstance(limit, TrigObservable) and limit.terms != ()
        for _ in range(3):
            lengths = tuple(rng.randint(1, 10 ** rng.randint(1, 18)) for _ in range(sys_.r))
            box = FolnerBox(lengths, tuple(rng.randint(-10 ** 12, 10 ** 12) for _ in lengths))
            got = _outcome(torus_truncated_average, sys_, fs, box, samples)
            assert got == _outcome(oracle.closed_form_torus_average, sys_, fs, box, samples)
            got = _outcome(torus_deviation_bound, sys_, fs, lengths)
            assert got == _outcome(oracle.closed_form_torus_bound, sys_, fs, lengths)
            seen.add(got[0].__name__ if isinstance(got, tuple) else type(got).__name__)
        # malformed calls fail the same way
        box = FolnerBox((5,) * (sys_.r + 1))
        for args in [(fs[:-1], FolnerBox((5,) * sys_.r), samples), (fs, box, samples),
                     (fs, FolnerBox((5,) * sys_.r), [(0.5,) * (sys_.m + 1)])]:
            assert _outcome(torus_truncated_average, sys_, *args) == _outcome(
                oracle.closed_form_torus_average, sys_, *args
            )
        assert _outcome(torus_deviation_bound, sys_, fs, box.lengths) == _outcome(
            oracle.closed_form_torus_bound, sys_, fs, box.lengths
        )
    # the corpus reaches resonances, undecidable ones and missing symbols
    assert resonant >= 10
    assert seen == {"float", "UndecidableResonance", "ValidationError"}
