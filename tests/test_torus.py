import cmath
import math
import random
from fractions import Fraction

import pytest

import oracle
from ergolab.averages import FolnerBox
from ergolab.errors import UndecidableResonance, ValidationError
from ergolab.reports import torus as torus_report
from ergolab.torus import (
    TWO_PI,
    RotationEntry,
    TorusSystem,
    TrigObservable,
    _centred,
    _e,
    character_limit,
    phase_table,
    torus_deviation_bound,
    torus_truncated_average,
)

GOLDEN = 0.6180339887498949  # 1/phi, stand-in irrational


def golden_pair():
    alpha = RotationEntry.exact(0, {"alpha": Fraction(1)})
    two_alpha = RotationEntry.exact(0, {"alpha": Fraction(2)})
    sys_ = TorusSystem(
        m=1,
        r=1,
        d=2,
        rotations=(((alpha,),), ((two_alpha,),)),
        symbol_values=(("alpha", GOLDEN),),
    )
    f2 = oracle.character((1,))
    f1 = oracle.character((-2,))  # conj(f2)^2
    return sys_, f1, f2


def test_constant_observables_average_to_one():
    sys_, _, _ = golden_pair()
    ones = [oracle.character((0,)), oracle.character((0,))]
    for N in (1, 5, 16):
        for base in (0, -7, 123):
            out = torus_truncated_average(
                sys_, ones, FolnerBox((N,), (base,)), [(0.0,), (0.37,)]
            )
            assert all(abs(v - 1.0) < 1e-12 for v in out)


def test_character_limit_constants():
    sys_, _, _ = golden_pair()
    c1 = oracle.character((0,), 2.0 + 1.0j)
    c2 = oracle.character((0,), -0.5j)
    lim = character_limit(sys_, [c1, c2])
    assert lim.terms == (((0,), (2.0 + 1.0j) * (-0.5j)),)


def test_single_rotation_geometric_bound():
    alpha = RotationEntry.exact(0, {"alpha": Fraction(1)})
    sys_ = TorusSystem(
        m=1, r=1, d=1, rotations=(((alpha,),),), symbol_values=(("alpha", GOLDEN),)
    )
    f = oracle.character((1,))
    for N in (10, 100, 1000):
        (val,) = torus_truncated_average(sys_, [f], FolnerBox((N,)), [(0.0,)])
        bound = 2.0 / (N * abs(1 - cmath.exp(2j * math.pi * GOLDEN)))
        assert abs(val) <= bound + 1e-12


def test_resonant_identity_termwise():
    # theta = -2*alpha + 2*alpha = 0: the average telescopes for every N
    sys_, f1, f2 = golden_pair()
    lim = character_limit(sys_, [f1, f2])
    assert lim.terms == (((-1,), (1 + 0j)),)
    rng = random.Random(99)
    samples = [(0.0,), (0.1234,), (0.777,)]
    for N in (1, 2, 7, 33, 64):
        for _ in range(4):
            base = (rng.randint(-1000, 1000),)
            out = torus_truncated_average(sys_, [f1, f2], FolnerBox((N,), base), samples)
            for t, v in zip(samples, out):
                assert abs(v - lim(t)) <= 1e-12


def test_independent_irrationals_limit_zero():
    alpha = RotationEntry.exact(0, {"alpha": Fraction(1)})
    beta = RotationEntry.exact(0, {"beta": Fraction(1)})
    sys_ = TorusSystem(
        m=1,
        r=1,
        d=2,
        rotations=(((alpha,),), ((beta,),)),
        symbol_values=(("alpha", GOLDEN), ("beta", math.sqrt(2) - 1)),
    )
    f = oracle.character((1,))
    lim = character_limit(sys_, [f, f])
    assert lim.terms == ()
    # numeric cross-check at large boxes, against the certified bound
    # 1 / (N |sin(pi (alpha + beta))|) of the single non-resonant combination
    theta = GOLDEN + math.sqrt(2) - 1
    for N, base in [(10 ** 4, 0), (10 ** 9, -(10 ** 6))]:
        bound = torus_deviation_bound(sys_, [f, f], (N,))
        assert bound == pytest.approx(1 / (N * abs(math.sin(math.pi * theta))))
        (val,) = torus_truncated_average(sys_, [f, f], FolnerBox((N,), (base,)), [(0.25,)])
        assert abs(val) <= bound + 1e-12
    with pytest.raises(ValidationError):
        torus_deviation_bound(sys_, [f, f], (10, 10))
    with pytest.raises(ValidationError):
        torus_deviation_bound(sys_, [f], (10,))


def test_rational_resonance_detected():
    half = RotationEntry.exact(Fraction(1, 2))
    third = RotationEntry.exact(Fraction(1, 3))
    sys_ = TorusSystem(m=1, r=1, d=2, rotations=(((half,),), ((third,),)))
    # 2*(1/2) + 3*(1/3) = 2 is an integer: the pair (2, 3) resonates
    f1 = oracle.character((2,))
    f2 = oracle.character((3,))
    lim = character_limit(sys_, [f1, f2])
    assert lim.terms == (((5,), (1 + 0j)),)


def test_undecidable_resonance_raises():
    fuzzy = RotationEntry.from_float(0.1234567)
    sys_ = TorusSystem(m=1, r=1, d=1, rotations=(((fuzzy,),),))
    f = oracle.character((1,))
    with pytest.raises(UndecidableResonance):
        character_limit(sys_, [f])
    # frequency 0 never touches the inexact entry
    lim = character_limit(sys_, [oracle.character((0,), 3.0)])
    assert lim.terms == (((0,), 3 + 0j),)


def test_rational_bridge_matches_finite_limit():
    half = RotationEntry.exact(Fraction(1, 2))
    third = RotationEntry.exact(Fraction(1, 3))
    sys_ = TorusSystem(m=1, r=1, d=2, rotations=(((half,),), ((third,),)))
    finite, points = oracle.rational_rotation_to_finite(sys_)
    assert finite.n == 6
    f1 = oracle.character((2,))
    f2 = oracle.character((3,))
    lim = character_limit(sys_, [f1, f2])
    # one full period box of the 6-point orbit realises the limit exactly
    box = FolnerBox((6,))
    out = torus_truncated_average(
        sys_, [f1, f2], box, [tuple(float(c) for c in p) for p in points]
    )
    for p, v in zip(points, out):
        t = tuple(float(c) for c in p)
        assert abs(v - lim(t)) <= 1e-12


def test_bridge_rejects_irrational():
    alpha = RotationEntry.exact(0, {"alpha": Fraction(1)})
    sys_ = TorusSystem(
        m=1, r=1, d=1, rotations=(((alpha,),),), symbol_values=(("alpha", GOLDEN),)
    )
    with pytest.raises(ValidationError):
        oracle.rational_rotation_to_finite(sys_)


def test_sample_of_the_wrong_dimension_rejected():
    """A sample with too few or too many coordinates is an error, both at a
    trig polynomial's value and in the box average, not cut short by zip."""
    sys_, f1, f2 = golden_pair()
    for t in [(0.25, 0.5), ()]:
        with pytest.raises(ValidationError, match="sample point has wrong dimension"):
            f2(t)
        with pytest.raises(ValidationError, match="sample point has wrong dimension"):
            torus_truncated_average(sys_, [f1, f2], FolnerBox((3,)), [t])
    f = oracle.character((1, 1))
    for t in [(0.25,), (0.25, 0.5, 0.75)]:
        with pytest.raises(ValidationError, match="sample point has wrong dimension"):
            f(t)
    assert f((0.25, 0.5)) == pytest.approx(-1j)


def test_phase_is_cmath_exp_bit_for_bit():
    """e(p / den) from math.cos and math.sin is the cmath.exp of 1j times
    the same angle, to the last bit and the sign of zero, for numerators
    and denominators past 10**40, of both signs, and p = 0."""
    rng = random.Random(37)
    cases = [(0, 1), (0, 3), (0, 10 ** 45), (1, 2), (-1, 2), (1, 4), (-1, 4), (3, 4)]
    for _ in range(20000):
        den = rng.choice((rng.randint(1, 1000), rng.randint(1, 10 ** 45),
                          2 ** rng.randint(0, 200)))
        p = rng.choice((0, rng.randint(-den, den), rng.randint(-10 ** 50, 10 ** 50)))
        cases.append((p, den))
    assert sum(abs(p) > 10 ** 40 for p, _ in cases) > 1000
    for p, den in cases:
        got = _e(p, den)
        want = cmath.exp(1j * TWO_PI * (_centred(p, den) / den))
        assert (got.real.hex(), got.imag.hex()) == (want.real.hex(), want.imag.hex()), (p, den)


def test_a_phase_table_built_once_changes_no_bit(torus_scenario):
    """One phase table reused over boxes and bases gives the averages that
    build their own, bit for bit."""
    rng = random.Random(38)
    sys_, f1, f2 = golden_pair()
    samples = [(rng.random(),) for _ in range(4)]
    cases = [(sys_, [f1, f2], samples)]
    fs = [torus_scenario.observables[n] for n in torus_scenario.average_tuples[0]]
    cases.append((torus_scenario.system, fs, torus_scenario.samples))
    for sys_, fs, samples in cases:
        table = phase_table(sys_, fs, samples)
        for N in (1, 7, 1000, 10 ** 12):
            for base in (0, -5, 10 ** 9):
                box = FolnerBox((N,), (base,))
                got = torus_truncated_average(sys_, fs, box, samples, table=table)
                assert repr(got) == repr(torus_truncated_average(sys_, fs, box, samples))


def test_torus_demo_builds_one_phase_table_per_tuple(torus_scenario, monkeypatch):
    """torus-demo builds each tuple's table once and still averages once
    per box and base, each time with that tuple's table."""
    tables, calls = [], []

    def build(*args):
        tables.append(phase_table(*args))
        return tables[-1]

    def average(*args, table):
        calls.append(table)
        return torus_truncated_average(*args, table=table)

    monkeypatch.setattr(torus_report, "phase_table", build)
    monkeypatch.setattr(torus_report, "torus_truncated_average", average)
    torus_report.torus_demo(torus_scenario)
    scn = torus_scenario
    assert len(tables) == len(scn.average_tuples)
    per_tuple = len(scn.boxes) * (1 + scn.trial_count)
    assert [id(t) for t in calls] == [id(t) for t in tables for _ in range(per_tuple)]


def test_trig_norms():
    f = TrigObservable((((1,), 3 + 4j), ((2,), 0 - 1j)))
    assert abs(oracle.l2_norm(f) - math.sqrt(26)) < 1e-12
    assert abs(oracle.linf_bound(f) - 6.0) < 1e-12
    g = oracle.conjugate(f)
    assert g.terms == (((-1,), 3 - 4j), ((-2,), 0 + 1j))


def test_box_lengths_past_float_range():
    """A length N >= 2**1024 has no float: the kernel and the bound shift N
    into float range before they divide by it, so both tend to 0 with N
    instead of raising OverflowError."""
    alpha = RotationEntry.exact(0, {"alpha": Fraction(1)})
    sys_ = TorusSystem(
        m=1, r=1, d=1, rotations=(((alpha,),),), symbol_values=(("alpha", 1e-10),)
    )
    f = oracle.character((1,))
    theta = Fraction(1e-10)
    bounds = {}
    for N in (2 ** 1023, 2 ** 1024, 10 ** 309, 10 ** 400):
        (val,) = torus_truncated_average(sys_, [f], FolnerBox((N,), (-(10 ** 12),)), [(0.25,)])
        bounds[N] = torus_deviation_bound(sys_, [f], (N,))
        # |D_N| = |sin(pi N theta)| / (N sin(pi theta)), N theta reduced exactly
        scale = N.bit_length() - 1
        want = abs(oracle._sin_pi(N * theta)) / math.sin(math.pi * float(theta))
        assert abs(val) == pytest.approx(want * 2.0 ** -scale / (N >> scale), rel=1e-12)
        assert abs(val) <= bounds[N] * (1 + 1e-12)
    with pytest.raises(OverflowError):
        oracle.closed_form_torus_bound(sys_, [f], (2 ** 1024,))
    assert bounds[2 ** 1024] == bounds[2 ** 1023] / 2
    assert 0 < bounds[10 ** 309] < 1e-298
    assert bounds[10 ** 400] == 0.0


def _tiny_theta_pair():
    """The counterexample's shape with alpha = 5e-324 (2**-1074) and
    coefficients 1/3 and 1: frequencies -2 and 1 give theta = alpha / 3,
    nonzero but below 2**-1075, so float(theta) is 0."""
    alpha = Fraction(5e-324)
    rotations = tuple(
        ((RotationEntry.exact(0, {"alpha": c}),),) for c in (Fraction(1, 3), Fraction(1))
    )
    sys_ = TorusSystem(m=1, r=1, d=2, rotations=rotations, symbol_values=(("alpha", 5e-324),))
    return sys_, [oracle.character((-2,)), oracle.character((1,))], alpha / 3


def test_rotations_below_float_range():
    """sin(pi theta) is pi theta far within rounding for theta < 2**-1075,
    so the kernel is sin(pi N theta) / (pi N theta) with N theta exact, and
    the bound min(1, 1 / (pi N |theta|)), instead of a ZeroDivisionError."""
    sys_, fs, theta = _tiny_theta_pair()
    assert float(theta) == 0.0 and theta != 0
    assert character_limit(sys_, fs).terms == ()
    t = 0.3
    for N in (1, 64, 10 ** 309):
        (val,) = torus_truncated_average(sys_, fs, FolnerBox((N,), (-7,)), [(t,)])
        # |N theta| < 1e-14, so the kernel is its phase e(theta (2b + N - 1) / 2)
        phase = float(theta * (2 * -7 + N - 1) / 2)
        assert abs(val - cmath.exp(2j * math.pi * (phase - t))) <= 1e-15
        assert torus_deviation_bound(sys_, fs, (N,)) == 1.0
    for N in (10 ** 330, 10 ** 340):
        x = N * theta
        (val,) = torus_truncated_average(sys_, fs, FolnerBox((N,)), [(t,)])
        want = abs(oracle._sin_pi(x)) / (math.pi * float(x))
        assert abs(val) == pytest.approx(want, rel=1e-12)
        bound = torus_deviation_bound(sys_, fs, (N,))
        assert bound == pytest.approx(1 / (math.pi * float(x)), rel=1e-12)
        assert abs(val) <= bound
    with pytest.raises(ZeroDivisionError):
        oracle.closed_form_torus_bound(sys_, fs, (8,))
    with pytest.raises(ZeroDivisionError):
        oracle.closed_form_torus_average(sys_, fs, FolnerBox((8,)), [(t,)])
