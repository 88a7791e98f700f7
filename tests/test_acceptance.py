"""Acceptance suite: ten numbered criteria, one printed pass/fail line each.

Every exact claim is checked with rational arithmetic; the torus criterion
uses the stated floating-point tolerance.  Each test prints its verdict even
on failure (via the _verdict helper), so a full run always shows ten lines.
"""

import filecmp
import itertools
import json
import os
import random
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

import oracle
from ergolab.averages import FolnerBox, deviation_bound, exact_limit, truncated_average
from ergolab.extensions import is_pleasant, one_step_extension, pleasant_factor
from ergolab.factors import cond_expect
from ergolab.joinings import (
    furstenberg_joining,
    host_kra_expected_t1,
    host_kra_structural_check,
    host_kra_tower,
)
from ergolab.observables import Observable
from ergolab.proof import (
    contractive_check, restrict, vdc_condition_check, vdc_identity_check,
)
from ergolab.system import period_box
from ergolab.torus import character_limit, torus_truncated_average

from conftest import cyclic_system, random_observable, run_cli


def _verdict(number, label, passed):
    print(f"\nACCEPTANCE {number:2d} [{label}]: {'PASS' if passed else 'FAIL'}")
    assert passed, f"acceptance criterion {number} ({label}) failed"


def test_acceptance_01_torus_counterexample_identity(torus_scenario):
    """Resonant torus pair: the truncated average equals the conjugate
    character at every sample, every N in 1..64, many base points."""
    start = time.monotonic()
    sys_ = torus_scenario.system
    names = torus_scenario.average_tuples[0]
    fs = [torus_scenario.observables[n] for n in names]
    lim = character_limit(sys_, fs)
    rng = random.Random(101)
    samples = list(torus_scenario.samples)
    passed = lim.terms == (((-1,), (1 + 0j)),)
    worst = 0.0
    for N in range(1, 65):
        bases = [(0,)] + [(rng.randint(-1000, 1000),) for _ in range(3)]
        for base in bases:
            out = torus_truncated_average(sys_, fs, FolnerBox((N,), base), samples)
            for t, v in zip(samples, out):
                worst = max(worst, abs(v - lim(t)))
    passed = passed and worst <= 1e-12
    passed = passed and (time.monotonic() - start) < 1.0
    _verdict(1, "torus counterexample identity", passed)


def test_acceptance_02_cyclic5_extension_pleasant():
    """cyclic-5 is not pleasant (positive exact defect); its one-step
    extension is pleasant with defect exactly zero, exhaustively."""
    start = time.monotonic()
    base = cyclic_system(5, [1, 2])
    rep = is_pleasant(base, budget=10 ** 6)
    passed = (not rep.pleasant) and rep.defect.square > 0 and rep.witness is not None
    ext = one_step_extension(base, budget=10 ** 6).system
    ext_rep = is_pleasant(ext, budget=10 ** 6)
    passed = passed and ext_rep.pleasant and ext_rep.defect.square == 0
    passed = passed and (time.monotonic() - start) < 10.0
    _verdict(2, "cyclic-5 unpleasant, extension pleasant", passed)


def test_acceptance_03_joining_properties(finite_corpus):
    """Furstenberg joining on every finite scenario: exact marginals,
    exact invariance, and the unreduced walk over the period box at 20
    random bases gives the same measure."""
    start = time.monotonic()
    rng = random.Random(103)
    passed = True
    for scn in finite_corpus:
        sys_ = scn.system
        jm = furstenberg_joining(sys_)
        passed = passed and jm.marginals_equal_base()
        passed = passed and all(jm.is_invariant(name) for name in jm.actions)
        for _ in range(20):
            shift = tuple(rng.randint(-50, 50) for _ in range(sys_.r))
            passed = passed and oracle.furstenberg_mass(sys_, shift) == jm.mass
    passed = passed and (time.monotonic() - start) < 30.0
    _verdict(3, "joining marginals, invariance, base independence", passed)


def test_acceptance_04_deviation_bounds(finite_corpus):
    """Truncated box averages stay within the certified deviation bound for
    20 random base points per scenario, and hit the limit exactly when every
    edge is a period multiple."""
    start = time.monotonic()
    rng = random.Random(104)
    passed = True
    for scn in finite_corpus:
        sys_ = scn.system
        P = period_box(sys_).lengths
        for names in scn.average_tuples:
            fs = [scn.observables[n] for n in names]
            lim = exact_limit(sys_, fs)
            for _ in range(20):
                base = tuple(rng.randint(-50, 50) for _ in range(sys_.r))
                lengths = tuple(rng.randint(1, 3 * p) for p in P)
                box = FolnerBox(lengths, base)
                deviation = (truncated_average(sys_, fs, box) - lim).l2(sys_.weights)
                passed = passed and deviation <= deviation_bound(sys_, fs, box)
                mult = FolnerBox(tuple(p * rng.randint(1, 3) for p in P), base)
                passed = passed and truncated_average(sys_, fs, mult) == lim
                passed = passed and deviation_bound(sys_, fs, mult).is_zero
    passed = passed and (time.monotonic() - start) < 30.0
    _verdict(4, "deviation bounds and exactness at period multiples", passed)


def test_acceptance_05_contractive_inequality(finite_corpus):
    """Contractive inequality on 500 fuzzed observable tuples per scenario."""
    rng = random.Random(105)
    passed = True
    for scn in finite_corpus:
        sys_ = scn.system
        P = period_box(sys_).lengths
        for _ in range(500):
            fs = [random_observable(rng, sys_.n) for _ in range(sys_.d)]
            base = tuple(rng.randint(-20, 20) for _ in range(sys_.r))
            lengths = tuple(rng.randint(1, 2 * p) for p in P)
            _, _, ok = contractive_check(sys_, fs, FolnerBox(lengths, base))
            passed = passed and ok
    _verdict(5, "contractive inequality, 500 fuzzed tuples per scenario", passed)


def test_acceptance_06_vdc_identity(finite_corpus):
    """Exact van der Corput identity on every scenario tuple plus 100
    fuzzed tuples."""
    rng = random.Random(106)
    passed = True
    for scn in finite_corpus:
        for names in scn.average_tuples:
            fs = [scn.observables[n] for n in names]
            lhsq, rhsq, ok = vdc_identity_check(scn.system, fs)
            passed = passed and ok and lhsq == rhsq
    sys_ = cyclic_system(6, [1, 2])
    for _ in range(100):
        fs = [random_observable(rng, 6) for _ in range(2)]
        _, _, ok = vdc_identity_check(sys_, fs)
        passed = passed and ok
    _verdict(6, "van der Corput identity, exact equality", passed)


def test_acceptance_07_joining_condition_implication(finite_corpus):
    """Whenever the joining-integral condition holds, every indicator-basis
    limit with that f_1 vanishes; no counterexample over the corpus.
    vdc_condition_check itself raises on an implication failure, so the
    criterion is that every call returns cleanly and at least one positive
    instance is exercised."""
    passed = True
    positives = 0
    for scn in finite_corpus:
        sys_ = scn.system
        xi = pleasant_factor(sys_)
        candidates = [Observable.constant(sys_.n, 0)]
        candidates += list(scn.observables.values())
        e0 = Observable.indicator(sys_.n, sys_.support[0])
        candidates.append(e0 - cond_expect(sys_, e0, xi))
        for f1 in candidates:
            ok, witness = vdc_condition_check(sys_, f1)
            if ok:
                positives += 1
                passed = passed and witness is None
            else:
                passed = passed and witness is not None and witness.integral != 0
    # pleasant systems make nontrivial positives: the extension's centered
    # indicators are orthogonal to its (discrete) pleasant factor
    ext = one_step_extension(cyclic_system(5, [1, 2]), budget=10 ** 6).system
    ok, _ = vdc_condition_check(ext, Observable.constant(ext.n, 0))
    passed = passed and ok
    passed = passed and positives >= len(finite_corpus)
    _verdict(7, "joining condition implies vanishing limits", passed)


def test_acceptance_08_pleasant_reduction():
    """Two-sided exact reduction on 100 fuzzed decomposable inputs over the
    pleasant 25-state extension.  reduce_pleasant_limit raises if the two
    sides ever disagree."""
    from ergolab.proof import pleasant_decompose, reduce_pleasant_limit
    from ergolab.factors import action_isotropy, difference_isotropy, join

    from conftest import cell_valued_observable

    rng = random.Random(108)
    ext = one_step_extension(cyclic_system(5, [1, 2]), budget=10 ** 6).system
    cons = [action_isotropy(ext, 1), difference_isotropy(ext, 2, 1)]
    passed = True
    for _ in range(100):
        if rng.random() < 0.5:
            tuples = [
                tuple(cell_valued_observable(rng, part) for part in cons)
                for _ in range(rng.randint(1, 3))
            ]
        else:
            f = random_observable(rng, ext.n)
            tuples = pleasant_decompose(ext, f, cons)
        f2 = random_observable(rng, ext.n)
        out = reduce_pleasant_limit(ext, tuples, [f2])
        # independent recomputation of the reduced side
        check = Observable.constant(ext.n, 0)
        for gs in tuples:
            check = check + gs[0] * exact_limit(restrict(ext, [2]), [gs[1] * f2])
        passed = passed and out == check
    _verdict(8, "pleasant reduction, 100 fuzzed inputs", passed)


def test_acceptance_09_host_kra_tower(finite_corpus):
    """Closed-form structure of the lifted first action for d = 1, 2, 3;
    all stage marginals equal mu; stage 1 of cyclic-5 is the full product."""
    passed = True
    systems = [cyclic_system(5, [1]), cyclic_system(5, [1, 2]), cyclic_system(7, [1, 2, 3])]
    systems += [scn.system for scn in finite_corpus]
    seen_d = set()
    for sys_ in systems:
        seen_d.add(sys_.d)
        tower = host_kra_tower(sys_)
        passed = passed and len(tower) == sys_.d
        for jm in tower:
            passed = passed and jm.marginals_equal_base()
        top = tower[-1]
        passed = passed and host_kra_structural_check(top)
        passed = passed and top.actions["T1"] == host_kra_expected_t1(
            top.labels
        )
    passed = passed and {1, 2, 3} <= seen_d
    stage1 = host_kra_tower(cyclic_system(5, [1, 2]))[0]
    product = {(a, b): Fraction(1, 25) for a in range(5) for b in range(5)}
    passed = passed and stage1.mass == product
    _verdict(9, "Host-Kra tower structure and marginals", passed)


def _corpus_commands(corpus):
    """Every command line of the determinism run, without --out."""
    from ergolab.scenario import bundled_scenario_dir

    out = []
    for scn in corpus:
        path = str(bundled_scenario_dir() / f"{scn.name}.json")
        if scn.engine == "finite":
            commands = [
                ["validate"], ["avg"], ["limit"], ["joining"], ["hk"],
                ["extend"], ["pleasant"],
            ]
        else:
            commands = [
                ["validate"], ["torus-demo"], ["torus-demo", "--format", "csv"],
            ]
        out += [cmd + ["--scenario", path] for cmd in commands]
    return out


# argv: output directory, JSON list of command lines; runs them all in-process
_CHILD_RUN = """
import json, sys
from ergolab.cli import main
for argv in json.loads(sys.argv[2]):
    main(argv + ["--out", sys.argv[1]], standalone_mode=False)
"""


def test_acceptance_10_determinism(corpus, tmp_path):
    """Byte-identical reports across two in-process runs and two child
    interpreters with different string-hash seeds, over the full bundled
    corpus."""
    import ergolab

    commands = _corpus_commands(corpus)
    for run in ("a", "b"):
        for argv in commands:
            result = run_cli(argv + ["--out", str(tmp_path / run)])
            assert result.exit_code == 0, result.stderr
    src = str(Path(ergolab.__file__).resolve().parents[1])
    others = ["b"]
    for seed in ("0", "1"):
        env = dict(os.environ, PYTHONHASHSEED=seed)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (src, os.environ.get("PYTHONPATH")) if p
        )
        outdir = tmp_path / f"hashseed{seed}"
        proc = subprocess.run(
            [sys.executable, "-c", _CHILD_RUN, str(outdir), json.dumps(commands)],
            env=env, capture_output=True, text=True, timeout=600,
        )
        assert proc.returncode == 0, proc.stderr
        others.append(outdir.name)
    names = sorted(p.name for p in (tmp_path / "a").iterdir())
    passed = len(names) == len(commands)
    for other in others:
        passed = passed and names == sorted(p.name for p in (tmp_path / other).iterdir())
        for name in names:
            passed = passed and filecmp.cmp(
                tmp_path / "a" / name, tmp_path / other / name, shallow=False
            )
    _verdict(10, "byte-identical reports across runs and hash seeds", passed)
