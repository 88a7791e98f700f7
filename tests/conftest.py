import contextlib
import importlib.util
import io
import json
import random
from fractions import Fraction
from pathlib import Path
from typing import List, NamedTuple

import pytest

from ergolab.observables import Observable
from ergolab.scenario import bundled_scenario_dir, load_scenario, parse_scenario
from ergolab.system import FiniteSystem


class CliResult(NamedTuple):
    exit_code: int
    stdout: str
    stderr: str


def run_cli(args):
    """``ergolab <args>`` in this process: its exit code and what it wrote to
    stdout and stderr.  Any exception other than SystemExit propagates."""
    from ergolab.cli import main

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            main(list(args), standalone_mode=False)
            code = 0
        except SystemExit as exc:
            code = 0 if exc.code is None else exc.code
    return CliResult(code, out.getvalue(), err.getvalue())


def cyclic_system(n, steps, weights=None):
    """Z/n with one rank-1 action per step, each rotating by +step."""
    gens = tuple((tuple((x + s) % n for x in range(n)),) for s in steps)
    return FiniteSystem(
        n=n,
        r=1,
        d=len(steps),
        weights=tuple(weights) if weights else (Fraction(1, n),) * n,
        generators=gens,
    )


def random_observable(rng, n, span=3, max_denom=6):
    return Observable.from_values(
        [
            Fraction(rng.randint(-span, span), rng.randint(1, max_denom))
            for _ in range(n)
        ]
    )


def cell_valued_observable(rng, part, span=3, max_denom=6):
    """Random rational observable constant on the cells of a partition."""
    vals = [
        Fraction(rng.randint(-span, span), rng.randint(1, max_denom))
        for _ in part.cells
    ]
    return Observable.from_values([vals[part.cell_of[x]] for x in range(part.n)])


def bundled_scenarios() -> List[Path]:
    return sorted(bundled_scenario_dir().glob("*.json"))


def generated_finite_scenarios(seeds):
    """The finite bench/generate.py families at the given seeds."""
    path = Path(__file__).resolve().parents[1] / "bench" / "generate.py"
    spec = importlib.util.spec_from_file_location("generate", path)
    generate = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(generate)
    scenarios = [
        parse_scenario(json.loads(generate.scenario_text(family, seed)))
        for family in generate.FAMILIES
        for seed in seeds
    ]
    return [scn for scn in scenarios if scn.engine == "finite"]


@pytest.fixture(scope="session")
def corpus():
    return [load_scenario(p) for p in bundled_scenarios()]


@pytest.fixture(scope="session")
def finite_corpus(corpus):
    return [s for s in corpus if s.engine == "finite"]


@pytest.fixture(scope="session")
def torus_scenario(corpus):
    return next(s for s in corpus if s.engine == "torus")


@pytest.fixture
def rng():
    return random.Random(20260823)
