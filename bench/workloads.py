"""The benchmark's workloads: named job lists over generated and bundled
scenarios.

A job is one ``ergolab <command> --scenario <file> --out <dir>`` call with
default options only (never ``--threads``).  Generated families come from
``generate.FAMILIES``; bundled scenarios are the files shipped in
``src/ergolab/scenarios`` and are the real traffic inside every workload.

Which end-to-end metric each traced layer metric should move:

* ``extensions.*``, ``factors.*``, ``observables.l2_square`` and the
  ``exact_limit`` calls made by ``is_pleasant``: ``wall_s`` on
  pleasant-scale; no calls at all on torus-scale.
* ``averages.truncated_average`` and ``averages.orbit_tuples``: ``wall_s``
  on both finite workloads, the pair that catches a kernel that helps one
  use of the orbit pass and costs the other.
* ``joinings.host_kra_tower``, ``joinings.hk_support`` and
  ``cli._write_report``: ``wall_s`` and ``peak_rss_mb`` on averages-scale.
* ``torus.*``: ``wall_s`` on torus-scale only.
* ``cli.import_s``, ``scenario.load_scenario`` and
  ``FiniteSystem.__post_init__``: ``setup_s`` on every workload.
"""

from __future__ import annotations

from pathlib import Path
from typing import Dict, List, NamedTuple, Sequence

BUNDLED_FINITE = (
    "cyclic-4", "cyclic-5", "cyclic-6", "cyclic-7", "cyclic-9", "product-2x3",
)
BUNDLED_TORUS = ("torus-counterexample",)


class Job(NamedTuple):
    command: str
    scenario: str  # family or bundled scenario name

    @property
    def key(self) -> str:
        return f"{self.scenario}__{self.command}"


def _each(commands: Sequence[str], scenarios: Sequence[str]) -> List[Job]:
    return [Job(c, s) for s in scenarios for c in commands]


FINITE = ("gen-cyclic23", "gen-cyclic9-d3", "gen-product3x7", "gen-two-cycles")

WORKLOADS: Dict[str, List[Job]] = {
    # is_pleasant over the indicator basis (thousands of period-box
    # exact_limit calls on sparse products) plus factors, l2_square and the
    # one-step extension; never reaches torus or host_kra_tower.
    "pleasant-scale": _each(("pleasant",), FINITE)
    + [Job("extend", "gen-cyclic17")]
    + _each(("pleasant", "extend"), BUNDLED_FINITE),
    # few long-box sums of dense observables, 21 Furstenberg joinings per
    # joining job and the Host-Kra tower with its report dump; never calls
    # is_pleasant.
    "averages-scale": _each(("avg", "limit", "joining", "hk"), FINITE)
    + _each(("hk",), BUNDLED_FINITE),
    # only the torus box sum does real work here
    "torus-scale": _each(
        ("torus-demo",), ("gen-torus-r1", "gen-torus-r2") + BUNDLED_TORUS
    ),
}


def families(jobs: Sequence[Job], generated: Sequence[str]) -> List[str]:
    """The generated families a job list uses, in first-use order."""
    return list(dict.fromkeys(j.scenario for j in jobs if j.scenario in generated))


def scenario_paths(jobs: Sequence[Job], generated: Dict[str, Path],
                   bundled_dir: Path) -> Dict[str, Path]:
    """Scenario name -> file for every scenario a job list uses."""
    out = {}
    for job in jobs:
        if job.scenario in generated:
            out[job.scenario] = generated[job.scenario]
        else:
            out[job.scenario] = bundled_dir / f"{job.scenario}.json"
    return out
