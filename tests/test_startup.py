"""What each command loads: ``import ergolab.cli`` loads only the scenario
parser, and a command loads only the engine modules it runs.  Module sets
only, no timing; each case runs in a fresh interpreter started with -S, so
that nothing a site hook preloads hides an import."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import ergolab
from ergolab.scenario import bundled_scenario_dir

ENGINES = {f"ergolab.{m}" for m in ("averages", "extensions", "factors", "joinings", "torus")}
# a torus run builds no finite system
TORUS_ABSENT = ENGINES - {"ergolab.torus"} | {"ergolab.system"}
FINITE_COMMANDS = ("validate", "avg", "limit", "joining", "hk", "extend", "pleasant")

# argv: output directory, JSON list of command lines; prints the modules the
# import and the commands added to sys.modules, as one JSON list
_PROBE = """
import json, sys
before = set(sys.modules)
import ergolab.cli
for argv in json.loads(sys.argv[2]):
    ergolab.cli.main(argv + ["--out", sys.argv[1]], standalone_mode=False)
print(json.dumps(sorted(set(sys.modules) - before)))
"""


def loaded_by(tmp_path, commands):
    src = str(Path(ergolab.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-S", "-c", _PROBE, str(tmp_path), json.dumps(commands)],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return set(json.loads(proc.stdout.splitlines()[-1]))


def scn(name):
    return str(bundled_scenario_dir() / f"{name}.json")


def test_cli_import_loads_no_engine_no_click_no_dataclasses(tmp_path):
    added = loaded_by(tmp_path, [])
    assert not added & (ENGINES | {"click", "dataclasses"}), sorted(added)
    # the benchmark's in-process runner reads this module from sys.modules
    assert "ergolab.observables" in added


@pytest.mark.parametrize(
    "command, scenario, absent",
    [
        ("torus-demo", "torus-counterexample", TORUS_ABSENT),
        ("validate", "torus-counterexample", TORUS_ABSENT),
        ("validate", "cyclic-5", ENGINES),
        ("pleasant", "cyclic-5", {"ergolab.torus", "ergolab.joinings"}),
    ],
)
def test_command_loads_only_what_it_runs(tmp_path, command, scenario, absent):
    added = loaded_by(tmp_path, [[command, "--scenario", scn(scenario)]])
    assert not added & absent, sorted(added & absent)
    assert not added & {"click", "dataclasses"}


def test_scenario_hash_loads_no_openssl(tmp_path):
    """The scenario digest comes from the interpreter's built-in SHA-256,
    so neither the import nor validate loads hashlib's OpenSSL module."""
    assert "_hashlib" not in loaded_by(tmp_path, [])
    added = loaded_by(tmp_path, [["validate", "--scenario", scn("cyclic-5")]])
    assert "_hashlib" not in added, sorted(added)


def test_no_command_loads_the_proof_steps(tmp_path):
    """The proof steps are reached from no command, and no finite command
    loads the torus engine or its scenario parsers."""
    finite = loaded_by(
        tmp_path, [[c, "--scenario", scn("cyclic-5")] for c in FINITE_COMMANDS]
    )
    assert {"ergolab.joinings", "ergolab.extensions"} <= finite
    assert not finite & {"ergolab.proof", "ergolab.torus"}, sorted(finite)
    torus = loaded_by(
        tmp_path, [["torus-demo", "--scenario", scn("torus-counterexample")]]
    )
    assert "ergolab.torus" in torus
    assert "ergolab.proof" not in torus, sorted(torus)


@pytest.mark.parametrize("command", ["hk", "joining"])
def test_joinings_load_no_extensions(tmp_path, command):
    added = loaded_by(tmp_path, [[command, "--scenario", scn("cyclic-5")]])
    assert "ergolab.joinings" in added
    assert "ergolab.extensions" not in added, sorted(added)


def test_validate_loads_no_resources_and_no_random(tmp_path):
    """Finding the bundled scenarios needs no importlib.resources, and only
    a seeded command imports random."""
    added = loaded_by(tmp_path, [["validate", "--scenario", scn("cyclic-5")]])
    assert "ergolab.scenario" in added
    assert not added & {"importlib.resources", "random"}, sorted(added)
