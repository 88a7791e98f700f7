"""What each command loads: ``import ergolab.cli`` loads only the scenario
parser, and a command loads only its own report module and the engine
modules it runs.  Module sets only, no timing; each case runs in a fresh
interpreter started with -S, so that nothing a site hook preloads hides an
import."""

import ast
import json
import os
import subprocess
import sys
from importlib.util import resolve_name
from pathlib import Path

import pytest

import ergolab
from ergolab.scenario import bundled_scenario_dir

ENGINES = {f"ergolab.{m}" for m in ("averages", "extensions", "factors", "joinings", "torus")}
# a torus run builds no finite system, and its phases need no cmath
TORUS_ABSENT = ENGINES - {"ergolab.torus"} | {"ergolab.system", "cmath"}
FINITE_COMMANDS = ("validate", "avg", "limit", "joining", "hk", "extend", "pleasant")
# command -> the report module that computes its body
REPORT_OF = {
    "validate": "validate", "avg": "averages", "limit": "averages",
    "joining": "joinings", "hk": "joinings", "extend": "extensions",
    "pleasant": "extensions", "torus-demo": "torus",
}
REPORTS = {f"ergolab.reports.{m}" for m in REPORT_OF.values()}

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

# argv: JSON list of [command line, exit code or null]; parses each, which
# must exit with that code (null: return), and prints the modules the import
# and parse added
_PARSE_PROBE = """
import contextlib, io, json, sys
before = set(sys.modules)
import ergolab.cli
for argv, code in json.loads(sys.argv[1]):
    got = None
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            ergolab.cli.parse(argv)
        except SystemExit as exc:
            got = exc.code
    assert got == code, (argv, got)
print(json.dumps(sorted(set(sys.modules) - before)))
"""


def _child(args):
    """A child interpreter on this checkout's package; its stdout, stderr."""
    src = str(Path(ergolab.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, *args], env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout, proc.stderr


def loaded_by(tmp_path, commands):
    stdout, _ = _child(["-S", "-c", _PROBE, str(tmp_path), json.dumps(commands)])
    return set(json.loads(stdout.splitlines()[-1]))


def scn(name):
    return str(bundled_scenario_dir() / f"{name}.json")


def test_cli_import_loads_no_engine_no_click_no_dataclasses(tmp_path):
    added = loaded_by(tmp_path, [])
    assert not added & (ENGINES | {"click", "dataclasses"}), sorted(added)
    assert not {m for m in added if m.startswith("ergolab.reports")}, sorted(added)
    # the benchmark's in-process runner reads this module from sys.modules
    assert "ergolab.observables" in added


def parsed(lines):
    """The modules a fresh interpreter loads importing ergolab.cli and
    parsing each [command line, exit code or None]."""
    stdout, _ = _child(["-S", "-c", _PARSE_PROBE, json.dumps(lines)])
    return set(json.loads(stdout.splitlines()[-1]))


def test_parse_help_and_version_load_no_report_module():
    """The command table holds every flag and help line, so reading any
    command line, --help and --version included, imports no report module."""
    lines = [[["--help"], 0], [["--version"], 0]]
    for command in REPORT_OF:
        lines += [[[command, "--scenario", "S"], None], [[command, "--help"], 0]]
    added = parsed(lines)
    assert "ergolab.cli" in added
    assert not {m for m in added if m.startswith("ergolab.reports")}, sorted(added)


def test_help_text_loads_only_for_help_or_a_usage_error():
    """A valid command line, --version included, loads no help text; --help
    and a malformed command line load it."""
    valid = [[[command, "--scenario", "S"], None] for command in REPORT_OF]
    assert "ergolab.usage" not in parsed(valid + [[["--version"], 0]])
    for line, code in [(["--help"], 0), (["avg", "--help"], 0), ([], 2),
                       (["avg"], 2), (["nope"], 2), (["avg", "--scenario", "S", "-x"], 2)]:
        assert "ergolab.usage" in parsed([[line, code]]), line


@pytest.mark.parametrize(
    "command, scenario, absent",
    [
        ("torus-demo", "torus-counterexample", TORUS_ABSENT),
        ("validate", "torus-counterexample", TORUS_ABSENT),
        ("validate", "cyclic-5", ENGINES),
        # the orbit table and the base-shift trials live in system, so
        # only avg and limit load the averages
        ("pleasant", "cyclic-5",
         {"ergolab.averages", "ergolab.torus", "ergolab.joinings"}),
        ("avg", "cyclic-5", ENGINES - {"ergolab.averages"}),
        ("limit", "cyclic-5", ENGINES - {"ergolab.averages"}),
        # the Furstenberg joining needs no factor
        ("joining", "cyclic-5", {"ergolab.averages", "ergolab.factors", "ergolab.torus"}),
        ("hk", "cyclic-5", {"ergolab.averages", "ergolab.torus"}),
        ("extend", "cyclic-5", {"ergolab.averages", "ergolab.torus"}),
    ],
)
def test_command_loads_only_what_it_runs(tmp_path, command, scenario, absent):
    """A command loads the engines it runs and its own report module, and
    no other command's, nor the help text."""
    added = loaded_by(tmp_path, [[command, "--scenario", scn(scenario)]])
    own = f"ergolab.reports.{REPORT_OF[command]}"
    assert own in added
    unwanted = absent | REPORTS - {own} | {"click", "dataclasses", "ergolab.usage"}
    assert not added & unwanted, sorted(added & unwanted)


def test_no_command_loads_argparse(tmp_path):
    """The command line is read from the command table: no command loads
    argparse, nor the gettext and locale modules argparse imports."""
    added = loaded_by(tmp_path, [
        [c, "--scenario", scn("cyclic-5")] for c in FINITE_COMMANDS
    ] + [["torus-demo", "--scenario", scn("torus-counterexample")]])
    assert not added & {"argparse", "gettext", "locale"}, sorted(added)


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
    a command that draws bases imports random."""
    added = loaded_by(tmp_path, [["validate", "--scenario", scn("cyclic-5")]])
    assert "ergolab.scenario" in added
    assert not added & {"importlib.resources", "random"}, sorted(added)


def _imports(path: Path, package: str, tree=None):
    """The absolute names of the modules path imports (within tree, a node
    of its syntax tree, if one is given), each ``from X import y`` counted
    both as X and as X.y, as y may be a submodule."""
    tree = ast.parse(path.read_text(encoding="utf-8")) if tree is None else tree
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = resolve_name("." * node.level + (node.module or ""), package)
            yield base
            yield from (f"{base}.{alias.name}" for alias in node.names)


def test_no_module_imports_the_cli():
    """Under ``python -m ergolab.cli`` the command line runs as __main__, so
    a module importing ergolab.cli would compile and run it a second time,
    with a second command table."""
    root = Path(ergolab.__file__).resolve().parent
    importers = []
    for path in sorted(root.rglob("*.py")):
        package = ".".join(("ergolab", *path.parent.relative_to(root).parts))
        if path != root / "cli.py" and "ergolab.cli" in set(_imports(path, package)):
            importers.append(str(path.relative_to(root)))
    assert importers == []
    # relative imports are resolved: a report module's engine, the cli's own
    assert "ergolab.averages" in set(
        _imports(root / "reports" / "averages.py", "ergolab.reports"))
    assert "ergolab.scenario.load_scenario" in set(_imports(root / "cli.py", "ergolab"))


def _function_imports(path: Path):
    """The ergolab modules imported inside the functions of path, a module
    of the ergolab package itself."""
    return {
        name
        for fn in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
        for name in _imports(path, "ergolab", fn)
        if name.split(".")[0] == "ergolab"
    }


def test_the_orbit_layer_and_the_scenario_parser_import_at_module_level():
    """The orbit layer in system.py imports every ergolab module it runs
    at its top, and the scenario parser defers only the engines' parsers,
    so that a finite scenario loads no torus engine and a torus one no
    finite system."""
    root = Path(ergolab.__file__).resolve().parent
    assert _function_imports(root / "system.py") == set()
    assert _function_imports(root / "scenario.py") == {
        "ergolab.system", "ergolab.system._parse_finite_system",
        "ergolab.torus", "ergolab.torus._parse_torus_system", "ergolab.torus._parse_trig",
    }


def test_a_job_never_imports_the_cli_as_a_module(tmp_path):
    """An ``hk`` job as the benchmark spawns it imports its report module
    and never ergolab.cli: the command line runs once, as __main__."""
    _, stderr = _child(["-X", "importtime", "-m", "ergolab.cli", "hk",
                        "--scenario", scn("cyclic-5"), "--out", str(tmp_path)])
    imported = {line.rsplit("|", 1)[-1].strip() for line in stderr.splitlines()
                if line.startswith("import time:")}
    assert {"ergolab.reports.joinings", "ergolab.joinings"} <= imported
    assert "ergolab.cli" not in imported
