"""The ``ergolab`` process entry, ``cli.console``: it runs ``main`` without
the cyclic garbage collector and leaves through ``os._exit`` once stdout and
stderr are flushed.  The process writes what an in-process call writes, and
no command leaves cyclic garbage, which is what makes the collector pure
overhead in the process.  That an in-process caller of ``main`` keeps its
collector is part of ``test_cli.py::test_main_calling_contract``."""

import gc
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import ergolab
from ergolab import cli
from ergolab.scenario import bundled_scenario_dir, load_scenario

from conftest import bundled_scenarios, run_cli

ROOT = Path(__file__).resolve().parents[1]


def scn(name):
    return str(bundled_scenario_dir() / f"{name}.json")


def _formats(command):
    """The --format values of a command, or [None] when it has no --format."""
    if "--format" in cli.COMMANDS[command][1]:
        return list(cli.FORMATS)
    return [None]


COMMAND_LINES = [
    (command, fmt)
    for command in sorted(cli.COMMANDS)
    for fmt in _formats(command)
]


def _argv(command, scenario, out, fmt=None):
    return [command, "--scenario", scenario, "--out", str(out)] + (
        ["--format", fmt] if fmt else []
    )


def _child(args, **kwargs):
    """A child interpreter, as the benchmark spawns one (site hook on)."""
    src = str(Path(ergolab.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, *args], env=env, capture_output=True,
                          text=True, timeout=120, **kwargs)


@pytest.mark.parametrize("command, fmt", COMMAND_LINES)
def test_process_writes_what_main_writes(tmp_path, command, fmt):
    """python -m ergolab.cli writes the same report bytes and prints the
    same path line as main in process."""
    scenario = scn("torus-counterexample" if command == "torus-demo" else "cyclic-5")
    args = _argv(command, scenario, tmp_path, fmt)
    proc = _child(["-m", "ergolab.cli", *args])
    assert (proc.returncode, proc.stderr) == (0, "")
    report = Path(proc.stdout.rstrip("\n"))
    assert report.parent == tmp_path
    written = report.read_bytes()
    report.unlink()
    result = run_cli(args)
    assert result == (0, proc.stdout, "")
    assert report.read_bytes() == written


def test_process_failure_is_one_error_line(tmp_path):
    proc = _child(["-m", "ergolab.cli", *_argv("avg", scn("torus-counterexample"), tmp_path)])
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert proc.stderr == "error: subcommand needs a 'finite' scenario, got 'torus'\n"
    assert list(tmp_path.iterdir()) == []


# argv: the command line; runs ergolab.cli as ``python -m ergolab.cli``
# does, with os._exit wrapped to print the exit code, the collector's state
# and whether anything is frozen, as one JSON list, before the process ends
_MAIN_PROBE = """
import gc, json, os, runpy, sys
exit_now = os._exit
def probe_exit(code):
    print(json.dumps([code, gc.isenabled(), gc.get_freeze_count() > 0]))
    sys.stdout.flush()
    exit_now(code)
os._exit = probe_exit
runpy.run_module("ergolab.cli", run_name="__main__", alter_sys=True)
print("returned")
"""


@pytest.mark.parametrize(
    "command, scenario, code",
    [("validate", "cyclic-5", 0), ("avg", "torus-counterexample", 1),
     ("validate", None, 2)],
)
def test_process_disables_collector_and_exits_at_once(tmp_path, command, scenario, code):
    """Every exit, success and error alike, leaves through os._exit with the
    collector off and nothing frozen, once the report path or the error
    line is flushed."""
    args = [command, "--out", str(tmp_path)]
    if scenario is not None:
        args += ["--scenario", scn(scenario)]
    proc = _child(["-c", _MAIN_PROBE, *args])
    assert proc.returncode == code, proc.stderr
    *printed, last = proc.stdout.splitlines()
    assert json.loads(last) == [code, False, False], proc.stderr
    assert printed == ([str(tmp_path / "cyclic-5__validate.json")] if code == 0 else [])
    assert (proc.stderr == "") == (code == 0)


# argv: the command line.  Prints each ergolab submodule as it is found,
# with whether the collector is on, then runs ergolab.cli as ``python -m``
# does, as __main__
_IMPORT_PROBE = """
import gc, runpy, sys
class Probe:
    def find_spec(self, name, path=None, target=None):
        if name.startswith("ergolab."):
            print(name, gc.isenabled(), flush=True)
sys.meta_path.insert(0, Probe())
runpy.run_module("ergolab.cli", run_name="__main__", alter_sys=True)
"""


def test_collector_is_off_before_the_cli_imports_under_python_m(tmp_path):
    """Under ``python -m ergolab.cli`` the collector is off before the
    command line's own imports, so every package module a job loads after
    ergolab.cli itself is imported without collections; importing
    ergolab.cli as a module leaves the collector on."""
    proc = _child(["-c", _IMPORT_PROBE, "hk", "--scenario", scn("cyclic-5"),
                   "--out", str(tmp_path)])
    assert proc.returncode == 0, proc.stderr
    *found, report = proc.stdout.splitlines()
    assert report == str(tmp_path / "cyclic-5__hk.json")
    assert found[0] == "ergolab.cli True"
    modules = [line.split()[0] for line in found[1:]]
    assert {"ergolab.errors", "ergolab.scenario", "ergolab.reports.joinings"} <= set(modules)
    assert found[1:] == [f"{m} False" for m in modules]
    imported = _child(["-c", "import gc, ergolab.cli; print(gc.isenabled())"])
    assert imported.stdout == "True\n", imported.stderr


# argv: the fault, then the command line.  Fault "body" replaces the body of
# validate by one that raises ZeroDivisionError; fault "flush" gives the
# process a stdout whose flush raises OSError.  Then enters the process as
# the ergolab script does.
_FAULT_PROBE = """
import sys
from ergolab import cli
if sys.argv.pop(1) == "body":
    run, flags, doc = cli.COMMANDS["validate"]
    def crash(**kwargs):
        1 / 0
    cli.COMMANDS["validate"] = (crash, flags, doc)
else:
    class Unflushable:
        def write(self, text):
            return len(text)
        def flush(self):
            raise OSError(28, "No space left on device")
    sys.stdout = Unflushable()
sys.argv[0] = "ergolab"
cli.console()
"""


@pytest.mark.parametrize("fault, error, code", [
    ("body", "ZeroDivisionError: division by zero", 1),
    # the interpreter's status when it cannot flush stdout at exit either
    ("flush", "OSError: [Errno 28] No space left on device", 120),
], ids=["body", "flush"])
def test_process_fault_keeps_its_traceback(tmp_path, fault, error, code):
    """An exception other than SystemExit, a bug in a command or a failed
    flush before os._exit, is not swallowed: it propagates out of console
    with its traceback, and the process ends through the interpreter's own
    teardown with a failing status."""
    proc = _child(["-c", _FAULT_PROBE, fault, "validate", "--scenario", scn("cyclic-5"),
                   "--out", str(tmp_path)])
    assert proc.returncode == code
    assert proc.stdout == ""
    assert proc.stderr.startswith("Traceback (most recent call last):")
    assert f"\n{error}\n" in proc.stderr


def test_console_script_is_the_process_entry():
    tomllib = pytest.importorskip("tomllib")
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    assert project["scripts"] == {"ergolab": "ergolab.cli:console"}


def _generated(outdir):
    """Every bench/generate.py family at seed 1, written to outdir."""
    spec = importlib.util.spec_from_file_location("generate", ROOT / "bench" / "generate.py")
    generate = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(generate)
    return generate.write_scenarios(list(generate.FAMILIES), 1, outdir).values()


@pytest.fixture(scope="module")
def scenarios_by_engine(tmp_path_factory):
    """(engine, path) for the bundled scenarios and the generated families:
    finite systems of 4 to 23 states with d = 2, 3 and r = 1, 2, and the
    torus scenarios."""
    paths = [*bundled_scenarios(), *_generated(tmp_path_factory.mktemp("gen"))]
    return sorted((load_scenario(p).engine, str(p)) for p in paths)


@pytest.mark.parametrize("command, fmt", COMMAND_LINES)
def test_no_command_leaves_cyclic_garbage(tmp_path, scenarios_by_engine, command, fmt):
    """With the collector off, a collection after a command finds nothing:
    everything a command builds is freed by reference counting, so the
    process entry loses nothing by running without the collector.  One
    warm-up call first, since importing an engine module may leave some."""
    engine = {"torus-demo": "torus", "validate": None}.get(command, "finite")
    paths = [p for e, p in scenarios_by_engine if engine in (None, e)]
    assert run_cli(_argv(command, paths[0], tmp_path / "warm-up", fmt)).exit_code == 0
    for path in paths:
        gc.collect()
        gc.disable()
        try:
            result = run_cli(_argv(command, path, tmp_path, fmt))
            found = gc.collect()
        finally:
            gc.enable()
        assert result.exit_code == 0, result.stderr
        assert found == 0, (Path(path).stem, found)
