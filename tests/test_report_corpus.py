"""tools/report_corpus.py, the byte-identity check between checkouts: it
must list every command in every format and run each one cleanly."""

import importlib.util
from pathlib import Path

import pytest

from ergolab.scenario import bundled_scenario_dir

TOOL = Path(__file__).resolve().parents[1] / "tools" / "report_corpus.py"


def _tool():
    spec = importlib.util.spec_from_file_location("report_corpus", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


report_corpus = _tool()
COMMANDS = list(report_corpus._commands())


def test_commands_cover_every_command_and_format():
    assert COMMANDS == [
        ("avg", "json"), ("avg", "csv"),
        ("extend", None), ("hk", None), ("joining", None), ("limit", None),
        ("pleasant", None),
        ("torus-demo", "json"), ("torus-demo", "csv"),
        ("validate", None),
    ]


def _scenarios(command):
    if command == "validate":
        return ["cyclic-5", "torus-counterexample"]
    return ["torus-counterexample" if command == "torus-demo" else "cyclic-5"]


@pytest.mark.parametrize(
    "command, fmt, scenario",
    [(c, f, s) for c, f in COMMANDS for s in _scenarios(c)],
)
def test_run_records_exit_code_and_report(tmp_path, command, fmt, scenario):
    args = [command, "--scenario", str(bundled_scenario_dir() / f"{scenario}.json"),
            "--out", str(tmp_path)]
    report_corpus._run(args + (["--format", fmt] if fmt else []), tmp_path)
    stderr = (tmp_path / "stderr").read_text()
    assert (tmp_path / "exit_code").read_text() == "0\n", stderr
    report = tmp_path / f"{scenario}__{command}.{fmt or 'json'}"
    assert report.is_file()
    assert (tmp_path / "stdout").read_text() == f"RUN/{report.name}\n"


# each error copy's one error line
COPY_ERRORS = {
    "cyclic-5-base_point_trials-list": "base_point_trials is not an object: []",
    "cyclic-5-observables-list": "observables is not an object: []",
    "cyclic-5-options-list": "options is not an object: []",
    "torus-counterexample-symbol_values-list": "symbol_values is not an object: []",
    "cyclic-5-boxs-list": "unknown scenario key 'boxs', not one of ['name', 'engine', "
    "'system', 'observables', 'average_tuples', 'boxes', 'base_point_trials', "
    "'samples', 'options']",
    "cyclic-5-lengths-deleted": "box has no lengths",
    "cyclic-5-n-deleted": "system has no n",
    "torus-counterexample-coeff-deleted": "trig term has no coeff",
    "cyclic-5-name-5": "name is not a string: 5",
    "cyclic-5-count-1001": "base_point_trials.count 1001 is not in [0, 1000]",
    "cyclic-5-labels-0-1-2-3-4": "labels is not a string: 0",
    "cyclic-5-labels-a-a-a-b-b": "label 'a' names two states",
    "cyclic-5-labels-a-b-c-d-e-f": 'label \'a,b\' contains "(", ")" or ","',
    "cyclic-5-average_tuples-1-1": "average tuple is not a string: 1",
    "cyclic-5-samples-0-5-0-25": "samples is read only by a torus scenario",
    "torus-counterexample-options-budget-3": "options is read only by a finite scenario",
    "cyclic-5-max_m-0": "max_m must be at least 1",
}


def test_error_copies_fail_validate_naming_the_field(tmp_path):
    paths = list(report_corpus._error_copies(tmp_path / "scenarios"))
    assert [path.stem for path in paths] == list(COPY_ERRORS)
    for path in paths:
        rundir = tmp_path / path.stem
        rundir.mkdir()
        report_corpus._run(
            ["validate", "--scenario", str(path), "--out", str(rundir)], rundir
        )
        assert (rundir / "exit_code").read_text() == "1\n"
        assert (rundir / "stderr").read_text() == f"error: {COPY_ERRORS[path.stem]}\n"
