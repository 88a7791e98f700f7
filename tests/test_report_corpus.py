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


def test_error_copies_fail_validate_naming_the_field(tmp_path):
    paths = list(report_corpus._error_copies(tmp_path / "scenarios"))
    assert len(paths) == len(report_corpus.ERROR_COPIES)
    for path in paths:
        field = path.stem.rsplit("-", 2)[1]
        rundir = tmp_path / path.stem
        rundir.mkdir()
        report_corpus._run(
            ["validate", "--scenario", str(path), "--out", str(rundir)], rundir
        )
        assert (rundir / "exit_code").read_text() == "1\n"
        assert (rundir / "stderr").read_text() == f"error: {field} is not an object: []\n"
