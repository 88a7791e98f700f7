"""The README's library example runs on the package's public names and
prints the values the README shows, its CLI synopsis lists the commands
and flags of the command table, and its scenario section names every key
of the scenario key tables."""

import contextlib
import io
import re
from fractions import Fraction
from pathlib import Path

from ergolab import scenario, torus
from ergolab.cli import COMMANDS

README = Path(__file__).resolve().parents[1] / "README.md"
FRACTION = re.compile(r"Fraction\((-?\d+), (\d+)\)")


def _fractions(text):
    return [Fraction(int(p), int(q)) for p, q in FRACTION.findall(text)]


def test_readme_library_example():
    section = README.read_text().split("## Library", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(code, {})
    printed = _fractions(out.getvalue())
    # the comment shows the first value, then the value of every other state
    shown = _fractions(code.rsplit("\n# ", 1)[1])
    assert shown == [Fraction(4, 25), Fraction(-1, 25), Fraction(-1, 25)]
    assert printed == shown[:1] + shown[-1:] * 4


def test_readme_cli_synopsis_matches_command_table():
    """Each synopsis line names a command of ``COMMANDS``, in table order,
    with only flags of its row, and with every flag of its row but --out."""
    section = README.read_text().split("## CLI", 1)[1]
    synopsis = re.search(r"```\n(ergolab .*?)```", section, re.S).group(1)
    names = []
    for line in synopsis.splitlines():
        name = line.split()[1]
        names.append(name)
        flags = set(re.findall(r"--[a-z-]+", line))
        row = set(COMMANDS[name][1])
        assert flags <= row, (name, flags - row)
        assert row - {"--out"} <= flags, (name, row - {"--out"} - flags)
    assert names == list(COMMANDS)


def test_readme_scenario_section_names_every_key():
    """Every key of every key table in scenario and torus, and of the
    generator and rotation entries read_table reads, is named in
    "Scenario files", so the docs cannot drift from the parser."""
    section = README.read_text().split("## Scenario files", 1)[1].split("\n## ", 1)[0]
    tables = [table for module in (scenario, torus)
              for name, table in vars(module).items()
              if name.isupper() and isinstance(table, dict)]
    assert len(tables) == 9
    keys = {key for table in tables for key in table} | {"action", "axis", "perm", "vector"}
    assert {key for key in keys if f"`{key}`" not in section} == set()
