"""The table-driven command line, ``cli.parse``, against the argparse parser
it replaced (``oracle.argparse_parser``, built from the same table), over a
generated corpus of command lines: both give the same exit code, the same
command and keyword arguments on success, and the same usage and error
lines on stderr.  Of --help and --version only the first line is the same
(the usage line, or the version): the help text is the table parser's own."""

import contextlib
import io
import itertools

import pytest

from ergolab.cli import COMMANDS, parse

from oracle import argparse_parser

# a value for each flag that parses, and values that parse for some flags
# and not for others: blanks and underscores in ints, signs, empty values,
# values that look like flags, negative numbers, a space, a non-ASCII digit
GOOD = {"--scenario": "S.json", "--out": "D", "--format": "csv"}
VALUES = ["7", " 7 ", "1_000", "-3", "+4", "-0", "", "x", "1.5", "-3.5", "json",
          "csv", "JSON", "-x y", "-", "-x", "--budget", "--out", "-1_000",
          "٣", "--scenario=S"]


def _flag_lines(name, flags):
    # every order of every flag, each written as two words or with "="
    for order in itertools.permutations(flags):
        yield [name] + [w for flag in order for w in (flag, GOOD[flag])]
        yield [name] + [f"{flag}={GOOD[flag]}" for flag in order]
    for flag in flags:
        rest = [w for f in flags if f != flag for w in (f, GOOD[f])]
        yield [name] + rest                                  # flag left out
        yield [name] + rest + [flag]                         # missing trailing value
        yield [name] + rest + [flag, "a", flag, GOOD[flag]]  # repeated: last wins
        yield [name] + rest + [flag, "x", "--help"]          # --help after a bad value
        yield [name, "--help", flag, "x"]
        for value in VALUES:
            yield [name, flag, value] + rest
            yield [name, f"{flag}={value}"] + rest


def _structure_lines(name):
    scenario = ["--scenario", "S"]
    yield from (
        [name], [name, "--help"], ["--help", name], [name, "--bogus", "--help"],
        [name, "extra", "--help"], [name, "-h"], [name, *scenario, "-h"],
        [name, *scenario, "--"], [name, "--", *scenario], [name, *scenario, "--", "--help"],
        [name, "--scenario", "--", "S"], [name, *scenario, "--bogus"],
        [name, *scenario, "--bogus=1"], [name, *scenario, "extra"],
        [name, *scenario, "--version"], [name, "--help=x"], [name, "--help=x", "--help"],
        ["--version", name], ["--bogus", name, *scenario],
        ["--bogus", name, *scenario, "--help"], [name, "--scen", "S"],
        [name, "--scen=S", *scenario], [name, "-scenario", "S"], [name, *scenario, "--=x"],
        ["--", name, *scenario],
    )


TOP_LINES = [
    [], ["--help"], ["--version"], ["-h"], ["--"], ["bogus"], ["--bogus"],
    ["--help=x"], ["--version=1"], [""], ["-"], ["-3"], ["--help", "--"],
    ["--version", "--"], ["--", "--help"], ["--bogus", "--version"],
    ["--scenario", "S"], ["--out", "D", "validate", "--scenario", "S"],
]


# a lone "--" is an invalid command to the table parser; argparse, which
# reads "--" as a command only when something follows it, reports the
# command as missing
ERROR_TEXT_DIFFERS = [["--"]]


def corpus():
    lines = list(TOP_LINES)
    for name, (_, flags, _) in COMMANDS.items():
        lines += _flag_lines(name, list(flags))
        lines += _structure_lines(name)
    return lines


def _outcome(read, argv):
    """(exit code, (command, kwargs) or None, first line of stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            parsed, code = read(argv), 0
        except SystemExit as exc:
            parsed, code = None, exc.code
    return code, parsed, out.getvalue().split("\n", 1)[0], err.getvalue()


def test_table_parser_matches_argparse(monkeypatch):
    # argparse wraps its usage line to the terminal's width
    monkeypatch.setenv("COLUMNS", "500")
    oracle = argparse_parser()

    def read_oracle(argv):
        kwargs = vars(oracle.parse_args(argv))
        return kwargs.pop("command"), kwargs

    mismatches, codes = [], set()
    for argv in corpus():
        old, new = _outcome(read_oracle, argv), _outcome(parse, argv)
        codes.add(old[0])
        if argv in ERROR_TEXT_DIFFERS:
            old, new = (*old[:3], old[3].split("\n")[0]), (*new[:3], new[3].split("\n")[0])
        if old != new:
            mismatches.append((argv, old, new))
    assert mismatches == []
    assert codes == {0, 2}


@pytest.mark.parametrize("argv, first", [
    (["--help"], "usage: ergolab [--help] [--version] COMMAND ..."),
    (["extend", "--help"],
     "usage: ergolab extend [--help] --scenario PATH [--out DIR]"),
    (["--version"], "ergolab, version "),
])
def test_help_is_unwrapped_and_lists_the_table(capsys, argv, first):
    """Help goes to stdout with exit 0, unwrapped at any terminal width; the
    top-level help lists every command with its doc, a command's help each
    flag with its help text."""
    with pytest.raises(SystemExit) as exc:
        parse(argv)
    assert exc.value.code == 0
    out, err = capsys.readouterr()
    assert out.startswith(first) and err == ""
    if argv == ["--help"]:
        for name, (_, _, doc) in COMMANDS.items():
            assert f"  {name:<12}{doc}\n" in out
    elif argv[0] in COMMANDS:
        for flag, (_, _, metavar, text) in COMMANDS[argv[0]][1].items():
            assert f"  {flag} {metavar}" in out and text in out
