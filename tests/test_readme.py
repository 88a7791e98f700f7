"""The README's library example runs on the package's public names and
prints the values the README shows."""

import contextlib
import io
import re
from fractions import Fraction
from pathlib import Path

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
