"""Scenario files: declarative descriptions of a system, observables,
boxes and trial settings, consumed by the CLI.  Each object's keys are read
through read_object and one table of key -> default per object kind; each
engine's module parses its own system section."""

from __future__ import annotations

import json
import math
from collections import namedtuple
from fractions import Fraction
from pathlib import Path
from typing import TYPE_CHECKING, Dict, NamedTuple, Optional
from typing import Sequence, Tuple, Union

# the interpreter's built-in SHA-256 spares every run hashlib's OpenSSL load
try:
    from _sha2 import sha256  # Python 3.12+
except ImportError:
    try:
        from _sha256 import sha256  # Python 3.10-3.11
    except ImportError:
        from hashlib import sha256

from .errors import ValidationError
from .observables import Observable

if TYPE_CHECKING:
    # imported where used: a finite scenario never loads the torus engine, a
    # torus scenario no finite system, and only a draw of bases loads random
    import random

    from .system import FiniteSystem
    from .torus import TorusSystem, TrigObservable


class FolnerBox(namedtuple("FolnerBox", "lengths base")):
    """The box prod_j [0, N_j) shifted by an integer base point (default 0)."""

    __slots__ = ()

    def __new__(cls, lengths: Tuple[int, ...], base: Optional[Sequence[int]] = None):
        if any(N < 1 for N in lengths):
            raise ValidationError("box edge lengths must be positive")
        base = (0,) * len(lengths) if base is None else tuple(base)
        if len(base) != len(lengths):
            raise ValidationError("base point dimension mismatch")
        return super().__new__(cls, lengths, base)

    @property
    def size(self) -> int:
        return math.prod(self.lengths)


class ScenarioConfig(NamedTuple):
    name: str
    engine: str  # "finite" | "torus"
    system: Union[FiniteSystem, TorusSystem]
    observables: Dict[str, Union[Observable, TrigObservable]]
    average_tuples: Tuple[Tuple[str, ...], ...]
    boxes: Tuple[FolnerBox, ...]
    trial_count: int
    trial_seed: int
    samples: Tuple[Tuple[float, ...], ...]
    budget: int
    max_m: int
    sha256: str


def random_base(rng: random.Random, r: int, span: int) -> Tuple[int, ...]:
    return tuple(rng.randint(-span, span) for _ in range(r))


# Field readers, shared with the system parsers in system.py and torus.py.
def read_int(raw, what: str) -> int:
    """raw as an int; it must be a JSON number: a bool, a string or a
    fractional float is an error, never truncated or read digit by digit."""
    if isinstance(raw, (bool, str)) or isinstance(raw, float) and not raw.is_integer():
        raise ValidationError(f"{what} is not an integer: {raw!r}")
    return int(raw)


def read_str(raw, what: str) -> str:
    """raw, which must be a JSON string: a number is never read as its digits."""
    if not isinstance(raw, str):
        raise ValidationError(f"{what} is not a string: {raw!r}")
    return raw


def read_finite_float(raw, what: str) -> float:
    if isinstance(raw, (bool, str)):
        raise ValidationError(f"{what} is not a number: {raw!r}")
    v = float(raw)
    if not math.isfinite(v):
        raise ValidationError(f"{what} is not finite: {raw!r}")
    return v


def read_rational(raw, what: str) -> Fraction:
    """raw, a "p/q" or decimal string or a JSON number, as a Fraction.  As
    Fraction writes 10**e out in full, a decimal exponent e must have
    |e| <= 4300, the digits json.loads allows an integer literal by default."""
    exponent = str(raw).upper().partition("E")[2]
    try:
        if exponent and abs(int(exponent)) > 4300:
            raise ValidationError(f"{what} has an exponent beyond 4300: {raw!r}")
        return Fraction(str(raw))
    except (ValueError, ZeroDivisionError):
        raise ValidationError(f"{what} is not a rational: {raw!r}") from None


def read_list(raw, what: str, read, length: Optional[int] = None) -> tuple:
    """The tuple of read(item, what) over raw, a JSON array of the given
    length if one is given: a string or an object is never read item by item."""
    if not isinstance(raw, list):
        raise ValidationError(f"{what} is not a list: {raw!r}")
    if length is not None and len(raw) != length:
        raise ValidationError(f"{what} has {len(raw)} entries, expected {length}")
    return tuple([read(item, what) for item in raw])


def read_object(raw, what: str, table: Optional[dict] = None) -> dict:
    """raw, which must be a JSON object: a list is never read by key.  Given a
    table, raw has only its keys and each REQUIRED one, and gets its defaults."""
    if not isinstance(raw, dict):
        raise ValidationError(f"{what} is not an object: {raw!r}")
    if table is not None:
        if unknown := raw.keys() - table.keys():
            raise ValidationError(
                f"unknown {what} key {min(unknown)!r}, not one of {[*table]}")
        raw = {**table, **raw}
        for key, value in raw.items():
            if value is REQUIRED:
                raise ValidationError(f"{what} has no {key}")
    return raw


def read_table(entries, d: int, r: int, key: str, parse, what: str):
    """The d-by-r table, indexed [action - 1][axis - 1], of parse(entry[key])
    over the (action, axis) entry objects: each index in range and given once."""
    keys = dict.fromkeys(("action", "axis", key), REQUIRED)
    table: dict = {}
    for entry in read_list(entries, f"{what}s", lambda e, _: read_object(e, what, keys)):
        i, j = (read_int(entry[k], f"{what} {k}") for k in ("action", "axis"))
        if not (1 <= i <= d and 1 <= j <= r):
            raise ValidationError(f"{what} index ({i},{j}) out of range")
        if (i, j) in table:
            raise ValidationError(f"duplicate {what} for ({i},{j})")
        table[i, j] = parse(entry[key])
    # the scan stops at the first missing pair, within len(table) + 1 steps
    missing = next(((i, j) for i in range(1, d + 1) for j in range(1, r + 1)
                    if (i, j) not in table), None)
    if missing:
        raise ValidationError(f"missing {what} for {missing}")
    return tuple(
        tuple(table[i, j] for j in range(1, r + 1)) for i in range(1, d + 1)
    )


# each scenario object's key -> default, REQUIRED where there is none
REQUIRED = object()
SCENARIO = {"name": REQUIRED, "engine": REQUIRED, "system": REQUIRED,
            "observables": {}, "average_tuples": [], "boxes": [],
            "base_point_trials": {}, "samples": [], "options": {}}
FINITE_SYSTEM = {"n": REQUIRED, "r": REQUIRED, "d": REQUIRED, "weights": REQUIRED,
                 "generators": REQUIRED, "labels": None}
BOX = {"lengths": REQUIRED, "base": None}
TRIALS = {"count": 20, "seed": 7}  # count at most 1000: a trial draws one base
# budget caps the n^d basis tuples; max_m, at least 1, is only echoed by extend
OPTIONS = {"budget": 10 ** 6, "max_m": 2}


def _read_observable(raw, what: str, system: FiniteSystem) -> Observable:
    return Observable(read_list(raw, what, read_rational, system.n))


def load_scenario(path: Union[str, Path]) -> ScenarioConfig:
    data = Path(path).read_bytes()
    sha = sha256(data).hexdigest()
    try:
        raw = json.loads(data)
    except (ValueError, RecursionError) as exc:
        # JSONDecodeError, UnicodeDecodeError (bytes that are not UTF-8/16/32
        # text), an integer longer than int's digit limit, and nesting
        # deeper than the decoder's recursion limit
        raise ValidationError(f"scenario is not valid JSON: {exc}") from exc
    return parse_scenario(raw, sha)


def parse_scenario(raw: dict, sha256: str = "") -> ScenarioConfig:
    """Build a ScenarioConfig from the parsed JSON; every malformed input
    surfaces as a ValidationError."""
    try:
        raw = read_object(raw, "scenario", SCENARIO)
        name, engine = read_str(raw["name"], "name"), read_str(raw["engine"], "engine")
        if "/" in name or "\\" in name:
            raise ValidationError(f"scenario name {name!r} contains a path separator")
        if "\0" in name:
            raise ValidationError(f"scenario name {name!r} contains a NUL byte")
        # unread: the key this engine never reads, so it must be empty
        if engine == "finite":
            from .system import _parse_finite_system
            system = _parse_finite_system(raw["system"])
            read_observable, unread, reader = _read_observable, "samples", "torus"
        elif engine == "torus":
            from .torus import _parse_torus_system, _parse_trig as read_observable
            system = _parse_torus_system(raw["system"])
            unread, reader = "options", "finite"
        else:
            raise ValidationError(f"unknown engine {engine!r}")
        if raw[unread]:
            raise ValidationError(f"{unread} is read only by a {reader} scenario")
        observables = {
            str(k): read_observable(v, f"observable {k}", system)
            for k, v in read_object(raw["observables"], "observables").items()
        }

        def read_name(raw_name, what) -> str:
            name = read_str(raw_name, what)
            if name not in observables:
                raise ValidationError(f"unknown observable {name!r} in tuple")
            return name

        tuples = read_list(raw["average_tuples"], "average_tuples",
                           lambda t, _: read_list(t, "average tuple", read_name, system.d))
        boxes = read_list(raw["boxes"], "boxes", lambda b, _: FolnerBox(
            read_list((box := read_object(b, "box", BOX))["lengths"], "box lengths",
                      read_int, system.r),
            None if box["base"] is None
            else read_list(box["base"], "box base", read_int, system.r),
        ))
        trials = read_object(raw["base_point_trials"], "base_point_trials", TRIALS)
        count = read_int(trials["count"], "trial count")
        if not 0 <= count <= 1000:
            raise ValidationError(f"base_point_trials.count {count} is not in [0, 1000]")
        samples = read_list(raw["samples"], "samples",  # [] unless torus
                            lambda t, _: read_list(t, "sample", read_finite_float, system.m))
        options = read_object(raw["options"], "options", OPTIONS)
        scn = ScenarioConfig(
            name=name,
            engine=engine,
            system=system,
            observables=observables,
            average_tuples=tuples,
            boxes=boxes,
            trial_count=count,
            trial_seed=read_int(trials["seed"], "trial seed"),
            samples=samples,
            **{k: read_int(options[k], k) for k in OPTIONS},
            sha256=sha256,
        )
        # checked once every field is read, so any other fault is named first
        if scn.max_m < 1:
            raise ValidationError("max_m must be at least 1")
        return scn
    except (
        AttributeError, KeyError, TypeError, ValueError, ZeroDivisionError
    ) as exc:
        raise ValidationError(f"malformed scenario: {exc!r}") from exc


def bundled_scenario_dir() -> Path:
    return Path(__file__).parent / "scenarios"
