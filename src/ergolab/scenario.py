"""Scenario files: declarative descriptions of a system, observables,
boxes and trial settings, consumed by the CLI."""

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
    options: Dict[str, int]
    sha256: str


def random_base(rng: random.Random, r: int, span: int) -> Tuple[int, ...]:
    return tuple(rng.randint(-span, span) for _ in range(r))


def base_shift_free(scn: ScenarioConfig) -> bool:
    """Whether the scenario's trial count of full period boxes, at bases
    drawn from its trial seed, have the residues of the box at 0, of which
    the orbit counts of every average, limit and joining are a function."""
    import random

    from .averages import residues
    from .system import period_box

    sys_, rng = scn.system, random.Random(scn.trial_seed)
    P = period_box(sys_).lengths
    at0 = residues(sys_, FolnerBox(P))
    return all(residues(sys_, FolnerBox(P, random_base(rng, sys_.r, 50))) == at0
               for _ in range(scn.trial_count))


# Field readers, shared with the torus scenario parsers in torus.py.
def read_int(raw, what: str) -> int:
    """raw as an int; it must be a JSON number: a bool, a string or a
    fractional float is an error, never truncated or read digit by digit."""
    if isinstance(raw, (bool, str)) or isinstance(raw, float) and not raw.is_integer():
        raise ValidationError(f"{what} is not an integer: {raw!r}")
    return int(raw)


def read_finite_float(raw, what: str) -> float:
    if isinstance(raw, bool):
        raise ValidationError(f"{what} is not a number: {raw!r}")
    v = float(raw)
    if not math.isfinite(v):
        raise ValidationError(f"{what} is not finite: {raw!r}")
    return v


def read_table(entries, d: int, r: int, key: str, parse, what: str):
    """The d-by-r table, indexed [action - 1][axis - 1], of parse(entry[key])
    over the (action, axis) entries: each index in range and given once."""
    table: dict = {}
    for entry in entries:
        i, j = (read_int(entry[k], f"{what} {k}") for k in ("action", "axis"))
        if not (1 <= i <= d and 1 <= j <= r):
            raise ValidationError(f"{what} index ({i},{j}) out of range")
        if (i, j) in table:
            raise ValidationError(f"duplicate {what} for ({i},{j})")
        table[i, j] = parse(entry[key])
    missing = [
        (i, j)
        for i in range(1, d + 1)
        for j in range(1, r + 1)
        if (i, j) not in table
    ]
    if missing:
        raise ValidationError(f"missing {what}s for {missing}")
    return tuple(
        tuple(table[i, j] for j in range(1, r + 1)) for i in range(1, d + 1)
    )


def _parse_finite_system(raw: dict) -> FiniteSystem:
    from .system import FiniteSystem
    r, d = read_int(raw["r"], "r"), read_int(raw["d"], "d")
    generators = read_table(
        raw["generators"], d, r, "perm",
        lambda p: tuple(read_int(v, "perm entry") for v in p), "generator",
    )
    labels = raw.get("labels")
    return FiniteSystem(
        n=read_int(raw["n"], "n"),
        r=r,
        d=d,
        weights=tuple(Fraction(str(w)) for w in raw["weights"]),
        generators=generators,
        labels=None if labels is None else tuple(str(s) for s in labels),
    )


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
        name = str(raw["name"])
        if "/" in name or "\\" in name:
            raise ValidationError(f"scenario name {name!r} contains a path separator")
        if "\0" in name:
            raise ValidationError(f"scenario name {name!r} contains a NUL byte")
        engine = str(raw["engine"])
        system_raw = raw["system"]
        if engine == "finite":
            system = _parse_finite_system(system_raw)
            observables = {
                str(k): Observable.from_values([Fraction(str(v)) for v in vals])
                for k, vals in raw.get("observables", {}).items()
            }
            for k, f in observables.items():
                if len(f) != system.n:
                    raise ValidationError(
                        f"observable {k} has length {len(f)}, expected {system.n}"
                    )
        elif engine == "torus":
            from .torus import _parse_torus_system, _parse_trig

            system = _parse_torus_system(system_raw)
            observables = {
                str(k): _parse_trig(v, system.m)
                for k, v in raw.get("observables", {}).items()
            }
        else:
            raise ValidationError(f"unknown engine {engine!r}")
        tuples = tuple(
            tuple(str(n) for n in t) for t in raw.get("average_tuples", [])
        )
        for t in tuples:
            if len(t) != system.d:
                raise ValidationError(
                    f"average tuple {t} has {len(t)} entries, expected {system.d}"
                )
            for n in t:
                if n not in observables:
                    raise ValidationError(f"unknown observable {n!r} in tuple")
        boxes = []
        for b in raw.get("boxes", []):
            lengths = tuple(read_int(v, "box length") for v in b["lengths"])
            base = b.get("base")
            base = None if base is None else tuple(read_int(v, "box base") for v in base)
            if len(lengths) != system.r:
                raise ValidationError("box dimension differs from rank")
            boxes.append(FolnerBox(lengths, base))
        trials = raw.get("base_point_trials", {})
        trial_count = read_int(trials.get("count", 20), "trial count")
        if trial_count < 0:
            raise ValidationError("base_point_trials.count must be nonnegative")
        samples = tuple(
            tuple(read_finite_float(v, "sample coordinate") for v in s)
            for s in raw.get("samples", [])
        )
        if engine == "torus" and any(len(s) != system.m for s in samples):
            raise ValidationError(f"a sample point does not have {system.m} coordinates")
        options = {str(k): read_int(v, k) for k, v in raw.get("options", {}).items()}
        return ScenarioConfig(
            name=name,
            engine=engine,
            system=system,
            observables=observables,
            average_tuples=tuples,
            boxes=tuple(boxes),
            trial_count=trial_count,
            trial_seed=read_int(trials.get("seed", 7), "trial seed"),
            samples=samples,
            options=options,
            sha256=sha256,
        )
    except (
        AttributeError, KeyError, TypeError, ValueError, ZeroDivisionError
    ) as exc:
        raise ValidationError(f"malformed scenario: {exc!r}") from exc


def bundled_scenario_dir() -> Path:
    return Path(__file__).parent / "scenarios"
