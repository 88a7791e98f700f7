"""Answer checks for benchmark jobs.

``check_job`` applies the invariants that need no reference answer to one
job's exit code and report.  ``signature`` and ``compare`` hold a report up
against a recorded one: every key of the recorded report must still be
present with an equal value, while new keys are allowed.  Torus
``abs_error`` values only have to agree to 1e-9 absolutely, because a
closed-form box sum changes their low bits.
"""

from __future__ import annotations

import hashlib
import json
import math
from fractions import Fraction
from typing import List, Optional

EXTEND_STATUSES = ("pleasant", "budget-exceeded", "max-m-reached")
ABS_ERROR_TOLERANCE = 1e-9

# lists of dicts longer than this are compared as one digest per column set
LONG_LIST = 16
# keys whose values are compared numerically within ABS_ERROR_TOLERANCE
FLOAT_KEYS = ("abs_error",)


def _is_zero(norm: dict) -> bool:
    return Fraction(norm["square"]) == 0


def _check_avg(rep: dict) -> List[str]:
    out = []
    for e in rep["results"]:
        if "box" in e:
            if e["within_bound"] is not True:
                out.append(f"avg {e['tuple']} box {e['box']}: within_bound is false")
            if Fraction(e["deviation"]["square"]) > Fraction(e["bound"]["square"]):
                out.append(f"avg {e['tuple']} box {e['box']}: deviation exceeds bound")
        elif e.get("full_period_box_equals_limit") is not True:
            out.append(f"avg {e['tuple']}: a full period box differs from the limit")
    return out


def _check_joining(rep: dict) -> List[str]:
    out = []
    if rep["marginals_equal_mu"] is not True:
        out.append("joining: a marginal differs from mu")
    if not all(v is True for v in rep["invariant_under"].values()):
        out.append("joining: not invariant under every action")
    if rep["base_shift_independent"] is not True:
        out.append("joining: depends on the base point")
    if sum(Fraction(m["mass"]) for m in rep["measure"]) != 1:
        out.append("joining: masses do not sum to 1")
    return out


def _check_hk(rep: dict) -> List[str]:
    out = []
    if rep["closed_form_ok"] is not True:
        out.append("hk: closed_form_ok is false")
    for st in rep["stages"]:
        if st["marginals_equal_mu"] is not True:
            out.append(f"hk stage {st['stage']}: a marginal differs from mu")
        if not all(v is True for v in st["invariant_under"].values()):
            out.append(f"hk stage {st['stage']}: not invariant under every action")
    return out


def _check_pleasant_fields(rep: dict, what: str) -> List[str]:
    out = []
    if rep["pleasant"] is not _is_zero(rep["defect"]):
        out.append(f"{what}: pleasant flag disagrees with the defect")
    if (rep["witness"] is None) is not rep["pleasant"]:
        out.append(f"{what}: witness present exactly when not pleasant is violated")
    return out


def _check_extend(rep: dict) -> List[str]:
    out = _check_pleasant_fields(rep["final"], "extend")
    if rep["status"] not in EXTEND_STATUSES:
        out.append(f"extend: unknown status {rep['status']!r}")
    if (rep["status"] == "pleasant") is not rep["final"]["pleasant"]:
        out.append("extend: status disagrees with the final verdict")
    if rep["stabilized"] is not rep["final"]["pleasant"]:
        out.append("extend: stabilized disagrees with the final verdict")
    return out


def _check_torus(rep: dict) -> List[str]:
    if not rep["rows"]:
        return ["torus-demo: no rows"]
    bad = [r for r in rep["rows"] if not math.isfinite(float(r["abs_error"]))]
    return [f"torus-demo: {len(bad)} rows with a non-finite error"] if bad else []


CHECKS = {
    "validate": lambda rep: [] if rep["valid"] is True else ["validate: not valid"],
    "avg": _check_avg,
    "limit": lambda rep: [] if rep["results"] else ["limit: no results"],
    "joining": _check_joining,
    "hk": _check_hk,
    "pleasant": lambda rep: _check_pleasant_fields(rep, "pleasant"),
    "extend": _check_extend,
    "torus-demo": _check_torus,
}


def check_job(command: str, returncode: Optional[int], report: Optional[bytes]) -> List[str]:
    """Problems with one job: a nonzero exit or timeout (returncode None),
    a missing or unparseable report, or a violated invariant."""
    if returncode is None:
        return [f"{command}: timed out"]
    if returncode != 0:
        return [f"{command}: exit code {returncode}"]
    if report is None:
        return [f"{command}: no report written"]
    try:
        rep = json.loads(report)
        if rep["command"] != command:
            return [f"{command}: report is for {rep['command']!r}"]
        return CHECKS[command](rep)
    except (ValueError, KeyError, TypeError, AttributeError) as exc:
        return [f"{command}: malformed report ({type(exc).__name__}: {exc})"]


# -- comparison with a recorded report ----------------------------------


def _digest(value) -> str:
    text = json.dumps(value, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:32]


def signature(value):
    """A compact record of a report that ``compare`` can test a later report
    against.  Dicts keep every key; short lists keep every element; long
    lists of dicts keep one digest of their rows projected on the recorded
    columns, plus the float columns in full; other large values keep a
    digest."""
    if isinstance(value, dict):
        return {"dict": {k: signature(v) for k, v in value.items()}}
    if isinstance(value, list) and value and all(isinstance(v, dict) for v in value):
        if len(value) <= LONG_LIST:
            return {"list": [signature(v) for v in value]}
        keys = sorted(set().union(*value))
        exact = [k for k in keys if k not in FLOAT_KEYS]
        return {
            "rows": len(value),
            "keys": exact,
            "digest": _digest([[row.get(k) for k in exact] for row in value]),
            "floats": {
                k: [float(row[k]) for row in value] for k in keys if k in FLOAT_KEYS
            },
        }
    text = json.dumps(value, sort_keys=True)
    if len(text) <= 64:
        return {"value": value}
    return {"digest": _digest(value)}


def compare(sig, value, path: str = "$") -> List[str]:
    """Differences between a recorded signature and a new report value."""
    if "dict" in sig:
        if not isinstance(value, dict):
            return [f"{path}: expected an object"]
        out = []
        for k, sub in sig["dict"].items():
            if k not in value:
                out.append(f"{path}.{k}: missing")
            else:
                out.extend(compare(sub, value[k], f"{path}.{k}"))
        return out
    if "list" in sig:
        if not isinstance(value, list) or len(value) != len(sig["list"]):
            return [f"{path}: expected a list of {len(sig['list'])}"]
        out = []
        for k, (sub, v) in enumerate(zip(sig["list"], value)):
            out.extend(compare(sub, v, f"{path}[{k}]"))
        return out
    if "rows" in sig:
        if not isinstance(value, list) or len(value) != sig["rows"]:
            return [f"{path}: expected {sig['rows']} rows"]
        if not all(isinstance(row, dict) for row in value):
            return [f"{path}: expected rows of objects"]
        if any(k not in row for row in value for k in sig["keys"]):
            return [f"{path}: a recorded column is missing"]
        out = []
        if _digest([[row[k] for k in sig["keys"]] for row in value]) != sig["digest"]:
            out.append(f"{path}: rows differ")
        for k, expected in sig["floats"].items():
            try:
                worst = max(abs(float(row[k]) - e) for row, e in zip(value, expected))
            except (KeyError, ValueError, TypeError):
                out.append(f"{path}.{k}: missing or not a number")
                continue
            if worst > ABS_ERROR_TOLERANCE:
                out.append(f"{path}.{k}: differs by {worst:.3e}")
        return out
    if "value" in sig:
        if path.endswith(FLOAT_KEYS) and isinstance(sig["value"], str):
            try:
                if abs(float(value) - float(sig["value"])) <= ABS_ERROR_TOLERANCE:
                    return []
            except (ValueError, TypeError):
                pass
        return [] if value == sig["value"] else [f"{path}: {value!r} != {sig['value']!r}"]
    return [] if _digest(value) == sig["digest"] else [f"{path}: value differs"]
