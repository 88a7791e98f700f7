import gc
import json
from pathlib import Path

import pytest

import oracle
from ergolab import __version__
from ergolab.cli import COMMANDS, FORMATS, main, parse, report_format
from ergolab.errors import ValidationError
from ergolab.scenario import bundled_scenario_dir, load_scenario
from ergolab.system import FolnerBox

from conftest import bundled_scenarios, run_cli


def scn_path(name):
    return str(bundled_scenario_dir() / f"{name}.json")


def run_ok(args):
    result = run_cli(args)
    assert result.exit_code == 0, result.stderr
    return result


def test_bundled_scenarios_all_load():
    paths = bundled_scenarios()
    assert len(paths) == 7
    names = {load_scenario(p).name for p in paths}
    assert "cyclic-5" in names and "torus-counterexample" in names


def test_scenario_bad_json_rejected(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(ValidationError):
        load_scenario(bad)


def test_scenario_sha_is_of_bytes(tmp_path):
    """The built-in SHA-256 gives hashlib's digest of the file's bytes."""
    import hashlib

    for src in bundled_scenarios():
        scn = load_scenario(src)
        assert scn.sha256 == hashlib.sha256(src.read_bytes()).hexdigest(), src


def test_validate_cyclic5_exit_zero(tmp_path):
    result = run_ok(["validate", "--scenario", scn_path("cyclic-5"), "--out", str(tmp_path)])
    report = json.loads((tmp_path / "cyclic-5__validate.json").read_text())
    assert report["valid"] and report["system"]["n"] == 5


def test_validate_broken_scenario_exit_one(tmp_path):
    broken = tmp_path / "broken.json"
    raw = json.loads(Path(scn_path("cyclic-5")).read_text())
    raw["system"]["generators"][0]["perm"] = [0, 0, 1, 2, 3]
    broken.write_text(json.dumps(raw))
    result = run_cli(["validate", "--scenario", str(broken), "--out", str(tmp_path)])
    assert result.exit_code == 1


def test_engine_mismatch_exit_one(tmp_path):
    result = run_cli(
        ["avg", "--scenario", scn_path("torus-counterexample"), "--out", str(tmp_path)],
    )
    assert result.exit_code == 1


def test_budget_exhaustion_exit_two(tmp_path):
    result = run_cli(
        [
            "pleasant",
            "--scenario",
            scn_path("cyclic-5"),
            "--out",
            str(tmp_path),
            "--budget",
            "3",
        ],
    )
    assert result.exit_code == 2


def test_budget_message_names_basis_tuples(tmp_path):
    """cyclic-5 has d = 2, so 5^2 = 25 basis tuples against a budget of 24."""
    result = run_cli(
        ["pleasant", "--scenario", scn_path("cyclic-5"), "--out", str(tmp_path),
         "--budget", "24"]
    )
    assert result.exit_code == 2
    assert result.stderr == "basis-tuple budget exceeded: 25 > 24 (n^d)\n"
    assert list(tmp_path.iterdir()) == []


def test_pleasant_cyclic5_report(tmp_path):
    run_ok(["pleasant", "--scenario", scn_path("cyclic-5"), "--out", str(tmp_path)])
    report = json.loads((tmp_path / "cyclic-5__pleasant.json").read_text())
    assert report["pleasant"] is False
    assert report["defect"]["square"] != "0"
    assert report["witness"] is not None


def test_extend_cyclic5_reaches_pleasant(tmp_path):
    run_ok(
        [
            "extend",
            "--scenario",
            scn_path("cyclic-5"),
            "--out",
            str(tmp_path),
            "--max-m",
            "1",
        ],
    )
    report = json.loads((tmp_path / "cyclic-5__extend.json").read_text())
    assert report["status"] == "pleasant"
    assert report["final"]["pleasant"] is True
    assert report["final"]["defect"]["square"] == "0"
    assert report["stages"] == [{"stage": 1, "states": 25}]


def _finite_scenario(name, weights, perms):
    return {
        "name": name,
        "engine": "finite",
        "system": {
            "n": len(weights), "r": 1, "d": len(perms),
            "weights": weights,
            "generators": [
                {"action": i, "axis": 1, "perm": p}
                for i, p in enumerate(perms, start=1)
            ],
        },
    }


@pytest.mark.parametrize(
    "weights, perms",
    [
        # a swap of two states and the identity, beside one null state
        (["1/2", "1/2"], [[1, 0], [0, 1]]),
        # the cyclic-5 counterexample (+1, +2), beside one null state
        (["1/5"] * 5, [[1, 2, 3, 4, 0], [2, 3, 4, 0, 1]]),
    ],
    ids=["swap-identity", "cyclic5"],
)
def test_zero_weight_state_pleasant_and_extend(tmp_path, weights, perms):
    """A null state, fixed by every generator, is a valid system; pleasant
    and extend report what they report on the system restricted to its
    support."""
    n = len(weights)
    padded = _finite_scenario("padded", weights + ["0"], [p + [n] for p in perms])
    restricted = _finite_scenario("restricted", weights, perms)
    reports = {}
    for raw in (padded, restricted):
        path = tmp_path / f"{raw['name']}.json"
        path.write_text(json.dumps(raw))
        run_ok(["validate", "--scenario", str(path), "--out", str(tmp_path)])
        for command in ("pleasant", "extend"):
            run_ok([command, "--scenario", str(path), "--out", str(tmp_path)])
            reports[raw["name"], command] = json.loads(
                (tmp_path / f"{raw['name']}__{command}.json").read_text()
            )

    def verdict(rep):
        # the null state is a factor cell of its own; all else must agree
        cells = [c for c in rep["factor_cells"] if c != [str(n)]]
        return (rep["pleasant"], rep["defect"], rep["witness"], cells)

    assert verdict(reports["padded", "pleasant"]) == verdict(
        reports["restricted", "pleasant"]
    )
    ext, ext_restricted = reports["padded", "extend"], reports["restricted", "extend"]
    assert ext["status"] == ext_restricted["status"]
    assert ext["stages"] == ext_restricted["stages"]
    assert verdict(ext["final"]) == verdict(ext_restricted["final"])


def test_limit_report_values(tmp_path):
    run_ok(["limit", "--scenario", scn_path("cyclic-5"), "--out", str(tmp_path)])
    report = json.loads((tmp_path / "cyclic-5__limit.json").read_text())
    by_tuple = {tuple(e["tuple"]): e["limit"] for e in report["results"]}
    assert by_tuple[("f1", "f2")] == ["4/25", "-1/25", "-1/25", "-1/25", "-1/25"]


def test_avg_json_and_csv(tmp_path):
    run_ok(["avg", "--scenario", scn_path("cyclic-6"), "--out", str(tmp_path)])
    run_ok(
        [
            "avg",
            "--scenario",
            scn_path("cyclic-6"),
            "--out",
            str(tmp_path),
            "--format",
            "csv",
        ],
    )
    report = json.loads((tmp_path / "cyclic-6__avg.json").read_text())
    for entry in report["results"]:
        if "within_bound" in entry:
            assert entry["within_bound"]
        else:
            assert entry["full_period_box_equals_limit"]
    csv_text = (tmp_path / "cyclic-6__avg.csv").read_text()
    assert csv_text.splitlines()[0] == "tuple,box_lengths,box_base,deviation,bound,within_bound"


def test_joining_and_hk_reports(tmp_path):
    run_ok(["joining", "--scenario", scn_path("cyclic-5"), "--out", str(tmp_path)])
    report = json.loads((tmp_path / "cyclic-5__joining.json").read_text())
    assert report["marginals_equal_mu"]
    assert all(report["invariant_under"].values())
    assert report["base_shift_independent"]
    assert report["support_size"] == 25

    run_ok(["hk", "--scenario", scn_path("cyclic-5"), "--out", str(tmp_path)])
    hk = json.loads((tmp_path / "cyclic-5__hk.json").read_text())
    assert hk["closed_form_ok"]
    assert [s["marginals_equal_mu"] for s in hk["stages"]] == [True, True]


def _shift_flags(tmp_path, name, seed=None):
    """avg's full_period_box_equals_limit verdicts and joining's
    base_shift_independent on one bundled scenario, run on a copy with
    base_point_trials.seed set to seed when one is given."""
    path = scn_path(name)
    if seed is not None:
        raw = json.loads(Path(path).read_text())
        raw["base_point_trials"]["seed"] = seed
        path = tmp_path / f"seed-{seed}.json"
        path.write_text(json.dumps(raw))
    flags = []
    for command in ("avg", "joining"):
        run_ok([command, "--scenario", str(path), "--out", str(tmp_path)])
        report = json.loads((tmp_path / f"{name}__{command}.json").read_text())
        if command == "avg":
            flags += [e["full_period_box_equals_limit"] for e in report["results"]
                      if "base_point_trials" in e]
        else:
            flags.append(report["base_shift_independent"])
    return flags


FINITE_BUNDLED = sorted(
    s.name for s in map(load_scenario, bundled_scenarios()) if s.engine == "finite"
)


@pytest.mark.parametrize("name", FINITE_BUNDLED)
def test_base_shift_trials_pass_on_bundled(tmp_path, name):
    for seed in (1, 2):
        flags = _shift_flags(tmp_path, name, seed)
        assert flags and all(flags), (name, seed)


@pytest.mark.parametrize("name", ["cyclic-5", "product-2x3"])
def test_base_shift_trials_catch_base_dependent_counts(tmp_path, monkeypatch, name):
    """Reducing lattice points modulo P + 1 instead of the period box P
    makes a full period box's orbit counts depend on its base, and both
    base-shift verdicts must then read false."""
    import ergolab.averages as averages
    from ergolab.system import period_box

    def off_by_one(sys_):
        return FolnerBox(tuple(P + 1 for P in period_box(sys_).lengths))

    monkeypatch.setattr(averages, "period_box", off_by_one)
    flags = _shift_flags(tmp_path, name)
    assert flags and not any(flags)


def test_base_shift_trials_run_no_orbit_pass(tmp_path, monkeypatch):
    """The base-shift trials compare residues only: avg and joining make as
    many action_perm calls with 40 trials as with none."""
    from ergolab.system import FiniteSystem

    calls = []
    action_perm = FiniteSystem.action_perm

    def counted(self, i, nvec):
        calls.append(i)
        return action_perm(self, i, nvec)

    monkeypatch.setattr(FiniteSystem, "action_perm", counted)
    raw = json.loads(Path(scn_path("cyclic-5")).read_text())
    counts = []
    for trials in (0, 40):
        raw["base_point_trials"]["count"] = trials
        path = tmp_path / f"trials-{trials}.json"
        path.write_text(json.dumps(raw))
        calls.clear()
        for command in ("avg", "joining"):
            run_ok([command, "--scenario", str(path), "--out", str(tmp_path)])
        counts.append(len(calls))
    assert counts[0] > 0 and counts[0] == counts[1], counts


def test_torus_demo_formats(tmp_path):
    run_ok(
        [
            "torus-demo",
            "--scenario",
            scn_path("torus-counterexample"),
            "--out",
            str(tmp_path),
            "--format",
            "csv",
        ],
    )
    lines = (tmp_path / "torus-counterexample__torus-demo.csv").read_text().splitlines()
    assert lines[0] == "tuple,N,base,sample,abs_error,bound"
    # the resonant identity holds termwise: with no non-resonant combination
    # the bound is exactly 0, and the limit, evaluated with the kernel's
    # exactly reduced phases, equals the average
    for line in lines[1:]:
        abs_error, bound = line.split(",")[-2:]
        assert float(bound) == 0.0
        assert float(abs_error) <= float(bound)


def _mixed_torus_scenario(r):
    """Rotations rational + multiples of two independent irrationals on the
    2-torus, so some term combinations resonate and others do not; boxes up
    to 10**9 points per axis."""
    rotations = [
        {
            "action": i,
            "axis": j,
            "vector": [
                {"rational": f"{(i + j) % 6}/6", "symbols": {"alpha": str(i * j)}},
                {"rational": f"{i * j % 6}/6", "symbols": {"beta": str(i + j)}},
            ],
        }
        for i in (1, 2)
        for j in range(1, r + 1)
    ]
    terms = [([0, 0], [0.5, 0.0]), ([2, 1], [0.3, -0.4]), ([-1, 0], [0.0, 0.7])]
    conj = [([-a, -b], [re, -im]) for (a, b), (re, im) in terms]
    return {
        "name": f"mixed-r{r}",
        "engine": "torus",
        "system": {
            "m": 2, "r": r, "d": 2,
            "rotations": rotations,
            "symbol_values": {"alpha": 0.6180339887498949, "beta": 0.41421356237309503},
        },
        "observables": {
            name: [{"freq": f, "coeff": c} for f, c in ts]
            for name, ts in (("f1", terms), ("f2", conj))
        },
        "average_tuples": [["f1", "f2"], ["f2", "f1"]],
        "boxes": [
            {"lengths": [N] * r, "base": [-(10 ** 6)] * r}
            for N in (1, 64, 10 ** 9)
        ],
        "base_point_trials": {"count": 3, "seed": 5},
        "samples": [[0.0, 0.0], [0.25, 0.8], [0.6, 0.1]],
    }


@pytest.mark.parametrize("r", [1, 2])
def test_torus_demo_errors_within_bound(tmp_path, r):
    path = tmp_path / f"mixed-r{r}.json"
    path.write_text(json.dumps(_mixed_torus_scenario(r)))
    run_ok(["torus-demo", "--scenario", str(path), "--out", str(tmp_path)])
    rows = json.loads((tmp_path / f"mixed-r{r}__torus-demo.json").read_text())["rows"]
    assert len(rows) == 2 * 3 * 4 * 3
    for row in rows:
        assert float(row["abs_error"]) <= float(row["bound"]) + 1e-12, row
    # the bound is informative: it shrinks with N, and it is positive because
    # the scenario has non-resonant combinations
    by_n = {row["N"]: float(row["bound"]) for row in rows}
    big = " ".join(["1000000000"] * r)
    assert 0 < by_n[big] < 1e-6 < by_n[" ".join(["64"] * r)]


def test_torus_demo_past_float_range(tmp_path):
    """A box length of 10**309 has no float, and the counterexample with
    alpha = 5e-324 and action coefficients 1/3 and 1 has a nonzero theta =
    alpha / 3 below 2**-1075, whose float is 0: both reports are written,
    with every error within its bound."""
    raw = json.loads(Path(scn_path("torus-counterexample")).read_text())
    raw["name"] = "tiny-theta"
    raw["system"]["symbol_values"]["alpha"] = 5e-324
    for rot, coeff in zip(raw["system"]["rotations"], ("1/3", "1")):
        rot["vector"][0]["symbols"]["alpha"] = coeff
    raw["boxes"] += [{"lengths": [N], "base": [-5]} for N in (10 ** 309, 10 ** 330)]
    mixed = _mixed_torus_scenario(1)
    mixed["boxes"].append({"lengths": [10 ** 309], "base": [3]})
    for scenario in (raw, mixed):
        path = tmp_path / f"{scenario['name']}.json"
        path.write_text(json.dumps(scenario))
        run_ok(["torus-demo", "--scenario", str(path), "--out", str(tmp_path)])
        report = tmp_path / f"{scenario['name']}__torus-demo.json"
        rows = json.loads(report.read_text())["rows"]
        assert {row["N"] for row in rows} >= {str(10 ** 309)}
        # mixed has resonant combinations, whose errors are roundoff
        slack = 1e-12 if scenario is mixed else 0.0
        for row in rows:
            assert float(row["abs_error"]) <= float(row["bound"]) + slack, row
    tiny = json.loads((tmp_path / "tiny-theta__torus-demo.json").read_text())["rows"]
    assert {row["bound"] for row in tiny if len(row["N"]) < 300} == {"1.000000000000e+00"}


def test_torus_demo_resonance_exact_at_huge_boxes(tmp_path):
    """Rotations 1/2 and 1/3 with frequencies 2 and 3 resonate exactly
    (2/2 + 3/3 = 2), so the average equals the limit at any box size: the
    bound is 0, and a float theta of 2 * 0.5 + 3 * float(1/3) - 2 = -2**-54
    would drift to about 1.7e-7 at N = 10**9."""
    raw = {
        "name": "resonant",
        "engine": "torus",
        "system": {
            "m": 1, "r": 1, "d": 2,
            "rotations": [
                {"action": 1, "axis": 1, "vector": ["1/2"]},
                {"action": 2, "axis": 1, "vector": ["1/3"]},
            ],
        },
        "observables": {
            "f1": [{"freq": [2], "coeff": [1.0, 0.0]}],
            "f2": [{"freq": [3], "coeff": [1.0, 0.0]}],
        },
        "average_tuples": [["f1", "f2"]],
        "boxes": [{"lengths": [N], "base": [0]} for N in (10 ** 6, 10 ** 9)],
        "base_point_trials": {"count": 2, "seed": 3},
        "samples": [[0.0], [0.3]],
    }
    path = tmp_path / "resonant.json"
    path.write_text(json.dumps(raw))
    run_ok(["torus-demo", "--scenario", str(path), "--out", str(tmp_path)])
    rows = json.loads((tmp_path / "resonant__torus-demo.json").read_text())["rows"]
    assert len(rows) == 2 * 3 * 2
    for row in rows:
        assert float(row["bound"]) == 0.0
        assert float(row["abs_error"]) <= float(row["bound"]) + 1e-12, row


def test_reports_do_not_collide(tmp_path):
    run_ok(["validate", "--scenario", scn_path("cyclic-4"), "--out", str(tmp_path)])
    run_ok(["validate", "--scenario", scn_path("cyclic-9"), "--out", str(tmp_path)])
    assert (tmp_path / "cyclic-4__validate.json").exists()
    assert (tmp_path / "cyclic-9__validate.json").exists()


def _box_without_lengths(raw):
    raw["boxes"] = [{"base": [0]}]


def _empty_base(raw):
    raw["boxes"][1]["base"] = []


def _non_numeric_observable_entry(raw):
    raw["observables"]["f1"][0] = "abc"


def _non_list_observable(raw):
    raw["observables"]["f1"] = 5


def _non_list_average_tuples(raw):
    raw["average_tuples"] = 5


def _negative_trial_count(raw):
    raw["base_point_trials"] = {"count": -3, "seed": 1}


def _rotation_without_vector(raw):
    del raw["system"]["rotations"][0]["vector"]


def _one_component_coefficient(raw):
    raw["observables"]["f1"][0]["coeff"] = [1.0]


def _nan_sample(raw):
    raw["samples"][1] = [float("nan")]


def _infinite_symbol_value(raw):
    raw["system"]["symbol_values"]["alpha"] = float("inf")


def _nan_coefficient(raw):
    raw["observables"]["f2"][0]["coeff"] = [float("nan"), 0.0]


def _infinite_float_rotation(raw):
    raw["system"]["rotations"][1]["vector"] = [{"float": "-inf"}]


def _two_coordinate_sample(raw):
    raw["samples"].append([0.5, 0.5])


def _long_frequency(raw):
    raw["observables"]["f1"][0]["freq"] = [-2, 5]


def _empty_frequency(raw):
    raw["observables"]["f2"][0]["freq"] = []


def _out_of_range_rotation(raw):
    raw["system"]["rotations"].append({"action": 3, "axis": 1, "vector": ["1/2"]})


def _zero_max_m(raw):
    raw["options"] = {"max_m": 0}


# corruptions that return the file's bytes in place of the edited scenario
def _deeply_nested_json(raw):
    return b"[" * 100000 + b"]" * 100000


def _not_unicode_text(raw):
    return b"\xff\xfe{"


def _integer_past_digit_limit(raw):
    return b'{"name": ' + b"1" * 5000 + b"}"


def _put(*path, value):
    """A corruption that sets raw[path[0]]...[path[-1]] to value."""
    def corrupt(raw):
        *outer, last = path
        for key in outer:
            raw = raw[key]
        raw[last] = value

    corrupt.__name__ = "_".join(map(str, path)) + f"={value!r}"
    return corrupt


# integer fields given a bool or a fractional float: each must be rejected,
# never truncated (true and false would pass as 1 and 0)
NON_INTEGER_FINITE = [
    _put("boxes", 0, "lengths", 0, value=5.7),
    _put("boxes", 0, "lengths", 0, value=True),
    _put("boxes", 1, "base", 0, value=3.5),
    _put("boxes", 0, "base", 0, value=False),
    _put("base_point_trials", "count", value=2.9),
    _put("base_point_trials", "seed", value=7.5),
    _put("system", "n", value=5.9),
    _put("system", "r", value=True),
    _put("system", "d", value=2.5),
    _put("system", "generators", 0, "action", value=1.5),
    _put("system", "generators", 0, "axis", value=True),
    _put("system", "generators", 0, "perm", 0, value=True),
    _put("system", "generators", 1, "perm", 4, value=1.25),
    _put("options", "budget", value=1000000.5),
    _put("options", "max_m", value=True),
]
NON_INTEGER_TORUS = [
    _put("system", "m", value=True),
    _put("system", "rotations", 0, "action", value=1.5),
    _put("observables", "f1", 0, "freq", 0, value=1.5),
    _put("observables", "f2", 0, "freq", 0, value=True),
]
# float fields given a bool: each must be rejected, never read as 1.0 or 0.0
BOOL_AS_FLOAT_TORUS = [
    _put("samples", 0, 0, value=True),
    _put("observables", "f1", 0, "coeff", 0, value=True),
    _put("system", "symbol_values", "alpha", value=False),
    _put("system", "rotations", 1, "vector", 0, value={"float": True}),
]

TORUS_CORRUPTIONS = [
    _nan_sample, _infinite_symbol_value, _nan_coefficient,
    _infinite_float_rotation, _two_coordinate_sample, _long_frequency,
    _empty_frequency, _out_of_range_rotation,
]


@pytest.mark.parametrize(
    "scenario, command, corrupt",
    [
        ("cyclic-5", "avg", _box_without_lengths),
        ("cyclic-5", "avg", _empty_base),
        ("cyclic-5", "limit", _non_numeric_observable_entry),
        ("cyclic-5", "limit", _non_list_observable),
        ("cyclic-5", "limit", _non_list_average_tuples),
        ("cyclic-5", "avg", _negative_trial_count),
        ("cyclic-5", "extend", _zero_max_m),
        ("cyclic-5", "validate", _deeply_nested_json),
        ("cyclic-5", "validate", _not_unicode_text),
        ("cyclic-5", "validate", _integer_past_digit_limit),
        ("torus-counterexample", "torus-demo", _rotation_without_vector),
        ("torus-counterexample", "torus-demo", _one_component_coefficient),
    ] + [
        ("torus-counterexample", command, corrupt)
        for corrupt in TORUS_CORRUPTIONS
        for command in ("validate", "torus-demo")
    ] + [("cyclic-5", "validate", corrupt) for corrupt in NON_INTEGER_FINITE] + [
        ("torus-counterexample", "validate", corrupt)
        for corrupt in NON_INTEGER_TORUS + BOOL_AS_FLOAT_TORUS
    ],
    ids=lambda v: getattr(v, "__name__", v),
)
def test_malformed_scenario_one_line_error(tmp_path, scenario, command, corrupt):
    raw = json.loads(Path(scn_path(scenario)).read_text())
    data = corrupt(raw)
    bad = tmp_path / "bad.json"
    if data is None:
        bad.write_text(json.dumps(raw))
    else:
        bad.write_bytes(data)
    result = run_cli([command, "--scenario", str(bad), "--out", str(tmp_path)])
    assert result.exit_code == 1
    lines = result.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), result.stderr
    assert "Traceback" not in result.stdout + result.stderr


@pytest.mark.parametrize("name", ["../escaped", "sub/x", "bad\0name"])
def test_scenario_name_with_path_separator_rejected(tmp_path, name):
    """A scenario name names a report file inside --out, so a name with a
    path separator, or a NUL byte no path may hold, is invalid: nothing may
    be written, inside --out or not."""
    raw = json.loads(Path(scn_path("cyclic-5")).read_text())
    raw["name"] = name
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(raw))
    out = str(tmp_path / "out")
    result = run_cli(["validate", "--scenario", str(bad), "--out", out])
    assert result.exit_code == 1
    lines = result.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), result.stderr
    assert list(tmp_path.rglob("*")) == [bad]


@pytest.mark.parametrize("where", ["missing", "directory"])
def test_unreadable_scenario_one_line_error(tmp_path, where):
    """A scenario path that is not a readable file is a validation failure
    (exit 1, one error line), not a command-line usage error."""
    path = tmp_path / "absent.json" if where == "missing" else tmp_path
    result = run_cli(["limit", "--scenario", str(path), "--out", str(tmp_path)])
    assert result.exit_code == 1
    lines = result.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), result.stderr
    assert str(path) in lines[0]


@pytest.mark.parametrize(
    "flags",
    [["--budget", "x"], ["--budget", "1.5"], ["--format", "csv"], []],
    ids=["non-integer", "float", "unknown-flag", "no-scenario"],
)
def test_usage_errors_exit_two(tmp_path, flags):
    args = ["pleasant", "--out", str(tmp_path)] + flags
    if flags:
        args += ["--scenario", scn_path("cyclic-5")]
    result = run_cli(args)
    assert result.exit_code == 2
    assert result.stdout == "" and result.stderr.startswith("usage: ergolab")
    assert not list(tmp_path.iterdir())


def _collector_untouched():
    return gc.isenabled() and gc.get_freeze_count() == 0


def test_main_calling_contract(tmp_path):
    """main(argv) raises SystemExit(0) on success, as a console script
    exits; with standalone_mode=False it returns.  Failures raise
    SystemExit with their exit code either way.  Only the process entry,
    cli.console, turns off the garbage collector: a caller of main in
    process keeps it, and no object is frozen."""
    ok = ["validate", "--scenario", scn_path("cyclic-5"), "--out", str(tmp_path)]
    bad = ["avg", "--scenario", scn_path("torus-counterexample"), "--out", str(tmp_path)]
    assert _collector_untouched()
    with pytest.raises(SystemExit) as exc:
        main(ok)
    assert exc.value.code == 0
    assert _collector_untouched()
    assert main(ok, standalone_mode=False) is None
    assert _collector_untouched()
    for standalone in (True, False):
        with pytest.raises(SystemExit) as exc:
            main(bad, standalone_mode=standalone)
        assert exc.value.code == 1
        assert _collector_untouched()


def test_extend_max_m_zero_flag_one_line_error(tmp_path):
    result = run_cli(
        ["extend", "--scenario", scn_path("cyclic-5"), "--out", str(tmp_path),
         "--max-m", "0"],
    )
    assert result.exit_code == 1
    assert result.stderr == "error: max_m must be at least 1\n"


# flag -> (default, --format choices, or None for an integer flag); every
# command also takes a required --scenario and --out (default ".")
_FORMAT = ("json", ("json", "csv"))
_INT = (None, None)
CLI_SURFACE = {
    "validate": {},
    "avg": {"--format": _FORMAT},
    "limit": {},
    "joining": {},
    "hk": {},
    "extend": {"--max-m": _INT, "--budget": _INT},
    "pleasant": {"--budget": _INT},
    "torus-demo": {"--format": _FORMAT, "--seed": _INT},
}


def test_cli_surface(capsys):
    """The commands of the README synopsis, each with exactly its flags (in
    this order), defaults, required flags and format choices, as the
    command table holds them and as parse reads them."""
    assert list(COMMANDS) == list(CLI_SURFACE)
    for name, flags in CLI_SURFACE.items():
        table = COMMANDS[name][1]
        assert list(table) == ["--scenario", "--out", *flags], name
        with pytest.raises(SystemExit) as exc:
            parse([name, "--out", "D"])
        assert exc.value.code == 2, name
        defaults = {"scenario_path": "S", "out": "."}
        for flag, (default, choices) in flags.items():
            dest, convert = table[flag][:2]
            defaults[dest] = default
            if choices is None:
                assert convert is int, (name, flag)
            else:
                assert convert is report_format and FORMATS == choices, (name, flag)
        assert parse([name, "--scenario", "S"]) == (name, defaults)


@pytest.mark.parametrize("command", ["avg", "joining"])
def test_seed_is_only_a_torus_demo_flag(tmp_path, command):
    """avg and joining draw their base-shift trials from the scenario's
    trial seed, so --seed is unrecognized there; torus-demo keeps it."""
    result = run_cli([command, "--scenario", scn_path("cyclic-5"),
                      "--out", str(tmp_path), "--seed", "1"])
    assert result.exit_code == 2
    assert result.stderr.endswith(
        "ergolab: error: unrecognized arguments: --seed 1\n")
    assert not list(tmp_path.iterdir())
    run_ok(["torus-demo", "--scenario", scn_path("torus-counterexample"),
            "--out", str(tmp_path), "--seed", "1"])


def _validate_into(out):
    run_ok(["validate", "--scenario", scn_path("cyclic-5"), "--out", str(out)])
    return out / "cyclic-5__validate.json"


def test_rerun_writes_through_a_symlinked_report(tmp_path):
    """A symlinked report is written through its link."""
    fresh = _validate_into(tmp_path / "first").read_bytes()
    target = tmp_path / "target.json"
    target.write_bytes(b"stale")
    report = tmp_path / "out" / "cyclic-5__validate.json"
    report.parent.mkdir()
    report.symlink_to(target)
    assert _validate_into(tmp_path / "out") == report
    assert report.is_symlink()
    assert target.read_bytes() == fresh


def test_cli_version():
    result = run_ok(["--version"])
    assert result.stdout == f"ergolab, version {__version__}\n"


def _report_payloads(tmp_path, monkeypatch):
    """The JSON payload of every command on the bundled scenarios and on the
    bench/generate.py families at seed 1, as _write_report receives them."""
    import importlib.util

    from ergolab import cli

    spec = importlib.util.spec_from_file_location(
        "generate", Path(__file__).resolve().parents[1] / "bench" / "generate.py"
    )
    generate = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(generate)
    paths = bundled_scenarios() + sorted(
        generate.write_scenarios(list(generate.FAMILIES), 1, tmp_path / "gen").values()
    )
    payloads = []

    def record(out, scn_name, command, fmt, payload):
        payloads.append(payload)

    monkeypatch.setattr(cli, "_write_report", record)
    for command in COMMANDS:
        for path in paths:
            run_cli([command, "--scenario", str(path), "--out", str(tmp_path)])
    return payloads


ADVERSARIAL = [
    {"text": "caf\u00e9 \u2603 \U0001d11e \u4e2d", "quote": 'say "hi"',
     "slash": "a\\b/c", "control": "\x00\x01\t\n\r\x1f\x7f",
     "separators": "\u2028\u2029", "\u00e9t\u00e9 \"key\"\n": "\\"},
    {}, [], "", {"": ""}, [[]], [{}],
    {"empty": {}, "nested": {"a": {"b": {}}, "c": [[], [{}]]}, "list": []},
    [True, 1, False, 0, None, -1], [1, True], [0, False, 2],
    {"b": 1, "a": 2, "B": 3, "_": 4, "": 5, "aa": 6, "a b": 7},
    [-(2 ** 5000) + 12345, 2 ** 5000 - 1, [2 ** 4999, -(2 ** 4999)]],
    (1, 2, (3, "x")), {"t": (True, (None,), ())},
    "plain", 7, -7, None, True, False,
]


def _with_oracle_rows(value):
    """value with every joined measure's rows, which write themselves, as
    the oracle's list of one dict per support tuple."""
    from ergolab.reports.joinings import MeasureRows

    if isinstance(value, MeasureRows):
        return oracle.measure_json(value.jm)
    if isinstance(value, dict):
        return {k: _with_oracle_rows(v) for k, v in value.items()}
    if isinstance(value, list):
        return [_with_oracle_rows(v) for v in value]
    return value


def test_report_writer_matches_json_dumps(tmp_path, monkeypatch):
    """The report writer is json.dumps(indent=2, sort_keys=True) byte for
    byte on every report payload, its measure rows read as the oracle's
    dicts, and on adversarial ones, and raises TypeError on what has no
    exact place in a report: a Fraction or a set, which json.dumps rejects
    too, and a float or a non-str key, which it would write."""
    from fractions import Fraction

    from ergolab.cli import _json_text

    payloads = _report_payloads(tmp_path, monkeypatch)
    commands = {p["command"] for p in payloads}
    assert commands == set(COMMANDS), commands
    for payload in payloads + ADVERSARIAL:
        expected = json.dumps(_with_oracle_rows(payload), indent=2, sort_keys=True)
        assert _json_text(payload) == expected
    for bad in (Fraction(1, 2), {1, 2}, [1, Fraction(1, 3)], {"a": {"b": {3}}}):
        with pytest.raises(TypeError):
            json.dumps(bad, indent=2, sort_keys=True)
        with pytest.raises(TypeError):
            _json_text(bad)
    for bad in (1.5, float("nan"), float("inf"), [1, 2.0], {"x": -0.0},
                {1: "a"}, {"a": 1, 2: "b"}, {None: 0}):
        with pytest.raises(TypeError):
            _json_text(bad)


class _SelfWriting:
    """A value that writes itself: json.dumps(value, indent=2, sort_keys=True)
    moved to the indent the writer gives; it records each indent."""

    def __init__(self, value):
        self.value = value
        self.indents = []

    def json_text(self, indent):
        self.indents.append(indent)
        return json.dumps(self.value, indent=2, sort_keys=True).replace("\n", indent)


def test_report_writer_hands_a_self_writing_value_its_indent():
    """A value with a json_text method is written by it, at the caller's
    indent: alone, as a dict value, and two levels deep in a list in a
    dict; a Fraction, a set, a float and a non-str key still raise."""
    from fractions import Fraction

    from ergolab.cli import _json_text

    inner = {"b": [1, 2], "a": {"c": None}}
    for wrap, indent in [
        (lambda v: v, "\n"),
        (lambda v: {"k": v}, "\n  "),
        (lambda v: {"k": [0, v], "z": "s"}, "\n    "),
    ]:
        value = _SelfWriting(inner)
        assert _json_text(wrap(value)) == json.dumps(
            wrap(inner), indent=2, sort_keys=True)
        assert value.indents == [indent]
    for bad in (Fraction(1, 2), {1, 2}, 0.5, {1: "a"}, {"k": [Fraction(1, 3)]}):
        with pytest.raises(TypeError):
            _json_text(bad)
