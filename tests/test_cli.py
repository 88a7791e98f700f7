import gc
import json
from decimal import Decimal
from fractions import Fraction
from pathlib import Path

import pytest

import oracle
from ergolab import __version__
from ergolab.averages import deviation_bound, exact_limit, truncated_average
from ergolab.cli import COMMANDS, FORMATS, main, parse, report_format
from ergolab.errors import ValidationError
from ergolab.joinings import furstenberg_joining, host_kra_tower
from ergolab.observables import l2_square
from ergolab.scenario import BOX, FINITE_SYSTEM, OPTIONS, REQUIRED, SCENARIO, TRIALS
from ergolab.scenario import bundled_scenario_dir, load_scenario
from ergolab.system import FolnerBox
from ergolab.torus import EXACT_ROTATION, TORUS_SYSTEM, TRIG_TERM

from conftest import bench_generator, bundled_scenarios, generated_scenarios, run_cli


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


def test_benchmark_scenarios_all_load():
    """Every bench/generate.py family parses at seeds 1-30: a key that a
    family writes and no key table holds would fail every benchmark job of
    its workload."""
    scenarios = generated_scenarios(range(1, 31))
    assert len(scenarios) == 7 * 30
    assert {scn.engine for scn in scenarios} == {"finite", "torus"}


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


def with_options(tmp_path, name, **options):
    """The path of a copy of a bundled scenario whose options are options."""
    raw = json.loads(Path(scn_path(name)).read_text())
    raw["options"] = options
    path = tmp_path / "scenarios" / f"{name}.json"
    path.parent.mkdir()
    path.write_text(json.dumps(raw))
    return str(path)


def test_budget_exhaustion_exit_two(tmp_path):
    scenario = with_options(tmp_path, "cyclic-5", budget=3)
    out = tmp_path / "out"
    result = run_cli(["pleasant", "--scenario", scenario, "--out", str(out)])
    assert result.exit_code == 2
    assert not out.exists()


def test_budget_message_names_basis_tuples(tmp_path):
    """cyclic-5 has d = 2, so 5^2 = 25 basis tuples against a budget of 24."""
    scenario = with_options(tmp_path, "cyclic-5", budget=24)
    out = tmp_path / "out"
    result = run_cli(["pleasant", "--scenario", scenario, "--out", str(out)])
    assert result.exit_code == 2
    assert result.stderr == "basis-tuple budget exceeded: 25 > 24 (n^d)\n"
    assert not out.exists()


def test_pleasant_cyclic5_report(tmp_path):
    run_ok(["pleasant", "--scenario", scn_path("cyclic-5"), "--out", str(tmp_path)])
    report = json.loads((tmp_path / "cyclic-5__pleasant.json").read_text())
    assert report["pleasant"] is False
    assert report["defect"]["square"] != "0"
    assert report["witness"] is not None


def test_extend_cyclic5_reaches_pleasant(tmp_path):
    scenario = with_options(tmp_path, "cyclic-5", max_m=1)
    run_ok(["extend", "--scenario", scenario, "--out", str(tmp_path)])
    report = json.loads((tmp_path / "cyclic-5__extend.json").read_text())
    assert report["max_m"] == 1 and report["budget"] == 10 ** 6
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
    base-shift verdicts must then read false.  The trials build their boxes
    from the same period_box, so only residues reads the longer one."""
    from ergolab import system

    period_box, residues = system.period_box, system.residues

    def off_by_one(sys_, where):
        with monkeypatch.context() as m:
            m.setattr(system, "period_box", lambda s: FolnerBox(
                tuple(P + 1 for P in period_box(s).lengths)))
            return residues(sys_, where)

    monkeypatch.setattr(system, "residues", off_by_one)
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


@pytest.mark.parametrize("command", ["limit", "extend"])
def test_one_full_period_orbit_pass_per_system(tmp_path, monkeypatch, command):
    """limit's two averages, and extend's pleasantness test and Furstenberg
    joining of cyclic-5, all contract its one period_orbits table: one
    orbit pass in all, as the extension stage has no basis tuple to test.
    The pass is counted wherever orbit_counts is looked up."""
    from ergolab import averages, system

    calls = []
    orbit_counts = system.orbit_counts

    def counted(sys_, hist):
        calls.append(sys_)
        return orbit_counts(sys_, hist)

    monkeypatch.setattr(system, "orbit_counts", counted)
    monkeypatch.setattr(averages, "orbit_counts", counted)
    run_ok([command, "--scenario", scn_path("cyclic-5"), "--out", str(tmp_path)])
    assert len(calls) == 1


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


def _torus_demo_at_trial_seed(tmp_path, seed):
    """torus-demo's JSON report on torus-counterexample with
    base_point_trials.seed set to seed, written to its own directory."""
    raw = json.loads(Path(scn_path("torus-counterexample")).read_text())
    raw["base_point_trials"]["seed"] = seed
    out = tmp_path / f"seed-{seed}"
    out.mkdir(exist_ok=True)
    path = out / "scenario.json"
    path.write_text(json.dumps(raw))
    run_ok(["torus-demo", "--scenario", str(path), "--out", str(out)])
    return (out / "torus-counterexample__torus-demo.json").read_bytes()


def test_torus_demo_trial_bases_follow_the_scenario_seed(tmp_path):
    """The trial bases come from base_point_trials.seed: seeds 1 and 2 give
    the same rows at each box's own base and different trial bases, and one
    seed gives the same bytes on every run."""
    scn = load_scenario(scn_path("torus-counterexample"))
    first = _torus_demo_at_trial_seed(tmp_path, 1)
    assert _torus_demo_at_trial_seed(tmp_path, 1) == first
    one = json.loads(first)
    two = json.loads(_torus_demo_at_trial_seed(tmp_path, 2))
    assert one.pop("scenario_sha256") != two.pop("scenario_sha256")
    rows = one.pop("rows"), two.pop("rows")
    assert one == two
    # a (tuple, box) block holds the samples at the box's own base, then at
    # each trial base in turn
    per_base = len(scn.samples)
    block = per_base * (1 + scn.trial_count)
    assert scn.trial_count > 0
    assert len(rows[0]) == len(rows[1]) == block * len(scn.boxes) * len(scn.average_tuples)
    same = ("tuple", "N", "sample", "bound")
    for own in range(0, len(rows[0]), block):
        trial, end = own + per_base, own + block
        assert rows[0][own:trial] == rows[1][own:trial]
        trials = rows[0][trial:end], rows[1][trial:end]
        assert [a["base"] for a in trials[0]] != [b["base"] for b in trials[1]]
        for a, b in zip(*trials):
            assert [a[k] for k in same] == [b[k] for k in same]


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
    raw["system"]["rotations"][1]["vector"] = [{"float": float("-inf")}]


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


def _digit_string_box(raw):
    # read digit by digit, this would be the box (5, 7) at base (1, 2)
    raw["boxes"] = [{"lengths": "57", "base": "12"}]


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


# integer fields given a bool, a fractional float or a string: each must be
# rejected, never truncated (true and false would pass as 1 and 0) nor read
# from its digits (a list given as a string would be read digit by digit)
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
    _put("boxes", 0, "lengths", value="5"),
    _put("boxes", 1, "base", value="3"),
    _put("system", "generators", 0, "perm", value="12340"),
    _put("system", "n", value="5"),
]
NON_INTEGER_TORUS = [
    _put("system", "m", value=True),
    _put("system", "rotations", 0, "action", value=1.5),
    _put("observables", "f1", 0, "freq", 0, value=1.5),
    _put("observables", "f2", 0, "freq", 0, value=True),
    _put("observables", "f2", 0, "freq", value="1"),
]
# float fields given a bool: each must be rejected, never read as 1.0 or 0.0
BOOL_AS_FLOAT_TORUS = [
    _put("samples", 0, 0, value=True),
    _put("observables", "f1", 0, "coeff", 0, value=True),
    _put("system", "symbol_values", "alpha", value=False),
    _put("system", "rotations", 1, "vector", 0, value={"float": True}),
]


def _one_state_weights_string(raw):
    # read character by character, "1" would be the weights (1,)
    raw["system"] = {
        "n": 1, "r": 1, "d": 2, "weights": "1",
        "generators": [
            {"action": i, "axis": 1, "perm": [0]} for i in (1, 2)
        ],
    }
    raw["observables"] = {k: ["1"] for k in raw["observables"]}


def _average_tuple_string(raw):
    # read character by character, "gg" would be the tuple (g, g)
    raw["observables"]["g"] = ["1", "0", "0", "0", "0"]
    raw["average_tuples"] = ["gg"]


# list fields given a string, or an object, that iterating would read item
# by item (or key by key) as a valid list of the right length
LIST_AS_STRING_FINITE = [
    _one_state_weights_string,
    _put("system", "labels", value="abcde"),
    _put("observables", "f2", value="10000"),
    _put("observables", "f2", value={"1": 0, "0": 0, "2": 0, "3": 0, "4": 0}),
    _average_tuple_string,
]
LIST_AS_STRING_TORUS = [
    _put("samples", value=["1", "0"]),
    _put("observables", "f1", 0, "coeff", value="10"),
    _put("system", "rotations", 0, "vector", value="0"),
]
# float fields given a string, never parsed from its text
STRING_AS_FLOAT_TORUS = [
    _put("samples", 0, value=["1_0"]),
    _put("system", "symbol_values", "alpha", value="0.25"),
    _put("observables", "f1", 0, "coeff", 0, value="1.0"),
    _put("system", "rotations", 1, "vector", 0, value={"float": "0.3"}),
]
# a rotation object whose keys are neither {"float"} nor drawn from
# {"rational", "symbols"}: a key is never dropped
BAD_ROTATION_KEYS = [
    _put("system", "rotations", 0, "vector", 0, value={"rationl": "1/2"}),
    _put("system", "rotations", 0, "vector", 0,
         value={"float": 0.3, "rational": "1/2"}),
]

# an option key that no option has (it would be ignored), and rationals
# whose exponent Fraction would expand in full, for minutes
UNREAD_FINITE = [
    _put("options", "maxm", value=1),
    _put("system", "weights", 0, value="1e100000000"),
    _put("system", "weights", 0, value="1e-100000000"),
]


def _not_an_object(field, *path):
    """A corruption that gives the object at path a list, which would be
    read by key: the one error line must name the field."""
    corrupt = _put(*path, value=[])
    corrupt.field = field
    return corrupt


def _scenario_list(raw):
    return b"[]"


_scenario_list.field = "scenario"

# object fields given a list, per scenario
OBJECT_AS_LIST = {
    "cyclic-5": [
        _scenario_list,
        _not_an_object("system", "system"),
        _not_an_object("observables", "observables"),
        _not_an_object("base_point_trials", "base_point_trials"),
        _not_an_object("options", "options"),
        _not_an_object("box", "boxes", 1),
        _not_an_object("generator", "system", "generators", 0),
    ],
    "torus-counterexample": [
        _not_an_object("system", "system"),
        _not_an_object("rotation", "system", "rotations", 1),
        _not_an_object("symbol_values", "system", "symbol_values"),
        _not_an_object("symbols", "system", "rotations", 0, "vector", 0, "symbols"),
        _not_an_object("trig term", "observables", "f2", 0),
    ],
}

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
        ("product-2x3", "avg", _digit_string_box),
        ("cyclic-5", "validate", _deeply_nested_json),
        ("cyclic-5", "validate", _not_unicode_text),
        ("cyclic-5", "validate", _integer_past_digit_limit),
        ("torus-counterexample", "torus-demo", _rotation_without_vector),
        ("torus-counterexample", "torus-demo", _one_component_coefficient),
    ] + [
        ("torus-counterexample", command, corrupt)
        for corrupt in TORUS_CORRUPTIONS
        for command in ("validate", "torus-demo")
    ] + [
        ("cyclic-5", "validate", corrupt)
        for corrupt in NON_INTEGER_FINITE + LIST_AS_STRING_FINITE + UNREAD_FINITE
    ] + [("cyclic-5", "avg", corrupt) for corrupt in LIST_AS_STRING_FINITE] + [
        ("torus-counterexample", "validate", corrupt)
        for corrupt in NON_INTEGER_TORUS + BOOL_AS_FLOAT_TORUS
        + LIST_AS_STRING_TORUS + STRING_AS_FLOAT_TORUS + BAD_ROTATION_KEYS
    ] + [
        ("torus-counterexample", "torus-demo", corrupt)
        # the mixed entry already fails torus-demo, on its inexact resonance
        for corrupt in LIST_AS_STRING_TORUS + BAD_ROTATION_KEYS[:1]
    ] + [
        (scenario, "validate", corrupt)
        for scenario, corrupts in OBJECT_AS_LIST.items()
        for corrupt in corrupts
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
    if hasattr(corrupt, "field"):
        # the field by name, not an AttributeError( or TypeError( repr
        assert result.stderr == f"error: {corrupt.field} is not an object: []\n"


@pytest.mark.parametrize(
    "scenario, what",
    [("cyclic-5", "generator"), ("torus-counterexample", "rotation")],
)
def test_missing_table_entry_names_the_first(tmp_path, scenario, what):
    """A rank of 10**5 with entries for axis 1 only fails on one short line
    naming the first missing (action, axis) pair, not all 2 * 10**5."""
    raw = json.loads(Path(scn_path(scenario)).read_text())
    raw["system"]["r"] = 10 ** 5
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(raw))
    result = run_cli(["validate", "--scenario", str(bad), "--out", str(tmp_path)])
    assert result.exit_code == 1
    assert result.stderr == f"error: missing {what} for (1, 2)\n"


@pytest.mark.parametrize("command", ["validate", "torus-demo"])
def test_rotation_symbol_without_value_rejected(tmp_path, command):
    """A rotation naming a symbol that symbol_values leaves out fails
    validate as it fails torus-demo: exit 1, one error line naming it."""
    raw = json.loads(Path(scn_path("torus-counterexample")).read_text())
    del raw["system"]["symbol_values"]["alpha"]
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(raw))
    result = run_cli([command, "--scenario", str(bad), "--out", str(tmp_path)])
    assert result.exit_code == 1
    assert result.stderr.splitlines() == ["error: no numeric value for symbol alpha"]


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
    "command, flags",
    [("avg", ["--format", "xml"]), ("avg", ["--out"]),
     ("pleasant", ["--format", "csv"]), ("pleasant", [])],
    ids=["bad-choice", "missing-value", "unknown-flag", "no-scenario"],
)
def test_usage_errors_exit_two(tmp_path, command, flags):
    args = [command, "--out", str(tmp_path)] + flags
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


def test_extend_max_m_zero_option_one_line_error(tmp_path):
    scenario = with_options(tmp_path, "cyclic-5", max_m=0)
    result = run_cli(["extend", "--scenario", scenario, "--out", str(tmp_path)])
    assert result.exit_code == 1
    assert result.stderr == "error: max_m must be at least 1\n"


def _number_tuple_entry(raw):
    # with an observable named "1", the number 1 read as its digits is a name
    raw["observables"]["1"] = raw["observables"]["f1"]
    raw["average_tuples"] = [[1, 1]]


@pytest.mark.parametrize("scenario, corrupt, error", [
    ("cyclic-5", _put("options", "maxm", value=1),
     "unknown options key 'maxm', not one of ['budget', 'max_m']"),
    ("cyclic-5", _put("observables", "f1", 0, value="-1E-4301"),
     "observable f1 has an exponent beyond 4300: '-1E-4301'"),
    ("cyclic-5", _empty_base, "box base has 0 entries, expected 1"),
    ("torus-counterexample", _put("system", "rotations", 0, "vector", value=["0", "0"]),
     "rotation vector has 2 entries, expected 1"),
    ("cyclic-5", _put("name", value=5), "name is not a string: 5"),
    ("torus-counterexample", _put("engine", value=["torus"]),
     "engine is not a string: ['torus']"),
    ("cyclic-5", _put("base_point_trials", "count", value=1001),
     "base_point_trials.count 1001 is not in [0, 1000]"),
    ("torus-counterexample", _put("base_point_trials", "count", value=10 ** 9),
     "base_point_trials.count 1000000000 is not in [0, 1000]"),
    ("cyclic-5", _put("system", "labels", value=[0, 1, 2, 3, 4]),
     "labels is not a string: 0"),
    ("cyclic-5", _put("system", "labels", value=["a", "a", "a", "b", "b"]),
     "label 'a' names two states"),
    ("cyclic-5", _put("system", "labels", value=["a,b", "c", "d", "e", "f"]),
     'label \'a,b\' contains "(", ")" or ","'),
    ("cyclic-5", _number_tuple_entry, "average tuple is not a string: 1"),
    ("cyclic-5", _put("samples", value=[[0.5, 0.25]]),
     "samples is read only by a torus scenario"),
    ("torus-counterexample", _put("options", value={"budget": 3}),
     "options is read only by a finite scenario"),
    ("cyclic-5", _zero_max_m, "max_m must be at least 1"),
    ("cyclic-5", _put("system", "weights", 0, value="1/0"),
     "weights is not a rational: '1/0'"),
    ("cyclic-5", _put("observables", "f1", 0, value="1/0"),
     "observable f1 is not a rational: '1/0'"),
    ("torus-counterexample", _put("system", "rotations", 0, "vector", 0, value="1/0"),
     "rotation vector is not a rational: '1/0'"),
    ("torus-counterexample",
     _put("system", "rotations", 0, "vector", 0, "rational", value="1/0"),
     "rotation vector is not a rational: '1/0'"),
    ("torus-counterexample",
     _put("system", "rotations", 0, "vector", 0, "symbols", "alpha", value="1/0"),
     "coefficient of alpha is not a rational: '1/0'"),
], ids=["unknown-option", "exponent-past-cap", "short-base", "long-rotation-vector",
        "number-name", "list-engine", "count-past-cap", "count-far-past-cap",
        "number-labels", "repeated-labels", "label-with-comma", "number-tuple-entry",
        "finite-samples", "torus-options", "zero-max-m", "zero-denominator-weight",
        "zero-denominator-value", "zero-denominator-rotation",
        "zero-denominator-rational", "zero-denominator-coefficient"])
def test_validate_error_names_the_field(tmp_path, scenario, corrupt, error):
    """An unknown option, an exponent past 4300, a base or rotation vector
    of the wrong length, a name, engine, label or tuple entry that is not a
    string, a label given to two states or holding a bracket or comma, a
    trial count past its cap, a key that the engine never reads, a max_m
    below 1 and a zero denominator in a weight, an observable value, a
    rotation, given as a string or as its rational, or a symbol coefficient
    each fail validate on one line that names them."""
    raw = json.loads(Path(scn_path(scenario)).read_text())
    corrupt(raw)
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(raw))
    result = run_cli(["validate", "--scenario", str(bad), "--out", str(tmp_path)])
    assert result.exit_code == 1
    assert result.stderr == f"error: {error}\n"


def _entry_keys(key):
    """The key table read_table builds for a generator or rotation entry."""
    return dict.fromkeys(("action", "axis", key), REQUIRED)


# every scenario object kind with a key table, as (bundled scenario, its
# name in errors, the path to one such object, the table, (one of its keys,
# a misspelling of it))
KEYED_OBJECTS = [
    ("cyclic-5", "scenario", (), SCENARIO, ("boxes", "boxs")),
    ("cyclic-5", "system", ("system",), FINITE_SYSTEM, ("weights", "weight")),
    ("cyclic-5", "generator", ("system", "generators", 0), _entry_keys("perm"),
     ("perm", "prem")),
    ("cyclic-5", "box", ("boxes", 1), BOX, ("lengths", "length")),
    ("cyclic-5", "base_point_trials", ("base_point_trials",), TRIALS, ("count", "cout")),
    ("cyclic-5", "options", ("options",), OPTIONS, ("max_m", "maxm")),
    ("torus-counterexample", "scenario", (), SCENARIO, ("average_tuples", "average_tupels")),
    ("torus-counterexample", "system", ("system",), TORUS_SYSTEM,
     ("symbol_values", "symbol_value")),
    ("torus-counterexample", "rotation", ("system", "rotations", 1), _entry_keys("vector"),
     ("vector", "vectr")),
    ("torus-counterexample", "rotation vector entry",
     ("system", "rotations", 0, "vector", 0), EXACT_ROTATION, ("symbols", "symbol")),
    ("torus-counterexample", "trig term", ("observables", "f2", 0), TRIG_TERM,
     ("freq", "frq")),
]


def _key_cases():
    """(scenario, path, change made to the object there, the error line):
    each required key deleted, and each object given a misspelt key beside
    the one it misspells."""
    def delete(key):
        return lambda obj: obj.pop(key)

    def misspell(key, typo):
        return lambda obj: obj.update({typo: obj[key]})

    for scenario, what, path, table, (key, typo) in KEYED_OBJECTS:
        for k, default in table.items():
            if default is REQUIRED:
                yield pytest.param(scenario, path, delete(k), f"{what} has no {k}",
                                   id=f"{scenario}-{what}-no-{k}".replace(" ", "-"))
        yield pytest.param(scenario, path, misspell(key, typo),
                           f"unknown {what} key {typo!r}, not one of {[*table]}",
                           id=f"{scenario}-{what}-{typo}".replace(" ", "-"))
    # a rotation object is read by FLOAT_ROTATION once it has a "float" key
    yield pytest.param(
        "torus-counterexample", ("system", "rotations", 0, "vector", 0),
        lambda obj: (obj.clear(), obj.update({"float": 0.25, "flaot": 0.25})),
        "unknown rotation vector entry key 'flaot', not one of ['float']",
        id="torus-counterexample-float-rotation-flaot")


@pytest.mark.parametrize("scenario, path, change, error", _key_cases())
def test_every_key_of_every_object(tmp_path, scenario, path, change, error):
    """A missing required key fails validate naming the object and the key,
    and a key outside the object's table fails naming it and the table's
    keys, on one line and never as a malformed-scenario repr: no key of a
    scenario object is ignored."""
    raw = json.loads(Path(scn_path(scenario)).read_text())
    obj = raw
    for key in path:
        obj = obj[key]
    change(obj)
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(raw))
    result = run_cli(["validate", "--scenario", str(bad), "--out", str(tmp_path)])
    assert (result.exit_code, result.stderr) == (1, f"error: {error}\n")


def test_trial_count_cap_is_inclusive(tmp_path):
    """A trial count of exactly 1000 is read (1001 is an error above)."""
    raw = json.loads(Path(scn_path("cyclic-5")).read_text())
    raw["base_point_trials"]["count"] = 1000
    path = tmp_path / "trials.json"
    path.write_text(json.dumps(raw))
    run_ok(["validate", "--scenario", str(path), "--out", str(tmp_path)])


@pytest.mark.parametrize("scenario, command, key, empty", [
    ("cyclic-5", "avg", "samples", []),
    ("torus-counterexample", "torus-demo", "options", {}),
])
def test_empty_or_absent_unread_key_is_accepted(tmp_path, scenario, command, key, empty):
    """The key that a scenario's engine never reads may be empty or left out."""
    raw = json.loads(Path(scn_path(scenario)).read_text())
    absent = {k: v for k, v in raw.items() if k != key}
    for i, copy in enumerate((dict(raw, **{key: empty}), absent)):
        path = tmp_path / f"copy{i}.json"
        path.write_text(json.dumps(copy))
        for cmd in ("validate", command):
            run_ok([cmd, "--scenario", str(path), "--out", str(tmp_path)])


@pytest.mark.parametrize("value", ["1e4300", "-1e-4300", "1E+4300", 1e300])
def test_decimal_exponent_at_the_cap_is_read(value):
    """An exponent of magnitude up to 4300 still reads as its exact rational."""
    from fractions import Fraction

    from ergolab.scenario import read_rational

    assert read_rational(value, "x") == Fraction(str(value))


# flag -> (default, --format choices); every command also takes a required
# --scenario and --out (default ".")
_FORMAT = ("json", ("json", "csv"))
CLI_SURFACE = {
    "validate": {},
    "avg": {"--format": _FORMAT},
    "limit": {},
    "joining": {},
    "hk": {},
    "extend": {},
    "pleasant": {},
    "torus-demo": {"--format": _FORMAT},
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
            assert convert is report_format and FORMATS == choices, (name, flag)
        assert parse([name, "--scenario", "S"]) == (name, defaults)


@pytest.mark.parametrize("command", list(COMMANDS))
def test_seed_is_not_a_flag(tmp_path, command):
    """No command takes --seed, --budget or --max-m: trial bases are drawn
    from the scenario's base_point_trials.seed, and extend's and pleasant's
    budget and max_m are its options, so a report follows from the scenario
    it hashes."""
    name = "torus-counterexample" if command == "torus-demo" else "cyclic-5"
    for flag in ("--seed", "--budget", "--max-m"):
        result = run_cli([command, "--scenario", scn_path(name),
                          "--out", str(tmp_path), flag, "1"])
        assert result.exit_code == 2
        assert result.stderr.endswith(
            f"ergolab: error: unrecognized arguments: {flag} 1\n")
        assert not list(tmp_path.iterdir())


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
    from ergolab import cli

    generate = bench_generator()
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


def _read_exact(text: str) -> Fraction:
    """A report's "p" or "p/q" string as a Fraction, however many digits."""
    p, _, q = text.partition("/")
    return Fraction(Decimal(p)) / Fraction(Decimal(q or 1))


def _bundled_copy(tmp_path, corrupt, name="cyclic-5"):
    raw = json.loads(Path(scn_path(name)).read_text())
    corrupt(raw)
    path = tmp_path / "long.json"
    path.write_text(json.dumps(raw))
    return str(path), load_scenario(path)


@pytest.mark.parametrize("command", ["limit", "avg"])
def test_report_values_past_4300_digits_are_written_exactly(tmp_path, command):
    """Values of 1e-3000 give limits past the 4300 digits int's str
    conversion allows; the report writes every digit."""
    def tiny(raw):
        raw["observables"]["f1"][0] = raw["observables"]["f2"][0] = "1e-3000"

    path, scn = _bundled_copy(tmp_path, tiny)
    run_ok([command, "--scenario", path, "--out", str(tmp_path)])
    report = json.loads((tmp_path / f"cyclic-5__{command}.json").read_text())
    fs = [scn.observables[n] for n in ("f1", "f2")]
    limit = [_read_exact(v) for v in report["results"][0]["limit"]]
    assert limit == list(exact_limit(scn.system, fs).values)
    assert max(len(v) for v in report["results"][0]["limit"]) > 4300


@pytest.mark.parametrize("command", ["joining", "hk"])
def test_masses_past_4300_digits_are_written_exactly(tmp_path, command):
    """A fixed state of weight 1e-4300 beside a 3-cycle of weight
    0.33...3 (4300 threes) each gives masses whose denominators pass the
    4300 digits int's str conversion allows; the report writes every digit."""
    def tiny(raw):
        system = raw["system"]
        system["weights"] = ["1e-4300"] + ["3" * 4300 + "e-4300"] * 3
        system["generators"][0]["perm"] = [0, 2, 3, 1]
        system["generators"][1]["perm"] = [0, 3, 1, 2]

    path, scn = _bundled_copy(tmp_path, tiny, "cyclic-4")
    run_ok([command, "--scenario", path, "--out", str(tmp_path)])
    report = json.loads((tmp_path / f"cyclic-4__{command}.json").read_text())
    if command == "joining":
        stages, tower = [report], [furstenberg_joining(scn.system)]
    else:
        stages, tower = report["stages"], host_kra_tower(scn.system)
    assert len(stages) == len(tower)
    for stage, jm in zip(stages, tower):
        rows = [(tuple(row["state"]), _read_exact(row["mass"])) for row in stage["measure"]]
        assert rows == [(t, jm.mass[t]) for t in jm.support]
    assert max(len(row["mass"]) for stage in stages for row in stage["measure"]) > 4300


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_a_box_past_2200_digits_writes_its_average(tmp_path, fmt):
    """A box of length 10**2200 + 3 gives a deviation and a bound whose
    squares have denominators past 4300 digits: avg writes them exactly,
    and its CSV reads them back as floats."""
    N = 10 ** 2200 + 3

    def long_box(raw):
        raw["boxes"] = [{"lengths": [N]}]

    path, scn = _bundled_copy(tmp_path, long_box)
    run_ok(["avg", "--scenario", path, "--out", str(tmp_path), "--format", fmt])
    text = (tmp_path / f"cyclic-5__avg.{fmt}").read_text()
    sys_, box = scn.system, FolnerBox((N,))
    fs = [scn.observables[n] for n in ("g1", "g2")]
    deviation = l2_square(truncated_average(sys_, fs, box) - exact_limit(sys_, fs),
                          sys_.weights)
    bound = deviation_bound(sys_, fs, box)
    if fmt == "json":
        entry = json.loads(text)["results"][2]
        assert entry["tuple"] == ["g1", "g2"]
        assert _read_exact(entry["deviation"]["square"]) == deviation
        assert _read_exact(entry["bound"]["square"]) == bound
        assert len(entry["bound"]["square"]) > 4300
    else:
        line = text.splitlines()[2].split(",")
        assert line[:3] == ["g1|g2", str(N), "0"]
        assert line[3:] == ["0.000000000000e+00", "0.000000000000e+00", "true"]


def test_avg_csv_writes_a_norm_past_floats_range_as_inf(tmp_path):
    """Values of 1e200 give a deviation whose square, 1e800-odd, is no
    float: the CSV reads it through decimal, and a norm past float's range
    is written as inf."""
    def huge(raw):
        raw["observables"]["f1"][0] = raw["observables"]["f2"][0] = "1e200"

    path, _ = _bundled_copy(tmp_path, huge)
    run_ok(["avg", "--scenario", path, "--out", str(tmp_path), "--format", "csv"])
    rows = (tmp_path / "cyclic-5__avg.csv").read_text().splitlines()
    assert rows[2] == "f1|f2,7,3,inf,inf,true"
