"""Tests of the benchmark itself: span arithmetic, patching, the scenario
generator and the answer checker.

    python3 -m pytest bench/tests -q
"""

import json
from fractions import Fraction

import pytest

import check
import generate
from tracing import Span, Tracer, self_times
from workloads import WORKLOADS, families


def test_self_time_of_nested_tree():
    spans = [
        Span("root", 0.0, 10.0, -1),
        Span("a", 1.0, 4.0, 0),
        Span("b", 5.0, 9.0, 0),
        Span("c", 6.0, 7.0, 2),
        Span("a", 9.5, 10.0, 0),
    ]
    got = self_times(spans)
    assert got == pytest.approx({"root": 2.5, "a": 3.5, "b": 3.0, "c": 1.0})
    # self times partition the root interval
    assert sum(got.values()) == pytest.approx(10.0)


def test_self_time_counts_overlapping_children_once():
    spans = [
        Span("root", 0.0, 10.0, -1),
        Span("x", 2.0, 5.0, 0),
        Span("y", 4.0, 6.0, 0),
        Span("z", 8.0, 12.0, 0),  # clipped to the parent's end
    ]
    assert self_times(spans)["root"] == pytest.approx(10.0 - 4.0 - 2.0)


def test_tracer_records_parents_and_calls():
    tracer = Tracer()

    def leaf():
        return 1

    def middle():
        return tracer.span("leaf", leaf) + tracer.span("leaf", leaf)

    assert tracer.span("root", middle) == 2
    parents = [s.parent for s in tracer.spans]
    names = [s.name for s in tracer.spans]
    assert names == ["root", "leaf", "leaf"] and parents == [-1, 0, 0]
    assert tracer.calls == {"root": 1, "leaf": 2}
    folded = tracer.fold()
    assert set(folded) == {"root", "leaf"} and tracer.spans == []


def test_install_patches_every_binding_and_restores_them():
    from ergolab import averages, extensions, joinings
    from ergolab.scenario import bundled_scenario_dir, load_scenario

    original = averages.exact_limit
    tracer = Tracer()
    missing = tracer.install()
    try:
        assert missing == []
        wrapper = averages.exact_limit
        assert wrapper is not original
        assert extensions.exact_limit is wrapper and joinings.exact_limit is wrapper
        sys5 = load_scenario(bundled_scenario_dir() / "cyclic-5.json").system
        extensions.is_pleasant(sys5)
    finally:
        tracer.uninstall()
    assert averages.exact_limit is original and extensions.exact_limit is original
    # 5 first states, each with 5 basis partners: all reached through the
    # extensions module's own binding of exact_limit
    assert tracer.calls["averages.exact_limit"] == 25
    assert tracer.calls["averages.truncated_average"] == 25
    assert tracer.counters["extensions.basis_tuples"] == 25
    assert tracer.counters["averages.orbit_tuples"] == 25 * 5 * 5


@pytest.mark.parametrize("family", sorted(generate.FAMILIES))
def test_generator_is_byte_identical_for_a_seed(family, tmp_path):
    a = generate.write_scenarios([family], 7, tmp_path / "a")[family].read_bytes()
    b = generate.write_scenarios([family], 7, tmp_path / "b")[family].read_bytes()
    assert a == b
    assert generate.scenario_text(family, 8).encode() != a


@pytest.mark.parametrize("family", sorted(generate.FAMILIES))
def test_generated_scenarios_are_valid(family, tmp_path):
    from ergolab.scenario import load_scenario

    path = generate.write_scenarios([family], 3, tmp_path)[family]
    scn = load_scenario(path)
    assert scn.name == family
    if scn.engine == "finite":
        # orbit-constant weights: every generator preserves them
        assert sum(scn.system.weights) == 1


def test_every_generated_family_is_used():
    used = set()
    for jobs in WORKLOADS.values():
        used.update(families(jobs, generate.FAMILIES))
    assert used == set(generate.FAMILIES)


def _report(command, tmp_path, scenario="cyclic-5"):
    from ergolab.cli import main
    from ergolab.scenario import bundled_scenario_dir

    path = str(bundled_scenario_dir() / f"{scenario}.json")
    with pytest.raises(SystemExit) as exc:
        main([command, "--scenario", path, "--out", str(tmp_path)])
    assert exc.value.code == 0
    return (tmp_path / f"{scenario}__{command}.json").read_bytes()


def test_checker_accepts_good_reports(tmp_path):
    for command in ("pleasant", "extend", "avg", "joining", "hk"):
        assert check.check_job(command, 0, _report(command, tmp_path)) == []
    torus = _report("torus-demo", tmp_path, "torus-counterexample")
    assert check.check_job("torus-demo", 0, torus) == []


def test_checker_flags_nonzero_exit_and_timeout(tmp_path):
    good = _report("pleasant", tmp_path)
    assert check.check_job("pleasant", 1, good)
    assert check.check_job("pleasant", None, good)
    assert check.check_job("pleasant", 0, None)


def test_checker_flags_corrupted_reports(tmp_path):
    rep = json.loads(_report("pleasant", tmp_path))
    rep["pleasant"] = not rep["pleasant"]
    assert check.check_job("pleasant", 0, json.dumps(rep).encode())
    assert check.check_job("pleasant", 0, b"{truncated")

    rep = json.loads(_report("avg", tmp_path))
    rep["results"][0]["within_bound"] = False
    assert check.check_job("avg", 0, json.dumps(rep).encode())

    rep = json.loads(_report("extend", tmp_path))
    rep["status"] = "done"
    assert check.check_job("extend", 0, json.dumps(rep).encode())

    rep = json.loads(_report("joining", tmp_path))
    rep["measure"][0]["mass"] = str(Fraction(rep["measure"][0]["mass"]) * 2)
    assert check.check_job("joining", 0, json.dumps(rep).encode())


def test_compare_allows_new_keys_but_not_changed_answers(tmp_path):
    rep = json.loads(_report("hk", tmp_path))
    sig = json.loads(json.dumps(check.signature(rep)))  # as stored on disk
    assert check.compare(sig, rep) == []
    rep["stages"][0]["why"] = "new key"
    rep["metrics"] = {"phase_s": 1.0}
    assert check.compare(sig, rep) == []
    rep["stages"][-1]["measure"][0]["mass"] = "1/2"
    assert check.compare(sig, rep)


def test_compare_tolerates_low_bits_of_torus_errors(tmp_path):
    rep = json.loads(_report("torus-demo", tmp_path, "torus-counterexample"))
    sig = json.loads(json.dumps(check.signature(rep)))
    for row in rep["rows"]:
        row["abs_error"] = f"{float(row['abs_error']) + 5e-10:.12e}"
        row["bound"] = "1e-3"
    assert check.compare(sig, rep) == []
    rep["rows"][0]["abs_error"] = "1.0"
    assert check.compare(sig, rep)


def test_metric_names_match_benchmark_json():
    import run

    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["per_layer"]] == run.layer_metric_names()
    assert [m["name"] for m in spec["end_to_end"]] == list(run.E2E_UNITS)
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    assert units == run.E2E_UNITS



def test_speed_probe_scales_by_the_references_around_a_call(monkeypatch):
    import run

    refs = iter([0.1, 0.3, 0.2])
    monkeypatch.setattr(run, "run_reference", lambda env: next(refs))
    probe = run.SpeedProbe({})
    assert probe.normalise(1.0) == pytest.approx(run.REFERENCE_S / 0.2)
    assert probe.normalise(2.0) == pytest.approx(2.0 * run.REFERENCE_S / 0.25)
