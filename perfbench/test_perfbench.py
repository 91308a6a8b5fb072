"""Tests of the benchmark itself, at reduced sizes.

Run from the root of the repository with `python3 -m pytest perfbench`.
"""

from __future__ import annotations

import json

import pytest

import run
import spans
import workloads

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def small_run(workload: str, trace: bool) -> dict:
    return run.run(workload, seed=3, seconds=0.2, trace=trace, small=True)


def test_metric_names_and_units_match_benchmark_json():
    per_layer = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    assert list(per_layer) == list(spans.METRICS) + ["cli.report_bytes",
                                                     "trace.overhead_s"]
    end_to_end = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    assert set(end_to_end) == {"norm_wall_s", "norm_cpu_s", "peak_rss_mb",
                               "setup_s"}
    for name, unit in {**per_layer, **end_to_end}.items():
        assert run.unit(name) == unit, name
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(workloads.WORKLOADS)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_small_workload_passes_gate(workload):
    record = small_run(workload, trace=True)
    assert record["problems"] == []
    assert record["correct"] and record["failed"] == 0
    calls = len(record["digests"])  # the canary and one pass, per worker
    assert record["attempted"] >= 2 * calls
    names = [m["name"] for m in BENCHMARK["per_layer"]]
    assert list(record["metrics"]) == names


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_counts_repeat_for_same_seed(workload):
    first, second = small_run(workload, True), small_run(workload, True)
    counts = [name for name, metric in first["metrics"].items()
              if metric["unit"] != "s"]
    assert counts
    for name in counts:
        assert first["metrics"][name] == second["metrics"][name], name
    assert first["digests"] == second["digests"]


def test_end_to_end_metrics_are_positive():
    record = small_run("nodal_defect", trace=False)
    assert record["correct"]
    assert record["samples"]["setup_s"] == run.SETUP_SAMPLES
    for name, metric in record["metrics"].items():
        assert metric["value"] > 0, name


def test_normalized_times_divide_out_the_reference():
    def execution(wall, ref):
        return {"wall_s": wall, "ref_wall_s": ref}
    # The host runs the first call's second execution 1.5 times slower,
    # and the reference timed around it slows down alike.
    results = [{"passes": [
        {"calls": [execution(2.0, 0.01), execution(1.0, 0.005)]},
        {"calls": [execution(3.0, 0.015), execution(1.0, 0.005)]}]}]
    assert run.per_pass(results, "wall_s") == pytest.approx(3.5)
    assert run.per_pass(results, "wall_s", "ref_wall_s") == \
        pytest.approx(400 * run.REFERENCE_S)


def test_spans_wrap_every_namespace_holding_a_function():
    record = small_run("nodal_defect", trace=True)
    for label in ("moninf.infinity.local_monodromy", "moninf.infinity.nodal_beta",
                  "moninf.infinity.mth_roots", "moninf.cyclic.mth_roots",
                  "moninf.oracle.cyclic_power", "moninf.cli.main"):
        assert label in record["patched"]


def test_gate_rejects_failed_checks_and_wrong_sextic(tmp_path):
    text = tmp_path / "report.txt"
    text.write_text("checks:\n  [pass] a: ok\n  [fail] b: off by one\n")
    assert run.report_problems({"argv": ["compute"], "format": "text"}, text)
    sextic = {"total_dim": 113,
              "jordan": [{"eigenvalue": "1/6", "blocks": [2, 2, 2, 2, 1]}]}
    assert len(run.sextic_problems(sextic)) == 1 + 1 + 8


def test_missing_source_tree_is_an_error(monkeypatch, tmp_path):
    monkeypatch.setattr(run, "SRC", tmp_path / "src")
    with pytest.raises(run.BenchError):
        run.run("oracle_random", seed=0, seconds=1, trace=False, small=True)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_seed_fixes_the_inputs(workload, tmp_path):
    builds = []
    for seed, sub in ((5, "a"), (5, "b"), (6, "c")):
        inst_dir = tmp_path / sub
        inst_dir.mkdir()
        calls = workloads.build(workload, seed, inst_dir)
        argvs = [[a.replace(str(inst_dir), "") for a in c["argv"]] for c in calls]
        builds.append((argvs, [p.read_text() for p in sorted(inst_dir.iterdir())]))
    assert builds[0] == builds[1]
    assert builds[0] != builds[2]
