"""Smoke test of the benchmark at tiny sizes.

    python3 -m pytest perfbench/test_smoke.py

Checks that every metric BENCHMARK.json names prints with its unit,
that a wrong expected decision fails the run, and that the traced run's
work counts repeat exactly at the same seed.
"""

import argparse
import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import workloads  # noqa: E402

BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))

TINY = {
    "cli_trace": lambda seed: workloads.cli_trace(seed, run.ROOT),
    "wide_policy": lambda seed: workloads.wide_policy(
        seed,
        subjects=4,
        cases=(("match", 2), ("nomatch", 1), ("target_error", 1), ("cond_error", 1)),
    ),
    "fact_heavy": lambda seed: workloads.fact_heavy(seed, pads=(0, 2)),
}

COUNTS = [
    "policy.eval_target_calls",
    "policy.rules_evaluated",
    "policy.conditions_wasted_ratio",
    "conditions.eval_condition_calls",
    "conditions.bindings_tried",
    "conditions.bindings_useful_ratio",
    "requests.constants_calls",
    "combiners.combine_calls",
    "combiners.inputs_per_call",
]


@pytest.fixture(autouse=True)
def few_probes(monkeypatch):
    monkeypatch.setattr(run, "SETUP_RUNS", 1)
    monkeypatch.setattr(run, "PROBE_RUNS", 1)
    monkeypatch.setattr(run, "CLI_PROBES", 1)


def measure_and_report(workload, trace, tmp_path, capsys):
    result = run.measure(workload, 0.01, trace, tmp_path)
    args = argparse.Namespace(workload=workload.name, seed=7, seconds=0.01, trace=int(trace))
    code = run.report(args, result)
    lines = capsys.readouterr().out.strip().splitlines()
    return code, lines, json.loads(lines[-1])


def test_units_match_benchmark_json():
    declared = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    assert declared == run.END_TO_END_UNITS
    declared = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    assert declared == run.PER_LAYER_UNITS
    assert sorted(w["name"] for w in BENCHMARK["workloads"]) == sorted(run.GENERATORS)


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("name", sorted(TINY))
def test_every_metric_prints_with_unit(name, trace, tmp_path, capsys):
    code, lines, result = measure_and_report(TINY[name](7), trace, tmp_path, capsys)
    assert code == 0
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    declared = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert sorted(result["metrics"]) == sorted(m["name"] for m in declared)
    for metric in declared:
        assert result["metrics"][metric["name"]]["unit"] == metric["unit"]
        assert any(
            line.split()[:1] == [metric["name"]] and line.endswith(" " + metric["unit"])
            for line in lines[:-1]
        ), metric["name"]
    assert any(line.split()[:3] == ["failed_ratio", "0", "ratio"] for line in lines)


@pytest.mark.parametrize("name", ["cli_trace", "fact_heavy", "wide_policy"])
def test_corrupted_expectation_fails_the_run(name, tmp_path, capsys):
    workload = TINY[name](7)
    workload.expected[0] = "Deny" if workload.expected[0] != "Deny" else "Permit"
    code, lines, result = measure_and_report(workload, False, tmp_path, capsys)
    assert code == 1
    assert result["correct"] is False
    assert result["failed"] >= 1
    ratio_line = next(line for line in lines if line.split()[:1] == ["failed_ratio"])
    assert float(ratio_line.split()[1]) > 0


@pytest.mark.parametrize("name", sorted(TINY))
def test_work_counts_repeat_at_same_seed(name, tmp_path, capsys):
    _, _, first = measure_and_report(TINY[name](7), True, tmp_path, capsys)
    _, _, second = measure_and_report(TINY[name](7), True, tmp_path, capsys)
    for metric in COUNTS:
        assert first["metrics"][metric] == second["metrics"][metric], metric


def test_generated_inputs_repeat_at_same_seed():
    for name in ("wide_policy", "fact_heavy"):
        a, b, c = run.GENERATORS[name](3), run.GENERATORS[name](3), run.GENERATORS[name](4)
        assert (a.policy_text, a.request_texts, a.expected) == (
            b.policy_text, b.request_texts, b.expected
        )
        assert (a.policy_text, a.request_texts) != (c.policy_text, c.request_texts)
