"""A deterministic cost guard: Python function calls per decision.

Wall-clock speed on a shared machine drifts between runs; the number of
Python function calls an evaluation makes does not, and per-call cost
is most of a decision's cost when it runs with cold caches, as the
benchmark times it. The ceilings are the counts measured when they were
last lowered, on small instances of the two in-process benchmark
workloads. A change that makes evaluation call more fails here; lower
a ceiling when a change makes evaluation call less.
"""

import sys

import pytest

import xpdp
from documents import BENCHMARK_SHAPES, benchmark_workloads

# Calls for one pass over the shape's requests: (ceiling, requests).
CEILINGS = {
    "wide_policy": (566, 24),
    "fact_heavy": (374, 14),
}


def python_calls(fn, *args) -> int:
    """The number of Python function calls ``fn(*args)`` makes, itself
    included; calls into C are not counted."""
    calls = 0

    def profile(frame, event, arg):
        nonlocal calls
        if event == "call":
            calls += 1

    sys.setprofile(profile)
    try:
        fn(*args)
    finally:
        sys.setprofile(None)
    return calls


@pytest.mark.parametrize("shape", sorted(BENCHMARK_SHAPES))
def test_python_calls_per_decision(shape):
    workload = BENCHMARK_SHAPES[shape](benchmark_workloads())
    policy = xpdp.parse_policy(workload.policy_text)
    requests = [xpdp.parse_request(text) for text in workload.request_texts]
    ceiling, count = CEILINGS[shape]
    assert len(requests) == count

    def decide_all():
        for req in requests:
            xpdp.evaluate(policy, req)

    calls = python_calls(decide_all) - 1
    assert calls <= ceiling, f"{calls / count:.2f} calls per decision, ceiling {ceiling / count:.2f}"
    print(f"{shape}: {calls} calls, {calls / count:.2f} per decision")
