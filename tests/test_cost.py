"""Deterministic cost guards: Python function calls per decision, and
no enum class attribute loads on the decision path.

Wall-clock speed on a shared machine drifts between runs; the number of
Python function calls an evaluation makes does not, and per-call cost
is most of a decision's cost when it runs with cold caches, as the
benchmark times it. The ceilings are the counts measured when they were
last lowered, on small instances of the two in-process benchmark
workloads. A change that makes evaluation call more fails here; lower
a ceiling when a change makes evaluation call less.

On CPython 3.11 a load such as ``Decision3.TOP`` goes through
``EnumType.__getattr__`` and is never specialised, so the decision path
reads the module constants of ``xpdp.decisions`` instead; a scan of its
bytecode keeps it that way.
"""

import dis
import sys

import pytest

import xpdp
from documents import BENCHMARK_SHAPES, benchmark_workloads

# Calls for one pass over the shape's requests: (ceiling, requests).
CEILINGS = {
    "wide_policy": (419, 24),
    "fact_heavy": (266, 14),
}

DECISION_PATH = (
    xpdp.policy.evaluate,
    xpdp.policy._eval_node,
    xpdp.policy.eval_target,
    xpdp.policy.rule_decision,
    xpdp.conditions.index_request,
    xpdp.conditions.eval_condition,
    xpdp.conditions.kleene_eval,
    xpdp.combiners.combine,
    xpdp.combiners.combine_po_v6,
    xpdp.combiners.combine_do_v6,
    xpdp.combiners.combine_fa_v6,
    xpdp.combiners.combine_o1a_v6,
)

ENUM_CLASSES = (xpdp.Decision3, xpdp.Decision6, xpdp.Effect, xpdp.CombinerId)


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


def enum_class_loads(fn) -> list[str]:
    """The attribute loads through an enum class in ``fn``'s bytecode: a
    global bound to one of ``ENUM_CLASSES``, under any name, whose
    attribute is read next."""
    found = []
    instructions = list(dis.get_instructions(fn))
    for load, attr in zip(instructions, instructions[1:]):
        if (
            load.opname == "LOAD_GLOBAL"
            and attr.opname in ("LOAD_ATTR", "LOAD_METHOD")
            and any(fn.__globals__.get(load.argval) is cls for cls in ENUM_CLASSES)
        ):
            found.append(f"{load.argval}.{attr.argval} (line {load.positions.lineno})")
    return found


@pytest.mark.parametrize("fn", DECISION_PATH, ids=lambda fn: fn.__name__)
def test_decision_path_reads_no_enum_class_attribute(fn):
    assert enum_class_loads(fn) == []


_D3 = xpdp.Decision3


def _reads_a_member():
    return _D3.TOP


def test_enum_class_scan_sees_through_aliases():
    assert [load.split()[0] for load in enum_class_loads(_reads_a_member)] == ["_D3.TOP"]
