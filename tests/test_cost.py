"""Deterministic cost guards: Python function calls and builtin calls
per decision, condition plans and heap bytes per parse, and no enum
class attribute loads on the decision path.

Wall-clock speed on a shared machine drifts between runs; the number of
Python function calls an evaluation makes does not, and per-call cost
is most of a decision's cost when it runs with cold caches, as the
benchmark times it. Builtin calls (set and dict methods and the like)
are counted apart, since a change can trade Python calls for C-level
work. The ceilings are the counts measured when they were last
lowered, on small instances of the two in-process benchmark workloads.
A change that makes evaluation call more fails here; lower a ceiling
when a change makes evaluation call less.

On CPython 3.11 a load such as ``Decision3.TOP`` goes through
``EnumType.__getattr__`` and is never specialised, so the decision path
reads the module constants of ``xpdp.decisions`` instead; a scan of its
bytecode keeps it that way.
"""

import dis
import gc
import os
import sys
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

import xpdp
from documents import BENCHMARK_SHAPES, benchmark_workloads

# Calls for one pass over the shape's requests: (ceiling, requests).
CEILINGS = {
    "wide_policy": (324, 24),
    "fact_heavy": (250, 14),
}

# Builtin calls for one pass over the shape's requests: (ceiling, requests).
BUILTIN_CEILINGS = {
    "wide_policy": (2127, 24),
    "fact_heavy": (1798, 14),
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


PACKAGE = os.path.dirname(xpdp.__file__) + os.sep
SAMPLES = Path(__file__).resolve().parent.parent / "samples"


def python_calls(fn, *args, event: str = "call") -> int:
    """The number of calls of the package's Python functions that
    ``fn(*args)`` makes. Calls into C are not counted, nor calls of
    other Python code, such as the ``gc`` callback Hypothesis installs
    once any of its tests has run, which a collection inside ``fn``
    would otherwise add to the count. With ``event="c_call"``, it
    counts the builtin calls the package's Python functions make
    instead."""
    calls = 0

    def profile(frame, kind, arg):
        nonlocal calls
        if kind == event and frame.f_code.co_filename.startswith(PACKAGE):
            calls += 1

    sys.setprofile(profile)
    try:
        fn(*args)
    finally:
        sys.setprofile(None)
    return calls


def one_pass(shape: str):
    """A function deciding each request of the shape once, and the
    number of requests."""
    workload = BENCHMARK_SHAPES[shape](benchmark_workloads())
    policy = xpdp.parse_policy(workload.policy_text)
    requests = [xpdp.parse_request(text) for text in workload.request_texts]

    def decide_all():
        for req in requests:
            xpdp.evaluate(policy, req)

    return decide_all, len(requests)


@pytest.mark.parametrize("shape", sorted(BENCHMARK_SHAPES))
def test_python_calls_per_decision(shape):
    decide_all, count = one_pass(shape)
    ceiling, expected = CEILINGS[shape]
    assert count == expected
    calls = python_calls(decide_all)
    assert calls <= ceiling, f"{calls / count:.2f} calls per decision, ceiling {ceiling / count:.2f}"
    print(f"{shape}: {calls} calls, {calls / count:.2f} per decision")


@pytest.mark.parametrize("shape", sorted(BENCHMARK_SHAPES))
def test_builtin_calls_per_decision(shape):
    """Builtin calls (``c_call`` profile events) the package's functions
    make in one pass: set and dict methods, ``sorted``, ``len`` and the
    like, the C-level work a Python call count does not see. It counts
    calls only: not operators, such as ``in`` or ``is``, and not the
    memory a decision touches, so a change can pass it and still be
    slower on cold caches."""
    decide_all, count = one_pass(shape)
    ceiling, expected = BUILTIN_CEILINGS[shape]
    assert count == expected
    calls = python_calls(decide_all, event="c_call")
    assert calls <= ceiling, (
        f"{calls / count:.2f} builtin calls per decision, ceiling {ceiling / count:.2f}"
    )
    print(f"{shape}: {calls} builtin calls, {calls / count:.2f} per decision")


def test_a_collection_adds_no_calls():
    """A collection runs every ``gc`` callback, Hypothesis's among them
    once one of its tests has run; none of them is counted."""

    @given(st.integers())
    def any_hypothesis_test(n):
        pass

    any_hypothesis_test()
    phases = []

    def callback(phase, info):
        phases.append(phase)

    policy = xpdp.parse_policy((SAMPLES / "patient_policy.pol").read_text())
    request = xpdp.parse_request((SAMPLES / "request_doctor_read.req").read_text())

    def decide():
        xpdp.evaluate(policy, request)

    def decide_and_collect():
        decide()
        gc.collect()

    gc.callbacks.append(callback)
    try:
        assert python_calls(decide_and_collect) == python_calls(decide) > 0
    finally:
        gc.callbacks.remove(callback)
    assert "start" in phases


def test_one_plan_per_distinct_condition(monkeypatch):
    """The benchmark's wide policy has 1 000 rules and 11 distinct
    condition texts; a parse plans each text once."""
    planned = []
    compile_condition = xpdp.policy.compile_condition

    def counted(expr):
        planned.append(expr)
        return compile_condition(expr)

    monkeypatch.setattr(xpdp.policy, "compile_condition", counted)
    workload = benchmark_workloads().wide_policy(7)
    node = xpdp.parse_policy(workload.policy_text)
    rules = [r for ps in node.children for p in ps.children for r in p.rules]
    assert len(rules) == 1000
    assert len(planned) == len({r.condition for r in rules}) == 11


def test_parse_heap_peak():
    """Parsing the benchmark's wide policy (1 000 rules, 205 kB) peaks
    at no more than 1.0 MB of Python heap, with one token string per
    distinct text. The peak counts the bytes Python allocates while
    ``tracemalloc`` traces, not the process's RSS, which also holds the
    interpreter, its modules and memory freed but not given back. The
    lexer reads a slice of lines at a time, so only one slice's copies
    of the token texts exist at once; one ``findall`` over the whole
    document peaked at 1.79 MB."""
    text = benchmark_workloads().wide_policy(7).policy_text
    texts = xpdp.textio._tokenize(text)
    assert len({id(t) for t in texts}) == len(set(texts)) < len(texts)
    del texts
    tracemalloc.start()
    try:
        xpdp.parse_policy(text)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1_000_000, f"parse peak {peak / 1e6:.2f} MB"
    print(f"wide_policy parse: tracemalloc peak {peak / 1e6:.3f} MB")


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
