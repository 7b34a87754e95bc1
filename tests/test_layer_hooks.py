"""The layer functions that ``perfbench/tracer.py`` wraps.

The traced benchmark run replaces these module globals and class
attributes with counting wrappers, and it fails when a layer records no
call. So one evaluation must still reach every one of them through the
name the tracer patches, called the way the wrappers expect: the CLI
through its traced path, and in-process decisions through the untraced
``xpdp.evaluate``.
"""

from collections import Counter
from pathlib import Path

import pytest

import xpdp
import xpdp.cli
import xpdp.conditions
import xpdp.policy
from documents import BENCHMARK_SHAPES, benchmark_workloads
from xpdp import Decision3, EvalTrace, Request

SAMPLES = Path(__file__).resolve().parent.parent / "samples"

HOOKS = (
    (xpdp.policy, "eval_target"),
    (xpdp.policy, "eval_condition"),
    (xpdp.policy, "combine"),
    (xpdp.policy, "rule_decision"),
    (xpdp.conditions, "kleene_eval"),
    (Request, "constants"),
    (EvalTrace, "to_obj"),
    (xpdp.cli, "parse_policy"),
    (xpdp.cli, "parse_request"),
    (xpdp.cli, "evaluate"),
)


def test_traced_cli_evaluation_reaches_every_hook(monkeypatch, capsys):
    calls = Counter()

    def counting(name, fn):
        def stub(*args, **kwargs):
            calls[name] += 1
            if name == "combine":
                len(args[2])  # the tracer sizes the decisions it combines
            return fn(*args, **kwargs)

        return stub

    for owner, name in HOOKS:
        monkeypatch.setattr(owner, name, counting(name, getattr(owner, name)))
    code = xpdp.cli.main(
        [
            "eval",
            "--policy", str(SAMPLES / "patient_policy.pol"),
            "--request", str(SAMPLES / "request_doctor_write.req"),
            "--trace",
            "--format", "structured",
        ]
    )
    assert code in (0, 1, 2, 3)
    assert '"trace"' in capsys.readouterr().out
    missing = [name for _, name in HOOKS if calls[name] == 0]
    assert not missing, f"not reached through the patched name: {missing}"


# What the in-process benchmark workloads reach: every hook but the CLI
# and trace rendering.
EVALUATION_HOOKS = HOOKS[:6]


@pytest.mark.parametrize("shape", sorted(BENCHMARK_SHAPES))
def test_untraced_evaluation_reaches_every_evaluation_hook(monkeypatch, shape):
    workload = BENCHMARK_SHAPES[shape](benchmark_workloads())
    policy = xpdp.parse_policy(workload.policy_text)
    requests = [xpdp.parse_request(text) for text in workload.request_texts]
    calls = []

    def recording(name, fn):
        def stub(*args, **kwargs):
            call = [name, None]  # in the order the calls start
            calls.append(call)
            if name == "combine":
                len(args[2])  # the tracer sizes the decisions it combines
            call[1] = fn(*args, **kwargs)
            return call[1]

        return stub

    for owner, name in EVALUATION_HOOKS:
        monkeypatch.setattr(owner, name, recording(name, getattr(owner, name)))
    for req in requests:
        xpdp.evaluate(policy, req)
    names = [name for name, _ in calls]
    missing = [name for _, name in EVALUATION_HOOKS if name not in names]
    assert not missing, f"not reached through the patched name: {missing}"
    # The tracer takes the last target it saw as the target of the rule
    # whose condition runs next, so a rule's target call comes right
    # before its condition call, and it is TOP.
    for i, name in enumerate(names):
        if name == "eval_condition":
            assert calls[i - 1] == ["eval_target", Decision3.TOP]


def counting_constants(monkeypatch) -> list:
    """Patch ``Request.constants`` as the tracer does; the list holds one
    entry per call."""
    calls = []
    constants = Request.constants

    def counted(request):
        calls.append(request)
        return constants(request)

    monkeypatch.setattr(Request, "constants", counted)
    return calls


@pytest.mark.parametrize("shape", sorted(BENCHMARK_SHAPES))
def test_untraced_evaluation_calls_constants_once(monkeypatch, shape):
    """The tracer reports ``requests.constants_calls`` from its count of
    ``Request.constants`` calls, and a traced run fails when a layer
    sees no call. So until the benchmark reads the library's own
    counters (ROADMAP item 2), every evaluation builds the domain once,
    even where no pool reads it."""
    workload = BENCHMARK_SHAPES[shape](benchmark_workloads())
    policy = xpdp.parse_policy(workload.policy_text)
    requests = [xpdp.parse_request(text) for text in workload.request_texts]
    calls = counting_constants(monkeypatch)
    for req in requests:
        calls.clear()
        xpdp.evaluate(policy, req)
        assert calls == [req]


@pytest.mark.parametrize("trace", [[], ["--trace"]], ids=["untraced", "traced"])
@pytest.mark.parametrize(
    "request_file",
    ["request_doctor_read.req", "request_doctor_write.req", "request_errored_read.req"],
)
def test_cli_evaluation_calls_constants_once(monkeypatch, capsys, request_file, trace):
    """As above, for each sample request of the benchmark's CLI workload."""
    calls = counting_constants(monkeypatch)
    code = xpdp.cli.main(
        [
            "eval",
            "--policy", str(SAMPLES / "patient_policy.pol"),
            "--request", str(SAMPLES / request_file),
            *trace,
            "--format", "structured",
        ]
    )
    assert code in (0, 1, 2, 3)
    capsys.readouterr()
    assert len(calls) == 1
