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
from documents import benchmark_workloads
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

SHAPES = {
    "wide_policy": lambda w: w.wide_policy(7, subjects=8),
    "fact_heavy": lambda w: w.fact_heavy(7, pads=(0, 8)),
}


@pytest.mark.parametrize("shape", sorted(SHAPES))
def test_untraced_evaluation_reaches_every_evaluation_hook(monkeypatch, shape):
    workload = SHAPES[shape](benchmark_workloads())
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
