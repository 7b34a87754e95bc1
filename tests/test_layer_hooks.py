"""The layer functions that ``perfbench/tracer.py`` wraps.

The traced benchmark run replaces these module globals and class
attributes with counting wrappers, and it fails when a layer records no
call. So one evaluation must still reach every one of them through the
name the tracer patches, called the way the wrappers expect.
"""

from collections import Counter
from pathlib import Path

import xpdp.cli
import xpdp.conditions
import xpdp.policy
from xpdp import EvalTrace, Request

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
