"""Policy documents generated for parser tests, without randomness, so
the same call always gives the same text, and the benchmark's seeded
input generators (``benchmark_workloads``)."""

from __future__ import annotations

import importlib.util
import sys
from pathlib import Path

COMBINERS = ("p-o", "d-o", "f-a", "o-1-a")

# Target and condition forms the varied policy cycles through; ``{k}``
# is the rule's number. Together they use every target shape the
# grammar normalizes, and every condition construct.
_VARIED_TARGETS = (
    "null",
    "subject(s{k})",
    "(subject(a) \\/ subject(b)) /\\ resource(r)",
    "null",
    "action(a) /\\ resource({k}) \\/ environment(e)",
    "null",
    "((subject(s) /\\ action(w)))",
    "null",
    "action(a) /\\ (resource(r) \\/ (resource(q) /\\ subject(s)))",
)
_VARIED_CONDITIONS = (
    "true",
    "p(X) /\\ q(X, {k})",
    "true",
    "not o(X, Y) /\\ b(Y) \\/ c(Y)",
    "false",
    "age(X) >= 18 /\\ p(X)",
    "true",
    "X != Y /\\ l(X, Y)",
    "(a(X) \\/ b(X)) /\\ v(X) < {k}",
    "true",
    "not (p(c) /\\ q(c))",
    "g(X) <= g(Y) /\\ X = Y",
    "not not ok(z) \\/ s(t) > 2",
)


def varied_policy(rules: int = 40) -> str:
    """A policy set of two policy sets of policies of five rules each,
    ``rules`` rules in all, with comments, every combiner and a mix of
    target and condition forms."""
    policies = []
    for p in range(0, rules, 5):
        rule_texts = []
        for k in range(p, min(p + 5, rules)):
            target = _VARIED_TARGETS[k % len(_VARIED_TARGETS)].format(k=k)
            condition = _VARIED_CONDITIONS[k % len(_VARIED_CONDITIONS)].format(k=k)
            effect = "permit" if k % 2 else "deny"
            rule_texts.append(
                f"    rule R{k} {{ effect: {effect}; target: {target};\n"
                f"      condition: {condition}; }}"
            )
        policies.append(
            f"  # policy {p // 5}\n"
            f"  policy P{p // 5} {{ target: {'null' if p % 2 else f'subject(s{p})'};"
            f" combiner: {COMBINERS[p // 5 % 4]}; rules: [\n"
            + ",\n".join(rule_texts)
            + "\n  ] }"
        )
    half = (len(policies) + 1) // 2
    sets = [
        f"policyset PS{i} {{ target: null; combiner: {COMBINERS[i + 1]}; children: [\n"
        + ",\n".join(group)
        + "\n] }"
        for i, group in enumerate((policies[:half], policies[half:]))
    ]
    return (
        "# Generated varied policy.\n"
        "policyset Root { target: null; combiner: p-o; children: [\n"
        + ",\n".join(sets)
        + "\n]; }\n"
    )


def _wide_condition(k: int, resource: int) -> str:
    if k % 3 == 0:
        return "true"
    if k % 3 == 1:
        return f"badge(X) /\\ assigned(X,res{resource})"
    return f"badge(X) /\\ delegate(X,Y) /\\ assigned(Y,res{resource})"


def wide_document(subjects: int = 40, actions: int = 5, resources: int = 5) -> str:
    """A wide policy of ``subjects * actions * resources`` rules with
    distinct targets: a deny-overrides root over four policy sets, one
    per combiner, each holding one policy per subject whose rules cover
    every action/resource pair, with conditions cycling through
    ``true``, a one-variable join and a two-variable join."""
    sets = []
    for ci, set_combiner in enumerate(COMBINERS):
        policies = []
        for s in range(ci, subjects, len(COMBINERS)):
            rule_texts = []
            for a in range(actions):
                for r in range(resources):
                    k = (s * actions + a) * resources + r
                    rule_texts.append(
                        f"      rule R_s{s}_a{a}_r{r} {{\n"
                        f"        effect: {'permit' if k % 2 else 'deny'};\n"
                        f"        target: subject(sub{s}) /\\ action(act{a}) /\\ resource(res{r});\n"
                        f"        condition: {_wide_condition(k, r)};\n"
                        f"      }}"
                    )
            policies.append(
                f"    policy P_s{s} {{\n"
                f"      target: subject(sub{s});\n"
                f"      combiner: {COMBINERS[(s + ci) % len(COMBINERS)]};\n"
                f"      rules: [\n" + ",\n".join(rule_texts) + "\n      ];\n"
                f"    }}"
            )
        sets.append(
            f"  policyset PS_{ci} {{\n"
            f"    target: null;\n"
            f"    combiner: {set_combiner};\n"
            f"    children: [\n" + ",\n".join(policies) + "\n    ];\n"
            f"  }}"
        )
    return (
        "policyset PS_root {\n"
        "  target: null;\n"
        "  combiner: d-o;\n"
        "  children: [\n" + ",\n".join(sets) + "\n  ];\n"
        "}\n"
    )


def benchmark_workloads():
    """The benchmark's input generators, ``perfbench/workloads.py``."""
    path = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up
    spec.loader.exec_module(module)
    return module


# Small instances of the two in-process benchmark workloads, by name,
# from ``benchmark_workloads()``.
BENCHMARK_SHAPES = {
    "wide_policy": lambda w: w.wide_policy(7, subjects=8),
    "fact_heavy": lambda w: w.fact_heavy(7, pads=(0, 8)),
}
