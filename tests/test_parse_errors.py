"""Golden diagnostics: the parsers' outcome on systematically broken inputs.

Each input is the sample policy, a sample request, a generated 40-rule
policy or one of a few short documents that each raise one of the rarer
error classes. At every token (found with the reference lexer) the input is
mutated three ways: the token deleted, the token duplicated, and the
text cut where the token starts. ``data/parse_errors.json`` records,
for every mutant, the exception class, message and span, or null where
the mutant parses. The file was recorded from the parser as it stood
before its dispatch was rewritten; it pins every diagnostic, so a change
to the parser must reproduce it exactly, not re-record it.

Record it afresh only for a deliberate change of diagnostics, with
``python tests/test_parse_errors.py``.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

from documents import varied_policy
from oracles import lex_with_offsets
from xpdp import PolicyEngineError, parse_policy, parse_request

HERE = Path(__file__).resolve().parent
DATA = HERE / "data" / "parse_errors.json"
SAMPLES = HERE.parent / "samples"


ONE_RULE = "rule R { effect: permit; target: null; condition: %s }"

# Short inputs for the error classes single-token mutants of the
# documents above do not reach.
RARE_ERRORS = (
    ("unknown_combiner", parse_policy,
     "policy P { target: null; combiner: shuffle; rules: [ %s ] }" % ONE_RULE % "true"),
    ("no_rules", parse_policy, "policy P { target: null; combiner: d-o; rules: [] }"),
    ("function_arity", parse_policy,
     "policy P { target: null; combiner: f-a; rules: [ %s ] }" % ONE_RULE % "f(X, 1) > 2"),
    ("category_arity", parse_request, "{ subject(a, b), action(c) }"),
    ("empty_request", parse_request, "{ error:subject(a) }"),
)


def golden_inputs():
    """``(name, parser, text)`` for every input the mutants come from."""
    yield "patient_policy.pol", parse_policy, (SAMPLES / "patient_policy.pol").read_text()
    for path in sorted(SAMPLES.glob("*.req")):
        yield path.name, parse_request, path.read_text()
    yield "varied_policy(40)", parse_policy, varied_policy(40)
    yield from RARE_ERRORS


def mutants(text: str):
    """``(mutation, token index, mutant text)`` for every token but EOF."""
    for index, (_, token, start) in enumerate(lex_with_offsets(text)[:-1]):
        end = start + len(token)
        yield "delete", index, text[:start] + text[end:]
        yield "duplicate", index, text[:end] + token + text[end:]
        yield "cut", index, text[:start]


def outcome(parse, text: str, messages: dict[str, int]):
    """None if ``text`` parses, else the class, message number and span
    of the error raised; a new message is numbered in ``messages``."""
    try:
        parse(text)
    except PolicyEngineError as exc:
        message = getattr(exc, "message", str(exc))
        number = messages.setdefault(message, len(messages))
        span = getattr(exc, "span", None)
        where = [] if span is None else [span.start, span.end, span.line, span.column]
        return [type(exc).__name__, number, *where]
    return None


def record(messages: dict[str, int]):
    """``[input, mutation, token index, mutant length, outcome]`` for
    every mutant, in order."""
    return [
        [name, mutation, index, len(mutant), outcome(parse, mutant, messages)]
        for name, parse, text in golden_inputs()
        for mutation, index, mutant in mutants(text)
    ]


def test_diagnostics_match_the_recording():
    recorded = json.loads(DATA.read_text())
    messages = {m: i for i, m in enumerate(recorded["messages"])}
    got = record(messages)
    assert list(messages) == recorded["messages"], "new messages"
    assert len(got) == len(recorded["cases"])
    wrong = [(want, have) for want, have in zip(recorded["cases"], got) if want != have]
    assert not wrong, f"{len(wrong)} mutants differ; first: {wrong[:3]}"


def test_recording_covers_every_error_class():
    recorded = json.loads(DATA.read_text())["cases"]
    classes = {case[4][0] if case[4] else None for case in recorded}
    assert classes == {None, "ParseError", "ArityError", "UnknownCombinerError", "EmptyRequestError"}


if __name__ == "__main__":
    found: dict[str, int] = {}
    cases = ",\n".join(json.dumps(case) for case in record(found))
    DATA.parent.mkdir(exist_ok=True)
    DATA.write_text(
        '{"messages": [\n' + ",\n".join(json.dumps(m) for m in found)
        + '\n],\n"cases": [\n' + cases + "\n]}\n"
    )
    sys.exit(0)
