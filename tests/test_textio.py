"""DSL parsing, canonical serialization, and lattice export."""

import pickle
import re
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from xpdp import (
    NULL_TARGET,
    And,
    ArityError,
    Atom,
    Effect,
    Rule,
    Decision6,
    PolicyEngineError,
    AttributeTerm,
    BoolLiteral,
    CombinerId,
    Compare,
    EmptyRequestError,
    FunctionValue,
    InvalidInputError,
    Not,
    Or,
    ParseError,
    Policy,
    PolicySet,
    UnknownCombinerError,
    UnknownLatticeError,
    Variable,
    emit_lattice_dot,
    evaluate,
    parse_policy,
    parse_request,
    serialize_policy,
)

import strategies
from documents import wide_document
from oracles import ORDERS, REFERENCE_TOKEN_RE, lex_with_offsets
from xpdp.policy import _check_name
from xpdp.values import Value
from xpdp.textio import (
    _COMBINER_TOKENS, _SYMBOLS, _TOKEN_RE, MAX_NESTING, _ident_text, _span_at, _tokenize
)

SAMPLES = Path(__file__).resolve().parent.parent / "samples"

MINIMAL = """
policy P {
  target: null;
  combiner: d-o;
  rules: [
    rule R { effect: permit; target: null; condition: true }
  ];
}
"""


class TestParsePolicy:
    def test_minimal_document(self):
        node = parse_policy(MINIMAL)
        assert isinstance(node, Policy)
        assert node.name == "P"
        assert node.combiner is CombinerId.DENY_OVERRIDES
        assert len(node.rules) == 1
        assert node.rules[0].condition == BoolLiteral(True)

    def test_sample_file(self):
        node = parse_policy((SAMPLES / "patient_policy.pol").read_text())
        assert isinstance(node, PolicySet)
        assert node.name == "PS_patient"
        assert node.combiner is CombinerId.PERMIT_OVERRIDES
        assert len(node.children) == 2
        assert [c.name for c in node.children] == ["P_patient_record", "P_medical_record"]
        assert sum(len(c.rules) for c in node.children) == 5
        rp1 = node.children[0].rules[0]
        assert isinstance(rp1.condition, And)
        rm2 = node.children[1].rules[1]
        assert any(isinstance(c, Not) for c in rm2.condition.children)

    def test_zero_rules_rejected(self):
        text = "policy P { target: null; combiner: d-o; rules: [] }"
        with pytest.raises(ArityError):
            parse_policy(text)

    def test_unknown_combiner(self):
        text = MINIMAL.replace("d-o", "x-o")
        with pytest.raises((UnknownCombinerError, ParseError)):
            parse_policy(text)
        text2 = MINIMAL.replace("combiner: d-o", "combiner: shuffle")
        with pytest.raises(UnknownCombinerError):
            parse_policy(text2)

    def test_all_permit_rejected_at_its_token(self):
        text = MINIMAL.replace("d-o", "all-permit")
        with pytest.raises(ParseError) as err:
            parse_policy(text)
        span = err.value.span
        assert text[span.start:span.end] == "all-permit"
        assert "pair encoding" in str(err.value)

    def test_mixed_children_rejected(self):
        text = """
        policyset PS {
          target: null;
          combiner: p-o;
          children: [
            policyset Inner { target: null; combiner: p-o; children: []; },
            policy P { target: null; combiner: d-o; rules: [
              rule R { effect: deny; target: null; condition: false }
            ]; }
          ];
        }
        """
        with pytest.raises(ParseError):
            parse_policy(text)

    def test_target_shapes(self):
        # Parses into one disjunction any-of plus one singleton any-of.
        node = parse_policy(
            """
            policy P {
              target: null;
              combiner: d-o;
              rules: [
                rule R {
                  effect: permit;
                  target: (subject(a) \\/ subject(b)) /\\ action(c);
                  condition: true;
                }
              ];
            }
            """
        )
        target = node.rules[0].target
        assert len(target.any_ofs) == 2
        assert len(target.any_ofs[0].all_ofs) == 2
        assert len(target.any_ofs[1].all_ofs) == 1

    def test_too_deep_target_rejected(self):
        with pytest.raises(ParseError):
            parse_policy(
                """
                policy P {
                  target: null;
                  combiner: d-o;
                  rules: [
                    rule R {
                      effect: permit;
                      target: subject(a) \\/ (subject(b) /\\ (action(c) \\/ action(d)));
                      condition: true;
                    }
                  ];
                }
                """
            )

    def test_non_category_match_rejected(self):
        with pytest.raises(ParseError):
            parse_policy(MINIMAL.replace("target: null; condition", "target: owner(a); condition"))

    def test_errors_carry_spans(self):
        bad_inputs = [
            "policy { target: null; }",
            "policy P [ target: null; ]",
            MINIMAL.replace("condition: true", "condition: %"),
            MINIMAL.replace("effect: permit", "effect: maybe"),
            "policy P { target: null; combiner: d-o; rules: [] }",
        ]
        for text in bad_inputs:
            with pytest.raises(ParseError) as err:
                parse_policy(text)
            span = err.value.span
            assert span is not None
            assert 0 <= span.start <= span.end <= len(text)
            assert span.line >= 1

    def test_condition_grammar(self):
        node = parse_policy(
            """
            policy P {
              target: null;
              combiner: f-a;
              rules: [
                rule R {
                  effect: permit;
                  target: null;
                  condition: not p(X) /\\ (q(X, 3) \\/ age(X) >= 18) /\\ X != other;
                }
              ];
            }
            """
        )
        cond = node.rules[0].condition
        assert isinstance(cond, And)
        assert isinstance(cond.children[0], Not)
        assert isinstance(cond.children[1], Or)
        assert cond.children[1].children[1] == Compare(
            FunctionValue("age", Variable("X")), ">=", 18
        )
        assert cond.children[2] == Compare(Variable("X"), "!=", "other")

    def test_unbound_comparison_variable_rejected(self):
        with pytest.raises(ParseError) as err:
            parse_policy(MINIMAL.replace("condition: true", "condition: X = 1"))
        assert err.value.span is not None
        assert "X" in str(err.value)

    def test_term_kinds(self):
        # A term is an identifier or a number; a combiner id, which
        # also starts with a letter, is neither.
        cond = parse_policy(MINIMAL.replace("condition: true", "condition: p(_x, X1, 07)"))
        assert cond.rules[0].condition == Atom("p", ("_x", Variable("X1"), 7))
        for term in ("d-o", "all-permit", "/\\", "(", ";"):
            with pytest.raises(ParseError) as err:
                parse_policy(MINIMAL.replace("condition: true", f"condition: p(a, {term})"))
            assert err.value.message == f"expected a term, found {term!r}"

    def test_comments_and_whitespace(self):
        node = parse_policy("# leading\n" + MINIMAL + "\n# trailing")
        assert node.name == "P"

    def test_span_sanity(self):
        from xpdp import SourceSpan

        with pytest.raises(ValueError):
            SourceSpan(5, 2, 1, 1)
        assert str(SourceSpan(0, 3, 2, 7)) == "2:7"


class TestParseRequest:
    def test_six_facts(self):
        req = parse_request(
            "{ subject(doctor), action(read), resource(patient_record), "
            "doctor(id,d), patient(id,p), patient_record(id,p) }"
        )
        assert len(req.facts) == 6
        assert not req.error_attributes
        assert AttributeTerm("doctor", ("id", "d")) in req.facts

    def test_empty_request(self):
        with pytest.raises(EmptyRequestError):
            parse_request("{ }")

    def test_error_attributes(self):
        req = parse_request("{ subject(nurse), error:resource(db) }")
        assert len(req.facts) == 1
        assert req.error_attributes == frozenset([AttributeTerm("resource", ("db",))])

    def test_all_error_terms_is_still_empty(self):
        with pytest.raises(EmptyRequestError):
            parse_request("{ error:subject(nurse) }")

    def test_over_long_number_rejected(self):
        text = "{ subject(a), n(" + "9" * 5000 + ") }"
        with pytest.raises(ParseError) as err:
            parse_request(text)
        assert err.value.span.start == text.index("9")
        assert "too long" in str(err.value)

    def test_diagnostics_name_punctuation(self):
        with pytest.raises(ParseError) as err:
            parse_request("{ subject(a) action(b) }")
        assert str(err.value) == "1:14: expected '}', found 'action'"
        with pytest.raises(ParseError) as err:
            parse_policy(MINIMAL.replace("effect: permit;", "effect: permit"))
        assert str(err.value) == "6:29: expected ';', found 'target'"

    def test_numeric_arguments(self):
        req = parse_request("{ age(p, 17) }")
        assert AttributeTerm("age", ("p", 17)) in req.facts

    def test_overlap_rejected(self):
        with pytest.raises(ParseError):
            parse_request("{ subject(a), error:subject(a) }")

    def test_variables_rejected(self):
        with pytest.raises(ParseError):
            parse_request("{ subject(X) }")


class TestSerialize:
    def test_round_trip_sample(self):
        node = parse_policy((SAMPLES / "patient_policy.pol").read_text())
        text = serialize_policy(node)
        assert parse_policy(text) == node

    def test_idempotent_bytes(self):
        node = parse_policy((SAMPLES / "patient_policy.pol").read_text())
        once = serialize_policy(node)
        twice = serialize_policy(parse_policy(once))
        assert once == twice
        assert once.endswith("\n")
        assert "\r" not in once

    def test_no_unneeded_parentheses(self):
        text = with_condition("not (not ok(x)) /\\ not (a(x) \\/ b(x))")
        text = with_target("(subject(a) \\/ subject(b))", text)
        node = parse_policy(text)
        out = serialize_policy(node)
        assert "condition: not not ok(x) /\\ not (a(x) \\/ b(x));" in out
        assert "target: subject(a) \\/ subject(b);" in out
        assert "target: (subject(a) /\\ subject(b));" in serialize_policy(
            parse_policy(with_target("(subject(a) /\\ subject(b))"))
        )
        assert parse_policy(out) == node

    def test_empty_children_emitted(self):
        node = parse_policy("policyset PS { target: null; combiner: p-o; children: []; }")
        assert "children: [];" in serialize_policy(node)

    @settings(max_examples=200, deadline=None)
    @given(strategies.policy_nodes())
    def test_round_trip_generated(self, node):
        assert parse_policy(serialize_policy(node)) == node

    @pytest.mark.parametrize("condition", [
        Atom("owns", (-3,)),
        Atom("owns", (True,)),
        Atom("owns", (10 ** 5000,)),
        Atom("owns", (Variable("X\u00e9"),)),
        Atom("owns", (Variable("X-Y"),)),
        Atom("owns", (Variable("X Y"),)),
    ])
    def test_unreadable_values_are_refused(self, condition):
        rule = Rule("R", Effect.PERMIT, NULL_TARGET, condition)
        with pytest.raises(InvalidInputError):
            serialize_policy(Policy("P", NULL_TARGET, (rule,), CombinerId.DENY_OVERRIDES))

    @settings(max_examples=200, deadline=None)
    @given(strategies.policy_nodes(), st.data())
    def test_wide_values_round_trip_or_are_refused(self, node, data):
        # The tree's constants and variable names, each replaced
        # consistently by one from a pool the grammar partly cannot read.
        constants: dict = {}
        names: dict = {}
        node = rebuilt(
            node,
            lambda c: constants.setdefault(c, data.draw(WIDE_CONSTANTS)),
            lambda n: names.setdefault(n, data.draw(WIDE_VARIABLE_NAMES)),
        )
        try:
            text = serialize_policy(node)
        except InvalidInputError:
            return
        assert parse_policy(text) == node


WIDE_CONSTANTS = st.sampled_from(
    (0, 7, -3, True, False, 10 ** 5000, "alpha", "a_b", "a-b", "a b", "\u00e9t\u00e9")
)
WIDE_VARIABLE_NAMES = st.sampled_from(("X", "Y_2", "X\u00e9", "\u00c9t\u00e9", "X-Y", "X Y"))

# The fields that hold constant terms, directly or in a tuple.
_CONSTANT_FIELDS = {
    (AttributeTerm, "args"), (Atom, "terms"), (FunctionValue, "arg"),
    (Compare, "left"), (Compare, "right"),
}


def rebuilt(value, constant, variable_name, holds_constants=False):
    """``value`` rebuilt through its constructors, with each constant
    term mapped by ``constant`` and each variable name by ``variable_name``."""
    if isinstance(value, Variable):
        return Variable(variable_name(value.name))
    if isinstance(value, tuple):
        return tuple(rebuilt(v, constant, variable_name, holds_constants) for v in value)
    if isinstance(value, Value):
        cls = type(value)
        return cls(*(
            rebuilt(getattr(value, f), constant, variable_name, (cls, f) in _CONSTANT_FIELDS)
            for f in cls._fields
        ))
    return constant(value) if holds_constants else value


# Short strings near the edges of a name: ASCII letters, digits, "_",
# "-", blanks, and non-ASCII letters and digits.
NAME_LIKE = st.text(
    st.sampled_from("aZz_09- \n\t")
    | st.characters(min_codepoint=128, categories=("Lu", "Ll", "Lt", "Lo", "Nd")),
    max_size=5,
)


def accepts(check, *args) -> bool:
    try:
        check(*args)
    except InvalidInputError:
        return False
    return True


class TestNamePredicates:
    """The name checks without a regex agree with the patterns they replaced."""

    @given(NAME_LIKE)
    def test_node_name(self, name):
        assert accepts(_check_name, name) == bool(re.match(r"[A-Za-z_][A-Za-z0-9_]*\Z", name))

    @given(NAME_LIKE)
    def test_written_identifier(self, value):
        assert accepts(_ident_text, value, "a match value") == bool(
            re.match(r"[a-z_][A-Za-z0-9_]*\Z", value)
        )


DOT_EXPECTATIONS = {
    "l3": (3, 2),
    "po": (6, 6),
    "do": (6, 6),
    "o1a": (6, 6),
    "pair6": (6, 6),
    "pair9": (9, 12),
    "belnap-k": (4, 4),
    "belnap-t": (4, 4),
}


def _parse_dot(text):
    nodes, edges = [], []
    for line in text.splitlines():
        line = line.strip()
        if line.startswith('"') and line.endswith('";') and "->" not in line:
            nodes.append(line[1:-2])
        elif "->" in line:
            a, b = line.rstrip(";").split("->")
            edges.append((a.strip().strip('"'), b.strip().strip('"')))
    return nodes, edges


class TestLatticeDot:
    def test_counts(self):
        for name, (node_count, edge_count) in DOT_EXPECTATIONS.items():
            nodes, edges = _parse_dot(emit_lattice_dot(name))
            assert len(nodes) == node_count, name
            assert len(edges) == edge_count, name

    def test_po_has_unique_sink(self):
        nodes, edges = _parse_dot(emit_lattice_dot("po"))
        sources = {a for a, _ in edges}
        sinks = [n for n in nodes if n not in sources]
        assert sinks == ["Permit"]

    def test_l3_chain(self):
        _, edges = _parse_dot(emit_lattice_dot("l3"))
        assert edges == [("bottom", "indeterminate"), ("indeterminate", "top")]

    def test_edges_are_exactly_the_covers(self):
        # Against the independently transcribed decision-lattice orders.
        from xpdp import Decision6

        label = {d.canonical: d for d in Decision6}
        for name, order in ORDERS.items():
            _, edges = _parse_dot(emit_lattice_dot(name))
            got = {(label[a], label[b]) for a, b in edges}
            expected = set()
            for a in Decision6:
                for b in Decision6:
                    if a is b or (a, b) not in order:
                        continue
                    between = any(
                        c is not a and c is not b and (a, c) in order and (c, b) in order
                        for c in Decision6
                    )
                    if not between:
                        expected.add((a, b))
            assert got == expected, name

    def test_deterministic(self):
        assert emit_lattice_dot("pair9") == emit_lattice_dot("pair9")

    def test_unknown(self):
        with pytest.raises(UnknownLatticeError):
            emit_lattice_dot("nope")


def assert_locates(text: str, exc: PolicyEngineError) -> None:
    """The error's span lies within ``text``, and its line and column,
    with lines split on "\\n" only, point at ``text[span.start]`` (or at
    the end of input)."""
    span = exc.span
    assert 0 <= span.start <= span.end <= len(text)
    lines = text.split("\n")
    assert 1 <= span.line <= len(lines)
    assert 1 <= span.column <= len(lines[span.line - 1]) + 1
    line_start = sum(len(line) + 1 for line in lines[: span.line - 1])
    assert line_start + span.column - 1 == span.start


class TestParserRobustness:
    """Whatever the input, the parsers either return a tree or raise one
    of the package's own error types, located in the input."""

    @settings(max_examples=300, deadline=None)
    @given(st.text(max_size=80))
    def test_policy_parser_total_on_junk(self, text):
        try:
            parse_policy(text)
        except PolicyEngineError as exc:
            assert_locates(text, exc)

    @settings(max_examples=300, deadline=None)
    @given(st.integers(0, 10_000), st.integers(0, 10_000))
    def test_policy_parser_total_on_sample_slices(self, a, b):
        text = (SAMPLES / "patient_policy.pol").read_text()
        lo, hi = sorted((a % (len(text) + 1), b % (len(text) + 1)))
        text = text[:lo] + text[hi:]
        try:
            parse_policy(text)
        except PolicyEngineError as exc:
            assert_locates(text, exc)

    @settings(max_examples=200, deadline=None)
    @given(st.text(max_size=60))
    def test_request_parser_total_on_junk(self, text):
        try:
            parse_request(text)
        except PolicyEngineError as exc:
            assert_locates(text, exc)


def nested_sets(depth: int) -> str:
    """``depth`` policy sets, one inside the other, around one policy."""
    inner = (
        "policy P { target: subject(a) \\/ subject(b); combiner: d-o; rules: ["
        " rule R { effect: permit; target: null; condition: true; } ]; }"
    )
    head = "policyset S { target: null; combiner: p-o; children: [ "
    return head * depth + inner + " ]; }" * depth


def with_condition(condition: str, text: str = MINIMAL) -> str:
    return text.replace("condition: true", f"condition: {condition}")


def with_target(target: str, text: str = MINIMAL) -> str:
    return text.replace("target: null; condition", f"target: {target}; condition")


REQUEST = parse_request("{ subject(a), ok(x) }")


class TestNestingBound:
    """Nesting of policy sets, parenthesised groups and ``not`` is
    bounded; at the bound a document parses, evaluates with a trace and
    serializes, one level past it is a parse error at the deepest level."""

    def _check_accepted(self, text, decision):
        node = parse_policy(text)
        result, trace = evaluate(node, REQUEST, with_trace=True)
        assert result is decision
        assert trace.to_obj()["result"] == decision.canonical
        assert trace.lines()
        assert parse_policy(serialize_policy(node)) == node

    def _check_rejected(self, text, offending):
        with pytest.raises(ParseError) as err:
            parse_policy(text)
        span = err.value.span
        assert "nesting deeper than" in str(err.value)
        assert text[span.start:span.end] == offending
        assert text[: span.start].count(offending) == MAX_NESTING

    def test_policy_sets(self):
        self._check_accepted(nested_sets(MAX_NESTING), Decision6.PERMIT)
        self._check_rejected(nested_sets(MAX_NESTING + 1), "policyset")

    def test_not_chain(self):
        self._check_accepted(with_condition("not " * MAX_NESTING + "ok(x)"), Decision6.PERMIT)
        self._check_rejected(with_condition("not " * (MAX_NESTING + 1) + "ok(x)"), "not")

    def test_condition_groups(self):
        deep = "(" * MAX_NESTING + "ok(x)" + ")" * MAX_NESTING
        self._check_accepted(with_condition(deep), Decision6.PERMIT)
        self._check_rejected(with_condition("(" + deep + ")"), "(")

    def test_target_groups(self):
        deep = "(" * MAX_NESTING + "subject(a)" + ")" * MAX_NESTING
        self._check_accepted(with_target(deep), Decision6.PERMIT)
        self._check_rejected(with_target("(" + deep + ")"), "(")

    def test_kinds_share_one_bound(self):
        half = MAX_NESTING // 2
        text = nested_sets(half).replace(
            "condition: true", "condition: " + "not " * (MAX_NESTING - half) + "ok(x)"
        )
        parse_policy(text)
        with pytest.raises(ParseError):
            parse_policy(text.replace("condition: ", "condition: not "))

    def test_shared_condition_one_level_deeper(self):
        # The same condition text, at the bound in policy set B and one
        # level past it in policy set D, which sits one level deeper.
        condition = "not " * (MAX_NESTING - 2) + "ok(x)"
        policy = (
            "policy P { target: null; combiner: d-o; rules: ["
            f" rule R {{ effect: permit; target: null; condition: {condition}; }} ]; }}"
        )
        head = "policyset {} {{ target: null; combiner: p-o; children: [ "
        shallow = head.format("B") + policy + " ]; }"
        deep = head.format("C") + head.format("D") + policy + " ]; } ]; }"
        parse_policy(head.format("A") + shallow + " ]; }")
        for children in (f"{shallow}, {deep}", f"{deep}, {shallow}"):
            text = head.format("A") + children + " ]; }"
            with pytest.raises(ParseError) as err:
                parse_policy(text)
            assert "nesting deeper than" in str(err.value)
            assert text[err.value.span.start:].startswith("not ok(x)")

    def test_far_past_the_bound(self):
        with pytest.raises(ParseError):
            parse_policy(nested_sets(2000))
        with pytest.raises(ParseError):
            parse_policy(with_condition("not " * 3000 + "ok(x)"))


def lexed(lex, text: str):
    """``lex(text)``, or the message and span of the error it raises."""
    try:
        return lex(text)
    except ParseError as exc:
        return exc.message, exc.span


_SYMBOL_KINDS = {text: kind for kind, text in _SYMBOLS.items()}


def token_kind(text: str) -> str:
    """A lexed token's kind, told from its text the way the parser tells
    it: a fixed text, then ``str.isdigit`` for a number and
    ``str.isidentifier`` for an identifier."""
    if text in _SYMBOL_KINDS:
        return _SYMBOL_KINDS[text]
    if text in _COMBINER_TOKENS:
        return "COMBINER"
    if not text:
        return "EOF"
    if text.isdigit():
        return "NUMBER"
    return "IDENT" if text.isidentifier() else "UNKNOWN"


def tokens_with_offsets(text: str) -> list[tuple[str, str, int]]:
    """The lexer's tokens as ``(kind, text, start)``, each start found the
    way an error finds it."""
    texts = _tokenize(text)
    return [(token_kind(token), token, _span_at(text, texts, i).start)
            for i, token in enumerate(texts)]


# Pieces of token soups: every fixed token, combiners and their
# prefixes with a character after them, identifiers, digits running into
# letters, comments with and without a final newline, line ends, the
# lone first characters of two-character symbols and non-ASCII text.
_SOUP_PIECES = st.one_of(
    st.sampled_from([
        *_SYMBOLS.values(), *_COMBINER_TOKENS, "p-ox", "all-permitx", "o-1-a1", "p-", "all-",
        "o-1", "d-o-", "f-a_", "12ab", "007", "x9", "_a", "-", "!", "/", "\\", "#", "# note",
        "# note\n", "\r\n", "\n", "\r", "\t", " ", "é", "ß", "€", "\x00", "\u2028",
    ]),
    st.from_regex(r"[A-Za-z_][A-Za-z0-9_]{0,4}", fullmatch=True),
    st.from_regex(r"[0-9]{1,3}[A-Za-z]?", fullmatch=True),
    st.text(max_size=2),
)


def token_matches(pattern, text: str) -> list[tuple[int, str]]:
    """Where each of ``pattern``'s matches over ``text`` starts its token,
    and the token text."""
    return [(m.start(1), m.group(1)) for m in pattern.finditer(text)]


class TestLexerOracle:
    """The one-call lexer gives the reference lexer's tokens, offsets and
    diagnostics."""

    @settings(max_examples=500, deadline=None)
    @given(st.lists(_SOUP_PIECES, max_size=30).map("".join))
    def test_token_soups_match_the_reference_pattern(self, text):
        # The token pattern's alternatives are ordered for speed; it
        # matches the same tokens at the same places as the reference.
        assert token_matches(_TOKEN_RE, text) == token_matches(REFERENCE_TOKEN_RE, text)
        assert lexed(tokens_with_offsets, text) == lexed(lex_with_offsets, text)

    def test_pattern_compiles_before_python_3_11(self):
        # Possessive quantifiers and atomic groups compile from Python
        # 3.11 only; on 3.10 the package would fail to import.
        assert not re.search(r"(?<!\\)[*+?}]\+|\(\?>", _TOKEN_RE.pattern)

    def test_samples(self):
        for path in sorted(SAMPLES.iterdir()):
            text = path.read_text()
            assert lexed(tokens_with_offsets, text) == lexed(lex_with_offsets, text), path.name

    @settings(max_examples=300, deadline=None)
    @given(st.text(max_size=80))
    def test_junk(self, text):
        assert lexed(tokens_with_offsets, text) == lexed(lex_with_offsets, text)

    @settings(max_examples=300, deadline=None)
    @given(st.integers(0, 10_000), st.integers(0, 10_000))
    def test_sample_slices(self, a, b):
        text = (SAMPLES / "patient_policy.pol").read_text()
        lo, hi = sorted((a % (len(text) + 1), b % (len(text) + 1)))
        text = text[:lo] + text[hi:]
        assert lexed(tokens_with_offsets, text) == lexed(lex_with_offsets, text)

    @pytest.mark.parametrize("tail", [" " * 100_000, "# note\n" * 10_000], ids=["blanks", "comments"])
    def test_long_tails(self, tail):
        # Quadratic or backtracking token patterns do not finish on these.
        text = MINIMAL + tail
        assert lexed(tokens_with_offsets, text) == lexed(lex_with_offsets, text)
        assert parse_policy(text) == parse_policy(MINIMAL)
        unclosed = MINIMAL.rstrip()[:-1] + tail
        with pytest.raises(ParseError) as err:
            parse_policy(unclosed)
        assert err.value.message == "expected '}', found 'end of input'"
        assert err.value.span.start == lex_with_offsets(unclosed)[-1][2] == len(unclosed)
        bad = unclosed + "%"
        assert lexed(tokens_with_offsets, bad) == lexed(lex_with_offsets, bad)


def policy_with_conditions(*conditions: str) -> str:
    """A d-o policy of null-target permit rules ``R0``, ``R1``, ... with
    the given conditions."""
    rules = ",\n".join(
        f"  rule R{k} {{ effect: permit; target: null; condition: {condition}; }}"
        for k, condition in enumerate(conditions)
    )
    return f"policy P {{ target: null; combiner: d-o; rules: [\n{rules}\n]; }}\n"


def target_matches(target):
    for any_of in target.any_ofs or ():
        for all_of in any_of.all_ofs:
            yield from all_of.matches


class TestSharedObjects:
    """Equal matches, equal variables and equal condition texts of one
    document each parse to one object; the tree equals one built from
    separate objects."""

    def test_variables(self):
        node = parse_policy(with_condition("p(X) /\\ q(X, Y) /\\ X != Y"))
        p, q, compare = node.rules[0].condition.children
        assert p.terms[0] is q.terms[0] is compare.left
        assert q.terms[1] is compare.right
        fresh = Policy(
            "P",
            NULL_TARGET,
            (Rule("R", Effect.PERMIT, NULL_TARGET, And((
                Atom("p", (Variable("X"),)),
                Atom("q", (Variable("X"), Variable("Y"))),
                Compare(Variable("X"), "!=", Variable("Y")),
            ))),),
            CombinerId.DENY_OVERRIDES,
        )
        assert node == fresh
        assert node.rules[0].plan == fresh.rules[0].plan
        assert pickle.loads(pickle.dumps(node)) == fresh
        assert pickle.loads(pickle.dumps(fresh)) == node
        assert serialize_policy(node) == serialize_policy(fresh)

    def test_conditions(self):
        """Rules whose condition tokens are equal share one condition and
        one plan, however the texts are spaced or commented; different
        texts and different parses share neither."""
        texts = (
            "p(X) /\\ q(X, Y) /\\ X != Y",
            "p(X)/\\q(X,Y)  # a comment\n   /\\ X!=Y",
            "p(X) /\\ q(Y, X) /\\ X != Y",
            "p(X) /\\ q(X, Y) /\\ X != Y",
        )
        document = policy_with_conditions(*texts)
        node = parse_policy(document)
        first, spaced, other, repeated = node.rules
        assert first.condition is spaced.condition is repeated.condition
        assert first.plan is spaced.plan is repeated.plan
        assert other.condition is not first.condition and other.plan is not first.plan
        # Only the document's variables are shared between different texts.
        assert not {id(c) for c in other.condition.children} & {
            id(c) for c in first.condition.children
        }
        again = parse_policy(document)
        assert again == node
        for mine, theirs in zip(again.rules, node.rules):
            assert mine.condition is not theirs.condition and mine.plan is not theirs.plan
        fresh = Policy(
            "P",
            NULL_TARGET,
            tuple(
                Rule(f"R{k}", Effect.PERMIT, NULL_TARGET,
                     parse_policy(policy_with_conditions(text)).rules[0].condition)
                for k, text in enumerate(texts)
            ),
            CombinerId.DENY_OVERRIDES,
        )
        assert len({id(r.condition) for r in fresh.rules}) == 4
        assert node == fresh and node.needs == fresh.needs
        assert [r.plan for r in node.rules] == [r.plan for r in fresh.rules]
        assert pickle.loads(pickle.dumps(node)) == fresh
        assert pickle.loads(pickle.dumps(fresh)) == node
        assert serialize_policy(node) == serialize_policy(fresh)
        request = parse_request("{ p(a), q(a, b), q(b, a) }")
        assert evaluate(node, request, with_trace=True) == evaluate(fresh, request, with_trace=True)

    def test_wide_document(self):
        """A 1 000-rule document round-trips, and every member gate is
        keyed by the ground key of the one term object the parser made
        for its match. A set's gate may hold its descendants' keys, so
        every term is collected before any gate is checked."""
        node = parse_policy(wide_document())
        assert parse_policy(serialize_policy(node)) == node
        shared = {}
        nodes = []
        pending = [node]
        rules = 0
        while pending:
            n = pending.pop()
            nodes.append(n)
            members = n.rules if isinstance(n, Policy) else n.children
            for member in (n, *members):
                for match in target_matches(member.target):
                    assert shared.setdefault(match, match) is match
            if isinstance(n, Policy):
                rules += len(n.rules)
            else:
                pending.extend(n.children)
        assert rules == 1000
        for n in nodes:
            for key in n.gate.keys:
                assert shared[AttributeTerm(*key)].key is key
