"""Text formats: the policy and request DSL, and lattice export.

The policy grammar, sketched:

    policyset NAME { target: TEXPR|null; combiner: ID; children: [ NODE, ... ]; }
    policy NAME { target: TEXPR|null; combiner: ID; rules: [ RULE, ... ]; }
    rule NAME { effect: permit|deny; target: TEXPR|null; condition: CEXPR; }

Target expressions combine category matches like ``subject(doctor)``
with ``/\\`` and ``\\/`` (conjunction binds tighter) and normalize into
the fixed three-level target shape; nesting the grammar cannot express
is rejected. Conditions add ``not``, comparisons and fact atoms;
identifiers starting with an uppercase letter are variables. ``#``
starts a line comment. Only the four standard combining algorithms are
accepted in a policy document; ``all-permit`` is rejected at its token.
Nesting (policy sets, parenthesised target and condition groups, and
``not``) is bounded by ``MAX_NESTING``; deeper input is a parse error.

Requests are brace-wrapped fact lists; a term prefixed ``error:`` lands
in the request's error-attribute set instead of its facts:

    { subject(doctor), action(read), error:resource(db) }

``serialize_policy`` emits a canonical form that parses back to a
structurally identical tree, and ``emit_lattice_dot`` renders any of
the package's finite orders as a DOT Hasse diagram (cover edges only).
"""

from __future__ import annotations

import operator
import re
from dataclasses import dataclass
from typing import Callable, NoReturn

from . import altlogics
from .combiners import STANDARD_COMBINERS, CombinerId
from .conditions import (
    And,
    Atom,
    BoolLiteral,
    Compare,
    ConditionExpr,
    FunctionValue,
    Not,
    Operand,
    Or,
    Term,
    Variable,
)
from .decisions import (
    PAIR6_VALUES,
    PAIR9_VALUES,
    Decision3,
    Decision6,
    Effect,
    V6_LATTICES,
    leq_pair,
)
from .errors import (
    ArityError,
    EmptyRequestError,
    InvalidInputError,
    ParseError,
    SourceSpan,
    UnboundVariableError,
    UnknownCombinerError,
    UnknownLatticeError,
)
from .policy import AllOf, AnyOf, NULL_TARGET, Policy, PolicyNode, PolicySet, Rule, Target
from .requests import CATEGORIES, AttributeTerm, Request

# Deepest nesting of policy sets, parenthesised groups and ``not`` a
# document may use; the parser, evaluator and serializer all recurse on it.
MAX_NESTING = 100

# Words with a fixed meaning in condition position; they cannot double
# as predicate or constant identifiers there.
RESERVED_CONDITION_WORDS = frozenset(["true", "false", "not"])

_TOKEN_SPEC = [
    ("WS", r"[ \t\r\n]+"),
    ("COMMENT", r"#[^\n]*"),
    ("COMBINER", r"(?:all-permit|o-1-a|p-o|d-o|f-a)(?![A-Za-z0-9_-])"),
    ("NUMBER", r"[0-9]+"),
    ("IDENT", r"[A-Za-z_][A-Za-z0-9_]*"),
    ("AND", r"/\\"),
    ("OR", r"\\/"),
    ("LE", r"<="),
    ("GE", r">="),
    ("NE", r"!="),
    ("EQ", r"="),
    ("LT", r"<"),
    ("GT", r">"),
    ("LBRACE", r"\{"),
    ("RBRACE", r"\}"),
    ("LBRACK", r"\["),
    ("RBRACK", r"\]"),
    ("LPAREN", r"\("),
    ("RPAREN", r"\)"),
    ("SEMI", r";"),
    ("COMMA", r","),
    ("COLON", r":"),
]

_MASTER_RE = re.compile("|".join(f"(?P<{name}>{rx})" for name, rx in _TOKEN_SPEC))

_COMPARISON_KINDS = {"EQ": "=", "NE": "!=", "LT": "<", "LE": "<=", "GT": ">", "GE": ">="}


@dataclass(frozen=True)
class _Token:
    kind: str
    text: str
    span: SourceSpan


def _lex(source: str) -> list[_Token]:
    tokens: list[_Token] = []
    pos = 0
    line = 1
    line_start = 0
    length = len(source)
    while pos < length:
        match = _MASTER_RE.match(source, pos)
        if match is None:
            span = SourceSpan(pos, pos + 1, line, pos - line_start + 1)
            raise ParseError(f"unexpected character {source[pos]!r}", span)
        kind = match.lastgroup
        text = match.group()
        if kind not in ("WS", "COMMENT"):
            span = SourceSpan(pos, match.end(), line, pos - line_start + 1)
            tokens.append(_Token(kind, text, span))
        newlines = text.count("\n")
        if newlines:
            line += newlines
            line_start = pos + text.rindex("\n") + 1
        pos = match.end()
    tokens.append(_Token("EOF", "", SourceSpan(length, length, line, length - line_start + 1)))
    return tokens


# Intermediate target shapes before normalization into Target/AnyOf/AllOf.
@dataclass(frozen=True)
class _TMatch:
    term: AttributeTerm
    span: SourceSpan


@dataclass(frozen=True)
class _TAnd:
    items: tuple
    span: SourceSpan


@dataclass(frozen=True)
class _TOr:
    items: tuple
    span: SourceSpan


@dataclass(frozen=True)
class _TGroup:
    # Parentheses matter to normalization: "(a /\ b)" is one all-of
    # group, while a bare "a /\ b" is two any-ofs.
    inner: object
    span: SourceSpan


class _Parser:
    def __init__(self, tokens: list[_Token]):
        self._tokens = tokens
        self._index = 0
        self._depth = 0

    @property
    def cur(self) -> _Token:
        return self._tokens[self._index]

    def _advance(self) -> _Token:
        token = self.cur
        if token.kind != "EOF":
            self._index += 1
        return token

    def _fail(self, message: str, span: SourceSpan | None = None) -> NoReturn:
        raise ParseError(message, span or self.cur.span)

    def _expect(self, kind: str, what: str | None = None) -> _Token:
        if self.cur.kind != kind:
            shown = self.cur.text or "end of input"
            self._fail(f"expected {what or kind}, found {shown!r}")
        return self._advance()

    def _expect_word(self, word: str) -> _Token:
        if self.cur.kind != "IDENT" or self.cur.text != word:
            shown = self.cur.text or "end of input"
            self._fail(f"expected '{word}', found {shown!r}")
        return self._advance()

    def _at_word(self, word: str) -> bool:
        return self.cur.kind == "IDENT" and self.cur.text == word

    def _number(self, token: _Token) -> int:
        try:
            return int(token.text)
        except ValueError:  # past the interpreter's int digit limit
            self._fail(f"number with {len(token.text)} digits is too long", token.span)

    def _nested(self, parse: Callable, token: _Token):
        """Run ``parse`` one nesting level deeper than the caller."""
        if self._depth == MAX_NESTING:
            self._fail(f"nesting deeper than {MAX_NESTING} levels", token.span)
        self._depth += 1
        try:
            return parse()
        finally:
            self._depth -= 1

    # -- policy documents -------------------------------------------------

    def policy_node(self) -> PolicyNode:
        if self._at_word("policyset"):
            return self._nested(self.policyset, self.cur)
        if self._at_word("policy"):
            return self.policy()
        self._fail("expected 'policyset' or 'policy'")

    def policyset(self) -> PolicySet:
        start = self._expect_word("policyset")
        name = self._expect("IDENT", "a policy set name")
        self._expect("LBRACE")
        target = self._target_field()
        combiner = self._combiner_field()
        self._expect_word("children")
        self._expect("COLON")
        self._expect("LBRACK")
        children: list[PolicyNode] = []
        spans: list[SourceSpan] = []
        while self.cur.kind != "RBRACK":
            spans.append(self.cur.span)
            children.append(self.policy_node())
            if self.cur.kind == "COMMA":
                self._advance()
            else:
                break
        self._expect("RBRACK")
        self._maybe_semi()
        self._expect("RBRACE")
        kinds = {type(c) for c in children}
        if len(kinds) > 1:
            first_odd = next(
                i for i, c in enumerate(children) if type(c) is not type(children[0])
            )
            self._fail(
                "a policy set may hold only policies or only policy sets",
                spans[first_odd],
            )
        return PolicySet(
            name=name.text,
            target=target,
            children=tuple(children),
            combiner=combiner,
            span=self._span_from(start),
        )

    def policy(self) -> Policy:
        start = self._expect_word("policy")
        name = self._expect("IDENT", "a policy name")
        self._expect("LBRACE")
        target = self._target_field()
        combiner = self._combiner_field()
        self._expect_word("rules")
        self._expect("COLON")
        self._expect("LBRACK")
        rules: list[Rule] = []
        while self.cur.kind != "RBRACK":
            rules.append(self.rule())
            if self.cur.kind == "COMMA":
                self._advance()
            else:
                break
        close = self._expect("RBRACK")
        if not rules:
            raise ArityError("a policy needs at least one rule", close.span)
        self._maybe_semi()
        self._expect("RBRACE")
        return Policy(
            name=name.text,
            target=target,
            rules=tuple(rules),
            combiner=combiner,
            span=self._span_from(start),
        )

    def rule(self) -> Rule:
        start = self._expect_word("rule")
        name = self._expect("IDENT", "a rule name")
        self._expect("LBRACE")
        self._expect_word("effect")
        self._expect("COLON")
        effect_token = self._expect("IDENT", "'permit' or 'deny'")
        if effect_token.text == "permit":
            effect = Effect.PERMIT
        elif effect_token.text == "deny":
            effect = Effect.DENY
        else:
            self._fail(
                f"expected 'permit' or 'deny', found {effect_token.text!r}",
                effect_token.span,
            )
        self._expect("SEMI")
        target = self._target_field()
        self._expect_word("condition")
        self._expect("COLON")
        condition_start = self.cur.span
        condition = self.condition()
        self._maybe_semi()
        self._expect("RBRACE")
        try:
            return Rule(
                name=name.text,
                effect=effect,
                target=target,
                condition=condition,
                span=self._span_from(start),
            )
        except UnboundVariableError as exc:
            raise ParseError(str(exc), condition_start) from None

    def _maybe_semi(self) -> None:
        if self.cur.kind == "SEMI":
            self._advance()

    def _span_from(self, start: _Token) -> SourceSpan:
        end = self._tokens[self._index - 1].span
        return SourceSpan(start.span.start, end.end, start.span.line, start.span.column)

    def _combiner_field(self) -> CombinerId:
        self._expect_word("combiner")
        self._expect("COLON")
        token = self.cur
        if token.kind == "COMBINER":
            self._advance()
            combiner = CombinerId.from_token(token.text)
            if combiner not in STANDARD_COMBINERS:
                self._fail(
                    f"{token.text} is only defined under the pair encoding; "
                    "a policy needs p-o, d-o, f-a or o-1-a",
                    token.span,
                )
        elif token.kind == "IDENT":
            raise UnknownCombinerError(
                f"unknown combining algorithm: {token.text!r}", token.span
            )
        else:
            self._fail("expected a combining algorithm id")
        self._expect("SEMI")
        return combiner

    # -- targets -----------------------------------------------------------

    def _target_field(self) -> Target:
        self._expect_word("target")
        self._expect("COLON")
        if self._at_word("null"):
            self._advance()
            self._expect("SEMI")
            return NULL_TARGET
        tree = self._texpr()
        self._expect("SEMI")
        return self._normalize_target(tree)

    def _texpr(self):
        start = self.cur.span
        items = [self._tconj()]
        while self.cur.kind == "OR":
            self._advance()
            items.append(self._tconj())
        if len(items) == 1:
            return items[0]
        return _TOr(tuple(items), start)

    def _tconj(self):
        start = self.cur.span
        items = [self._tatom()]
        while self.cur.kind == "AND":
            self._advance()
            items.append(self._tatom())
        if len(items) == 1:
            return items[0]
        return _TAnd(tuple(items), start)

    def _tatom(self):
        if self.cur.kind == "LPAREN":
            open_paren = self._advance()
            inner = self._nested(self._texpr, open_paren)
            self._expect("RPAREN")
            return _TGroup(inner, open_paren.span)
        token = self._expect("IDENT", "a category match")
        if token.text not in CATEGORIES:
            self._fail(
                f"matches use one of {', '.join(CATEGORIES)}; found {token.text!r}",
                token.span,
            )
        self._expect("LPAREN")
        value = self._constant("a match value")
        self._expect("RPAREN")
        term = AttributeTerm(token.text, (value,), span=token.span)
        return _TMatch(term, token.span)

    def _constant(self, what: str):
        token = self.cur
        if token.kind == "NUMBER":
            self._advance()
            return self._number(token)
        if token.kind == "IDENT":
            if token.text[0].isupper():
                self._fail(f"variables are not allowed here, found {token.text!r}")
            self._advance()
            return token.text
        self._fail(f"expected {what}, found {token.text or 'end of input'!r}")

    @staticmethod
    def _ungroup(node):
        while isinstance(node, _TGroup):
            node = node.inner
        return node

    def _all_of_from(self, disjunct) -> AllOf:
        if isinstance(disjunct, _TMatch):
            return AllOf((disjunct.term,), span=disjunct.span)
        matches = []
        queue = list(disjunct.items)
        while queue:
            item = self._ungroup(queue.pop(0))
            if isinstance(item, _TMatch):
                matches.append(item.term)
            elif isinstance(item, _TAnd):
                queue[0:0] = item.items
            else:
                self._fail(
                    "target nesting is deeper than target / any-of / all-of allows",
                    item.span,
                )
        return AllOf(tuple(matches), span=disjunct.span)

    def _any_of_from(self, conjunct) -> AnyOf:
        node = self._ungroup(conjunct)
        pending = list(node.items) if isinstance(node, _TOr) else [node]
        all_ofs = []
        while pending:
            disjunct = self._ungroup(pending.pop(0))
            if isinstance(disjunct, _TOr):
                pending[0:0] = disjunct.items
            else:
                all_ofs.append(self._all_of_from(disjunct))
        return AnyOf(tuple(all_ofs), span=conjunct.span)

    def _normalize_target(self, tree) -> Target:
        # Conjunction of disjunctions of conjunctions of matches; any
        # deeper alternation cannot be expressed as a target. An
        # unparenthesized top-level conjunction splits into any-ofs, a
        # parenthesized one stays a single all-of group.
        conjuncts = list(tree.items) if isinstance(tree, _TAnd) else [tree]
        return Target(tuple(self._any_of_from(c) for c in conjuncts))

    # -- conditions ----------------------------------------------------------

    def condition(self) -> ConditionExpr:
        return self._cor()

    def _cor(self) -> ConditionExpr:
        start = self.cur.span
        items = [self._cand()]
        while self.cur.kind == "OR":
            self._advance()
            items.append(self._cand())
        if len(items) == 1:
            return items[0]
        return Or(tuple(items), span=start)

    def _cand(self) -> ConditionExpr:
        start = self.cur.span
        items = [self._cnot()]
        while self.cur.kind == "AND":
            self._advance()
            items.append(self._cnot())
        if len(items) == 1:
            return items[0]
        return And(tuple(items), span=start)

    def _cnot(self) -> ConditionExpr:
        if self._at_word("not"):
            token = self._advance()
            return Not(self._nested(self._cnot, token), span=token.span)
        return self._cprimary()

    def _cprimary(self) -> ConditionExpr:
        token = self.cur
        if token.kind == "LPAREN":
            self._advance()
            inner = self._nested(self._cor, token)
            self._expect("RPAREN")
            return inner
        if self._at_word("true"):
            self._advance()
            return BoolLiteral(True, span=token.span)
        if self._at_word("false"):
            self._advance()
            return BoolLiteral(False, span=token.span)
        head = self._head()
        if self.cur.kind in _COMPARISON_KINDS:
            op_token = self._advance()
            right = self._to_operand(self._head())
            return Compare(
                self._to_operand(head),
                _COMPARISON_KINDS[op_token.kind],
                right,
                span=token.span,
            )
        # Without a comparison the only readable form is a fact atom.
        name, args = self._to_application(head)
        return Atom(name, args, span=token.span)

    def _head(self):
        """Parse one term or one application ``f(t, ...)``.

        Returns ``(token, value, args)`` where ``args`` is None for a
        plain term; whether an application is an atom or a function
        value depends on what follows, so the caller decides.
        """
        token = self.cur
        if token.kind == "NUMBER":
            self._advance()
            return token, self._number(token), None
        if token.kind != "IDENT":
            self._fail(f"expected a term, found {token.text or 'end of input'!r}")
        self._advance()
        if token.text[0].isupper():
            return token, Variable(token.text), None
        if token.text in RESERVED_CONDITION_WORDS:
            self._fail(f"{token.text!r} cannot be used as a term", token.span)
        if self.cur.kind != "LPAREN":
            return token, token.text, None
        self._advance()
        args: list[Term] = [self._term()]
        while self.cur.kind == "COMMA":
            self._advance()
            args.append(self._term())
        self._expect("RPAREN")
        return token, token.text, tuple(args)

    def _to_operand(self, head) -> Operand:
        token, value, args = head
        if args is None:
            return value
        if len(args) != 1:
            raise ArityError("a function value takes exactly one argument", token.span)
        return FunctionValue(value, args[0])

    def _to_application(self, head):
        token, value, args = head
        if args is None:
            self._fail(
                "a bare term is not a condition; expected an atom or comparison",
                token.span,
            )
        return value, args

    def _term(self) -> Term:
        token = self.cur
        if token.kind == "NUMBER":
            self._advance()
            return self._number(token)
        if token.kind == "IDENT":
            self._advance()
            if token.text[0].isupper():
                return Variable(token.text)
            if token.text in RESERVED_CONDITION_WORDS:
                self._fail(f"{token.text!r} cannot be used as a term", token.span)
            return token.text
        self._fail(f"expected a term, found {token.text or 'end of input'!r}")

    # -- requests ------------------------------------------------------------

    def request(self) -> Request:
        open_brace = self._expect("LBRACE")
        facts: set[AttributeTerm] = set()
        errors: set[AttributeTerm] = set()
        spans: dict[AttributeTerm, SourceSpan] = {}
        while self.cur.kind != "RBRACE":
            is_error = False
            token = self.cur
            if self._at_word("error"):
                nxt = self._tokens[self._index + 1]
                if nxt.kind == "COLON":
                    self._advance()
                    self._advance()
                    is_error = True
            term = self._request_term()
            spans.setdefault(term, term.span or token.span)
            (errors if is_error else facts).add(term)
            if self.cur.kind == "COMMA":
                self._advance()
            else:
                break
        self._expect("RBRACE")
        self._expect("EOF", "end of input")
        if not facts:
            raise EmptyRequestError(
                "a request needs at least one attribute fact", open_brace.span
            )
        overlap = facts & errors
        if overlap:
            term = sorted(overlap, key=str)[0]
            raise ParseError(
                f"attribute {term} listed both as a fact and as an error",
                spans[term],
            )
        return Request(facts=frozenset(facts), error_attributes=frozenset(errors))

    def _request_term(self) -> AttributeTerm:
        name = self._expect("IDENT", "an attribute name")
        self._expect("LPAREN")
        args = [self._constant("an attribute argument")]
        while self.cur.kind == "COMMA":
            self._advance()
            args.append(self._constant("an attribute argument"))
        self._expect("RPAREN")
        if name.text in CATEGORIES and len(args) != 1:
            raise ArityError(
                f"category attribute {name.text!r} takes exactly one argument",
                name.span,
            )
        return AttributeTerm(name.text, tuple(args), span=name.span)


def parse_policy(text: str) -> PolicyNode:
    """Parse one policy or policy set document."""
    parser = _Parser(_lex(text))
    node = parser.policy_node()
    parser._expect("EOF", "end of input")
    return node


def parse_request(text: str) -> Request:
    """Parse one brace-wrapped request."""
    return _Parser(_lex(text)).request()


# -- serialization -------------------------------------------------------


def _ident_text(value, where: str) -> str:
    if isinstance(value, int):
        return str(value)
    if not isinstance(value, str) or not re.match(r"[a-z_][A-Za-z0-9_]*\Z", value):
        raise InvalidInputError(f"{value!r} is not writable as {where}")
    if where == "a term" and value in RESERVED_CONDITION_WORDS:
        raise InvalidInputError(f"{value!r} collides with a keyword")
    return value


def _term_text(term: Term) -> str:
    if isinstance(term, Variable):
        return term.name
    return _ident_text(term, "a term")


def _operand_text(op: Operand) -> str:
    if isinstance(op, FunctionValue):
        return f"{_ident_text(op.name, 'a term')}({_term_text(op.arg)})"
    return _term_text(op)


_COND_LEVEL_OR = 1
_COND_LEVEL_AND = 2
_COND_LEVEL_NOT = 3
_COND_LEVEL_ATOM = 4


def _cond_level(expr: ConditionExpr) -> int:
    if isinstance(expr, Or):
        return _COND_LEVEL_OR
    if isinstance(expr, And):
        return _COND_LEVEL_AND
    if isinstance(expr, Not):
        return _COND_LEVEL_NOT
    return _COND_LEVEL_ATOM


def _cond_text(expr: ConditionExpr, parent_level: int = 0) -> str:
    if isinstance(expr, BoolLiteral):
        text = "true" if expr.value else "false"
    elif isinstance(expr, Atom):
        args = ",".join(_term_text(t) for t in expr.terms)
        text = f"{_ident_text(expr.name, 'a term')}({args})"
    elif isinstance(expr, Compare):
        text = f"{_operand_text(expr.left)} {expr.op} {_operand_text(expr.right)}"
    elif isinstance(expr, Not):
        # "not not a" parses as nested negation; parentheses would add a
        # nesting level per "not" and could push the text past MAX_NESTING.
        text = f"not {_cond_text(expr.expr, _COND_LEVEL_AND)}"
    elif isinstance(expr, And):
        text = " /\\ ".join(_cond_text(c, _COND_LEVEL_AND) for c in expr.children)
    elif isinstance(expr, Or):
        text = " \\/ ".join(_cond_text(c, _COND_LEVEL_OR) for c in expr.children)
    else:
        raise InvalidInputError(f"not a condition expression: {expr!r}")
    if _cond_level(expr) <= parent_level:
        return f"({text})"
    return text


def _match_text(match: AttributeTerm) -> str:
    return f"{match.name}({_ident_text(match.args[0], 'a match value')})"


def _target_text(target: Target) -> str:
    if target.any_ofs is None:
        return "null"
    parts = []
    for any_of in target.any_ofs:
        # A lone any-of of several all-ofs reads the same without
        # parentheses, and an unneeded group would add a nesting level
        # that could push the text past MAX_NESTING.
        bare = len(any_of.all_ofs) > 1 and len(target.any_ofs) == 1
        single = len(any_of.all_ofs) == 1 and len(any_of.all_ofs[0].matches) == 1
        body = " \\/ ".join(
            " /\\ ".join(_match_text(m) for m in all_of.matches)
            for all_of in any_of.all_ofs
        )
        parts.append(body if single or bare else f"({body})")
    return " /\\ ".join(parts)


def _node_lines(node: PolicyNode, depth: int) -> list[str]:
    pad = "  " * depth
    inner = "  " * (depth + 1)
    if isinstance(node, Policy):
        lines = [f"{pad}policy {node.name} {{"]
        lines.append(f"{inner}target: {_target_text(node.target)};")
        lines.append(f"{inner}combiner: {node.combiner.token};")
        lines.append(f"{inner}rules: [")
        for i, rule in enumerate(node.rules):
            lines.extend(_rule_lines(rule, depth + 2))
            if i + 1 < len(node.rules):
                lines[-1] += ","
        lines.append(f"{inner}];")
        lines.append(f"{pad}}}")
        return lines
    lines = [f"{pad}policyset {node.name} {{"]
    lines.append(f"{inner}target: {_target_text(node.target)};")
    lines.append(f"{inner}combiner: {node.combiner.token};")
    if node.children:
        lines.append(f"{inner}children: [")
        for i, child in enumerate(node.children):
            lines.extend(_node_lines(child, depth + 2))
            if i + 1 < len(node.children):
                lines[-1] += ","
        lines.append(f"{inner}];")
    else:
        lines.append(f"{inner}children: [];")
    lines.append(f"{pad}}}")
    return lines


def _rule_lines(rule: Rule, depth: int) -> list[str]:
    pad = "  " * depth
    inner = "  " * (depth + 1)
    return [
        f"{pad}rule {rule.name} {{",
        f"{inner}effect: {rule.effect.token};",
        f"{inner}target: {_target_text(rule.target)};",
        f"{inner}condition: {_cond_text(rule.condition)};",
        f"{pad}}}",
    ]


def serialize_policy(node: PolicyNode) -> str:
    """Emit the canonical text form; parsing it back reproduces the tree."""
    return "\n".join(_node_lines(node, 0)) + "\n"


# -- lattice export --------------------------------------------------------


@dataclass(frozen=True)
class _LatticeView:
    elements: tuple
    leq: Callable
    label: Callable


def _lattice_views() -> dict[str, _LatticeView]:
    views: dict[str, _LatticeView] = {
        "l3": _LatticeView(
            tuple(Decision3),
            operator.le,
            lambda v: v.token,
        ),
        "pair6": _LatticeView(PAIR6_VALUES, leq_pair, str),
        "pair9": _LatticeView(PAIR9_VALUES, leq_pair, str),
        "belnap-k": _LatticeView(
            tuple(altlogics.BelnapValue),
            altlogics.KNOWLEDGE_LATTICE.leq,
            lambda v: v.token,
        ),
        "belnap-t": _LatticeView(
            tuple(altlogics.BelnapValue),
            altlogics.TRUTH_LATTICE.leq,
            lambda v: v.token,
        ),
    }
    for name, lattice in V6_LATTICES.items():
        views[name] = _LatticeView(
            tuple(Decision6), lattice.leq, lambda v: v.canonical
        )
    return views


def _cover_edges(elements: tuple, leq: Callable) -> list[tuple]:
    covers = []
    for a in elements:
        for b in elements:
            if a == b or not leq(a, b):
                continue
            strictly_between = any(
                c != a and c != b and leq(a, c) and leq(c, b) for c in elements
            )
            if not strictly_between:
                covers.append((a, b))
    return covers


def emit_lattice_dot(name: str) -> str:
    """Render the named finite order as a DOT digraph of its cover edges."""
    view = _lattice_views().get(name)
    if view is None:
        raise UnknownLatticeError(f"unknown lattice: {name!r}")
    index = {e: i for i, e in enumerate(view.elements)}
    covers = sorted(_cover_edges(view.elements, view.leq), key=lambda e: (index[e[0]], index[e[1]]))
    lines = [f'digraph "{name}" {{', "  rankdir=BT;"]
    for element in view.elements:
        lines.append(f'  "{view.label(element)}";')
    for a, b in covers:
        lines.append(f'  "{view.label(a)}" -> "{view.label(b)}";')
    lines.append("}")
    return "\n".join(lines) + "\n"


LATTICE_NAMES = ("l3", "po", "do", "o1a", "pair6", "pair9", "belnap-k", "belnap-t")
