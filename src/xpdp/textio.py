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

Source positions live only in parse errors. Tokens are plain
``(kind, text, start)`` tuples, the syntax tree carries no positions,
and a ``SourceSpan`` (line and column counted on ``"\\n"``) is built
only for the error a parser raises.

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
from .requests import CATEGORIES, AttributeTerm, Constant, Request
from .values import Value

# Deepest nesting of policy sets, parenthesised groups and ``not`` a
# document may use; the parser, evaluator and serializer all recurse on it.
MAX_NESTING = 100

# Words with a fixed meaning in condition position; they cannot double
# as predicate or constant identifiers there.
RESERVED_CONDITION_WORDS = frozenset(["true", "false", "not"])

# Fixed-text tokens, each listed before any token it is a prefix of.
_SYMBOLS = {
    "AND": "/\\",
    "OR": "\\/",
    "LE": "<=",
    "GE": ">=",
    "NE": "!=",
    "EQ": "=",
    "LT": "<",
    "GT": ">",
    "LBRACE": "{",
    "RBRACE": "}",
    "LBRACK": "[",
    "RBRACK": "]",
    "LPAREN": "(",
    "RPAREN": ")",
    "SEMI": ";",
    "COMMA": ",",
    "COLON": ":",
}

_TOKEN_SPEC = [
    ("WS", r"[ \t\r\n]+"),
    ("COMMENT", r"#[^\n]*"),
    ("COMBINER", r"(?:all-permit|o-1-a|p-o|d-o|f-a)(?![A-Za-z0-9_-])"),
    ("NUMBER", r"[0-9]+"),
    ("IDENT", r"[A-Za-z_][A-Za-z0-9_]*"),
    *((kind, re.escape(text)) for kind, text in _SYMBOLS.items()),
    ("UNEXPECTED", r"(?s:.)"),
]

_MASTER_RE = re.compile("|".join(f"(?P<{name}>{rx})" for name, rx in _TOKEN_SPEC))

_COMPARISON_KINDS = {kind: _SYMBOLS[kind] for kind in ("EQ", "NE", "LT", "LE", "GT", "GE")}


def _lex(source: str) -> list[tuple[str, str, int]]:
    """The tokens of ``source`` as ``(kind, text, start)`` tuples,
    ending with an empty ``EOF`` token at ``len(source)``."""
    tokens = []
    for match in _MASTER_RE.finditer(source):
        kind = match.lastgroup
        if kind == "WS" or kind == "COMMENT":
            continue
        if kind == "UNEXPECTED":
            raise ParseError(
                f"unexpected character {match.group()!r}", _span_at(source, match.start())
            )
        tokens.append((kind, match.group(), match.start()))
    tokens.append(("EOF", "", len(source)))
    return tokens


def _span_at(source: str, start: int) -> SourceSpan:
    """The span of the token that starts at ``start`` (empty at the end
    of input); line and column count lines on ``"\\n"`` only."""
    match = _MASTER_RE.match(source, start)
    end = match.end() if match else start
    line_start = source.rfind("\n", 0, start) + 1
    return SourceSpan(start, end, source.count("\n", 0, start) + 1, start - line_start + 1)


# Intermediate target shapes before normalization into Target/AnyOf/AllOf;
# a single match is its AttributeTerm.
class _TAnd(Value):
    items: tuple


class _TOr(Value):
    items: tuple
    # Where a too-deep alternation is reported.
    start: int


class _TGroup(Value):
    # Parentheses matter to normalization: "(a /\ b)" is one all-of
    # group, while a bare "a /\ b" is two any-ofs.
    inner: object


class _Parser:
    """Recursive descent over ``_lex`` tokens. Positions stay plain
    offsets; a ``SourceSpan`` is built only for the error raised."""

    def __init__(self, source: str):
        self._source = source
        self._tokens = _lex(source)
        self._index = 0
        self._depth = 0
        # Equal target matches share one term, so the dict lookups that
        # build member gates find them by identity.
        self._matches: dict[tuple[str, Constant], AttributeTerm] = {}

    @property
    def cur(self) -> tuple[str, str, int]:
        return self._tokens[self._index]

    @property
    def kind(self) -> str:
        return self._tokens[self._index][0]

    def _advance(self) -> tuple[str, str, int]:
        token = self.cur
        if token[0] != "EOF":
            self._index += 1
        return token

    def _span(self, start: int) -> SourceSpan:
        return _span_at(self._source, start)

    def _fail(self, message: str, start: int | None = None) -> NoReturn:
        raise ParseError(message, self._span(self.cur[2] if start is None else start))

    def _found(self) -> str:
        return repr(self.cur[1] or "end of input")

    def _expect(self, kind: str, what: str | None = None) -> tuple[str, str, int]:
        if self.kind != kind:
            self._fail(f"expected {what or repr(_SYMBOLS[kind])}, found {self._found()}")
        return self._advance()

    def _expect_word(self, word: str) -> tuple[str, str, int]:
        if not self._at_word(word):
            self._fail(f"expected '{word}', found {self._found()}")
        return self._advance()

    def _at_word(self, word: str) -> bool:
        kind, text, _ = self.cur
        return kind == "IDENT" and text == word

    def _number(self, token: tuple[str, str, int]) -> int:
        _, text, start = token
        try:
            return int(text)
        except ValueError:  # past the interpreter's int digit limit
            self._fail(f"number with {len(text)} digits is too long", start)

    def _nested(self, parse: Callable, start: int):
        """Run ``parse`` one nesting level deeper than the caller; ``start``
        is the offset of the token that opens the level."""
        if self._depth == MAX_NESTING:
            self._fail(f"nesting deeper than {MAX_NESTING} levels", start)
        self._depth += 1
        try:
            return parse()
        finally:
            self._depth -= 1

    # -- policy documents -------------------------------------------------

    def policy_node(self) -> PolicyNode:
        if self._at_word("policyset"):
            return self._nested(self.policyset, self.cur[2])
        if self._at_word("policy"):
            return self.policy()
        self._fail("expected 'policyset' or 'policy'")

    def policyset(self) -> PolicySet:
        self._expect_word("policyset")
        name = self._expect("IDENT", "a policy set name")
        self._expect("LBRACE")
        target = self._target_field()
        combiner = self._combiner_field()
        self._expect_word("children")
        self._expect("COLON")
        self._expect("LBRACK")
        children: list[PolicyNode] = []
        starts: list[int] = []
        while self.kind != "RBRACK":
            starts.append(self.cur[2])
            children.append(self.policy_node())
            if self.kind == "COMMA":
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
                starts[first_odd],
            )
        return PolicySet(
            name=name[1], target=target, children=tuple(children), combiner=combiner
        )

    def policy(self) -> Policy:
        self._expect_word("policy")
        name = self._expect("IDENT", "a policy name")
        self._expect("LBRACE")
        target = self._target_field()
        combiner = self._combiner_field()
        self._expect_word("rules")
        self._expect("COLON")
        self._expect("LBRACK")
        rules: list[Rule] = []
        while self.kind != "RBRACK":
            rules.append(self.rule())
            if self.kind == "COMMA":
                self._advance()
            else:
                break
        close = self._expect("RBRACK")
        if not rules:
            raise ArityError("a policy needs at least one rule", self._span(close[2]))
        self._maybe_semi()
        self._expect("RBRACE")
        return Policy(name=name[1], target=target, rules=tuple(rules), combiner=combiner)

    def rule(self) -> Rule:
        self._expect_word("rule")
        name = self._expect("IDENT", "a rule name")
        self._expect("LBRACE")
        self._expect_word("effect")
        self._expect("COLON")
        _, effect_text, effect_start = self._expect("IDENT", "'permit' or 'deny'")
        if effect_text == "permit":
            effect = Effect.PERMIT
        elif effect_text == "deny":
            effect = Effect.DENY
        else:
            self._fail(f"expected 'permit' or 'deny', found {effect_text!r}", effect_start)
        self._expect("SEMI")
        target = self._target_field()
        self._expect_word("condition")
        self._expect("COLON")
        condition_start = self.cur[2]
        condition = self.condition()
        self._maybe_semi()
        self._expect("RBRACE")
        try:
            return Rule(name=name[1], effect=effect, target=target, condition=condition)
        except UnboundVariableError as exc:
            raise ParseError(str(exc), self._span(condition_start)) from None

    def _maybe_semi(self) -> None:
        if self.kind == "SEMI":
            self._advance()

    def _combiner_field(self) -> CombinerId:
        self._expect_word("combiner")
        self._expect("COLON")
        kind, text, start = self.cur
        if kind == "COMBINER":
            self._advance()
            combiner = CombinerId.from_token(text)
            if combiner not in STANDARD_COMBINERS:
                self._fail(
                    f"{text} is only defined under the pair encoding; "
                    "a policy needs p-o, d-o, f-a or o-1-a",
                    start,
                )
        elif kind == "IDENT":
            raise UnknownCombinerError(
                f"unknown combining algorithm: {text!r}", self._span(start)
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
        start = self.cur[2]
        items = [self._tconj()]
        while self.kind == "OR":
            self._advance()
            items.append(self._tconj())
        if len(items) == 1:
            return items[0]
        return _TOr(tuple(items), start)

    def _tconj(self):
        items = [self._tatom()]
        while self.kind == "AND":
            self._advance()
            items.append(self._tatom())
        if len(items) == 1:
            return items[0]
        return _TAnd(tuple(items))

    def _tatom(self):
        if self.kind == "LPAREN":
            start = self._advance()[2]
            inner = self._nested(self._texpr, start)
            self._expect("RPAREN")
            return _TGroup(inner)
        _, category, start = self._expect("IDENT", "a category match")
        if category not in CATEGORIES:
            self._fail(
                f"matches use one of {', '.join(CATEGORIES)}; found {category!r}", start
            )
        self._expect("LPAREN")
        value = self._constant("a match value")
        self._expect("RPAREN")
        term = self._matches.get((category, value))
        if term is None:
            term = self._matches[category, value] = AttributeTerm(category, (value,))
        return term

    def _constant(self, what: str):
        token = self.cur
        kind, text, _ = token
        if kind == "NUMBER":
            self._advance()
            return self._number(token)
        if kind == "IDENT":
            if text[0].isupper():
                self._fail(f"variables are not allowed here, found {text!r}")
            self._advance()
            return text
        self._fail(f"expected {what}, found {self._found()}")

    @staticmethod
    def _ungroup(node):
        while isinstance(node, _TGroup):
            node = node.inner
        return node

    def _all_of_from(self, disjunct) -> AllOf:
        if isinstance(disjunct, AttributeTerm):
            return AllOf((disjunct,))
        matches = []
        queue = list(disjunct.items)
        while queue:
            item = self._ungroup(queue.pop(0))
            if isinstance(item, AttributeTerm):
                matches.append(item)
            elif isinstance(item, _TAnd):
                queue[0:0] = item.items
            else:
                self._fail(
                    "target nesting is deeper than target / any-of / all-of allows",
                    item.start,
                )
        return AllOf(tuple(matches))

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
        return AnyOf(tuple(all_ofs))

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
        items = [self._cand()]
        while self.kind == "OR":
            self._advance()
            items.append(self._cand())
        if len(items) == 1:
            return items[0]
        return Or(tuple(items))

    def _cand(self) -> ConditionExpr:
        items = [self._cnot()]
        while self.kind == "AND":
            self._advance()
            items.append(self._cnot())
        if len(items) == 1:
            return items[0]
        return And(tuple(items))

    def _cnot(self) -> ConditionExpr:
        if self._at_word("not"):
            start = self._advance()[2]
            return Not(self._nested(self._cnot, start))
        return self._cprimary()

    def _cprimary(self) -> ConditionExpr:
        if self.kind == "LPAREN":
            start = self._advance()[2]
            inner = self._nested(self._cor, start)
            self._expect("RPAREN")
            return inner
        if self._at_word("true"):
            self._advance()
            return BoolLiteral(True)
        if self._at_word("false"):
            self._advance()
            return BoolLiteral(False)
        head = self._head()
        if self.kind in _COMPARISON_KINDS:
            op = _COMPARISON_KINDS[self._advance()[0]]
            right = self._to_operand(self._head())
            return Compare(self._to_operand(head), op, right)
        # Without a comparison the only readable form is a fact atom.
        name, args = self._to_application(head)
        return Atom(name, args)

    def _head(self):
        """Parse one term or one application ``f(t, ...)``.

        Returns ``(start, value, args)`` where ``args`` is None for a
        plain term; whether an application is an atom or a function
        value depends on what follows, so the caller decides.
        """
        start = self.cur[2]
        value = self._term()
        # Only a constant name can be applied; numbers and variables cannot.
        if not isinstance(value, str) or self.kind != "LPAREN":
            return start, value, None
        self._advance()
        args: list[Term] = [self._term()]
        while self.kind == "COMMA":
            self._advance()
            args.append(self._term())
        self._expect("RPAREN")
        return start, value, tuple(args)

    def _to_operand(self, head) -> Operand:
        start, value, args = head
        if args is None:
            return value
        if len(args) != 1:
            raise ArityError("a function value takes exactly one argument", self._span(start))
        return FunctionValue(value, args[0])

    def _to_application(self, head):
        start, value, args = head
        if args is None:
            self._fail("a bare term is not a condition; expected an atom or comparison", start)
        return value, args

    def _term(self) -> Term:
        token = self.cur
        kind, text, start = token
        if kind == "NUMBER":
            self._advance()
            return self._number(token)
        if kind == "IDENT":
            self._advance()
            if text[0].isupper():
                return Variable(text)
            if text in RESERVED_CONDITION_WORDS:
                self._fail(f"{text!r} cannot be used as a term", start)
            return text
        self._fail(f"expected a term, found {self._found()}")

    # -- requests ------------------------------------------------------------

    def request(self) -> Request:
        open_brace = self._expect("LBRACE")
        facts: set[AttributeTerm] = set()
        errors: set[AttributeTerm] = set()
        # Each term's first occurrence, for the overlap diagnostic.
        starts: dict[AttributeTerm, int] = {}
        while self.kind != "RBRACE":
            is_error = False
            if self._at_word("error") and self._tokens[self._index + 1][0] == "COLON":
                self._advance()
                self._advance()
                is_error = True
            start = self.cur[2]
            term = self._request_term()
            starts.setdefault(term, start)
            (errors if is_error else facts).add(term)
            if self.kind == "COMMA":
                self._advance()
            else:
                break
        self._expect("RBRACE")
        self._expect("EOF", "end of input")
        if not facts:
            raise EmptyRequestError(
                "a request needs at least one attribute fact", self._span(open_brace[2])
            )
        overlap = facts & errors
        if overlap:
            term = sorted(overlap, key=str)[0]
            raise ParseError(
                f"attribute {term} listed both as a fact and as an error",
                self._span(starts[term]),
            )
        return Request(facts=frozenset(facts), error_attributes=frozenset(errors))

    def _request_term(self) -> AttributeTerm:
        _, name, start = self._expect("IDENT", "an attribute name")
        self._expect("LPAREN")
        args = [self._constant("an attribute argument")]
        while self.kind == "COMMA":
            self._advance()
            args.append(self._constant("an attribute argument"))
        self._expect("RPAREN")
        if name in CATEGORIES and len(args) != 1:
            raise ArityError(
                f"category attribute {name!r} takes exactly one argument", self._span(start)
            )
        return AttributeTerm(name, tuple(args))


def parse_policy(text: str) -> PolicyNode:
    """Parse one policy or policy set document."""
    parser = _Parser(text)
    node = parser.policy_node()
    parser._expect("EOF", "end of input")
    return node


def parse_request(text: str) -> Request:
    """Parse one brace-wrapped request."""
    return _Parser(text).request()


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


class _LatticeView(Value):
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
