"""Text formats: the policy and request DSL, and lattice export.

The policy grammar, sketched:

    policyset NAME { target: TEXPR|null; combiner: ID; children: [ NODE, ... ]; }
    policy NAME { target: TEXPR|null; combiner: ID; rules: [ RULE, ... ]; }
    rule NAME { effect: permit|deny; target: TEXPR|null; condition: CEXPR; }

A policy and a policy set share one shape, a target and a combiner over
members, so one production reads both kinds and one writer prints
them; the kind word picks the members field and what a member is.

Target expressions combine category matches like ``subject(doctor)``
with ``/\\`` and ``\\/`` (conjunction binds tighter) and normalize into
the fixed three-level target shape; nesting the grammar cannot express
is rejected. Conditions add ``not``, comparisons and fact atoms;
identifiers starting with an uppercase letter are variables. ``#``
starts a line comment. Only the four standard combining algorithms are
accepted in a policy document; ``all-permit`` is rejected at its token.
Nesting (policy sets, parenthesised target and condition groups, and
``not``) is bounded by ``MAX_NESTING``; deeper input is a parse error.

Source positions live only in parse errors. The lexer reads the token
texts with one ``findall`` per slice of whole lines, so only one
slice's copies exist at once, and keeps one string per distinct text;
it looks for an unexpected character among the distinct texts only and
gives no token a kind. A source without ``"\\n"`` line ends (none, or
``"\\r"`` only) is one slice. The parser tells a kind from the text
at the few places it reads one, and a parser position is a token
index. Neither the tokens nor the syntax tree carry offsets: only a
parser raising an error scans the source again to the offending token
and builds its ``SourceSpan`` (line and column counted on ``"\\n"``).

In one document, equal target matches, equal variables and conditions
with equal tokens each parse to one object. A rule whose condition
tokens (up to its closing brace) and nesting depth an earlier rule had
gets that rule's condition and plan, with no parsing or planning; the
table lives for one ``parse_policy`` call.

Requests are brace-wrapped fact lists; a term prefixed ``error:`` lands
in the request's error-attribute set instead of its facts:

    { subject(doctor), action(read), error:resource(db) }

``serialize_policy`` emits a canonical form that parses back to a
structurally identical tree, or refuses with ``InvalidInputError`` a
value the grammar cannot read (a negative or overlong int, a bool, a
name that is not an ASCII identifier). ``emit_lattice_dot`` renders any
of the package's finite orders as a DOT Hasse diagram (cover edges only).
"""

from __future__ import annotations

import itertools
import operator
import re
from typing import Callable, NoReturn

from . import altlogics
from .combiners import CombinerId, fold_table
from .conditions import (
    COMPARISON_OPERATORS,
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
    EncodingUnsupportedError,
    InvalidInputError,
    ParseError,
    SourceSpan,
    UnboundVariableError,
    UnknownCombinerError,
    UnknownLatticeError,
)
from .policy import AllOf, AnyOf, NULL_TARGET, Policy, PolicyNode, PolicySet, Rule, Target
from .requests import CATEGORIES, AttributeTerm, Constant, Request

# Deepest nesting of policy sets, parenthesised groups and ``not`` a
# document may use; the parser, evaluator and serializer all recurse on it.
MAX_NESTING = 100

_LITERALS = {"true": BoolLiteral(True), "false": BoolLiteral(False)}
_EFFECTS = {effect.token: effect for effect in Effect}

# Words with a fixed meaning in condition position; they cannot double
# as predicate or constant identifiers there.
RESERVED_CONDITION_WORDS = frozenset([*_LITERALS, "not"])

# The fixed-text tokens are the punctuation, the two connectives, the
# comparison operators and the combiner tokens; the last two are read
# from the modules that define them.
_PUNCTUATION = "{}[]();,:"
_CONNECTIVES = ("/\\", "\\/")
_COMBINER_TOKENS = tuple(combiner.token for combiner in CombinerId)

# One match per token: whitespace and comments skipped, then the token
# as group 1. The group matches wherever the skipping stops (at worst
# one unexpected character, or the empty end of input), so the skipped
# prefix is never backtracked into and a scan is linear in the input.
# Comments are one then any more, or none: a branch starting with "#"
# is passed over at once. Commonest tokens first; the first identifier
# refuses a shorter or "-"-followed match, which may be a combiner, and
# a two-character comparison comes before the one-character ones. No
# possessive quantifiers: Python accepts them from 3.11 only.
_TOKEN_RE = re.compile(
    r"[ \t\r\n]*(?:#[^\n]*[ \t\r\n]*(?:#[^\n]*[ \t\r\n]*)*|)([A-Za-z_][A-Za-z0-9_]*(?![A-Za-z0-9_-])|["
    + re.escape(_PUNCTUATION) + "]|" + "|".join(map(re.escape, _CONNECTIVES))
    + "|(?:" + "|".join(_COMBINER_TOKENS) + r")(?![A-Za-z0-9_-])|[0-9]+|[A-Za-z_][A-Za-z0-9_]*|"
    + "|".join(t for t in COMPARISON_OPERATORS if len(t) > 1)
    + "|[" + "".join(t for t in COMPARISON_OPERATORS if len(t) == 1) + r"]|(?s:.)|\Z)"
)

# Every token but a fixed one (the end of input is the empty text)
# starts with one of these, unless it is one unexpected character.
_FIXED_TEXTS = frozenset([*_PUNCTUATION, *_CONNECTIVES, *COMPARISON_OPERATORS, *_COMBINER_TOKENS, ""])
_WORD_START = frozenset("0123456789ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz_")

# The fewest characters the lexer reads with one ``findall``; a slice
# runs on to the end of its last line.
_LEX_SLICE = 16_384


def _tokenize(source: str) -> list[str]:
    """The texts of the tokens of ``source``, ending with one empty
    token for the end of input; an unexpected character is a parse
    error. Equal texts are one string, and only the distinct texts are
    checked. Each ``findall`` reads a slice that ends just after the
    first ``"\\n"`` at least ``_LEX_SLICE`` characters in: no token or
    comment runs past a ``"\\n"``, so the cut falls between tokens. A
    source without ``"\\n"`` (none, or ``"\\r"``-only line ends) is one
    slice."""
    shared: dict[str, str] = {}
    keep = shared.setdefault
    texts: list[str] = []
    start, size = 0, len(source)
    while True:
        end = source.find("\n", start + _LEX_SLICE - 1) + 1 or size
        found = _TOKEN_RE.findall(source, start, end)
        if end < size:
            # The slice ends in blanks, so its end matches the empty
            # text twice: after the blanks, then once more at the end.
            del found[-2:]
        texts += map(keep, found, found)
        if end == size:
            break
        start = end
    # The empty end of input matches once more after trailing blanks.
    if len(texts) > 1 and not texts[-2]:
        texts.pop()
    unexpected = {t for t in shared.keys() - _FIXED_TEXTS if t[0] not in _WORD_START}
    if unexpected:
        i = next(i for i, t in enumerate(texts) if t in unexpected)
        raise ParseError(f"unexpected character {texts[i]!r}", _span_at(source, texts, i))
    return texts


def _span_at(source: str, texts: list[str], i: int) -> SourceSpan:
    """The span of token ``i`` (empty at the end of input). Its offset
    is found by scanning to it again; line and column count lines on
    ``"\\n"`` only."""
    start = next(itertools.islice(_TOKEN_RE.finditer(source), i, None)).start(1)
    line_start = source.rfind("\n", 0, start) + 1
    return SourceSpan(
        start, start + len(texts[i]), source.count("\n", 0, start) + 1, start - line_start + 1
    )


class _Parser:
    """Recursive descent over token texts read by index. A production
    takes the index of its first token and returns what it read with
    the index after it. Of the lexed tokens, only an identifier passes
    ``str.isidentifier`` and only a number ``str.isdigit``."""

    def __init__(self, source: str):
        self._source = source
        self._texts = _tokenize(source)
        self._depth = 0
        # A match's single-match any-of, so equal matches share one
        # term, one ground key and one any-of, which a member gate
        # weighs once however many members use it.
        self._matches: dict[tuple[str, Constant], AnyOf] = {}
        self._variables: dict[str, Variable] = {}
        # The first rule read by (nesting depth, condition tokens).
        self._conditions: dict[tuple[str | int, ...], Rule] = {}
        # Where the first alternation too deep for the target being
        # read starts; reported once the target has been read.
        self._too_deep: int | None = None

    def _span(self, i: int) -> SourceSpan:
        return _span_at(self._source, self._texts, i)

    def _fail(self, message: str, i: int) -> NoReturn:
        raise ParseError(message, self._span(i))

    def _expected(self, what: str, i: int) -> NoReturn:
        self._fail(f"expected {what}, found {self._texts[i] or 'end of input'!r}", i)

    def _want(self, i: int, *texts: str) -> int:
        """The index after the fixed tokens ``texts``, which must start at ``i``."""
        for text in texts:
            if self._texts[i] != text:
                self._expected(repr(text), i)
            i += 1
        return i

    def end(self, i: int) -> None:
        if self._texts[i]:
            self._expected("end of input", i)

    def _number(self, i: int) -> int:
        text = self._texts[i]
        try:
            return int(text)
        except ValueError:  # past the interpreter's int digit limit
            self._fail(f"number with {len(text)} digits is too long", i)

    def _nested(self, opener: int, parse: Callable, i: int):
        """``parse(i)`` one nesting level deeper than the caller; token
        ``opener`` opens the level."""
        if self._depth == MAX_NESTING:
            self._fail(f"nesting deeper than {MAX_NESTING} levels", opener)
        self._depth += 1
        result = parse(i)
        self._depth -= 1
        return result

    def _joined(self, i: int, read: Callable, connective: str, join: Callable | None = None):
        """What ``read`` reads at ``i`` and after each ``connective``
        that follows: as a list, or with ``join``, a lone item as it is
        and several as ``join`` of their tuple."""
        item, i = read(i)
        items = [item]
        while self._texts[i] == connective:
            item, i = read(i + 1)
            items.append(item)
        if join is None:
            return items, i
        return (join(tuple(items)) if len(items) > 1 else item), i

    # -- policy documents -------------------------------------------------

    def policy_node(self, i: int) -> tuple[PolicyNode, int]:
        if self._texts[i] == "policyset":
            return self._nested(i, self._node, i)
        if self._texts[i] == "policy":
            return self._node(i)
        self._fail("expected 'policyset' or 'policy'", i)

    def _node(self, i: int) -> tuple[PolicyNode, int]:
        """A policy or policy set, as the word at ``i`` says: a target
        and a combiner over its members, rules or nodes."""
        texts = self._texts
        is_set = texts[i] == "policyset"
        if not texts[i + 1].isidentifier():
            self._expected("a policy set name" if is_set else "a policy name", i + 1)
        name = texts[i + 1]
        target, i = self._target_field(self._want(i + 2, "{"))
        combiner, i = self._combiner_field(i)
        i = self._want(i, "children" if is_set else "rules", ":", "[")
        member = self.policy_node if is_set else self.rule
        members: list = []
        firsts: list[int] = []
        while texts[i] != "]":
            firsts.append(i)
            item, i = member(i)
            members.append(item)
            if texts[i] != ",":
                break
            i += 1
        i = self._want(i, "]")
        if not members and not is_set:
            raise ArityError("a policy needs at least one rule", self._span(i - 1))
        if texts[i] == ";":
            i += 1
        i = self._want(i, "}")
        # Rules are of one kind; a set's children may not mix kinds.
        odd = [at for at, m in zip(firsts, members) if type(m) is not type(members[0])]
        if odd:
            self._fail("a policy set may hold only policies or only policy sets", odd[0])
        return (PolicySet if is_set else Policy)(name, target, tuple(members), combiner), i

    def rule(self, i: int) -> tuple[Rule, int]:
        texts = self._texts
        if texts[i] != "rule":
            self._expected("'rule'", i)
        if not texts[i + 1].isidentifier():
            self._expected("a rule name", i + 1)
        name = texts[i + 1]
        i = self._want(i + 2, "{", "effect", ":")
        effect = _EFFECTS.get(texts[i])
        if effect is None:
            self._expected("'permit' or 'deny'", i)
        if texts[i + 1] != ";":
            self._expected("';'", i + 1)
        target, i = self._target_field(i + 2)
        i = self._want(i, "condition", ":")
        # A condition holds no brace, so a rule read with the same
        # tokens up to its first brace read the same condition.
        try:
            close = texts.index("}", i)
        except ValueError:  # no brace: reading the condition fails
            close = i
        key = (self._depth, *texts[i:close])
        first = self._conditions.get(key)
        if first is not None:
            return first._sharing_condition(name, effect, target), close + 1
        condition, end = self._cor(i)
        if texts[end] == ";":
            end += 1
        end = self._want(end, "}")
        try:
            rule = Rule(name, effect, target, condition)
        except UnboundVariableError as exc:
            raise ParseError(str(exc), self._span(i)) from None
        self._conditions[key] = rule
        return rule, end

    def _combiner_field(self, i: int) -> tuple[CombinerId, int]:
        i = self._want(i, "combiner", ":")
        text = self._texts[i]
        if text in _COMBINER_TOKENS:
            combiner = CombinerId.from_token(text)
            try:
                fold_table(combiner)
            except EncodingUnsupportedError as exc:
                self._fail(str(exc), i)
        elif text.isidentifier():
            raise UnknownCombinerError(f"unknown combining algorithm: {text!r}", self._span(i))
        else:
            self._fail("expected a combining algorithm id", i)
        return combiner, self._want(i + 1, ";")

    # -- targets -----------------------------------------------------------
    #
    # A target normalizes into a conjunction of any-ofs of all-ofs of
    # matches. An unparenthesized top-level conjunction splits into
    # any-ofs; anywhere else alternations flatten into one any-of, and a
    # conjunction is one all-of whose members flatten into its matches,
    # so an alternation among them is deeper than a target allows. Below
    # the top, every expression is read as an any-of ("part"), paired
    # with where an alternation at its outermost level starts, or None.

    def _target_field(self, i: int) -> tuple[Target, int]:
        texts = self._texts
        i = self._want(i, "target", ":")
        if texts[i] == "null":
            return NULL_TARGET, self._want(i + 1, ";")
        self._too_deep = None
        any_ofs, i = self._texpr(i, top=True)
        if texts[i] != ";":
            self._expected("';'", i)
        if self._too_deep is not None:
            self._fail(
                "target nesting is deeper than target / any-of / all-of allows", self._too_deep
            )
        return Target(any_ofs), i + 1

    def _texpr(self, i: int, top: bool = False):
        """At the top, the any-ofs of a target expression; elsewhere its part."""
        start = i
        parts, i = self._joined(i, self._tatom, "/\\")
        if self._texts[i] != "\\/":
            if top:
                return tuple(any_of for any_of, _ in parts), i
            return (parts[0] if len(parts) == 1 else (self._all_of(parts), None)), i
        all_ofs = self._all_of(parts).all_ofs
        while self._texts[i] == "\\/":
            parts, i = self._joined(i + 1, self._tatom, "/\\")
            all_ofs += self._all_of(parts).all_ofs
        any_of = AnyOf(all_ofs)
        return ((any_of,) if top else (any_of, start)), i

    def _all_of(self, parts: list) -> AnyOf:
        """A conjunction's parts as one any-of: a lone part as it is,
        several as one all-of of their matches."""
        if len(parts) == 1:
            return parts[0][0]
        matches: tuple[AttributeTerm, ...] = ()
        for any_of, alternation in parts:
            if alternation is not None and (self._too_deep is None or alternation < self._too_deep):
                self._too_deep = alternation
            matches += any_of.all_ofs[0].matches
        return AnyOf((AllOf(matches),))

    def _tatom(self, i: int):
        texts = self._texts
        if texts[i] == "(":
            part, i = self._nested(i, self._texpr, i + 1)
            return part, self._want(i, ")")
        if not texts[i].isidentifier():
            self._expected("a category match", i)
        category = texts[i]
        if category not in CATEGORIES:
            self._fail(f"matches use one of {', '.join(CATEGORIES)}; found {category!r}", i)
        if texts[i + 1] != "(":
            self._expected("'('", i + 1)
        value = self._constant(i + 2, "a match value")
        if texts[i + 3] != ")":
            self._expected("')'", i + 3)
        any_of = self._matches.get((category, value))
        if any_of is None:
            any_of = AnyOf((AllOf((AttributeTerm(category, (value,)),)),))
            self._matches[category, value] = any_of
        return (any_of, None), i + 4

    def _constant(self, i: int, what: str) -> Constant:
        text = self._texts[i]
        if text.isdigit():
            return self._number(i)
        if not text.isidentifier():
            self._expected(what, i)
        if text[0].isupper():
            self._fail(f"variables are not allowed here, found {text!r}", i)
        return text

    # -- conditions ----------------------------------------------------------

    def _cor(self, i: int) -> tuple[ConditionExpr, int]:
        return self._joined(i, self._cand, "\\/", Or)

    def _cand(self, i: int) -> tuple[ConditionExpr, int]:
        return self._joined(i, self._cnot, "/\\", And)

    def _cnot(self, i: int) -> tuple[ConditionExpr, int]:
        texts = self._texts
        text = texts[i]
        if text == "not":
            inner, i = self._nested(i, self._cnot, i + 1)
            return Not(inner), i
        if text == "(":
            inner, i = self._nested(i, self._cor, i + 1)
            return inner, self._want(i, ")")
        if text in _LITERALS:
            return _LITERALS[text], i + 1
        start = i
        value, args, i = self._head(i)
        op = texts[i]
        if op in COMPARISON_OPERATORS:
            right, right_args, end = self._head(i + 1)
            right = self._operand(i + 1, right, right_args)
            return Compare(self._operand(start, value, args), op, right), end
        # Without a comparison the only readable form is a fact atom.
        if args is None:
            self._fail("a bare term is not a condition; expected an atom or comparison", start)
        return Atom(value, args), i

    def _head(self, i: int):
        """One term or one application ``f(t, ...)``, as ``(value, args,
        next index)`` with ``args`` None for a plain term; whether an
        application is an atom or a function value depends on what
        follows, so the caller decides."""
        texts = self._texts
        value = self._term(i)
        # Only a constant name can be applied; numbers and variables cannot.
        if texts[i + 1] != "(" or not isinstance(value, str):
            return value, None, i + 1
        args = [self._term(i + 2)]
        i += 3
        while texts[i] == ",":
            args.append(self._term(i + 1))
            i += 2
        return value, tuple(args), self._want(i, ")")

    def _operand(self, i: int, value, args) -> Operand:
        if args is None:
            return value
        if len(args) != 1:
            raise ArityError("a function value takes exactly one argument", self._span(i))
        return FunctionValue(value, args[0])

    def _term(self, i: int) -> Term:
        text = self._texts[i]
        if text.isidentifier():
            if text[0].isupper():
                variable = self._variables.get(text)
                if variable is None:
                    variable = self._variables[text] = Variable(text)
                return variable
            if text in RESERVED_CONDITION_WORDS:
                self._fail(f"{text!r} cannot be used as a term", i)
            return text
        if text.isdigit():
            return self._number(i)
        self._expected("a term", i)

    # -- requests ------------------------------------------------------------

    def request(self) -> Request:
        texts = self._texts
        i = self._want(0, "{")
        facts: set[AttributeTerm] = set()
        errors: set[AttributeTerm] = set()
        # Each term's first occurrence, for the overlap diagnostic.
        firsts: dict[AttributeTerm, int] = {}
        while texts[i] != "}":
            is_error = texts[i] == "error" and texts[i + 1] == ":"
            if is_error:
                i += 2
            term, end = self._request_term(i)
            firsts.setdefault(term, i)
            (errors if is_error else facts).add(term)
            i = end
            if texts[i] != ",":
                break
            i += 1
        self.end(self._want(i, "}"))
        if not facts:
            raise EmptyRequestError("a request needs at least one attribute fact", self._span(0))
        overlap = facts & errors
        if overlap:
            term = sorted(overlap, key=str)[0]
            self._fail(f"attribute {term} listed both as a fact and as an error", firsts[term])
        return Request(frozenset(facts), frozenset(errors))

    def _request_term(self, i: int) -> tuple[AttributeTerm, int]:
        texts = self._texts
        if not texts[i].isidentifier():
            self._expected("an attribute name", i)
        name = texts[i]
        self._want(i + 1, "(")
        args = [self._constant(i + 2, "an attribute argument")]
        end = i + 3
        while texts[end] == ",":
            args.append(self._constant(end + 1, "an attribute argument"))
            end += 2
        end = self._want(end, ")")
        if name in CATEGORIES and len(args) != 1:
            raise ArityError(
                f"category attribute {name!r} takes exactly one argument", self._span(i)
            )
        return AttributeTerm(name, tuple(args)), end


def parse_policy(text: str) -> PolicyNode:
    """Parse one policy or policy set document."""
    parser = _Parser(text)
    node, i = parser.policy_node(0)
    parser.end(i)
    return node


def parse_request(text: str) -> Request:
    """Parse one brace-wrapped request."""
    return _Parser(text).request()


# -- serialization -------------------------------------------------------


def _ident_text(value, where: str) -> str:
    if type(value) is int and value >= 0:
        try:
            return str(value)
        except ValueError:  # past the interpreter's int digit limit
            raise InvalidInputError(f"an int too long to write as {where}") from None
    if not (
        isinstance(value, str) and value.isidentifier() and value.isascii()
        and not value[0].isupper()
    ):
        raise InvalidInputError(f"{value!r} is not writable as {where}")
    if where == "a term" and value in RESERVED_CONDITION_WORDS:
        raise InvalidInputError(f"{value!r} collides with a keyword")
    return value


def _term_text(term: Term) -> str:
    if isinstance(term, Variable):
        if not (term.name.isidentifier() and term.name.isascii()):
            raise InvalidInputError(f"{term.name!r} is not writable as a variable")
        return term.name
    return _ident_text(term, "a term")


def _operand_text(op: Operand) -> str:
    if isinstance(op, FunctionValue):
        return f"{_ident_text(op.name, 'a term')}({_term_text(op.arg)})"
    return _term_text(op)


# How tightly each connective binds; anything else binds tighter (4).
# An operand that binds no tighter than its context is parenthesized.
_COND_LEVELS = {Or: 1, And: 2, Not: 3}


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
        text = f"not {_cond_text(expr.expr, _COND_LEVELS[And])}"
    elif isinstance(expr, And):
        text = " /\\ ".join(_cond_text(c, _COND_LEVELS[And]) for c in expr.children)
    else:  # an Or: a rule's plan refuses anything but a condition expression
        text = " \\/ ".join(_cond_text(c, _COND_LEVELS[Or]) for c in expr.children)
    if _COND_LEVELS.get(type(expr), 4) <= parent_level:
        return f"({text})"
    return text


def _match_text(match: AttributeTerm) -> str:
    return f"{match.name}({_ident_text(match.args[0], 'a match value')})"


def _target_text(target: Target) -> str:
    if not target.any_ofs:
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
        field, member_lines = "rules", _rule_lines
    else:
        field, member_lines = "children", _node_lines
    members = getattr(node, field)
    lines = [
        f"{pad}{node.kind} {node.name} {{",
        f"{inner}target: {_target_text(node.target)};",
        f"{inner}combiner: {node.combiner.token};",
    ]
    if members:
        lines.append(f"{inner}{field}: [")
        for i, member in enumerate(members):
            lines.extend(member_lines(member, depth + 2))
            if i + 1 < len(members):
                lines[-1] += ","
        lines.append(f"{inner}];")
    else:
        lines.append(f"{inner}{field}: [];")
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


_TOKEN = operator.attrgetter("token")
_CANONICAL = operator.attrgetter("canonical")

# Each exportable order as (elements, leq, label), in the order the CLI lists them.
_ORDERS: dict[str, tuple[tuple, Callable, Callable]] = {
    "l3": (tuple(Decision3), operator.le, _TOKEN),
    **{name: (tuple(Decision6), lattice.leq, _CANONICAL) for name, lattice in V6_LATTICES.items()},
    "pair6": (PAIR6_VALUES, leq_pair, str),
    "pair9": (PAIR9_VALUES, leq_pair, str),
    "belnap-k": (tuple(altlogics.BelnapValue), altlogics.KNOWLEDGE_LATTICE.leq, _TOKEN),
    "belnap-t": (tuple(altlogics.BelnapValue), altlogics.TRUTH_LATTICE.leq, _TOKEN),
}

LATTICE_NAMES = tuple(_ORDERS)


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
    try:
        elements, leq, label = _ORDERS[name]
    except (KeyError, TypeError):  # TypeError: an unhashable name
        raise UnknownLatticeError(f"unknown lattice: {name!r}") from None
    index = {e: i for i, e in enumerate(elements)}
    covers = sorted(_cover_edges(elements, leq), key=lambda e: (index[e[0]], index[e[1]]))
    lines = [f'digraph "{name}" {{', "  rankdir=BT;"]
    for element in elements:
        lines.append(f'  "{label(element)}";')
    for a, b in covers:
        lines.append(f'  "{label(a)}" -> "{label(b)}";')
    lines.append("}")
    return "\n".join(lines) + "\n"

