"""The three-valued condition language attached to rules.

Conditions are boolean combinations of fact atoms and comparisons.
Variables (capitalized identifiers) range over the constants that occur
in the request's facts; a condition holds if some binding of its free
variables makes the body true under strong Kleene connectives, is
indeterminate if no binding reaches true but some reaches indeterminate,
and is false otherwise.

A comparison operand may be a function-fact application ``f(t)``, which
denotes the value ``v`` of a fact ``f(t,v)`` in the request. A missing
or error-marked function fact makes the comparison indeterminate, as
does comparing values of different types: evaluation errors surface as
indeterminacy, never as exceptions.

Evaluation is a conjunctive-query join rather than a walk over every
binding. ``compile_condition`` plans a condition once, when its rule is
built: it checks the range restriction, sorts the free variables and
records, for each variable, the positions at which it occurs in the
atoms of the top-level conjunction (nested conjunctions flattened).
``index_request`` indexes a request once per evaluation: its constants
and the argument tuples of its facts and error attributes by name and
arity. ``eval_condition`` then draws each variable's candidates from
the tuples that can ground the atoms it occurs in, intersected with the
request's constants, and evaluates only the bindings in the product of
those pools. A binding outside them grounds a top-level conjunct to
neither a fact nor an error attribute, so the conjunction is false and,
false being the identity of the existential join, the result is the
same. Variables that occur only under ``not``, ``\\/`` or in comparisons
range over all the request's constants.
"""

from __future__ import annotations

import itertools
import operator
from dataclasses import dataclass
from typing import Iterator, Mapping, Union

from .decisions import Decision3, lub3
from .errors import InvalidInputError, UnboundVariableError
from .requests import CATEGORIES, AttributeTerm, Constant, Request

COMPARISON_OPERATORS = ("=", "!=", "<", "<=", ">", ">=")


@dataclass(frozen=True)
class Variable:
    """A condition variable; the leading capital is what the concrete
    syntax uses to tell variables from constants."""

    name: str

    def __post_init__(self) -> None:
        if not self.name or not self.name[0].isupper():
            raise InvalidInputError(
                f"variable names start with an uppercase letter: {self.name!r}"
            )


@dataclass(frozen=True)
class FunctionValue:
    """Operand form ``f(t)``: the value paired with ``t`` by a fact ``f(t,v)``."""

    name: str
    arg: Union[Constant, Variable]


Term = Union[Constant, Variable]
Operand = Union[Constant, Variable, FunctionValue]

# A binding maps variable names to constants; evaluation requires it to
# cover the free variables of the expression at hand.
Binding = Mapping[str, Constant]


@dataclass(frozen=True)
class BoolLiteral:
    value: bool


@dataclass(frozen=True)
class Atom:
    name: str
    terms: tuple[Term, ...]

    def __post_init__(self) -> None:
        if not self.terms:
            raise InvalidInputError(f"atom {self.name!r} needs at least one term")


@dataclass(frozen=True)
class Compare:
    left: Operand
    op: str
    right: Operand

    def __post_init__(self) -> None:
        if self.op not in COMPARISON_OPERATORS:
            raise InvalidInputError(f"unknown comparison operator: {self.op!r}")


@dataclass(frozen=True)
class Not:
    expr: "ConditionExpr"


@dataclass(frozen=True)
class And:
    children: tuple["ConditionExpr", ...]

    def __post_init__(self) -> None:
        if len(self.children) < 2:
            raise InvalidInputError("a conjunction needs at least two members")


@dataclass(frozen=True)
class Or:
    children: tuple["ConditionExpr", ...]

    def __post_init__(self) -> None:
        if len(self.children) < 2:
            raise InvalidInputError("a disjunction needs at least two members")


ConditionExpr = Union[BoolLiteral, Atom, Compare, Not, And, Or]

TRUE_CONDITION = BoolLiteral(True)


def _operand_variables(op: Operand) -> frozenset[str]:
    if isinstance(op, Variable):
        return frozenset((op.name,))
    if isinstance(op, FunctionValue):
        return _operand_variables(op.arg)
    return frozenset()


def atom_variables(expr: ConditionExpr) -> frozenset[str]:
    """Variables occurring inside atoms (the positions that bind)."""
    if isinstance(expr, Atom):
        names = [t.name for t in expr.terms if isinstance(t, Variable)]
        return frozenset(names)
    if isinstance(expr, Not):
        return atom_variables(expr.expr)
    if isinstance(expr, (And, Or)):
        return frozenset().union(*(atom_variables(c) for c in expr.children))
    return frozenset()


def compare_variables(expr: ConditionExpr) -> frozenset[str]:
    if isinstance(expr, Compare):
        return _operand_variables(expr.left) | _operand_variables(expr.right)
    if isinstance(expr, Not):
        return compare_variables(expr.expr)
    if isinstance(expr, (And, Or)):
        return frozenset().union(*(compare_variables(c) for c in expr.children))
    return frozenset()


def free_variables(expr: ConditionExpr) -> frozenset[str]:
    return atom_variables(expr) | compare_variables(expr)


def check_range_restriction(expr: ConditionExpr) -> frozenset[str]:
    """Every comparison variable must also occur in some atom, or there
    is nothing to bind it against. Returns the free variables, which
    are then exactly the atom variables."""
    bound = atom_variables(expr)
    unbound = compare_variables(expr) - bound
    if unbound:
        raise UnboundVariableError(
            f"comparison variables bound by no atom: {', '.join(sorted(unbound))}"
        )
    return bound


def _ground(term: Term, binding: Binding) -> Constant:
    if isinstance(term, Variable):
        try:
            return binding[term.name]
        except KeyError:
            raise UnboundVariableError(f"no binding for variable {term.name}") from None
    return term


_NOT3 = {
    Decision3.TOP: Decision3.BOTTOM,
    Decision3.BOTTOM: Decision3.TOP,
    Decision3.INDET: Decision3.INDET,
}

_COMPARE_FN = {
    "=": operator.eq,
    "!=": operator.ne,
    "<": operator.lt,
    "<=": operator.le,
    ">": operator.gt,
    ">=": operator.ge,
}


def _compare_constants(a: Constant, op: str, b: Constant) -> Decision3:
    # Numbers compare with numbers, strings with strings; a mixed
    # comparison is an evaluation error, hence indeterminate.
    if isinstance(a, str) != isinstance(b, str):
        return Decision3.INDET
    return Decision3.TOP if _COMPARE_FN[op](a, b) else Decision3.BOTTOM


def _operand_values(
    op: Operand, binding: Binding, request: Request
) -> tuple[list[Constant], bool]:
    """Resolve an operand to its candidate values plus an error flag.

    The flag is set when a function fact is absent or marked erroneous,
    in which case the comparison cannot fall below indeterminate.
    """
    if isinstance(op, FunctionValue):
        arg = _ground(op.arg, binding)
        values = [
            fact.args[1]
            for fact in request.facts
            if fact.name == op.name and len(fact.args) == 2 and fact.args[0] == arg
        ]
        errored = any(
            err.name == op.name and err.args and err.args[0] == arg
            for err in request.error_attributes
        )
        return values, errored or not values
    if isinstance(op, Variable):
        return [_ground(op, binding)], False
    return [op], False


def _eval_compare(
    expr: Compare, binding: Binding, request: Request
) -> Decision3:
    lvals, lflag = _operand_values(expr.left, binding, request)
    rvals, rflag = _operand_values(expr.right, binding, request)
    results = [_compare_constants(a, expr.op, b) for a in lvals for b in rvals]
    if lflag or rflag:
        results.append(Decision3.INDET)
    return lub3(results)


def kleene_eval(
    expr: ConditionExpr, binding: Binding, request: Request
) -> Decision3:
    """Evaluate a condition under one binding, with strong Kleene
    connectives over three-valued atom and comparison outcomes."""
    if isinstance(expr, BoolLiteral):
        return Decision3.TOP if expr.value else Decision3.BOTTOM
    if isinstance(expr, Atom):
        ground = AttributeTerm(expr.name, tuple(_ground(t, binding) for t in expr.terms))
        if ground in request.error_attributes:
            return Decision3.INDET
        if ground in request.facts:
            return Decision3.TOP
        return Decision3.BOTTOM
    if isinstance(expr, Compare):
        return _eval_compare(expr, binding, request)
    if isinstance(expr, Not):
        return _NOT3[kleene_eval(expr.expr, binding, request)]
    if isinstance(expr, And):
        result = Decision3.TOP
        for child in expr.children:
            value = kleene_eval(child, binding, request)
            if value < result:
                result = value
            if result is Decision3.BOTTOM:
                break
        return result
    if isinstance(expr, Or):
        result = Decision3.BOTTOM
        for child in expr.children:
            value = kleene_eval(child, binding, request)
            if value > result:
                result = value
            if result is Decision3.TOP:
                break
        return result
    raise InvalidInputError(f"not a condition expression: {expr!r}")


def _conjuncts(expr: ConditionExpr) -> Iterator[ConditionExpr]:
    """The members of the top-level conjunction, nested ones flattened;
    any other expression is a conjunction of one."""
    if isinstance(expr, And):
        for child in expr.children:
            yield from _conjuncts(child)
    else:
        yield expr


@dataclass(frozen=True)
class ConditionPlan:
    """A condition with what its evaluation needs worked out once.

    ``variables`` are the free variables, sorted. ``sources[i]`` holds
    the ``(atom, position)`` pairs at which ``variables[i]`` occurs in a
    top-level positive conjunct atom; it is empty for a variable that
    occurs only under ``not``, ``\\/`` or in comparisons.
    """

    expr: ConditionExpr
    variables: tuple[str, ...]
    sources: tuple[tuple[tuple[Atom, int], ...], ...]


def compile_condition(expr: ConditionExpr) -> ConditionPlan:
    """Plan a condition for evaluation; raises ``UnboundVariableError``
    when it breaks the range restriction."""
    variables = tuple(sorted(check_range_restriction(expr)))
    atoms = [c for c in _conjuncts(expr) if isinstance(c, Atom)]
    sources = tuple(
        tuple(
            (atom, i)
            for atom in atoms
            for i, term in enumerate(atom.terms)
            if isinstance(term, Variable) and term.name == name
        )
        for name in variables
    )
    return ConditionPlan(expr, variables, sources)


@dataclass(frozen=True)
class RequestIndex:
    """A request prepared for evaluation, once per evaluation.

    ``domain`` is ``request.constants()``, the range of a variable no
    top-level atom binds. ``tuples`` maps a ``(name, arity)`` signature
    to the argument tuples of the facts and error attributes with it.
    ``category_terms`` holds the category facts and error attributes,
    the only terms a target match can hit.
    """

    request: Request
    domain: tuple[Constant, ...]
    tuples: Mapping[tuple[str, int], tuple[tuple[Constant, ...], ...]]
    category_terms: tuple[AttributeTerm, ...]


def index_request(request: Request) -> RequestIndex:
    """Index a request for ``eval_condition``; done once per evaluation."""
    tuples: dict[tuple[str, int], list[tuple[Constant, ...]]] = {}
    category_terms = []
    for term in itertools.chain(request.facts, request.error_attributes):
        tuples.setdefault((term.name, len(term.args)), []).append(term.args)
        if term.name in CATEGORIES:  # term.is_category, without a call per fact
            category_terms.append(term)
    return RequestIndex(
        request,
        request.constants(),
        {key: tuple(rows) for key, rows in tuples.items()},
        tuple(category_terms),
    )


def _grounds(atom: Atom, args: tuple[Constant, ...]) -> bool:
    """Whether some binding grounds ``atom`` to exactly ``args``: its
    constants agree and each variable takes one value throughout."""
    seen: dict[str, Constant] = {}
    for term, arg in zip(atom.terms, args):
        if isinstance(term, Variable):
            if seen.setdefault(term.name, arg) != arg:
                return False
        elif term != arg:
            return False
    return True


def _candidates(
    sources: tuple[tuple[Atom, int], ...], index: RequestIndex
) -> tuple[Constant, ...]:
    """The values of one variable under which every atom it binds can
    ground to a fact or an error attribute, in the domain's order."""
    allowed = set(index.domain)
    for atom, position in sources:
        rows = index.tuples.get((atom.name, len(atom.terms)), ())
        allowed &= {args[position] for args in rows if _grounds(atom, args)}
    return tuple(c for c in index.domain if c in allowed)


def eval_condition(plan: ConditionPlan, index: RequestIndex) -> Decision3:
    """Evaluate a planned condition existentially over variable bindings.

    The result is the least upper bound of the per-binding outcomes, so
    any TOP binding wins, then any INDET one. Only bindings drawn from
    each variable's candidates are tried; the others are all BOTTOM.
    """
    pools = [_candidates(sources, index) for sources in plan.sources]
    best = Decision3.BOTTOM
    for combo in itertools.product(*pools):
        value = kleene_eval(plan.expr, dict(zip(plan.variables, combo)), index.request)
        if value is Decision3.TOP:
            return value
        if value > best:
            best = value
    return best
