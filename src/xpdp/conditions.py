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
"""

from __future__ import annotations

import itertools
import operator
from dataclasses import dataclass, field
from typing import Mapping, Union

from .decisions import Decision3, lub3
from .errors import InvalidInputError, SourceSpan, UnboundVariableError
from .requests import AttributeTerm, Constant, Request

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
    span: SourceSpan | None = field(default=None, compare=False)


@dataclass(frozen=True)
class Atom:
    name: str
    terms: tuple[Term, ...]
    span: SourceSpan | None = field(default=None, compare=False)

    def __post_init__(self) -> None:
        if not self.terms:
            raise InvalidInputError(f"atom {self.name!r} needs at least one term")


@dataclass(frozen=True)
class Compare:
    left: Operand
    op: str
    right: Operand
    span: SourceSpan | None = field(default=None, compare=False)

    def __post_init__(self) -> None:
        if self.op not in COMPARISON_OPERATORS:
            raise InvalidInputError(f"unknown comparison operator: {self.op!r}")


@dataclass(frozen=True)
class Not:
    expr: "ConditionExpr"
    span: SourceSpan | None = field(default=None, compare=False)


@dataclass(frozen=True)
class And:
    children: tuple["ConditionExpr", ...]
    span: SourceSpan | None = field(default=None, compare=False)

    def __post_init__(self) -> None:
        if len(self.children) < 2:
            raise InvalidInputError("a conjunction needs at least two members")


@dataclass(frozen=True)
class Or:
    children: tuple["ConditionExpr", ...]
    span: SourceSpan | None = field(default=None, compare=False)

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


def check_range_restriction(expr: ConditionExpr) -> None:
    """Every comparison variable must also occur in some atom, or there
    is nothing to bind it against."""
    unbound = compare_variables(expr) - atom_variables(expr)
    if unbound:
        raise UnboundVariableError(
            f"comparison variables bound by no atom: {', '.join(sorted(unbound))}"
        )


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


def eval_condition(expr: ConditionExpr, request: Request) -> Decision3:
    """Evaluate a condition existentially over all variable bindings.

    Free variables range over the constants occurring in the request's
    facts; the result is the least upper bound of the per-binding
    outcomes, so any TOP binding wins, then any INDET one.
    """
    check_range_restriction(expr)
    names = sorted(free_variables(expr))
    if not names:
        return kleene_eval(expr, {}, request)
    constants = request.constants()
    best = Decision3.BOTTOM
    for combo in itertools.product(constants, repeat=len(names)):
        value = kleene_eval(expr, dict(zip(names, combo)), request)
        if value is Decision3.TOP:
            return value
        if value > best:
            best = value
    return best
