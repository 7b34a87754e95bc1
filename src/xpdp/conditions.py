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

Evaluation reads a keyed index of the request and tries only the
bindings that can differ. ``index_request`` makes one pass over a
request's facts and error attributes per evaluation. It keeps the
argument tuples by name and arity, the ``(name, args)`` keys of the
facts and of the error attributes, and the values of the facts
``f(c,v)`` keyed by ``(f, c)``, with the ``(f, c)`` marked by an error
attribute ``f(c,...)`` of any arity. ``kleene_eval`` answers an atom by
looking its ground key up among the errors and then the facts, and a
function operand by looking up its ``(f, c)`` key; it builds no terms.

``compile_condition`` plans a condition once, when its rule is built,
in one walk over it: it checks the range restriction, sorts the free
variables and gives each one of three binding rules.

* A variable occurring in an atom of the top-level conjunction (nested
  conjunctions flattened) is a join variable. It ranges over the values
  under which every such atom can ground to a fact or an error
  attribute. Any other value grounds a top-level conjunct to neither,
  so the conjunction is false and, false being the identity of the
  existential join, the result is the same.
* A variable occurring only in atoms and as a function argument, never
  bare in a comparison, ranges over the constants seen at its sites in
  the request's rows plus one representative: the first constant of
  the domain seen at none. Every unseen constant makes each of the
  variable's atoms false and each of its lookups absent, whatever the
  other variables are bound to, so all of them give one value. This is
  the genericity behind active-domain evaluation (Abiteboul, Hull and
  Vianu, *Foundations of Databases*, ch. 5), and it holds under ``not``
  and ``\\/`` too.
* A variable that is a bare comparison operand ranges over the whole
  domain, the constants of the request's facts.

``eval_condition`` evaluates the product of the variables' pools; a
join variable with no candidate makes the condition false without a
binding.
"""

from __future__ import annotations

import itertools
import operator
from collections import defaultdict
from typing import Mapping, Optional, Sequence, Union

from .decisions import Decision3, lub3
from .errors import InvalidInputError, UnboundVariableError
from .requests import CATEGORIES, AttributeTerm, Constant, Request
from .values import Value

COMPARISON_OPERATORS = ("=", "!=", "<", "<=", ">", ">=")


class Variable(Value):
    """A condition variable; the leading capital is what the concrete
    syntax uses to tell variables from constants."""

    name: str

    def __post_init__(self) -> None:
        if not self.name or not self.name[0].isupper():
            raise InvalidInputError(
                f"variable names start with an uppercase letter: {self.name!r}"
            )


class FunctionValue(Value):
    """Operand form ``f(t)``: the value paired with ``t`` by a fact ``f(t,v)``."""

    name: str
    arg: Union[Constant, Variable]


Term = Union[Constant, Variable]
Operand = Union[Constant, Variable, FunctionValue]

# A binding maps variable names to constants; evaluation requires it to
# cover the free variables of the expression at hand.
Binding = Mapping[str, Constant]


class BoolLiteral(Value):
    value: bool


class Atom(Value):
    name: str
    terms: tuple[Term, ...]

    def __post_init__(self) -> None:
        if not self.terms:
            raise InvalidInputError(f"atom {self.name!r} needs at least one term")


class Compare(Value):
    left: Operand
    op: str
    right: Operand

    def __post_init__(self) -> None:
        if self.op not in COMPARISON_OPERATORS:
            raise InvalidInputError(f"unknown comparison operator: {self.op!r}")


class Not(Value):
    expr: "ConditionExpr"


class And(Value):
    children: tuple["ConditionExpr", ...]

    def __post_init__(self) -> None:
        if len(self.children) < 2:
            raise InvalidInputError("a conjunction needs at least two members")


class Or(Value):
    children: tuple["ConditionExpr", ...]

    def __post_init__(self) -> None:
        if len(self.children) < 2:
            raise InvalidInputError("a disjunction needs at least two members")


ConditionExpr = Union[BoolLiteral, Atom, Compare, Not, And, Or]

TRUE_CONDITION = BoolLiteral(True)


# Where a variable meets a request's rows: ``(name, arity, position)``
# for an atom argument, and ``(f, None, 0)`` for the argument of a
# function operand ``f(t)``, which reads the facts ``f(c,v)`` and the
# error attributes ``f(c,...)`` of any arity.
Site = tuple[str, Optional[int], int]


class _Uses:
    """Where one variable occurs in a condition. ``sources`` holds the
    ``(atom, position)`` pairs of its occurrences in top-level conjunct
    atoms (nested conjunctions flattened), ``sites`` its sites (see
    ``Site``) in first-seen order, ``bound`` whether it occurs in an
    atom and ``bare`` whether it is a bare comparison operand."""

    __slots__ = ("sources", "sites", "bound", "bare")

    def __init__(self) -> None:
        self.sources: list[tuple[Atom, int]] = []
        self.sites: dict[Site, None] = {}
        self.bound = False
        self.bare = False


def _collect_uses(expr: ConditionExpr, top: bool, uses: dict[str, _Uses]) -> None:
    """Record in ``uses`` every variable occurrence in ``expr``, left to
    right; ``top`` says whether ``expr`` is a top-level conjunct."""
    if isinstance(expr, Atom):
        arity = len(expr.terms)
        for i, term in enumerate(expr.terms):
            if isinstance(term, Variable):
                use = uses[term.name]
                use.bound = True
                use.sites[(expr.name, arity, i)] = None
                if top:
                    use.sources.append((expr, i))
    elif isinstance(expr, Compare):
        for op in (expr.left, expr.right):
            if isinstance(op, Variable):
                uses[op.name].bare = True
            elif isinstance(op, FunctionValue) and isinstance(op.arg, Variable):
                uses[op.arg.name].sites[(op.name, None, 0)] = None
    elif isinstance(expr, And):
        for child in expr.children:
            _collect_uses(child, top, uses)
    elif isinstance(expr, Or):
        for child in expr.children:
            _collect_uses(child, False, uses)
    elif isinstance(expr, Not):
        _collect_uses(expr.expr, False, uses)


def _variable_uses(expr: ConditionExpr) -> dict[str, _Uses]:
    uses: dict[str, _Uses] = defaultdict(_Uses)
    _collect_uses(expr, True, uses)
    return uses


def atom_variables(expr: ConditionExpr) -> frozenset[str]:
    """Variables occurring inside atoms (the positions that bind)."""
    return frozenset(name for name, use in _variable_uses(expr).items() if use.bound)


def compare_variables(expr: ConditionExpr) -> frozenset[str]:
    """Variables occurring in comparisons, bare or as a function argument."""
    return frozenset(
        name
        for name, use in _variable_uses(expr).items()
        if use.bare or any(arity is None for _, arity, _ in use.sites)
    )


def free_variables(expr: ConditionExpr) -> frozenset[str]:
    return frozenset(_variable_uses(expr))


def _range_restricted(uses: dict[str, _Uses]) -> dict[str, _Uses]:
    unbound = [name for name, use in uses.items() if not use.bound]
    if unbound:
        raise UnboundVariableError(
            f"comparison variables bound by no atom: {', '.join(sorted(unbound))}"
        )
    return uses


def check_range_restriction(expr: ConditionExpr) -> frozenset[str]:
    """Every comparison variable must also occur in some atom, or there
    is nothing to bind it against. Returns the free variables, which
    are then exactly the atom variables."""
    return frozenset(_range_restricted(_variable_uses(expr)))


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


# A request's facts or error attributes, each as its ``(name, args)`` key.
TermKey = tuple[str, tuple[Constant, ...]]


class RequestIndex:
    """A request prepared for evaluation, once per evaluation, and only
    read after that. It is built on every evaluation, so it is a plain
    slots class, not a ``Value``, and has no equality of its own.

    ``domain`` is ``request.constants()``, the constants variables range
    over, and ``domain_set`` the same as a set. ``tuples`` maps a
    ``(name, arity)`` signature to the argument tuples of the facts and
    error attributes with it. ``facts`` and ``errors`` hold the
    ``(name, args)`` keys of the facts and of the error attributes.
    ``functions`` maps ``(f, c)`` to the values ``v`` of the facts
    ``f(c,v)``, and ``function_errors`` holds ``(f, c)`` for every error
    attribute ``f(c,...)``, of any arity. ``category_terms`` holds the
    category facts and error attributes, the only terms a target match
    can hit.
    """

    request: Request
    domain: tuple[Constant, ...]
    domain_set: frozenset[Constant]
    tuples: dict[tuple[str, int], list[tuple[Constant, ...]]]
    facts: set[TermKey]
    errors: set[TermKey]
    functions: dict[tuple[str, Constant], list[Constant]]
    function_errors: set[tuple[str, Constant]]
    category_terms: list[AttributeTerm]

    __slots__ = ("request", "domain", "domain_set", "tuples", "facts", "errors",
                 "functions", "function_errors", "category_terms")

    def __init__(self, request, domain, domain_set, tuples, facts, errors,
                 functions, function_errors, category_terms) -> None:
        self.request = request
        self.domain = domain
        self.domain_set = domain_set
        self.tuples = tuples
        self.facts = facts
        self.errors = errors
        self.functions = functions
        self.function_errors = function_errors
        self.category_terms = category_terms


def index_request(request: Request) -> RequestIndex:
    """Index a request for ``eval_condition``; done once per evaluation."""
    tuples: dict[tuple[str, int], list[tuple[Constant, ...]]] = {}
    functions: dict[tuple[str, Constant], list[Constant]] = {}
    facts = set()
    errors = set()
    function_errors = set()
    category_terms = []
    for term in request.facts:
        name, args = term.name, term.args
        facts.add((name, args))
        tuples.setdefault((name, len(args)), []).append(args)
        if len(args) == 2:
            functions.setdefault((name, args[0]), []).append(args[1])
        elif name in CATEGORIES:  # term.is_category, without a call per fact
            category_terms.append(term)
    for term in request.error_attributes:
        name, args = term.name, term.args
        errors.add((name, args))
        tuples.setdefault((name, len(args)), []).append(args)
        function_errors.add((name, args[0]))
        if name in CATEGORIES:
            category_terms.append(term)
    domain = request.constants()
    return RequestIndex(
        request,
        domain,
        frozenset(domain),
        tuples,
        facts,
        errors,
        functions,
        function_errors,
        category_terms,
    )


def _operand_values(
    op: Operand, binding: Binding, index: RequestIndex
) -> tuple[Sequence[Constant], bool]:
    """Resolve an operand to its candidate values plus an error flag.

    The flag is set when a function fact is absent or marked erroneous,
    in which case the comparison cannot fall below indeterminate.
    """
    if isinstance(op, FunctionValue):
        key = (op.name, _ground(op.arg, binding))
        values = index.functions.get(key, ())
        return values, not values or key in index.function_errors
    return (_ground(op, binding),), False


def _eval_compare(expr: Compare, binding: Binding, index: RequestIndex) -> Decision3:
    lvals, lflag = _operand_values(expr.left, binding, index)
    rvals, rflag = _operand_values(expr.right, binding, index)
    results = [_compare_constants(a, expr.op, b) for a in lvals for b in rvals]
    if lflag or rflag:
        results.append(Decision3.INDET)
    return lub3(results)


def kleene_eval(expr: ConditionExpr, binding: Binding, index: RequestIndex) -> Decision3:
    """Evaluate a condition under one binding, with strong Kleene
    connectives over three-valued atom and comparison outcomes."""
    if isinstance(expr, Atom):
        args = ()
        for term in expr.terms:
            args += (_ground(term, binding),)
        key = (expr.name, args)
        if key in index.errors:
            return Decision3.INDET
        if key in index.facts:
            return Decision3.TOP
        return Decision3.BOTTOM
    if isinstance(expr, And):
        result = Decision3.TOP
        for child in expr.children:
            value = kleene_eval(child, binding, index)
            if value < result:
                result = value
            if result is Decision3.BOTTOM:
                break
        return result
    if isinstance(expr, Or):
        result = Decision3.BOTTOM
        for child in expr.children:
            value = kleene_eval(child, binding, index)
            if value > result:
                result = value
            if result is Decision3.TOP:
                break
        return result
    if isinstance(expr, Not):
        return _NOT3[kleene_eval(expr.expr, binding, index)]
    if isinstance(expr, Compare):
        return _eval_compare(expr, binding, index)
    if isinstance(expr, BoolLiteral):
        return Decision3.TOP if expr.value else Decision3.BOTTOM
    raise InvalidInputError(f"not a condition expression: {expr!r}")


class ConditionPlan(Value):
    """A condition with what its evaluation needs worked out once: one
    binding rule per free variable (see the module docstring).

    ``variables`` are the free variables, sorted. ``sources[i]`` holds
    the ``(atom, position)`` pairs at which ``variables[i]`` occurs in a
    top-level positive conjunct atom; a variable with sources is a join
    variable. For any other variable, ``sites[i]`` holds its sites, or
    is None when it is a bare comparison operand and ranges over the
    whole domain.
    """

    expr: ConditionExpr
    variables: tuple[str, ...]
    sources: tuple[tuple[tuple[Atom, int], ...], ...]
    sites: tuple[Optional[tuple[Site, ...]], ...]


def compile_condition(expr: ConditionExpr) -> ConditionPlan:
    """Plan a condition for evaluation, in one walk over it; raises
    ``UnboundVariableError`` when it breaks the range restriction."""
    uses = _range_restricted(_variable_uses(expr))
    variables = tuple(sorted(uses))
    sources = []
    sites = []
    for name in variables:
        use = uses[name]
        sources.append(tuple(use.sources))
        sites.append(() if use.sources else None if use.bare else tuple(use.sites))
    return ConditionPlan(expr, variables, tuple(sources), tuple(sites))


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


def _in_domain(values: set[Constant], index: RequestIndex) -> list[Constant]:
    """The domain constants among ``values``, in the domain's order."""
    values &= index.domain_set
    if len(values) < 2:
        return list(values)
    return [c for c in index.domain if c in values]


def _candidates(
    sources: tuple[tuple[Atom, int], ...], index: RequestIndex
) -> list[Constant]:
    """The values of a join variable under which every atom it binds can
    ground to a fact or an error attribute, in the domain's order."""
    allowed: Optional[set[Constant]] = None
    for atom, position in sources:
        rows = index.tuples.get((atom.name, len(atom.terms)))
        if rows is None:
            return []
        values = {args[position] for args in rows if _grounds(atom, args)}
        allowed = values if allowed is None else allowed & values
        if not allowed:
            return []
    return _in_domain(allowed, index)


def _active(sites: tuple[Site, ...], index: RequestIndex) -> list[Constant]:
    """The domain constants seen at a variable's sites, in the domain's
    order, then the first domain constant seen at none, which stands for
    all of those."""
    seen: set[Constant] = set()
    for name, arity, position in sites:
        if arity is None:
            seen.update(args[0] for args in index.tuples.get((name, 2), ()))
            seen.update(c for f, c in index.function_errors if f == name)
        else:
            seen.update(args[position] for args in index.tuples.get((name, arity), ()))
    if not seen:
        return [index.domain[0]]
    representative = next((c for c in index.domain if c not in seen), None)
    pool = _in_domain(seen, index)
    return pool if representative is None else pool + [representative]


def eval_condition(plan: ConditionPlan, index: RequestIndex) -> Decision3:
    """Evaluate a planned condition existentially over variable bindings.

    The result is the least upper bound of the per-binding outcomes, so
    any TOP binding wins, then any INDET one. Each variable takes only
    the values its binding rule draws; every other binding gives BOTTOM
    or repeats a value already tried.
    """
    pools = []
    for sources, sites in zip(plan.sources, plan.sites):
        if sources:
            pool = _candidates(sources, index)
            if not pool:  # no binding grounds every top-level atom
                return Decision3.BOTTOM
        else:
            pool = index.domain if sites is None else _active(sites, index)
        pools.append(pool)
    best = Decision3.BOTTOM
    for combo in itertools.product(*pools):
        value = kleene_eval(plan.expr, dict(zip(plan.variables, combo)), index)
        if value is Decision3.TOP:
            return value
        if value > best:
            best = value
    return best
