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
request's facts and error attributes per evaluation, and skips those
whose names the policy tree reads nowhere (its ``needs``: the names its
targets match and its conditions' atoms and function operands use);
their constants stay in the domain. It keeps the argument tuples by
name and arity, the ``(name, args)`` keys of the facts and of the error
attributes (each term's ``key``), the keys of the category ones, which
targets are matched against, and the values of the facts ``f(c,v)``
keyed by ``(f, c)``, with the ``(f, c)`` marked by an error attribute
``f(c,...)`` of any arity. ``kleene_eval`` answers an atom by looking
its ground key up among the errors and then the facts, and a
comparison by looking each function operand up by its ``(f, c)`` key
and comparing the values in place; it builds no terms.

``compile_condition`` plans a condition once, in one walk over it: it
refuses anything but a condition expression, checks the range
restriction, collects the names the condition reads, sorts the free
variables and gives each one of three binding rules.

* A variable occurring in an atom of the top-level conjunction (nested
  conjunctions flattened) is a join variable. It ranges over the values
  under which every such atom can ground to a fact or an error
  attribute, read from the rows that agree with the atom's constants
  and repeated variables (``Atom.pattern``, worked out when the atom is
  built). Any other value grounds a top-level conjunct to neither, so
  the conjunction is false and, false being the identity of the
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

``eval_condition`` draws the join variables' pools first, so a join
variable with no candidate makes the condition false before any other
pool is drawn, and without a binding. Each pool is in the domain's
order (``order_constants``): a join pool of two or more values is
sorted by that rule, not filtered out of the whole domain. Only a
request with error attributes, whose rows may hold constants outside
the domain, has its pools cut down to the domain. A variable whose
pool holds one value is bound once, and the bindings are the product
of the other pools, in the order of the full product; a condition
whose pools all hold one value is evaluated once.
"""

from __future__ import annotations

import itertools
import operator
from collections import defaultdict
from typing import AbstractSet, Mapping, Optional, Union

from .decisions import BOTTOM, INDET, TOP, Decision3
from .errors import InvalidInputError, UnboundVariableError, check_type
from .requests import CATEGORIES, Constant, Request, order_constants
from .values import Value

# Each comparison operator and the function it applies.
_COMPARE_FN = {
    "=": operator.eq,
    "!=": operator.ne,
    "<": operator.lt,
    "<=": operator.le,
    ">": operator.gt,
    ">=": operator.ge,
}
COMPARISON_OPERATORS = tuple(_COMPARE_FN)


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


class Atom(Value, derived=("pattern",)):
    """A fact atom. ``pattern`` says which argument tuples some binding
    grounds it to: None when its terms are distinct variables, so every
    tuple of its arity; otherwise ``(fixed, same)``, the ``(position,
    constant)`` pairs a tuple must agree with and the ``(position,
    earlier position)`` pairs of a variable's repeated occurrences,
    whose arguments must be equal."""

    name: str
    terms: tuple[Term, ...]
    pattern: Optional[tuple[tuple[tuple[int, Constant], ...], tuple[tuple[int, int], ...]]]

    def __post_init__(self) -> None:
        check_type(self, "terms", tuple)
        if not self.terms:
            raise InvalidInputError(f"atom {self.name!r} needs at least one term")
        fixed = []
        same = []
        first: dict[str, int] = {}
        for i, term in enumerate(self.terms):
            if isinstance(term, Variable):
                j = first.setdefault(term.name, i)
                if j != i:
                    same.append((i, j))
            elif isinstance(term, (str, int)):
                fixed.append((i, term))
            else:
                raise InvalidInputError(f"atom {self.name!r}: {term!r} is not a term")
        pattern = (tuple(fixed), tuple(same)) if fixed or same else None
        object.__setattr__(self, "pattern", pattern)


class Compare(Value):
    left: Operand
    op: str
    right: Operand

    def __post_init__(self) -> None:
        if self.op not in COMPARISON_OPERATORS:
            raise InvalidInputError(f"unknown comparison operator: {self.op!r}")
        for term in (self.left, self.right):
            if isinstance(term, FunctionValue):
                term = term.arg
            if not isinstance(term, (str, int, Variable)):
                raise InvalidInputError(f"comparison {self.op!r}: {term!r} is not a term")


class Not(Value):
    expr: "ConditionExpr"


class And(Value):
    children: tuple["ConditionExpr", ...]

    def __post_init__(self) -> None:
        check_type(self, "children", tuple)
        if len(self.children) < 2:
            raise InvalidInputError("a conjunction needs at least two members")


class Or(Value):
    children: tuple["ConditionExpr", ...]

    def __post_init__(self) -> None:
        check_type(self, "children", tuple)
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


def _collect_uses(expr: ConditionExpr, top: bool, uses: dict[str, _Uses], reads: set[str]) -> None:
    """Record in ``uses`` every variable occurrence in ``expr``, left to
    right, and in ``reads`` the names of its atoms and function
    operands; ``top`` says whether ``expr`` is a top-level conjunct."""
    if isinstance(expr, Atom):
        reads.add(expr.name)
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
            elif isinstance(op, FunctionValue):
                reads.add(op.name)
                if isinstance(op.arg, Variable):
                    uses[op.arg.name].sites[(op.name, None, 0)] = None
    elif isinstance(expr, And):
        for child in expr.children:
            _collect_uses(child, top, uses, reads)
    elif isinstance(expr, Or):
        for child in expr.children:
            _collect_uses(child, False, uses, reads)
    elif isinstance(expr, Not):
        _collect_uses(expr.expr, False, uses, reads)
    elif not isinstance(expr, BoolLiteral):
        raise InvalidInputError(f"not a condition expression: {expr!r}")


# Strong Kleene negation, indexed by value.
_NOT3 = (TOP, INDET, BOTTOM)


# A request's facts or error attributes, each as its ``(name, args)`` key.
TermKey = tuple[str, tuple[Constant, ...]]


class RequestIndex:
    """A request prepared for evaluation. ``index_request`` makes one
    per evaluation and fills its slots; it is only read after that. It
    is a plain slots class, not a ``Value``, with no equality of its own.

    ``domain`` is ``request.constants()``, the constants variables range
    over, from every fact of the request. ``domain_set`` is the same as
    a set, or None until a pool first reads it (``_domain_set``); only
    a request with error attributes has a pool that does, since fact
    rows hold domain constants only. ``tuples`` maps a ``(name, arity)``
    signature to the argument tuples of the facts and error attributes
    with it. ``facts`` and ``errors`` hold the ``(name, args)`` keys of
    the facts and of the error attributes. ``functions`` maps ``(f, c)``
    to the values ``v`` of the facts ``f(c,v)``, and ``function_errors``
    holds ``(f, c)`` for every error attribute ``f(c,...)``, of any
    arity. ``category_keys`` holds the keys of the category facts and
    error attributes, the only keys a target match can hit. All but
    ``domain`` hold only the attributes whose names the tree reads (see
    ``index_request``).
    """

    domain: tuple[Constant, ...]
    domain_set: Optional[frozenset[Constant]]
    tuples: dict[tuple[str, int], list[tuple[Constant, ...]]]
    facts: set[TermKey]
    errors: set[TermKey]
    functions: dict[tuple[str, Constant], list[Constant]]
    function_errors: set[tuple[str, Constant]]
    category_keys: set[TermKey]

    __slots__ = ("domain", "domain_set", "tuples", "facts", "errors",
                 "functions", "function_errors", "category_keys")


def index_request(request: Request, needs: AbstractSet[str]) -> RequestIndex:
    """Index a request for evaluation; done once per evaluation. Each
    slot is set as it is computed, ``domain`` last, from one
    ``request.constants()`` call after the passes over the request.

    ``needs`` names the attributes a policy tree reads (``Policy.needs``
    and ``PolicySet.needs``): the names its targets match and the names
    of its conditions' atoms and function operands. A fact or error
    attribute of any other name is left out, as no part of the tree can
    look it up; its constants stay in ``domain``.
    """
    index = RequestIndex()
    index.domain_set = None
    index.tuples = tuples = {}
    index.functions = functions = {}
    index.facts = facts = set()
    index.errors = errors = set()
    index.function_errors = function_errors = set()
    index.category_keys = category_keys = set()
    for term in request.facts:
        key = term.key
        name, args = key
        if name not in needs:
            continue
        facts.add(key)
        tuples.setdefault((name, len(args)), []).append(args)
        if len(args) == 2:
            functions.setdefault((name, args[0]), []).append(args[1])
        elif name in CATEGORIES:  # term.is_category, without a call per fact
            category_keys.add(key)
    for term in request.error_attributes:
        key = term.key
        name, args = key
        if name not in needs:
            continue
        errors.add(key)
        tuples.setdefault((name, len(args)), []).append(args)
        function_errors.add((name, args[0]))
        if name in CATEGORIES:
            category_keys.add(key)
    index.domain = request.constants()
    return index


def kleene_eval(expr: ConditionExpr, binding: Binding, index: RequestIndex) -> Decision3:
    """Evaluate a condition under one binding, with strong Kleene
    connectives over three-valued atom and comparison outcomes.

    A conjunction or disjunction decides its atom members in its own
    loop, and a lone atom goes through the same loop as a conjunction
    of one; only other members are evaluated by a recursive call."""
    if isinstance(expr, And):
        members, conjunction = expr.children, True
    elif isinstance(expr, Or):
        members, conjunction = expr.children, False
    elif isinstance(expr, Atom):
        members, conjunction = (expr,), True
    else:
        members = None
    if members is not None:
        result = TOP if conjunction else BOTTOM
        for member in members:
            if isinstance(member, Atom):
                args = ()
                for term in member.terms:
                    if isinstance(term, Variable):
                        if term.name not in binding:
                            raise UnboundVariableError(f"no binding for variable {term.name}")
                        term = binding[term.name]
                    args += (term,)
                key = (member.name, args)
                value = INDET if key in index.errors else TOP if key in index.facts else BOTTOM
            else:
                value = kleene_eval(member, binding, index)
            if conjunction:
                if value < result:
                    result = value
                    if result is BOTTOM:
                        break
            elif value > result:
                result = value
                if result is TOP:
                    break
        return result
    if isinstance(expr, Not):
        return _NOT3[kleene_eval(expr.expr, binding, index)]
    if isinstance(expr, Compare):
        # The join of comparing every value of one side with every value
        # of the other. A function fact that is absent or marked
        # erroneous keeps it from falling below INDET, and so does a
        # string compared with a number: evaluation errors.
        result = BOTTOM
        sides = []
        for operand in (expr.left, expr.right):
            is_function = isinstance(operand, FunctionValue)
            term = operand.arg if is_function else operand
            if isinstance(term, Variable):
                if term.name not in binding:
                    raise UnboundVariableError(f"no binding for variable {term.name}")
                term = binding[term.name]
            if is_function:
                key = (operand.name, term)
                values = index.functions.get(key, ())
                if not values or key in index.function_errors:
                    result = INDET
                sides.append(values)
            else:
                sides.append((term,))
        compare = _COMPARE_FN[expr.op]
        left, right = sides
        for a in left:
            for b in right:
                if isinstance(a, str) != isinstance(b, str):
                    result = INDET
                elif compare(a, b):
                    return TOP
        return result
    if isinstance(expr, BoolLiteral):
        return TOP if expr.value else BOTTOM
    raise InvalidInputError(f"not a condition expression: {expr!r}")


class ConditionPlan(Value):
    """A condition with what its evaluation needs worked out once: one
    binding rule per free variable (see the module docstring).

    ``variables`` are the free variables, sorted. ``sources[i]`` holds
    the ``(atom, position)`` pairs at which ``variables[i]`` occurs in a
    top-level positive conjunct atom; a variable with sources is a join
    variable. For any other variable, ``sites[i]`` holds its sites, or
    is None when it is a bare comparison operand and ranges over the
    whole domain. ``reads`` holds the names of the condition's atoms and
    function operands: the request attributes its evaluation can look up.
    """

    expr: ConditionExpr
    variables: tuple[str, ...]
    sources: tuple[tuple[tuple[Atom, int], ...], ...]
    sites: tuple[Optional[tuple[Site, ...]], ...]
    reads: frozenset[str]


def compile_condition(expr: ConditionExpr) -> ConditionPlan:
    """Plan a condition for evaluation, in one walk over it; raises
    ``UnboundVariableError`` when it breaks the range restriction: a
    comparison variable that occurs in no atom has nothing to bind it."""
    uses: dict[str, _Uses] = defaultdict(_Uses)
    reads: set[str] = set()
    _collect_uses(expr, True, uses, reads)
    unbound = [name for name, use in uses.items() if not use.bound]
    if unbound:
        raise UnboundVariableError(
            f"comparison variables bound by no atom: {', '.join(sorted(unbound))}"
        )
    variables = tuple(sorted(uses))
    sources = []
    sites = []
    for name in variables:
        use = uses[name]
        sources.append(tuple(use.sources))
        sites.append(() if use.sources else None if use.bare else tuple(use.sites))
    return ConditionPlan(expr, variables, tuple(sources), tuple(sites), frozenset(reads))


def _domain_set(index: RequestIndex) -> frozenset[Constant]:
    """``index.domain`` as a set, built the first time a pool reads it."""
    domain_set = index.domain_set
    if domain_set is None:
        domain_set = index.domain_set = frozenset(index.domain)
    return domain_set


def eval_condition(plan: ConditionPlan, index: RequestIndex) -> Decision3:
    """Evaluate a planned condition existentially over variable bindings.

    The result is the least upper bound of the per-binding outcomes, so
    any TOP binding wins, then any INDET one. Each variable takes only
    the values its binding rule draws, in the domain's order; every
    other binding gives BOTTOM or repeats a value already tried. The
    join variables' pools are drawn first, so a join with no candidate
    gives BOTTOM before any other pool is drawn. A variable with one
    value is bound once, and the product runs over the others in
    variable order, which tries the bindings in the full product's
    order.
    """
    tuples = index.tuples
    # Fact rows hold domain constants only; an error row may not.
    errors = index.errors
    pools = []
    for sources in plan.sources:
        if not sources:
            pools.append(None)
            continue
        # A join variable takes the values under which every atom it
        # binds can ground to a fact or an error attribute; with none,
        # no binding grounds every top-level atom.
        allowed: Optional[set[Constant]] = None
        for atom, position in sources:
            rows = tuples.get((atom.name, len(atom.terms)))
            if rows is None:
                return BOTTOM
            if atom.pattern is None:
                values = set(map(operator.itemgetter(position), rows))
            else:
                fixed, same = atom.pattern
                values = set()
                for args in rows:
                    for i, constant in fixed:
                        if args[i] != constant:
                            break
                    else:
                        for i, j in same:
                            if args[i] != args[j]:
                                break
                        else:
                            values.add(args[position])
            allowed = values if allowed is None else allowed & values
            if not allowed:
                return BOTTOM
        if errors:
            allowed &= _domain_set(index)
            if not allowed:
                return BOTTOM
        pools.append(order_constants(allowed) if len(allowed) > 1 else tuple(allowed))
    binding = {}
    names = []
    spread = []
    for name, pool, sites in zip(plan.variables, pools, plan.sites):
        if pool is None and sites is None:
            pool = index.domain
        elif pool is None:
            # The domain constants seen at the variable's sites, then the
            # first domain constant seen at none, which stands for all of
            # those.
            seen = set()
            for site, arity, position in sites:
                if arity is None:
                    seen.update(map(operator.itemgetter(0), tuples.get((site, 2), ())))
                    for f, c in index.function_errors:
                        if f == site:
                            seen.add(c)
                else:
                    seen.update(map(operator.itemgetter(position), tuples.get((site, arity), ())))
            if errors and seen:
                seen &= _domain_set(index)
            pool = order_constants(seen) if len(seen) > 1 else tuple(seen)
            for constant in index.domain:
                if constant not in seen:
                    pool += (constant,)
                    break
        if len(pool) == 1:
            binding[name] = pool[0]
        else:
            names.append(name)
            spread.append(pool)
    if not spread:
        return kleene_eval(plan.expr, binding, index)
    best = BOTTOM
    for combo in itertools.product(*spread):
        binding.update(zip(names, combo))
        value = kleene_eval(plan.expr, binding, index)
        if value is TOP:
            return value
        if value > best:
            best = value
    return best
