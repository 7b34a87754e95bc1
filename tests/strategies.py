"""Hypothesis strategies for policy trees, conditions and requests."""

from __future__ import annotations

import functools

from hypothesis import strategies as st

from xpdp import (
    AllOf,
    And,
    AnyOf,
    Atom,
    AttributeTerm,
    BoolLiteral,
    CATEGORIES,
    Compare,
    Effect,
    FunctionValue,
    NULL_TARGET,
    Not,
    Or,
    Policy,
    PolicySet,
    Request,
    Rule,
    STANDARD_COMBINERS,
    Target,
    Variable,
)

from oracles import atom_variables, compare_variables
from xpdp.conditions import COMPARISON_OPERATORS

_IDENT_POOL = (
    "alpha", "beta", "gamma", "p", "q", "owner", "ward", "age", "dept",
    "doctor", "nurse", "record", "guardian", "shift", "k9", "a_b",
)
_NAME_POOL = (
    "P", "PS", "R1", "Core", "north_wing", "Audit", "x", "_fallback",
    "Records2", "emergency",
)

idents = st.sampled_from(_IDENT_POOL)
node_names = st.sampled_from(_NAME_POOL)
variables = st.sampled_from(("X", "Y", "Z")).map(Variable)
constants = st.one_of(idents, st.integers(min_value=0, max_value=99))
comparison_ops = st.sampled_from(COMPARISON_OPERATORS)
effects = st.sampled_from(tuple(Effect))
node_combiners = st.sampled_from(STANDARD_COMBINERS)


@st.composite
def matches(draw):
    category = draw(st.sampled_from(CATEGORIES))
    return AttributeTerm(category, (draw(constants),))


@st.composite
def targets(draw):
    if draw(st.booleans()):
        return NULL_TARGET
    any_ofs = []
    for _ in range(draw(st.integers(1, 3))):
        all_ofs = []
        for _ in range(draw(st.integers(1, 2))):
            members = draw(st.lists(matches(), min_size=1, max_size=2))
            all_ofs.append(AllOf(tuple(members)))
        any_ofs.append(AnyOf(tuple(all_ofs)))
    return Target(tuple(any_ofs))


def _terms(var_pool):
    if var_pool:
        return st.one_of(constants, st.sampled_from(var_pool))
    return constants


def _atoms(var_pool):
    return st.builds(
        Atom,
        idents,
        st.lists(_terms(var_pool), min_size=1, max_size=3).map(tuple),
    )


def _operands(var_pool):
    return st.one_of(
        constants,
        *((st.sampled_from(var_pool),) if var_pool else ()),
        st.builds(FunctionValue, idents, _terms(var_pool)),
    )


def _compares(var_pool):
    return st.builds(Compare, _operands(var_pool), comparison_ops, _operands(var_pool))


@functools.lru_cache(maxsize=None)
def _condition_bodies(var_pool: tuple[Variable, ...], allow_not: bool):
    # Built once per variable pool: Hypothesis validates a strategy the
    # first time it is drawn from, and st.recursive is costly to validate.
    base = st.one_of(
        st.builds(BoolLiteral, st.booleans()),
        _atoms(var_pool),
        _compares(var_pool),
    )
    extenders = [
        lambda c: st.builds(lambda xs: And(tuple(xs)), st.lists(c, min_size=2, max_size=3)),
        lambda c: st.builds(lambda xs: Or(tuple(xs)), st.lists(c, min_size=2, max_size=3)),
    ]
    if allow_not:
        extenders.append(lambda c: st.builds(Not, c))
    return st.recursive(base, lambda c: st.one_of(*(e(c) for e in extenders)), max_leaves=6)


@st.composite
def conditions(draw, allow_not: bool = True):
    """A condition whose comparison variables are all anchored by atoms."""
    var_pool = tuple(
        Variable(name)
        for name in draw(st.lists(st.sampled_from(("X", "Y")), unique=True, max_size=2))
    )
    expr = draw(_condition_bodies(var_pool, allow_not))
    # Anchor every comparison variable with an atom so the range
    # restriction holds by construction.
    missing = sorted(compare_variables(expr) - atom_variables(expr))
    if missing:
        anchors = tuple(Atom("binds", (Variable(name),)) for name in missing)
        expr = And(anchors + (expr,))
    return expr


@st.composite
def rules(draw, allow_not: bool = True):
    return Rule(
        name=draw(node_names),
        effect=draw(effects),
        target=draw(targets()),
        condition=draw(conditions(allow_not=allow_not)),
    )


@st.composite
def policies(draw):
    return Policy(
        name=draw(node_names),
        target=draw(targets()),
        rules=tuple(draw(st.lists(rules(), min_size=1, max_size=3))),
        combiner=draw(node_combiners),
    )


@st.composite
def policy_sets(draw, depth: int = 2, width: int = 2):
    """A policy set of up to ``width`` policy sets, or up to
    ``width + 1`` policies, nested at most ``depth`` deep."""
    if depth > 0 and draw(st.booleans()):
        children = tuple(draw(st.lists(policy_sets(depth - 1, width), max_size=width)))
    else:
        children = tuple(draw(st.lists(policies(), max_size=width + 1)))
    return PolicySet(
        name=draw(node_names),
        target=draw(targets()),
        children=children,
        combiner=draw(node_combiners),
    )


def policy_nodes():
    return st.one_of(policies(), policy_sets())


# A few constants shared by the facts of join_requests and requests_over,
# so that atoms over the same predicate meet on common values.
_JOIN_CONSTANTS = ("p", "q", "alpha", 0, 1)


def _leaves(expr):
    """The atoms, comparisons and literals of a condition."""
    if isinstance(expr, Not):
        yield from _leaves(expr.expr)
    elif isinstance(expr, (And, Or)):
        for child in expr.children:
            yield from _leaves(child)
    else:
        yield expr


def _atoms_in(expr):
    return [leaf for leaf in _leaves(expr) if isinstance(leaf, Atom)]


def _function_values(expr):
    return [
        op
        for leaf in _leaves(expr)
        if isinstance(leaf, Compare)
        for op in (leaf.left, leaf.right)
        if isinstance(op, FunctionValue)
    ]


def _ground(term, binding):
    return binding[term.name] if isinstance(term, Variable) else term


def _grounded(atom):
    """The atom as a fact, its variables bound into the join constants."""
    pool = st.sampled_from(_JOIN_CONSTANTS)
    binding = st.fixed_dictionaries({name: pool for name in ("X", "Y", "Z")})
    return binding.map(
        lambda b: AttributeTerm(atom.name, tuple(_ground(t, b) for t in atom.terms))
    )


@st.composite
def join_requests(draw, condition):
    """Requests with arity-1 to arity-3 facts and error attributes over a
    small constant pool. Many of them are atoms of ``condition`` grounded
    by a binding into that pool, so its atoms have facts to join on."""
    pool = st.sampled_from(_JOIN_CONSTANTS)

    def random_term(signature):
        name, arity = signature
        return st.lists(pool, min_size=arity, max_size=arity).map(
            lambda args: AttributeTerm(name, tuple(args))
        )

    term = st.tuples(idents, st.integers(1, 3)).flatmap(random_term)
    atoms = _atoms_in(condition)
    if atoms:
        term = st.one_of(term, st.sampled_from(atoms).flatmap(_grounded))
    facts = frozenset(draw(st.lists(term, min_size=1, max_size=8)))
    errors = frozenset(draw(st.lists(term, max_size=3))) - facts
    return Request(facts=facts, error_attributes=errors)


@st.composite
def join_conditions(draw):
    """A conjunction of one to three atoms over shared variables and the
    join constants, with a generated condition as its last member."""
    term = st.one_of(variables, st.sampled_from(_JOIN_CONSTANTS))
    atom = st.builds(
        Atom, st.sampled_from(("r", "s", "t")), st.lists(term, min_size=1, max_size=3).map(tuple)
    )
    atoms = draw(st.lists(atom, min_size=1, max_size=3))
    return And(tuple(atoms) + (draw(conditions()),))


@st.composite
def requests(draw):
    terms = draw(
        st.lists(
            st.builds(
                AttributeTerm,
                st.one_of(idents, st.sampled_from(CATEGORIES)),
                st.lists(constants, min_size=1, max_size=1).map(tuple),
            ),
            min_size=1,
            max_size=6,
        )
    )
    facts = frozenset(terms)
    errors = frozenset(
        t
        for t in draw(
            st.lists(
                st.builds(
                    AttributeTerm,
                    idents,
                    st.lists(constants, min_size=1, max_size=2).map(tuple),
                ),
                max_size=2,
            )
        )
        if t not in facts
    )
    return Request(facts=facts, error_attributes=errors)


def tree_nodes(node):
    """The node, then every policy, policy set and rule under it."""
    yield node
    for member in node.rules if isinstance(node, Policy) else node.children:
        if isinstance(member, Rule):
            yield member
        else:
            yield from tree_nodes(member)


def target_matches(target):
    """Every category match in a target, in order."""
    for any_of in target.any_ofs:
        for all_of in any_of.all_ofs:
            yield from all_of.matches


# How requests_over files each term: as a fact twice as often as as an
# error attribute, or not at all.
_STATUSES = st.sampled_from(("fact", "fact", "error", "absent"))


@st.composite
def requests_over(draw, matches_seen, conditions_seen=()):
    """Requests that hit, miss and error on the given category matches
    and condition atoms. Each match, and each atom of a condition
    grounded by one binding into the join constants per condition,
    becomes a fact, an error attribute or nothing. So do a function
    fact for each function value the conditions compare and a few
    random category matches."""
    pool = st.sampled_from(_JOIN_CONSTANTS)
    terms = list(matches_seen) + draw(st.lists(matches(), max_size=2))
    for condition in conditions_seen:
        binding = draw(st.fixed_dictionaries({name: pool for name in ("X", "Y", "Z")}))
        terms += [
            AttributeTerm(atom.name, tuple(_ground(t, binding) for t in atom.terms))
            for atom in _atoms_in(condition)
        ]
        terms += [
            AttributeTerm(f.name, (_ground(f.arg, binding), draw(st.one_of(pool, constants))))
            for f in _function_values(condition)
        ]
    facts, errors = set(), set()
    for term in dict.fromkeys(terms):
        status = draw(_STATUSES)
        if status == "fact":
            facts.add(term)
        elif status == "error":
            errors.add(term)
    if not facts:
        facts.add(AttributeTerm("pad", ("pad",)))
    return Request(facts=frozenset(facts), error_attributes=frozenset(errors))


def tree_requests(node):
    """Requests over a tree's own vocabulary: the matches of its
    targets and the atoms and function values of its conditions, so
    that targets come out TOP, INDET and BOTTOM and conditions have
    facts to join on."""
    members = list(tree_nodes(node))
    return requests_over(
        [m for n in members for m in target_matches(n.target)],
        [n.condition for n in members if isinstance(n, Rule)],
    )
