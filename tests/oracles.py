"""Independent oracles the implementation is checked against.

Everything here is written directly from the prose descriptions of the
algorithms and from the lattice diagrams, without going through the
package's lattice machinery, so a bug in one side cannot hide in the
other. The exceptions are ``evaluate_ungated``, the evaluator's walk
without member gates, kept as the reference the gated walk's traces
must equal; ``eval_target_terms``, the target loop over
``AttributeTerm`` matches that ground keys replaced;
``lex_with_offsets``, the lexer the ``findall`` lexer replaced, kept as
the reference for its tokens, offsets and diagnostics;
``REFERENCE_TOKEN_RE``, the ``findall`` lexer's pattern before its
alternatives were reordered for speed, the reference for its matches;
``one_findall_texts``, the token texts as the lexer read them before it
read its input a slice of lines at a time;
``constants_with_fallback`` and ``full_index``, the request's constants
and index as they were built before the index read only the names a
tree reads; ``index_all``, ``index_request`` over every name a request
holds; and ``compile_gate_reference``, the member gate as it was
compiled in four passes, over distinct any-ofs weighed by their users.
"""

from __future__ import annotations

import itertools
import re
from collections import Counter
from typing import Optional, Sequence

from xpdp import (
    And,
    Atom,
    AttributeTerm,
    BoolLiteral,
    Compare,
    ConditionExpr,
    Decision3,
    Decision6,
    Effect,
    EvalTrace,
    FunctionValue,
    InvalidInputError,
    Not,
    Or,
    PairValue,
    ParseError,
    Policy,
    PolicySet,
    Request,
    RequestIndex,
    Rule,
    SourceSpan,
    Target,
    TraceNode,
    UnboundVariableError,
    Variable,
    combine,
    delta,
    eval_condition,
    eval_target,
    glb3,
    index_request,
    lub3,
    rule_decision,
    weaken_to_indeterminate,
)
from xpdp.combiners import ABSORBING
from xpdp.policy import MemberGate
from xpdp.textio import _TOKEN_RE

D3 = Decision3
D6 = Decision6


def permit_overrides_behaviour(decisions: Sequence[Decision6]) -> Decision6:
    """The seven-step permit-overrides rules, applied literally."""
    values = list(decisions)
    if any(v is D6.PERMIT for v in values):
        return D6.PERMIT
    if any(v is D6.INDET_DP for v in values):
        return D6.INDET_DP
    if any(v is D6.INDET_P for v in values) and any(
        v in (D6.INDET_D, D6.DENY) for v in values
    ):
        return D6.INDET_DP
    if any(v is D6.INDET_P for v in values):
        return D6.INDET_P
    if any(v is D6.DENY for v in values):
        return D6.DENY
    if any(v is D6.INDET_D for v in values):
        return D6.INDET_D
    return D6.NOT_APPLICABLE


def deny_overrides_behaviour(decisions: Sequence[Decision6]) -> Decision6:
    """The seven-step deny-overrides rules, applied literally."""
    values = list(decisions)
    if any(v is D6.DENY for v in values):
        return D6.DENY
    if any(v is D6.INDET_DP for v in values):
        return D6.INDET_DP
    if any(v is D6.INDET_D for v in values) and any(
        v in (D6.INDET_P, D6.PERMIT) for v in values
    ):
        return D6.INDET_DP
    if any(v is D6.INDET_D for v in values):
        return D6.INDET_D
    if any(v is D6.PERMIT for v in values):
        return D6.PERMIT
    if any(v is D6.INDET_P for v in values):
        return D6.INDET_P
    return D6.NOT_APPLICABLE


def _closure(pairs: set[tuple]) -> frozenset[tuple]:
    changed = True
    while changed:
        changed = False
        for (a, b) in list(pairs):
            for (c, d) in list(pairs):
                if b == c and (a, d) not in pairs:
                    pairs.add((a, d))
                    changed = True
    return frozenset(pairs)


def _order(covers) -> frozenset[tuple]:
    pairs = {(v, v) for v in D6}
    pairs.update(covers)
    return _closure(pairs)


# Hand-transcribed cover edges of the three decision-lattice diagrams.
# Left diagram: NotApplicable below Indeterminate{P} and Indeterminate{D},
# then Deny, then Indeterminate{DP}, with Permit on top.
PO_ORDER = _order(
    [
        (D6.NOT_APPLICABLE, D6.INDET_P),
        (D6.NOT_APPLICABLE, D6.INDET_D),
        (D6.INDET_D, D6.DENY),
        (D6.INDET_P, D6.INDET_DP),
        (D6.DENY, D6.INDET_DP),
        (D6.INDET_DP, D6.PERMIT),
    ]
)

# Middle diagram: the mirror image, with Deny on top.
DO_ORDER = _order(
    [
        (D6.NOT_APPLICABLE, D6.INDET_D),
        (D6.NOT_APPLICABLE, D6.INDET_P),
        (D6.INDET_P, D6.PERMIT),
        (D6.INDET_D, D6.INDET_DP),
        (D6.PERMIT, D6.INDET_DP),
        (D6.INDET_DP, D6.DENY),
    ]
)

# Right diagram: two chains through Deny and Permit meeting at
# Indeterminate{DP}.
O1A_ORDER = _order(
    [
        (D6.NOT_APPLICABLE, D6.DENY),
        (D6.DENY, D6.INDET_D),
        (D6.INDET_D, D6.INDET_DP),
        (D6.NOT_APPLICABLE, D6.PERMIT),
        (D6.PERMIT, D6.INDET_P),
        (D6.INDET_P, D6.INDET_DP),
    ]
)

ORDERS = {"po": PO_ORDER, "do": DO_ORDER, "o1a": O1A_ORDER}


def least_upper_bound(order: frozenset[tuple], elements, values):
    """Brute-force least upper bound; None when absent or not unique."""
    values = list(values)
    uppers = [u for u in elements if all((v, u) in order for v in values)]
    least = [u for u in uppers if all((u, v) in order for v in uppers)]
    if len(least) != 1:
        return None
    return least[0]


def greatest_lower_bound(order: frozenset[tuple], elements, values):
    values = list(values)
    lowers = [u for u in elements if all((u, v) in order for v in values)]
    greatest = [u for u in lowers if all((v, u) in order for v in lowers)]
    if len(greatest) != 1:
        return None
    return greatest[0]


def swap_effects(value: Decision6) -> Decision6:
    """Exchange the deny and permit roles inside one decision."""
    return {
        D6.PERMIT: D6.DENY,
        D6.DENY: D6.PERMIT,
        D6.INDET_P: D6.INDET_D,
        D6.INDET_D: D6.INDET_P,
        D6.INDET_DP: D6.INDET_DP,
        D6.NOT_APPLICABLE: D6.NOT_APPLICABLE,
    }[value]


def delta_inverse(value: PairValue) -> Decision6:
    """The decision a six-point pair value encodes; the other three of
    the nine points have none."""
    for decision in D6:
        if delta(decision) == value:
            return decision
    raise InvalidInputError(f"{value} has no six-valued counterpart")


def rule_decision_cases(
    target_value: Decision3, condition_value: Decision3, effect: Effect
) -> Decision6:
    """Literal case analysis of rule evaluation; equals ``rule_decision``."""
    if target_value is D3.TOP and condition_value is D3.TOP:
        return D6.PERMIT if effect is Effect.PERMIT else D6.DENY
    if (
        target_value is D3.TOP and condition_value is D3.BOTTOM
    ) or target_value is D3.BOTTOM:
        return D6.NOT_APPLICABLE
    return D6.INDET_P if effect is Effect.PERMIT else D6.INDET_D


def _ground(term, binding: dict) -> object:
    if isinstance(term, Variable):
        try:
            return binding[term.name]
        except KeyError:
            raise UnboundVariableError(f"no binding for variable {term.name}") from None
    return term


_COMPARE = {
    "=": lambda a, b: a == b,
    "!=": lambda a, b: a != b,
    "<": lambda a, b: a < b,
    "<=": lambda a, b: a <= b,
    ">": lambda a, b: a > b,
    ">=": lambda a, b: a >= b,
}


def _operand_values(op, binding: dict, request: Request) -> tuple[list, bool]:
    """An operand's values plus whether a function fact is absent or
    error-marked, found by scanning every fact and error attribute."""
    if isinstance(op, FunctionValue):
        arg = _ground(op.arg, binding)
        values = [
            fact.args[1]
            for fact in request.facts
            if fact.name == op.name and len(fact.args) == 2 and fact.args[0] == arg
        ]
        errored = any(
            err.name == op.name and err.args[0] == arg for err in request.error_attributes
        )
        return values, errored or not values
    return [_ground(op, binding)], False


def kleene_eval_terms(expr: ConditionExpr, binding: dict, request: Request) -> Decision3:
    """A condition's value under one binding: each atom grounded to an
    ``AttributeTerm`` and looked up in the request, each function
    operand found by a scan, strong Kleene connectives over the rest."""
    if isinstance(expr, BoolLiteral):
        return D3.TOP if expr.value else D3.BOTTOM
    if isinstance(expr, Atom):
        ground = AttributeTerm(expr.name, tuple(_ground(t, binding) for t in expr.terms))
        return eval_match(ground, request)
    if isinstance(expr, Compare):
        lvals, lflag = _operand_values(expr.left, binding, request)
        rvals, rflag = _operand_values(expr.right, binding, request)
        results = [
            D3.INDET
            if isinstance(a, str) != isinstance(b, str)
            else D3.TOP
            if _COMPARE[expr.op](a, b)
            else D3.BOTTOM
            for a in lvals
            for b in rvals
        ]
        if lflag or rflag:
            results.append(D3.INDET)
        return max(results)  # a missing value on either side adds INDET
    if isinstance(expr, Not):
        return D3(2 - kleene_eval_terms(expr.expr, binding, request))
    if isinstance(expr, (And, Or)):
        # The meet (And) or join (Or) of the children, stopping once it
        # reaches the bottom (top) that no later child can change.
        pick, stop = (min, D3.BOTTOM) if isinstance(expr, And) else (max, D3.TOP)
        result = D3(2 - stop)
        for child in expr.children:
            result = pick(result, kleene_eval_terms(child, binding, request))
            if result is stop:
                break
        return result
    raise InvalidInputError(f"not a condition expression: {expr!r}")


def constants_with_fallback(request: Request) -> tuple:
    """The request's constants as ``Request.constants`` built them before
    it split strings from numbers in one pass: one sort of the set of
    fact arguments, and when that raises ``TypeError`` (strings and
    numbers do not compare), the strings sorted, then the numbers."""
    seen = {arg for fact in request.facts for arg in fact.args}
    try:
        return tuple(sorted(seen))  # all strings or all numbers
    except TypeError:  # strings and numbers do not compare
        strings = sorted([a for a in seen if isinstance(a, str)])
        return (*strings, *sorted([a for a in seen if not isinstance(a, str)]))


def full_index(request: Request) -> dict:
    """The fields of the request index as ``index_request`` built it before
    it read only the names a tree reads: every fact and error attribute
    indexed."""
    tuples: dict = {}
    functions: dict = {}
    facts = set()
    errors = set()
    function_errors = set()
    category_keys = set()
    for term in request.facts:
        key = term.key
        name, args = key
        facts.add(key)
        tuples.setdefault((name, len(args)), []).append(args)
        if len(args) == 2:
            functions.setdefault((name, args[0]), []).append(args[1])
        elif term.is_category:
            category_keys.add(key)
    for term in request.error_attributes:
        key = term.key
        name, args = key
        errors.add(key)
        tuples.setdefault((name, len(args)), []).append(args)
        function_errors.add((name, args[0]))
        if term.is_category:
            category_keys.add(key)
    return {
        "domain": constants_with_fallback(request),
        "tuples": tuples,
        "facts": facts,
        "errors": errors,
        "functions": functions,
        "function_errors": function_errors,
        "category_keys": category_keys,
    }


def index_all(request: Request) -> RequestIndex:
    """``index_request`` for every name among the request's facts and
    error attributes, so every one of them is indexed."""
    return index_request(
        request, {t.name for t in itertools.chain(request.facts, request.error_attributes)}
    )


def compile_gate_reference(
    targets: Sequence[Target], gates: Optional[Sequence] = None
) -> MemberGate:
    """``compile_gate`` in four passes: the distinct any-ofs with the
    number of members using each, the count of each match key weighted
    by those users, each distinct any-of's pick, then the members."""
    # Any-ofs by the id of their keys, with the number of members using them.
    any_ofs: dict[int, tuple] = {}
    users: Counter[int] = Counter()
    for target in targets:
        for any_of in target.keys:
            any_ofs[id(any_of)] = any_of
            users[id(any_of)] += 1
    mentions: Counter = Counter()
    for ident, any_of in any_ofs.items():
        for all_of in any_of:
            for key in all_of:
                mentions[key] += users[ident]
    count = mentions.__getitem__
    picks: dict[int, tuple] = {}
    for ident, any_of in any_ofs.items():
        chosen = tuple(min(all_of, key=count) for all_of in any_of)
        picks[ident] = (sum(map(count, chosen)), chosen)
    keys: dict = {}
    always = []
    required, alternations = [], []
    for i, target in enumerate(targets):
        best = None
        needed, alternating = [], []
        for any_of in target.keys:
            pick = picks[id(any_of)]
            if best is None or pick[0] < best[0]:
                best = pick
            if len(any_of) == 1:
                needed.extend(any_of[0])
            else:
                alternating.append(any_of)
        required.append(tuple(needed))
        alternations.append(tuple(alternating))
        if best is None and (gates is None or gates[i].always):
            always.append(i)
        elif best is None:
            for key in gates[i].keys:
                keys.setdefault(key, []).append(i)
        else:
            for key in best[1]:
                positions = keys.setdefault(key, [])
                if not positions or positions[-1] != i:
                    positions.append(i)
    return MemberGate({k: tuple(p) for k, p in keys.items()}, tuple(always),
                      tuple(required), tuple(alternations))


def _variable_occurrences(expr: ConditionExpr):
    """Each variable occurrence in ``expr`` as ``(name, where)``, with
    ``where`` one of ``"atom"``, ``"bare"`` (a comparison operand) and
    ``"function"`` (a function operand's argument)."""
    if isinstance(expr, Atom):
        for term in expr.terms:
            if isinstance(term, Variable):
                yield term.name, "atom"
    elif isinstance(expr, Compare):
        for op in (expr.left, expr.right):
            if isinstance(op, Variable):
                yield op.name, "bare"
            elif isinstance(op, FunctionValue) and isinstance(op.arg, Variable):
                yield op.arg.name, "function"
    elif isinstance(expr, (And, Or)):
        for child in expr.children:
            yield from _variable_occurrences(child)
    elif isinstance(expr, Not):
        yield from _variable_occurrences(expr.expr)


def atom_variables(expr: ConditionExpr) -> frozenset[str]:
    """Variables occurring inside atoms (the positions that bind)."""
    return frozenset(name for name, where in _variable_occurrences(expr) if where == "atom")


def compare_variables(expr: ConditionExpr) -> frozenset[str]:
    """Variables occurring in comparisons, bare or as a function argument."""
    return frozenset(name for name, where in _variable_occurrences(expr) if where != "atom")


def free_variables(expr: ConditionExpr) -> frozenset[str]:
    return frozenset(name for name, _ in _variable_occurrences(expr))


def check_range_restriction(expr: ConditionExpr) -> frozenset[str]:
    """Every comparison variable must also occur in some atom, or there
    is nothing to bind it against. Returns the free variables, which
    are then exactly the atom variables."""
    unbound = free_variables(expr) - atom_variables(expr)
    if unbound:
        raise UnboundVariableError(
            f"comparison variables bound by no atom: {', '.join(sorted(unbound))}"
        )
    return free_variables(expr)


def eval_condition_product(expr: ConditionExpr, request: Request) -> Decision3:
    """A condition's value by brute force: the least upper bound of its
    value under every binding of its free variables to the request's
    constants, stopping at the first TOP."""
    check_range_restriction(expr)
    names = sorted(free_variables(expr))
    best = D3.BOTTOM
    for combo in itertools.product(constants_with_fallback(request), repeat=len(names)):
        value = kleene_eval_terms(expr, dict(zip(names, combo)), request)
        if value is D3.TOP:
            return value
        if value > best:
            best = value
    return best


def eval_match(match: AttributeTerm, request: Request) -> Decision3:
    """TOP when the request carries the attribute, INDET when the
    attribute is marked erroneous, BOTTOM otherwise."""
    if match in request.error_attributes:
        return D3.INDET
    if match in request.facts:
        return D3.TOP
    return D3.BOTTOM


def eval_target_lattice(target: Target, request: Request) -> Decision3:
    """A target's value as the lattice expression: the glb over any-ofs
    of the lub over all-ofs of the glb of the match values. The null
    target, a glb over no any-ofs, is TOP."""
    return glb3(
        lub3(
            glb3(eval_match(m, request) for m in all_of.matches)
            for all_of in any_of.all_ofs
        )
        for any_of in target.any_ofs
    )


def eval_target_terms(target: Target, request: Request) -> Decision3:
    """A target's value from its ``AttributeTerm`` matches, looked up in
    the request's fact and error sets: the meet over any-ofs of the join
    over all-ofs of the meet of matches, each loop stopping early."""
    result = D3.TOP
    for any_of in target.any_ofs:
        joined = D3.BOTTOM
        for all_of in any_of.all_ofs:
            met = D3.TOP
            for m in all_of.matches:
                if m in request.facts:
                    continue
                if m not in request.error_attributes:
                    met = D3.BOTTOM
                    break
                met = D3.INDET
            if met is D3.TOP:
                joined = met
                break
            if met is D3.INDET:
                joined = met
        if joined is D3.BOTTOM:
            return joined
        if joined is D3.INDET:
            result = joined
    return result


def eval_rule(rule: Rule, request: Request) -> Decision6:
    return rule_decision(
        eval_target_lattice(rule.target, request),
        eval_condition_product(rule.condition, request),
        rule.effect,
    )


def _exhaustive(node, request: Request, path: tuple[int, ...], results: dict) -> Decision6:
    target_value = eval_target_lattice(node.target, request)
    if isinstance(node, Policy):
        inputs = []
        for i, rule in enumerate(node.rules):
            results[path + (i,)] = eval_rule(rule, request)
            inputs.append(results[path + (i,)])
    else:
        inputs = [
            _exhaustive(child, request, path + (i,), results)
            for i, child in enumerate(node.children)
        ]
    inputs = tuple(inputs)
    combined = combine(node.combiner, "v6", inputs)
    results[path] = node_result_with_blank_case(target_value, combined, inputs)
    return results[path]


def evaluate_exhaustive(node: Policy | PolicySet, request: Request) -> Decision6:
    """A tree's decision with nothing skipped: every target, every
    condition (by brute force) and every member of every node is
    evaluated, and each node combines all its members."""
    return _exhaustive(node, request, (), {})


def exhaustive_results(
    node: Policy | PolicySet, request: Request
) -> dict[tuple[int, ...], Decision6]:
    """Every node's decision in the exhaustive walk, by trace path."""
    results: dict = {}
    _exhaustive(node, request, (), results)
    return results


def eval_policy(policy: Policy, request: Request) -> Decision6:
    return evaluate_exhaustive(policy, request)


def eval_policyset(policy_set: PolicySet, request: Request) -> Decision6:
    return evaluate_exhaustive(policy_set, request)


def node_result_with_blank_case(
    target_value: Decision3, combined: Decision6, inputs: tuple[Decision6, ...]
) -> Decision6:
    """How a policy node combines its target with its members' combined
    decision, including a separate case for members that are all
    NotApplicable under a matched target."""
    if target_value is D3.INDET and combined is not D6.NOT_APPLICABLE:
        return weaken_to_indeterminate(combined)
    if target_value is D3.BOTTOM or (
        target_value is D3.TOP and all(v is D6.NOT_APPLICABLE for v in inputs)
    ):
        return D6.NOT_APPLICABLE
    return combined


def node_result(target_value: Decision3, combined: Decision6) -> Decision6:
    """How a node's target and its members' combination give its
    decision, in the three cases the walk distinguishes."""
    # An indeterminate target weakens an applicable or indeterminate
    # combination; an unmatched target is inapplicable; anything else
    # passes the combination through.
    if target_value is D3.INDET and combined is not D6.NOT_APPLICABLE:
        return weaken_to_indeterminate(combined)
    if target_value is D3.BOTTOM:
        return D6.NOT_APPLICABLE
    return combined


def _rule_node(
    rule: Rule, index, path: tuple[int, ...], want_trace: bool
) -> tuple[Decision6, Optional[TraceNode]]:
    target_value = eval_target(rule.target, index)
    if target_value is D3.TOP:
        condition_value = eval_condition(rule.plan, index)
    else:
        condition_value = None
    result = rule_decision(target_value, condition_value, rule.effect)
    if not want_trace:
        return result, None
    node = TraceNode(
        path=path,
        kind="rule",
        name=rule.name,
        target_value=target_value,
        condition_value=condition_value,
        combiner=None,
        inputs=(),
        combined=None,
        result=result,
        children=(),
        skipped=None if condition_value is not None else "target",
    )
    return result, node


def _ungated(node, index, path: tuple[int, ...], want_trace: bool):
    if isinstance(node, Policy):
        kind, members, visit = "policy", node.rules, _rule_node
    else:
        kind, members, visit = "policyset", node.children, _ungated
    target_value = eval_target(node.target, index)
    inputs: list[Decision6] = []
    child_traces: list[TraceNode] = []
    combined = None
    skipped = None
    if target_value is D3.BOTTOM:
        result = D6.NOT_APPLICABLE
        skipped = "target"
    else:
        absorbing = ABSORBING[node.combiner]
        for i, member in enumerate(members):
            value, trace = visit(member, index, path + (i,), want_trace)
            inputs.append(value)
            if trace is not None:
                child_traces.append(trace)
            if value in absorbing:
                if i + 1 < len(members):
                    skipped = "decided"
                break
        combined = combine(node.combiner, "v6", tuple(inputs))
        result = node_result(target_value, combined)
    if not want_trace:
        return result, None
    trace_node = TraceNode(
        path=path,
        kind=kind,
        name=node.name,
        target_value=target_value,
        condition_value=None,
        combiner=node.combiner,
        inputs=tuple(inputs),
        combined=combined,
        result=result,
        children=tuple(child_traces),
        skipped=skipped,
    )
    return result, trace_node


def evaluate_ungated(node: Policy | PolicySet, request: Request, with_trace: bool = False):
    """``evaluate`` without member gates: a node whose target is not
    BOTTOM visits every member, in order, up to the first absorbing
    value. It indexes every fact and error attribute of the request,
    not only those whose names the tree reads. It shares everything
    else with ``evaluate`` (targets, conditions, rule decisions,
    combiners), so it is the reference for the gate and the index's
    relevance filter: the two must give equal decisions and equal
    traces."""
    decision, trace_node = _ungated(node, index_all(request), (), with_trace)
    return decision, EvalTrace(trace_node) if trace_node is not None else None


# -- the lexer the parser replaced ------------------------------------------

_LEX_SYMBOLS = {
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

_LEX_SPEC = [
    ("WS", r"[ \t\r\n]+"),
    ("COMMENT", r"#[^\n]*"),
    ("COMBINER", r"(?:all-permit|o-1-a|p-o|d-o|f-a)(?![A-Za-z0-9_-])"),
    ("NUMBER", r"[0-9]+"),
    ("IDENT", r"[A-Za-z_][A-Za-z0-9_]*"),
    *((kind, re.escape(text)) for kind, text in _LEX_SYMBOLS.items()),
    ("UNEXPECTED", r"(?s:.)"),
]

_LEX_RE = re.compile("|".join(f"(?P<{name}>{rx})" for name, rx in _LEX_SPEC))


def lex_with_offsets(source: str) -> list[tuple[str, str, int]]:
    """The tokens of ``source`` as ``(kind, text, start)`` tuples, ending
    with an empty ``EOF`` token at ``len(source)``: one ``finditer``
    match per token and per run of whitespace or comment. An unexpected
    character raises ``ParseError`` spanning it, before any parsing."""
    tokens = []
    for match in _LEX_RE.finditer(source):
        kind = match.lastgroup
        if kind == "WS" or kind == "COMMENT":
            continue
        start = match.start()
        if kind == "UNEXPECTED":
            line_start = source.rfind("\n", 0, start) + 1
            span = SourceSpan(
                start, match.end(), source.count("\n", 0, start) + 1, start - line_start + 1
            )
            raise ParseError(f"unexpected character {match.group()!r}", span)
        tokens.append((kind, match.group(), start))
    tokens.append(("EOF", "", len(source)))
    return tokens


# -- the findall lexer's pattern before its alternatives were reordered ----

_REFERENCE_COMBINERS = ("all-permit", "o-1-a", "p-o", "d-o", "f-a")

# Whitespace and comments skipped, then the token as group 1, tried
# longest-prefix first: combiners, numbers, identifiers, then the
# symbols, each before any symbol it is a prefix of.
REFERENCE_TOKEN_RE = re.compile(
    r"[ \t\r\n]*(?:#[^\n]*[ \t\r\n]*)*((?:"
    + "|".join(_REFERENCE_COMBINERS)
    + r")(?![A-Za-z0-9_-])|[0-9]+|[A-Za-z_][A-Za-z0-9_]*"
    + "".join("|" + re.escape(text) for text in _LEX_SYMBOLS.values())
    + r"|(?s:.)|\Z)"
)


def one_findall_texts(source: str) -> list[str]:
    """The token texts of ``source`` from one ``findall`` of the lexer's
    pattern over all of it, less the second empty end-of-input match
    that trailing blanks leave: the lexer before it read in slices.
    Unexpected characters are not checked."""
    texts = _TOKEN_RE.findall(source)
    if len(texts) > 1 and not texts[-2]:
        texts.pop()
    return texts
