"""The policy tree and its evaluation pipeline.

A policy tree is a PolicySet of PolicySets or Policies, each Policy a
non-empty sequence of Rules. Evaluation walks the tree top-down and
decides each node from its target and its members' decisions: matches
feed targets, targets and conditions feed rules, rule decisions feed
the policy's combining algorithm, and so on to the root.

The walk evaluates only what can change the decision. A rule's
condition is evaluated only under a TOP target, because the rule
decision gates the condition behind the target. A node whose target is
BOTTOM is NotApplicable, so its members are not visited. A node stops
visiting members at the first value that absorbs its combination (the
top of the combiner's lattice, or any value but NotApplicable for
first-applicable; ``combiners.ABSORBING``).

A node visits only the members that can apply. When a policy or policy
set is built it compiles a ``MemberGate``: each member with a non-null
target is listed under one match from each all-of of one of its
any-ofs, chosen so that as few siblings as possible share them. A
target that is not BOTTOM needs, in every any-of, an all-of whose
matches are all facts or error attributes, so one listed match of each
such member is in the request. The node visits, in order, the members
its request's category facts and error attributes hit, plus the
null-target members. Every other member is NotApplicable, which every
standard combiner ignores (the bottom of the p-o and d-o lattices,
skipped by f-a, a blank to o-1-a), so leaving it out changes no value.

An optional trace records every value the walk computed, and marks
each node that left work undone with the reason (``TraceNode.skipped``).
A member the gate left out is not evaluated, but it is traced as the
node its BOTTOM target gives, and its NotApplicable is among its
parent's inputs, so the trace is the same as without the gate.

Rules are decided by the composed gate-and-lift form; the test suite
checks it exhaustively against the literal three-case analysis. A rule
plans its condition once, when it is built (``compile_condition``), and
``evaluate`` indexes the request once (``index_request``) and hands the
index down the walk.
Policies and policy sets accept only the four standard combining
algorithms, the ones defined over six-valued decisions.
"""

from __future__ import annotations

import re
from collections import Counter
from typing import Mapping, Optional, Sequence, Union

from .combiners import ABSORBING, STANDARD_COMBINERS, CombinerId, combine
from .conditions import (
    ConditionExpr,
    ConditionPlan,
    RequestIndex,
    compile_condition,
    eval_condition,
    index_request,
)
from .decisions import Decision3, Decision6, Effect, arrow, sigma
from .errors import EncodingUnsupportedError, InvalidInputError
from .requests import AttributeTerm, Request
from .values import Value

_NAME_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*\Z")


def _check_name(name: str) -> None:
    if not _NAME_RE.match(name):
        raise InvalidInputError(f"not a usable node name: {name!r}")


def _check_combiner(combiner: CombinerId) -> None:
    if combiner not in STANDARD_COMBINERS:
        raise EncodingUnsupportedError(
            f"{combiner} is not defined over six-valued decisions; "
            "use p-o, d-o, f-a or o-1-a"
        )


class AllOf(Value):
    """Conjunction of category matches; all must hit."""

    matches: tuple[AttributeTerm, ...]

    def __post_init__(self) -> None:
        if not self.matches:
            raise InvalidInputError("an all-of group needs at least one match")
        for m in self.matches:
            if not m.is_category:
                raise InvalidInputError(
                    f"target matches must use a category attribute, got {m}"
                )


class AnyOf(Value):
    """Disjunction of all-of groups; one hit suffices."""

    all_ofs: tuple[AllOf, ...]

    def __post_init__(self) -> None:
        if not self.all_ofs:
            raise InvalidInputError("an any-of group needs at least one all-of")


class Target(Value):
    """Applicability filter: a conjunction of any-of groups, or null.

    ``any_ofs`` is None for the null target, which applies to every
    request; a present tuple must be non-empty.
    """

    any_ofs: tuple[AnyOf, ...] | None

    def __post_init__(self) -> None:
        if self.any_ofs is not None and not self.any_ofs:
            raise InvalidInputError("a non-null target needs at least one any-of")


NULL_TARGET = Target(None)


class MemberGate(Value):
    """A node's members indexed by target (see the module docstring).

    ``keys`` maps a match to the positions of the members listed under
    it; a member none of whose matches in ``keys`` is in the request has
    a BOTTOM target. ``always`` holds the null-target members' positions.
    """

    keys: Mapping[AttributeTerm, tuple[int, ...]]
    always: tuple[int, ...]

    def visits(self, terms: Sequence[AttributeTerm]) -> Sequence[int]:
        """The positions, in order, of the members whose target is not
        BOTTOM for a request with the category facts and error
        attributes ``terms``, plus perhaps some whose target is."""
        if not self.keys:
            return self.always
        hits = set(self.always)
        for term in terms:
            positions = self.keys.get(term)
            if positions is not None:
                hits.update(positions)
        return sorted(hits)


def compile_gate(targets: Sequence[Target]) -> MemberGate:
    """Index members by target. Each member is listed under the any-of,
    and each all-of under the match, that the fewest siblings mention,
    so a request hits as few members as it can."""
    mentions: Counter[AttributeTerm] = Counter(
        m
        for target in targets
        if target.any_ofs is not None
        for any_of in target.any_ofs
        for all_of in any_of.all_ofs
        for m in all_of.matches
    )
    count = mentions.__getitem__
    keys: dict[AttributeTerm, list[int]] = {}
    always = []
    for i, target in enumerate(targets):
        if target.any_ofs is None:
            always.append(i)
            continue
        best: list[AttributeTerm] = []
        fewest = None
        for any_of in target.any_ofs:
            picks = [min(a.matches, key=count) for a in any_of.all_ofs]
            hits = sum(map(count, picks))
            if fewest is None or hits < fewest:
                best, fewest = picks, hits
        for m in best:
            positions = keys.setdefault(m, [])
            if not positions or positions[-1] != i:
                positions.append(i)
    return MemberGate({m: tuple(p) for m, p in keys.items()}, tuple(always))


class Rule(Value, derived=("plan",)):
    name: str
    effect: Effect
    target: Target
    condition: ConditionExpr
    plan: ConditionPlan

    def __post_init__(self) -> None:
        _check_name(self.name)
        object.__setattr__(self, "plan", compile_condition(self.condition))


class Policy(Value, derived=("gate",)):
    name: str
    target: Target
    rules: tuple[Rule, ...]
    combiner: CombinerId
    gate: MemberGate

    def __post_init__(self) -> None:
        _check_name(self.name)
        _check_combiner(self.combiner)
        if not self.rules:
            raise InvalidInputError(f"policy {self.name!r} needs at least one rule")
        object.__setattr__(self, "gate", compile_gate([r.target for r in self.rules]))


class PolicySet(Value, derived=("gate",)):
    name: str
    target: Target
    children: tuple["PolicyNode", ...]
    combiner: CombinerId
    gate: MemberGate

    def __post_init__(self) -> None:
        _check_name(self.name)
        _check_combiner(self.combiner)
        kinds = {type(c) for c in self.children}
        if len(kinds) > 1:
            raise InvalidInputError(
                f"policy set {self.name!r} mixes policies and policy sets"
            )
        object.__setattr__(self, "gate", compile_gate([c.target for c in self.children]))


PolicyNode = Union[Policy, PolicySet]


def eval_target(target: Target, request: Request) -> Decision3:
    """Meet over any-ofs of the join over all-ofs of the meet of matches;
    the null target always matches. A meet stops at BOTTOM and a join
    at TOP."""
    if target.any_ofs is None:
        return Decision3.TOP
    # Facts and error attributes are disjoint, so a fact is a hit
    # whatever the error set holds.
    facts = request.facts
    errors = request.error_attributes
    result = Decision3.TOP
    for any_of in target.any_ofs:
        joined = Decision3.BOTTOM
        for all_of in any_of.all_ofs:
            met = Decision3.TOP
            for m in all_of.matches:
                if m in facts:
                    continue
                if m not in errors:
                    met = Decision3.BOTTOM
                    break
                met = Decision3.INDET
            if met is Decision3.TOP:
                joined = met
                break
            if met is Decision3.INDET:
                joined = met
        if joined is Decision3.BOTTOM:
            return joined
        if joined is Decision3.INDET:
            result = joined
    return result


def rule_decision(
    target_value: Decision3, condition_value: Decision3 | None, effect: Effect
) -> Decision6:
    """Composed form: gate the condition behind the target, lift by effect.

    The gate reads the condition only under a TOP target, so an
    unevaluated condition (None) is fine under any other."""
    return sigma(arrow(target_value, condition_value), effect)


_WEAKEN = {
    Decision6.PERMIT: Decision6.INDET_P,
    Decision6.DENY: Decision6.INDET_D,
    Decision6.INDET_P: Decision6.INDET_P,
    Decision6.INDET_D: Decision6.INDET_D,
    Decision6.INDET_DP: Decision6.INDET_DP,
}


def weaken_to_indeterminate(value: Decision6) -> Decision6:
    """Downgrade an applicable decision to the indeterminate value with
    the same effect annotation; indeterminates are unchanged."""
    weakened = _WEAKEN.get(value)
    if weakened is None:
        raise InvalidInputError("NotApplicable cannot be weakened")
    return weakened


def _node_result(target_value: Decision3, combined: Decision6) -> Decision6:
    # An indeterminate target weakens an applicable or indeterminate
    # combination; an unmatched target is inapplicable; anything else
    # passes the combination through. Members that are all inapplicable
    # need no case of their own: every standard combiner maps them to
    # NOT_APPLICABLE.
    if target_value is Decision3.INDET and combined is not Decision6.NOT_APPLICABLE:
        return weaken_to_indeterminate(combined)
    if target_value is Decision3.BOTTOM:
        return Decision6.NOT_APPLICABLE
    return combined


class TraceNode(Value):
    """What the evaluator computed at one node.

    ``skipped`` names work the walk left out, or is None. It is
    ``"target"`` when the target was not TOP, so a rule's condition was
    not evaluated (``condition_value`` is None), or the target was
    BOTTOM, so a node's members were not visited (``inputs`` is empty
    and ``combined`` is None). It is ``"decided"`` when a member's value
    absorbed the node's combination and the members after it were not
    visited. Members after the stop have no trace node; ``inputs`` holds
    the results of the members before it, in order, and ``combined`` is
    their combination. A member the gate left out before the stop is
    traced as its BOTTOM target makes it, without being evaluated.
    """

    path: tuple[int, ...]
    kind: str
    name: str
    target_value: Decision3
    condition_value: Decision3 | None
    combiner: CombinerId | None
    inputs: tuple[Decision6, ...]
    combined: Decision6 | None
    result: Decision6
    children: tuple["TraceNode", ...]
    skipped: str | None = None

    def lines(self) -> list[str]:
        indent = "  " * len(self.path)
        path_text = "/" + "/".join(str(i) for i in self.path)
        parts = [f"{indent}{path_text} {self.kind} {self.name}:"]
        parts.append(f"target={self.target_value.token}")
        if self.condition_value is not None:
            parts.append(f"condition={self.condition_value.token}")
        if self.combiner is not None:
            inputs = ",".join(v.canonical for v in self.inputs)
            parts.append(f"combiner={self.combiner.token}")
            parts.append(f"inputs=[{inputs}]")
        if self.combined is not None:
            parts.append(f"combined={self.combined.canonical}")
        if self.skipped is not None:
            parts.append(f"skipped={self.skipped}")
        parts.append(f"result={self.result.canonical}")
        out = [" ".join(parts)]
        for child in self.children:
            out.extend(child.lines())
        return out

    def to_obj(self) -> dict:
        obj: dict = {
            "path": list(self.path),
            "kind": self.kind,
            "name": self.name,
            "target": self.target_value.token,
        }
        if self.condition_value is not None:
            obj["condition"] = self.condition_value.token
        if self.combiner is not None:
            obj["combiner"] = self.combiner.token
            obj["inputs"] = [v.canonical for v in self.inputs]
        if self.combined is not None:
            obj["combined"] = self.combined.canonical
        if self.skipped is not None:
            obj["skipped"] = self.skipped
        obj["result"] = self.result.canonical
        if self.children:
            obj["children"] = [c.to_obj() for c in self.children]
        return obj


class EvalTrace(Value):
    root: TraceNode

    @property
    def result(self) -> Decision6:
        return self.root.result

    def lines(self) -> list[str]:
        return self.root.lines()

    def to_obj(self) -> dict:
        return self.root.to_obj()


def _rule_node(
    rule: Rule, index: RequestIndex, path: tuple[int, ...], want_trace: bool
) -> tuple[Decision6, Optional[TraceNode]]:
    target_value = eval_target(rule.target, index.request)
    if target_value is Decision3.TOP:
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


def _gated_out(member: Rule | PolicyNode, path: tuple[int, ...]) -> TraceNode:
    """The trace node of a member the gate left out, as evaluating its
    BOTTOM target would have built it."""
    if isinstance(member, Rule):
        kind, combiner = "rule", None
    else:
        kind = "policy" if isinstance(member, Policy) else "policyset"
        combiner = member.combiner
    return TraceNode(
        path=path,
        kind=kind,
        name=member.name,
        target_value=Decision3.BOTTOM,
        condition_value=None,
        combiner=combiner,
        inputs=(),
        combined=None,
        result=Decision6.NOT_APPLICABLE,
        children=(),
        skipped="target",
    )


def _eval_node(
    node: PolicyNode, index: RequestIndex, path: tuple[int, ...], want_trace: bool
) -> tuple[Decision6, Optional[TraceNode]]:
    if isinstance(node, Policy):
        kind, members, visit = "policy", node.rules, _rule_node
    else:
        kind, members, visit = "policyset", node.children, _eval_node
    target_value = eval_target(node.target, index.request)
    inputs: list[Decision6] = []
    child_traces: list[TraceNode] = []
    combined: Decision6 | None = None
    skipped: str | None = None
    if target_value is Decision3.BOTTOM:
        result = Decision6.NOT_APPLICABLE
        skipped = "target"
    else:
        absorbing = ABSORBING[node.combiner]
        visits = node.gate.visits(index.category_terms)
        # A trace has a node for every member up to the stop; a member the
        # gate leaves out gets the one its BOTTOM target would give.
        gated_in = set(visits) if want_trace else None
        for i in range(len(members)) if want_trace else visits:
            if gated_in is not None and i not in gated_in:
                inputs.append(Decision6.NOT_APPLICABLE)
                child_traces.append(_gated_out(members[i], path + (i,)))
                continue
            value, trace = visit(members[i], index, path + (i,), want_trace)
            inputs.append(value)
            if trace is not None:
                child_traces.append(trace)
            if value in absorbing:
                if i + 1 < len(members):
                    skipped = "decided"
                break
        combined = combine(node.combiner, "v6", tuple(inputs))
        result = _node_result(target_value, combined)
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


def evaluate(
    root: PolicyNode, request: Request, with_trace: bool = False
) -> tuple[Decision6, Optional[EvalTrace]]:
    """Evaluate a policy tree against a request.

    Returns the decision and, when requested, a trace whose root result
    equals the returned decision. Conditions under a target that is not
    TOP, members of a node whose target is BOTTOM and members after an
    absorbing value are not evaluated; the decision is the same as if
    they were.
    """
    decision, trace_node = _eval_node(root, index_request(request), (), with_trace)
    trace = EvalTrace(trace_node) if trace_node is not None else None
    return decision, trace
