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

The null target is the empty conjunction of any-ofs, XACML's empty
target, so it is TOP. Targets are compared as ground keys. Each match's
``(name, args)`` key is built once, with its term, and every all-of,
any-of and target keeps its matches' keys (``keys``), so equal matches,
which the parser gives one object, share one key. A match hits when its
key is among the ``facts`` of the request index and is indeterminate
when it is among its ``errors``; no term is hashed or compared.

A node visits exactly the members that can apply. When a policy or
policy set is built it compiles a ``MemberGate``, bottom-up: each
member with a non-null target is listed under the key of one match
from each all-of of one of its any-ofs, chosen so that as few siblings
as possible share them: one pass counts every member's match keys, and
a second makes each distinct any-of's choice at its first use. A
target that is not BOTTOM needs, in every any-of, an all-of whose
matches are all facts or error attributes, so one listed key of each
such member is among the request's category keys. A null-target child
with no ``always`` member of its own is listed under every key of its
gate, so a set's gate holds its descendants' keys at any depth. The
node visits, in order, the hit members whose single-all-of keys are
all present (one set test) and whose other any-ofs each have an all-of
all present, plus the ``always`` members. Every other member is
NotApplicable, which every standard combiner ignores (the bottom of
the p-o and d-o lattices, skipped by f-a, a blank to o-1-a), so
leaving it out changes no value.

One walk, ``_eval_node``, serves traced and untraced evaluation: it
decides a policy's rules in line and builds trace paths and nodes only
when a trace is asked for. It calls the layer functions through this
module's names (``eval_target``, ``eval_condition``,
``rule_decision``, ``combine``): for a rule its target, then its
condition under a TOP target, then its decision; for a node its target
unless it is null, then its members, then one ``combine`` over their
values. A null target is TOP, so a node's is not evaluated; a rule's
is, because its condition comes right after it. Without a trace, a
node whose gate lets no member through is not entered: it is
NotApplicable whatever its target, so neither its target nor a
``combine`` is evaluated, and a policy set calls the walk only for the
children its gate lets through. A traced walk enters every null-target
child as any other node, so its trace is the same.

An optional trace records every value the walk computed, and marks
each node that left work undone with the reason (``TraceNode.skipped``).
A member the gate left out is not evaluated, but it is traced as the
node its BOTTOM target gives, and its NotApplicable is among its
parent's inputs, so the trace is the same as without the gate.

Rules are decided by the composed gate-and-lift form, read from a table
built from ``sigma``; the test suite checks it exhaustively against the
literal three-case analysis. A rule plans its condition once, when it
is built (``compile_condition``); rules the parser reads with equal
condition tokens share one condition and one plan. A policy or policy
set collects the names of the request attributes it reads (``needs``):
its targets' match names and its plans' ``reads``. ``evaluate``
indexes the request once, for the root's ``needs`` only
(``index_request``), and hands the index down the walk.
Policies and policy sets accept only the four standard combining
algorithms, the ones defined over six-valued decisions
(``combiners.fold_table``).
"""

from __future__ import annotations

from collections import Counter
from typing import Mapping, Optional, Sequence, Union

from .combiners import ABSORBING, CombinerId, combine, fold_table
from .conditions import (
    ConditionExpr,
    ConditionPlan,
    RequestIndex,
    TermKey,
    compile_condition,
    eval_condition,
    index_request,
)
from .decisions import (
    BOTTOM, INDET, NOT_APPLICABLE, PERMIT_EFFECT, TOP, Decision3, Decision6, Effect, sigma
)
from .errors import InvalidInputError, check_type
from .requests import AttributeTerm, Request
from .values import Value

def _check_name(name: str) -> None:
    if not (name.isidentifier() and name.isascii()):
        raise InvalidInputError(f"not a usable node name: {name!r}")


class AllOf(Value, derived=("keys",)):
    """Conjunction of category matches; all must hit. ``keys`` holds the
    matches' ground keys."""

    matches: tuple[AttributeTerm, ...]
    keys: tuple[TermKey, ...]

    def __post_init__(self) -> None:
        check_type(self, "matches", tuple)
        if not self.matches:
            raise InvalidInputError("an all-of group needs at least one match")
        for m in self.matches:
            if not m.is_category:
                raise InvalidInputError(
                    f"target matches must use a category attribute, got {m}"
                )
        object.__setattr__(self, "keys", tuple(m.key for m in self.matches))


class AnyOf(Value, derived=("keys",)):
    """Disjunction of all-of groups; one hit suffices. ``keys`` holds the
    all-ofs' keys."""

    all_ofs: tuple[AllOf, ...]
    keys: tuple[tuple[TermKey, ...], ...]

    def __post_init__(self) -> None:
        check_type(self, "all_ofs", tuple)
        if not self.all_ofs:
            raise InvalidInputError("an any-of group needs at least one all-of")
        object.__setattr__(self, "keys", tuple(a.keys for a in self.all_ofs))


class Target(Value, derived=("keys",)):
    """Applicability filter: a conjunction of any-of groups. The null
    target ``Target(())``, the empty conjunction and XACML's empty
    target, applies to every request. ``keys`` holds the any-ofs' keys."""

    any_ofs: tuple[AnyOf, ...]
    keys: tuple[tuple[tuple[TermKey, ...], ...], ...]

    def __post_init__(self) -> None:
        check_type(self, "any_ofs", tuple)
        object.__setattr__(self, "keys", tuple(a.keys for a in self.any_ofs))


NULL_TARGET = Target(())


class MemberGate(Value):
    """A node's members indexed by target (see the module docstring).

    ``keys`` maps a match's ground key to the positions of the members
    listed under it, ascending; a member listed under no present key is
    NotApplicable. ``always`` holds null-target rules and null-target
    children with ``always`` members. ``required[i]`` holds the keys of
    member ``i``'s single-all-of any-ofs, ``alternations[i]`` the rest.
    """

    keys: Mapping[TermKey, tuple[int, ...]]
    always: tuple[int, ...]
    required: tuple[tuple[TermKey, ...], ...]
    alternations: tuple[tuple[tuple[TermKey, ...], ...], ...]


def compile_gate(targets: Sequence[Target], gates: Optional[Sequence] = None) -> MemberGate:
    """Index members by target. Each member is listed under the any-of,
    and each all-of under the match, that the fewest siblings mention,
    so a request hits as few members as it can. One pass counts every
    member's match keys; a second lists the members, choosing for each
    distinct any-of once, at its first use. ``gates`` holds the members'
    own gates, None for rules (the default)."""
    count = Counter(
        key for target in targets for any_of in target.keys for all_of in any_of
        for key in all_of
    ).__getitem__
    picks: dict[int, tuple[int, tuple[TermKey, ...]]] = {}
    keys: dict[TermKey, list[int]] = {}
    always = []
    required, alternations = [], []
    for i, target in enumerate(targets):
        best = None
        needed, alternating = [], []
        for any_of in target.keys:
            pick = picks.get(id(any_of))
            if pick is None:
                chosen = tuple(min(all_of, key=count) for all_of in any_of)
                pick = picks[id(any_of)] = (sum(map(count, chosen)), chosen)
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


class Rule(Value, derived=("plan",)):
    name: str
    effect: Effect
    target: Target
    condition: ConditionExpr
    plan: ConditionPlan

    # The node's word in traces and documents.
    kind = "rule"

    def __post_init__(self) -> None:
        _check_name(self.name)
        check_type(self, "effect", Effect)
        check_type(self, "target", Target)
        object.__setattr__(self, "plan", compile_condition(self.condition))

    def _sharing_condition(self, name: str, effect: Effect, target: Target) -> Rule:
        """A rule with this rule's condition and plan, not planned again."""
        rule = Rule.__new__(Rule)
        for field, value in zip(Rule.__slots__, (name, effect, target, self.condition, self.plan)):
            object.__setattr__(rule, field, value)
        _check_name(name)
        return rule


class Policy(Value, derived=("gate", "needs")):
    """A policy. ``needs`` holds the names of the request attributes the
    policy reads: those its own and its rules' targets match, and the
    ``reads`` of its rules' condition plans. A request is indexed for
    the root's ``needs`` only (``index_request``)."""

    name: str
    target: Target
    rules: tuple[Rule, ...]
    combiner: CombinerId
    gate: MemberGate
    needs: frozenset[str]

    kind = "policy"

    def __post_init__(self) -> None:
        _check_name(self.name)
        fold_table(self.combiner)
        check_type(self, "target", Target)
        check_type(self, "rules", tuple)
        if not self.rules:
            raise InvalidInputError(f"policy {self.name!r} needs at least one rule")
        targets = [r.target for r in self.rules]
        object.__setattr__(self, "gate", compile_gate(targets))
        names = {
            name for target in (self.target, *targets) for any_of in target.keys
            for all_of in any_of for name, _ in all_of
        }
        names.update(*[r.plan.reads for r in self.rules])
        object.__setattr__(self, "needs", frozenset(names))


class PolicySet(Value, derived=("gate", "needs")):
    """A policy set. ``needs`` is its own target's names together with
    its children's ``needs``."""

    name: str
    target: Target
    children: tuple["PolicyNode", ...]
    combiner: CombinerId
    gate: MemberGate
    needs: frozenset[str]

    kind = "policyset"

    def __post_init__(self) -> None:
        _check_name(self.name)
        fold_table(self.combiner)
        check_type(self, "target", Target)
        check_type(self, "children", tuple)
        kinds = {type(c) for c in self.children}
        if len(kinds) > 1:
            raise InvalidInputError(
                f"policy set {self.name!r} mixes policies and policy sets"
            )
        gate = compile_gate([c.target for c in self.children], [c.gate for c in self.children])
        object.__setattr__(self, "gate", gate)
        names = {name for any_of in self.target.keys for all_of in any_of for name, _ in all_of}
        names.update(*[c.needs for c in self.children])
        object.__setattr__(self, "needs", frozenset(names))


PolicyNode = Union[Policy, PolicySet]


def eval_target(target: Target, index: RequestIndex) -> Decision3:
    """Meet over any-ofs of the join over all-ofs of the meet of matches,
    each match looked up by its ground key among the request's facts
    and error attributes; the null target, a meet over no any-ofs, is
    TOP. A meet stops at BOTTOM and a join at TOP."""
    # Facts and error attributes are disjoint, so a fact is a hit
    # whatever the error set holds.
    facts = index.facts
    errors = index.errors
    result = TOP
    for any_of in target.keys:
        joined = BOTTOM
        for all_of in any_of:
            met = TOP
            for key in all_of:
                if key in facts:
                    continue
                if key not in errors:
                    met = BOTTOM
                    break
                met = INDET
            if met is TOP:
                joined = met
                break
            if met is INDET:
                joined = met
        if joined is BOTTOM:
            return joined
        if joined is INDET:
            result = joined
    return result


# sigma(x, effect), indexed by whether the effect is Permit, then by x.
# A tuple, not a dict: Effect is a plain Enum, whose hash runs in Python.
_LIFTED = tuple(
    tuple(sigma(x, effect) for x in Decision3) for effect in (Effect.DENY, Effect.PERMIT)
)


def rule_decision(
    target_value: Decision3, condition_value: Decision3 | None, effect: Effect
) -> Decision6:
    """Composed form: gate the condition behind the target, lift by effect.

    The gate reads the condition only under a TOP target, so an
    unevaluated condition (None) is fine under any other."""
    return _LIFTED[effect is PERMIT_EFFECT][
        condition_value if target_value is TOP else target_value
    ]


# The indeterminate value with each decision's effect annotation, by
# Decision6 value; NotApplicable has none.
_WEAKENED = (
    None,
    Decision6.INDET_D,
    Decision6.INDET_P,
    Decision6.INDET_DP,
    Decision6.INDET_D,
    Decision6.INDET_P,
)


def weaken_to_indeterminate(value: Decision6) -> Decision6:
    """Downgrade an applicable decision to the indeterminate value with
    the same effect annotation; indeterminates are unchanged."""
    weakened = _WEAKENED[value]
    if weakened is None:
        raise InvalidInputError("NotApplicable cannot be weakened")
    return weakened


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
        """The text form of ``to_obj()``: one line per node, indented by depth."""
        return _trace_lines(self.to_obj())

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


def _trace_lines(obj: dict) -> list[str]:
    path = obj["path"]
    parts = ["  " * len(path) + "/" + "/".join(map(str, path)), obj["kind"], obj["name"] + ":"]
    for key, value in obj.items():
        if key not in ("path", "kind", "name", "children"):
            text = f"[{','.join(value)}]" if isinstance(value, list) else value
            parts.append(f"{key}={text}")
    out = [" ".join(parts)]
    for child in obj.get("children", ()):
        out.extend(_trace_lines(child))
    return out


class EvalTrace(Value):
    root: TraceNode

    @property
    def result(self) -> Decision6:
        return self.root.result

    def lines(self) -> list[str]:
        return self.root.lines()

    def to_obj(self) -> dict:
        return self.root.to_obj()


def _bottom_trace(member: Rule | PolicyNode, path: tuple[int, ...]) -> TraceNode:
    """The trace node of a member whose target is BOTTOM: a rule with no
    condition, or a node with no members visited."""
    combiner = None if isinstance(member, Rule) else member.combiner
    return TraceNode(
        path, member.kind, member.name, BOTTOM, None, combiner, (), None,
        NOT_APPLICABLE, (), "target",
    )


def _eval_node(
    node: PolicyNode, index: RequestIndex, path: Optional[tuple[int, ...]]
) -> tuple[Decision6, Optional[TraceNode]]:
    """A node's decision, and its trace node when ``path`` is its trace
    path rather than None.

    The gate is worked out before the target, and a null target is
    TOP without being evaluated. Without a trace, a node whose gate
    lets no member through is NotApplicable at once, with no target
    evaluated and nothing combined: every standard combiner maps only
    NotApplicable inputs to NotApplicable, which an indeterminate
    target does not weaken. A traced node is evaluated in full: it
    enters every null-target child, and each other member left out is
    traced as its BOTTOM target makes it.
    """
    is_policy = node.__class__ is Policy
    members = node.rules if is_policy else node.children
    present = index.category_keys
    gate = node.gate
    # The members listed under a present key and the always ones,
    # ascending: a lone hit key's positions as they are.
    candidates = gate.always
    if gate.keys:
        listed = gate.keys.get
        for key in present:
            positions = listed(key)
            if positions is not None:
                candidates = sorted({*candidates, *positions}) if candidates else positions
    # The gate is exact: a candidate can apply only when its required
    # keys are present and each of its alternations has an all-of whose
    # keys all are; any other member is NotApplicable.
    required, alternations = gate.required, gate.alternations
    visits = []
    for i in candidates:
        needed = required[i]
        if needed and not present.issuperset(needed):
            continue
        for any_of in alternations[i]:
            for all_of in any_of:
                if present.issuperset(all_of):
                    break
            else:
                break  # no all-of of this any-of is present
        else:
            visits.append(i)
    if path is None:
        if not visits:
            return NOT_APPLICABLE, None
        order = visits
    else:
        order = range(len(members))
        let_through = set(visits)
        traces = []
    target = node.target
    target_value = eval_target(target, index) if target.keys else TOP
    if target_value is BOTTOM:
        return NOT_APPLICABLE, None if path is None else _bottom_trace(node, path)
    absorbing = ABSORBING[node.combiner]
    inputs = []
    skipped = None
    for i in order:
        member = members[i]
        # Every null-target member is entered, as in the ungated walk
        # (null-target rules are always visited).
        if path is not None and i not in let_through and member.target.keys:
            inputs.append(NOT_APPLICABLE)
            traces.append(_bottom_trace(member, (*path, i)))
            continue
        if is_policy:
            rule_target = eval_target(member.target, index)
            if rule_target is TOP:
                condition_value = eval_condition(member.plan, index)
            else:
                condition_value = None
            value = rule_decision(rule_target, condition_value, member.effect)
            if path is not None:
                traces.append(TraceNode(
                    (*path, i), member.kind, member.name, rule_target, condition_value, None, (),
                    None, value, (), None if condition_value is not None else "target",
                ))
        else:
            value, trace = _eval_node(member, index, None if path is None else (*path, i))
            if trace is not None:
                traces.append(trace)
        inputs.append(value)
        if value in absorbing:
            if i + 1 < len(members):
                skipped = "decided"
            break
    combined = combine(node.combiner, "v6", inputs)
    # An indeterminate target weakens an applicable or indeterminate
    # combination. Members that are all inapplicable need no case of
    # their own: every standard combiner maps them to NOT_APPLICABLE.
    if target_value is INDET and combined is not NOT_APPLICABLE:
        result = _WEAKENED[combined]
    else:
        result = combined
    if path is None:
        return result, None
    return result, TraceNode(
        path,
        node.kind,
        node.name,
        target_value,
        None,
        node.combiner,
        tuple(inputs),
        combined,
        result,
        tuple(traces),
        skipped,
    )


def evaluate(
    root: PolicyNode, request: Request, with_trace: bool = False
) -> tuple[Decision6, Optional[EvalTrace]]:
    """Evaluate a policy tree against a request.

    Returns the decision and, when requested, a trace whose root result
    equals the returned decision. Conditions under a target that is not
    TOP, members whose target is BOTTOM, members of a node whose target
    is BOTTOM and members after an absorbing value are not evaluated;
    the decision is the same as if they were.
    """
    index = index_request(request, root.needs)
    decision, trace_node = _eval_node(root, index, () if with_trace else None)
    trace = EvalTrace(trace_node) if trace_node is not None else None
    return decision, trace
