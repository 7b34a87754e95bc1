"""Policy tree evaluation: matches, targets, rules, policies, traces."""

import itertools
import os
import pickle
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import strategies
from documents import benchmark_workloads
from oracles import (
    compile_gate_reference,
    constants_with_fallback,
    eval_match,
    eval_policy,
    eval_policyset,
    eval_rule,
    eval_target_lattice,
    eval_target_terms,
    evaluate_exhaustive,
    evaluate_ungated,
    exhaustive_results,
    full_index,
    index_all,
    node_result,
    node_result_with_blank_case,
    rule_decision_cases,
)
from xpdp import (
    AllOf,
    And,
    AnyOf,
    Atom,
    AttributeTerm,
    BoolLiteral,
    CombinerId,
    Compare,
    Decision3,
    Decision6,
    Effect,
    EncodingUnsupportedError,
    FunctionValue,
    InvalidInputError,
    NULL_TARGET,
    ParseError,
    Not,
    Or,
    Policy,
    PolicySet,
    Request,
    Rule,
    STANDARD_COMBINERS,
    Target,
    TRUE_CONDITION,
    TraceNode,
    UnknownCombinerError,
    Variable,
    arrow,
    check_equivalence,
    combine,
    eval_target,
    evaluate,
    index_request,
    parse_policy,
    parse_request,
    rule_decision,
    serialize_policy,
    sigma,
    weaken_to_indeterminate,
)
import xpdp.policy
from xpdp.combiners import ABSORBING
from xpdp.policy import compile_gate

D3 = Decision3
D6 = Decision6
X = Variable("X")
Y = Variable("Y")
SAMPLES = Path(__file__).resolve().parent.parent / "samples"


def request(facts, errors=()):
    return Request(frozenset(facts), frozenset(errors))


def match(category, value):
    return AttributeTerm(category, (value,))


def target_of(*matches):
    """One any-of per match: a plain conjunction target."""
    return Target(tuple(AnyOf((AllOf((m,)),)) for m in matches))


def decide_target(target, req):
    """``eval_target`` on the request's index; equal to the loop over
    the target's terms."""
    value = eval_target(target, index_all(req))
    assert value is eval_target_terms(target, req)
    return value


class TestMatchAndTarget:
    def test_match_values(self):
        req = request(
            [match("subject", "doctor"), match("action", "read")],
            [match("resource", "db")],
        )
        assert eval_match(match("subject", "doctor"), req) is D3.TOP
        assert eval_match(match("action", "write"), req) is D3.BOTTOM
        assert eval_match(match("resource", "db"), req) is D3.INDET

    def test_null_target(self):
        assert decide_target(NULL_TARGET, request([match("subject", "s")])) is D3.TOP

    def test_null_target_is_the_empty_conjunction(self):
        # XACML's empty target: a meet over no any-ofs, TOP on every
        # request, errored ones too.
        assert Target(()) == NULL_TARGET
        assert NULL_TARGET.any_ofs == () and NULL_TARGET.keys == ()
        for req in (PLAIN_REQUEST, ERRORED_REQUEST):
            assert decide_target(Target(()), req) is D3.TOP
            assert eval_target(Target(()), index_request(req, frozenset())) is D3.TOP
            assert eval_target_lattice(Target(()), req) is D3.TOP

    def test_none_is_not_a_target(self):
        with pytest.raises(InvalidInputError, match="Target.any_ofs must be a tuple"):
            Target(None)

    def test_null_reads_and_writes_as_the_empty_conjunction(self):
        text = (
            "policy P {\n  target: null;\n  combiner: d-o;\n  rules: [\n    rule R {\n"
            "      effect: permit;\n      target: null;\n      condition: true;\n    }\n"
            "  ];\n}\n"
        )
        policy = parse_policy(text)
        assert policy.target == Target(()) and policy.target is NULL_TARGET
        assert policy.rules[0].target == Target(())
        assert serialize_policy(policy) == text
        built = Policy("P", Target(()), (Rule("R", Effect.PERMIT, Target(()), TRUE_CONDITION),),
                       CombinerId.DENY_OVERRIDES)
        assert serialize_policy(built) == text

    def test_conjunction(self):
        req = request([match("subject", "patient"), match("action", "read")])
        t = target_of(match("subject", "patient"), match("action", "read"))
        assert decide_target(t, req) is D3.TOP
        t = target_of(match("subject", "patient"), match("action", "write"))
        assert decide_target(t, req) is D3.BOTTOM

    def test_disjunction_satisfied(self):
        t = Target(
            (
                AnyOf(
                    (
                        AllOf((match("subject", "doctor"),)),
                        AllOf((match("subject", "nurse"),)),
                    )
                ),
                AnyOf((AllOf((match("action", "read"),)),)),
            )
        )
        req = request([match("subject", "nurse"), match("action", "read")])
        assert decide_target(t, req) is D3.TOP

    def test_monotone_in_match_outcomes(self):
        # Two any-ofs, the first holding a two-match all-of beside a
        # singleton; raising any single match outcome never lowers the
        # target outcome.
        terms = [match("subject", f"s{i}") for i in range(4)]
        t = Target(
            (
                AnyOf((AllOf((terms[0], terms[1])), AllOf((terms[2],)))),
                AnyOf((AllOf((terms[3],)),)),
            )
        )

        def realized(statuses):
            facts = [m for m, s in zip(terms, statuses) if s is D3.TOP]
            errors = [m for m, s in zip(terms, statuses) if s is D3.INDET]
            facts.append(match("action", "pad"))  # keep the request non-empty
            return decide_target(t, request(facts, errors))

        order = (D3.BOTTOM, D3.INDET, D3.TOP)
        for statuses in itertools.product(order, repeat=4):
            base = realized(statuses)
            for i, status in enumerate(statuses):
                if status is D3.TOP:
                    continue
                raised = list(statuses)
                raised[i] = order[order.index(status) + 1]
                assert realized(tuple(raised)) >= base

    def test_pickled_term_is_rehashed_in_a_new_process(self):
        # A term caches its hash, and string hashes depend on the
        # process's PYTHONHASHSEED; a term pickled by a process with
        # another seed must still be found among this process's terms.
        seed = "2" if os.environ.get("PYTHONHASHSEED") == "1" else "1"
        src = str(Path(xpdp.policy.__file__).resolve().parent.parent)
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=src)
        script = (
            "import pickle, sys\n"
            "from xpdp import AttributeTerm\n"
            "term = AttributeTerm('subject', ('doctor',))\n"
            "sys.stdout.buffer.write(pickle.dumps((hash(term), term)))\n"
        )
        out = subprocess.run(
            [sys.executable, "-c", script], env=env, capture_output=True, check=True
        ).stdout
        their_hash, term = pickle.loads(out)
        fresh = parse_request("{ subject(doctor), action(read) }").facts
        assert their_hash != hash(match("subject", "doctor"))
        assert hash(term) == hash(match("subject", "doctor"))
        assert term in fresh

    def test_non_category_match_rejected(self):
        with pytest.raises(InvalidInputError):
            AllOf((AttributeTerm("doctor", ("id", "d")),))

    def test_facts_must_be_ground(self):
        with pytest.raises(InvalidInputError):
            AttributeTerm("patient", ("id", Variable("X")))


class TestRuleDecision:
    def test_both_implementations_agree_everywhere(self):
        for t, c, e in itertools.product(D3, D3, Effect):
            composed = rule_decision(t, c, e)
            cases = rule_decision_cases(t, c, e)
            assert composed is cases
            assert composed is sigma(arrow(t, c), e)

    def test_examples(self):
        assert rule_decision(D3.TOP, D3.TOP, Effect.PERMIT) is D6.PERMIT
        assert rule_decision(D3.TOP, D3.BOTTOM, Effect.DENY) is D6.NOT_APPLICABLE
        assert rule_decision(D3.BOTTOM, D3.INDET, Effect.PERMIT) is D6.NOT_APPLICABLE

    def test_eval_rule(self):
        rule = Rule("r", Effect.PERMIT, NULL_TARGET, TRUE_CONDITION)
        assert eval_rule(rule, request([match("subject", "s")])) is D6.PERMIT


class TestWeakening:
    def test_examples(self):
        assert weaken_to_indeterminate(D6.PERMIT) is D6.INDET_P
        assert weaken_to_indeterminate(D6.DENY) is D6.INDET_D
        assert weaken_to_indeterminate(D6.INDET_DP) is D6.INDET_DP
        assert weaken_to_indeterminate(D6.INDET_P) is D6.INDET_P
        with pytest.raises(InvalidInputError):
            weaken_to_indeterminate(D6.NOT_APPLICABLE)


def rule_with_value(name, effect, value):
    """A rule that evaluates to sigma-of-value for any request carrying
    the pad fact; INDET comes from an errored condition atom."""
    if value is D3.TOP:
        condition = TRUE_CONDITION
    elif value is D3.BOTTOM:
        condition = BoolLiteral(False)
    else:
        condition = Atom("oops", ("x",))
    return Rule(name, effect, NULL_TARGET, condition)


def decided(node, req):
    """The decision of ``evaluate``, which must equal the exhaustive
    oracle's."""
    decision, _ = evaluate(node, req)
    oracle = eval_policy if isinstance(node, Policy) else eval_policyset
    assert decision is oracle(node, req)
    return decision


PAD = match("action", "pad")
PLAIN_REQUEST = request([PAD], [AttributeTerm("oops", ("x",))])
# subject(err) is an error attribute: targets over it are indeterminate.
ERRORED_TARGET = target_of(match("subject", "err"))
ERRORED_REQUEST = request([PAD], [match("subject", "err"), AttributeTerm("oops", ("x",))])


class TestPolicyEvaluation:
    def test_combiner_result_passes_through(self):
        p = Policy(
            "p",
            NULL_TARGET,
            (
                rule_with_value("r1", Effect.PERMIT, D3.BOTTOM),
                rule_with_value("r2", Effect.DENY, D3.TOP),
            ),
            CombinerId.DENY_OVERRIDES,
        )
        assert decided(p, PLAIN_REQUEST) is D6.DENY

    def test_unmatched_target_is_not_applicable(self):
        p = Policy(
            "p",
            target_of(match("subject", "nobody")),
            (rule_with_value("r1", Effect.DENY, D3.TOP),),
            CombinerId.DENY_OVERRIDES,
        )
        assert decided(p, PLAIN_REQUEST) is D6.NOT_APPLICABLE

    def test_indeterminate_target_weakens(self):
        p = Policy(
            "p",
            ERRORED_TARGET,
            (rule_with_value("r1", Effect.PERMIT, D3.TOP),),
            CombinerId.PERMIT_OVERRIDES,
        )
        assert decided(p, ERRORED_REQUEST) is D6.INDET_P

    def test_indeterminate_target_with_inapplicable_rules(self):
        p = Policy(
            "p",
            ERRORED_TARGET,
            (rule_with_value("r1", Effect.PERMIT, D3.BOTTOM),),
            CombinerId.PERMIT_OVERRIDES,
        )
        assert decided(p, ERRORED_REQUEST) is D6.NOT_APPLICABLE

    def test_all_rules_inapplicable(self):
        p = Policy(
            "p",
            NULL_TARGET,
            (
                rule_with_value("r1", Effect.PERMIT, D3.BOTTOM),
                rule_with_value("r2", Effect.DENY, D3.BOTTOM),
            ),
            CombinerId.FIRST_APPLICABLE,
        )
        assert decided(p, PLAIN_REQUEST) is D6.NOT_APPLICABLE

    def test_needs_rules(self):
        with pytest.raises(InvalidInputError):
            Policy("p", NULL_TARGET, (), CombinerId.DENY_OVERRIDES)

    def test_all_permit_rejected(self):
        # all-permit has no six-valued formulation, so no node can use it.
        rules = (rule_with_value("r", Effect.PERMIT, D3.TOP),)
        with pytest.raises(EncodingUnsupportedError):
            Policy("p", NULL_TARGET, rules, CombinerId.ALL_PERMIT)
        with pytest.raises(EncodingUnsupportedError):
            PolicySet("ps", NULL_TARGET, (), CombinerId.ALL_PERMIT)

    def test_one_refusal_for_a_pair_only_combiner(self):
        # The fold, the check, both node kinds and the parser refuse
        # all-permit with one message; the parser puts the token's
        # position before it.
        rules = (rule_with_value("r", Effect.PERMIT, D3.TOP),)
        pair_only = CombinerId.ALL_PERMIT
        messages = set()
        for refuse in (
            lambda: combine(pair_only, "v6", ()),
            lambda: check_equivalence(pair_only, 1),
            lambda: Policy("p", NULL_TARGET, rules, pair_only),
            lambda: PolicySet("ps", NULL_TARGET, (), pair_only),
        ):
            with pytest.raises(EncodingUnsupportedError) as caught:
                refuse()
            messages.add(str(caught.value))
        assert messages == {
            "all-permit is only defined under the pair encoding; "
            "the six-valued algorithms are p-o, d-o, f-a or o-1-a"
        }
        text = "policy P { target: null; combiner: all-permit; rules: [] }"
        with pytest.raises(ParseError) as parsed:
            parse_policy(text)
        span = parsed.value.span
        assert text[span.start:span.end] == "all-permit"
        assert str(parsed.value) == f"1:{span.start + 1}: {messages.pop()}"

    def test_a_combiner_token_is_not_a_combiner(self):
        rules = (rule_with_value("r", Effect.PERMIT, D3.TOP),)
        with pytest.raises(UnknownCombinerError, match="unknown combining algorithm: 'p-o'"):
            Policy("p", NULL_TARGET, rules, "p-o")
        with pytest.raises(UnknownCombinerError, match="unknown combining algorithm: 'p-o'"):
            PolicySet("ps", NULL_TARGET, (), "p-o")


class TestNodeResult:
    def test_all_inapplicable_members_need_no_case(self):
        # Every standard combiner already maps all-NotApplicable members
        # to NotApplicable, so the node result equals the one with that
        # case spelled out, for every member sequence up to length 5.
        for combiner in STANDARD_COMBINERS:
            for length in range(6):
                for inputs in itertools.product(tuple(D6), repeat=length):
                    combined = combine(combiner, "v6", inputs)
                    for target_value in D3:
                        expected = node_result_with_blank_case(target_value, combined, inputs)
                        assert node_result(target_value, combined) is expected


def policy_with_value(name, effect, value):
    return Policy(
        name,
        NULL_TARGET,
        (rule_with_value(name + "_r", effect, value),),
        CombinerId.PERMIT_OVERRIDES,
    )


class TestPolicySetEvaluation:
    def test_permit_child_wins(self):
        ps = PolicySet(
            "ps",
            NULL_TARGET,
            (
                policy_with_value("p1", Effect.PERMIT, D3.BOTTOM),
                policy_with_value("p2", Effect.PERMIT, D3.TOP),
            ),
            CombinerId.PERMIT_OVERRIDES,
        )
        assert decided(ps, PLAIN_REQUEST) is D6.PERMIT

    def test_empty_children(self):
        ps = PolicySet("ps", NULL_TARGET, (), CombinerId.PERMIT_OVERRIDES)
        assert decided(ps, PLAIN_REQUEST) is D6.NOT_APPLICABLE

    def test_indeterminate_target_preserves_weakened_result(self):
        ps = PolicySet(
            "ps",
            ERRORED_TARGET,
            (
                policy_with_value("p1", Effect.DENY, D3.TOP),
                policy_with_value("p2", Effect.DENY, D3.TOP),
            ),
            CombinerId.ONLY_ONE_APPLICABLE,
        )
        assert decided(ps, ERRORED_REQUEST) is D6.INDET_D

    def test_mixed_children_rejected(self):
        inner = PolicySet("inner", NULL_TARGET, (), CombinerId.PERMIT_OVERRIDES)
        with pytest.raises(InvalidInputError):
            PolicySet(
                "ps",
                NULL_TARGET,
                (inner, policy_with_value("p", Effect.PERMIT, D3.TOP)),
                CombinerId.PERMIT_OVERRIDES,
            )


def patient_policy_tree() -> PolicySet:
    """The worked two-policy hospital example, built programmatically."""
    rp1 = Rule(
        "RP1",
        Effect.PERMIT,
        target_of(
            match("subject", "patient"),
            match("action", "read"),
            match("resource", "patient_record"),
        ),
        And(
            (
                Atom("patient", ("id", X)),
                Atom("patient_record", ("id", Y)),
                Or(
                    (
                        Compare(X, "=", Y),
                        And(
                            (
                                Compare(FunctionValue("age", Y), "<", 18),
                                Atom("guardian", (X, Y)),
                            )
                        ),
                    )
                ),
            )
        ),
    )
    rp2 = Rule(
        "RP2",
        Effect.PERMIT,
        target_of(
            match("subject", "patient"),
            match("action", "write"),
            match("resource", "patient_survey"),
        ),
        And((Atom("patient", ("id", X)), Atom("patient_survey", ("id", X)))),
    )
    rp3 = Rule(
        "RP3",
        Effect.PERMIT,
        Target(
            (
                AnyOf(
                    (
                        AllOf((match("subject", "doctor"),)),
                        AllOf((match("subject", "nurse"),)),
                    )
                ),
                AnyOf((AllOf((match("action", "read"),)),)),
                AnyOf((AllOf((match("resource", "patient_record"),)),)),
            )
        ),
        TRUE_CONDITION,
    )
    write_target = target_of(
        match("subject", "doctor"),
        match("action", "write"),
        match("resource", "medical_record"),
    )
    shared = (
        Atom("doctor", ("id", X)),
        Atom("patient", ("id", Y)),
        Atom("medical_record", ("id", Y)),
    )
    rm1 = Rule(
        "RM1", Effect.PERMIT, write_target, And(shared + (Atom("patient_doctor", (Y, X)),))
    )
    rm2 = Rule(
        "RM2", Effect.DENY, write_target, And(shared + (Not(Atom("patient_doctor", (Y, X))),))
    )
    return PolicySet(
        "PS_patient",
        NULL_TARGET,
        (
            Policy("P_patient_record", NULL_TARGET, (rp1, rp2, rp3), CombinerId.DENY_OVERRIDES),
            Policy("P_medical_record", NULL_TARGET, (rm1, rm2), CombinerId.DENY_OVERRIDES),
        ),
        CombinerId.PERMIT_OVERRIDES,
    )


READ_REQUEST = request(
    [
        match("subject", "doctor"),
        match("action", "read"),
        match("resource", "patient_record"),
        AttributeTerm("doctor", ("id", "d")),
        AttributeTerm("patient", ("id", "p")),
        AttributeTerm("patient_record", ("id", "p")),
    ]
)

WRITE_REQUEST = request(
    [
        match("subject", "doctor"),
        match("action", "write"),
        match("resource", "medical_record"),
        AttributeTerm("doctor", ("id", "d")),
        AttributeTerm("patient", ("id", "p")),
        AttributeTerm("medical_record", ("id", "p")),
    ]
)


class TestEvaluate:
    def test_doctor_may_read(self):
        decision, trace = evaluate(patient_policy_tree(), READ_REQUEST)
        assert decision is D6.PERMIT
        assert trace is None

    def test_doctor_may_not_write_for_foreign_patient(self):
        decision, _ = evaluate(patient_policy_tree(), WRITE_REQUEST)
        assert decision is D6.DENY

    def test_minimal_permit_document(self):
        p = Policy(
            "p",
            NULL_TARGET,
            (Rule("r", Effect.PERMIT, NULL_TARGET, TRUE_CONDITION),),
            CombinerId.PERMIT_OVERRIDES,
        )
        decision, _ = evaluate(p, request([match("subject", "anyone")]))
        assert decision is D6.PERMIT

    def test_deterministic(self):
        tree = patient_policy_tree()
        first, _ = evaluate(tree, WRITE_REQUEST)
        second, _ = evaluate(tree, WRITE_REQUEST)
        assert first is second


class TestWorkedExampleNarrative:
    def test_read_request_applies_only_through_rp3(self):
        _, trace = evaluate(patient_policy_tree(), READ_REQUEST, with_trace=True)
        rules = {n.name: n for p in trace.root.children for n in p.children}
        assert rules["RP3"].target_value is D3.TOP
        assert rules["RP3"].result is D6.PERMIT
        for name in ("RP1", "RP2"):
            assert rules[name].target_value is D3.BOTTOM
            assert rules[name].result is D6.NOT_APPLICABLE
        # P_patient_record's Permit decides the permit-overrides root, so
        # P_medical_record and its rules RM1 and RM2 are never visited.
        assert set(rules) == {"RP1", "RP2", "RP3"}

    def test_write_request_splits_on_the_condition(self):
        _, trace = evaluate(patient_policy_tree(), WRITE_REQUEST, with_trace=True)
        rules = {n.name: n for p in trace.root.children for n in p.children}
        assert rules["RM1"].target_value is D3.TOP
        assert rules["RM1"].condition_value is D3.BOTTOM
        assert rules["RM1"].result is D6.NOT_APPLICABLE
        assert rules["RM2"].target_value is D3.TOP
        assert rules["RM2"].condition_value is D3.TOP
        assert rules["RM2"].result is D6.DENY


class TestTrace:
    def test_root_result_matches(self):
        decision, trace = evaluate(patient_policy_tree(), WRITE_REQUEST, with_trace=True)
        assert trace.result is decision

    def test_replay_combiner_inputs(self):
        def walk(node):
            if node.combined is not None:
                assert combine(node.combiner, "v6", node.inputs) is node.combined
            if node.combiner is not None:
                assert len(node.children) == len(node.inputs)
                for child, value in zip(node.children, node.inputs):
                    assert child.result is value
            for child in node.children:
                walk(child)

        _, trace = evaluate(patient_policy_tree(), WRITE_REQUEST, with_trace=True)
        walk(trace.root)

    def test_paths_and_kinds(self):
        _, trace = evaluate(patient_policy_tree(), READ_REQUEST, with_trace=True)
        root = trace.root
        assert root.path == ()
        assert root.kind == "policyset"
        # The root stops after its first child's Permit.
        assert [c.path for c in root.children] == [(0,)]
        assert root.children[0].children[2].kind == "rule"
        assert root.children[0].children[2].name == "RP3"
        _, trace = evaluate(patient_policy_tree(), WRITE_REQUEST, with_trace=True)
        assert [c.path for c in trace.root.children] == [(0,), (1,)]
        assert [c.path for c in trace.root.children[1].children] == [(1, 0), (1, 1)]

    def test_text_and_structured_forms(self):
        _, trace = evaluate(patient_policy_tree(), READ_REQUEST, with_trace=True)
        lines = trace.lines()
        assert len(lines) == 5  # 1 policy set + 1 policy + 3 rules
        assert lines[0].startswith("/ policyset PS_patient:")
        assert "skipped=decided result=Permit" in lines[0]
        obj = trace.to_obj()
        assert obj["kind"] == "policyset"
        assert obj["result"] == "Permit"
        assert obj["skipped"] == "decided"
        assert len(obj["children"]) == 1

    def test_skipped_markers(self):
        _, trace = evaluate(patient_policy_tree(), WRITE_REQUEST, with_trace=True)
        skipped = {n.name: n.skipped for p in trace.root.children for n in p.children}
        assert skipped == {
            "RP1": "target", "RP2": "target", "RP3": "target", "RM1": None, "RM2": None,
        }
        # RM2's Deny ends P_medical_record, but no member was left out.
        assert [p.skipped for p in trace.root.children] == [None, None]
        assert trace.root.skipped is None
        rp1 = trace.root.children[0].children[0]
        assert rp1.condition_value is None
        assert rp1.lines()[0].endswith("target=bottom skipped=target result=NotApplicable")
        assert "condition" not in rp1.to_obj()
        assert rp1.to_obj()["skipped"] == "target"
        rm1 = trace.root.children[1].children[0]
        assert "skipped" not in rm1.lines()[0]
        assert "skipped" not in rm1.to_obj()

    def test_unmatched_node_is_not_visited(self):
        p = Policy(
            "p",
            target_of(match("subject", "nobody")),
            (rule_with_value("r1", Effect.DENY, D3.TOP),),
            CombinerId.DENY_OVERRIDES,
        )
        ps = PolicySet("ps", NULL_TARGET, (p,), CombinerId.PERMIT_OVERRIDES)
        _, trace = evaluate(ps, PLAIN_REQUEST, with_trace=True)
        node = trace.root.children[0]
        assert node.target_value is D3.BOTTOM
        assert (node.inputs, node.combined, node.children) == ((), None, ())
        assert node.skipped == "target"
        assert node.result is D6.NOT_APPLICABLE
        assert node.lines() == [
            "  /0 policy p: target=bottom combiner=d-o inputs=[] skipped=target "
            "result=NotApplicable"
        ]
        assert node.to_obj() == {
            "path": [0], "kind": "policy", "name": "p", "target": "bottom",
            "combiner": "d-o", "inputs": [], "skipped": "target",
            "result": "NotApplicable",
        }
        assert trace.root.combined is D6.NOT_APPLICABLE
        assert "combined=NotApplicable" in trace.root.lines()[0]

    @pytest.mark.parametrize(
        "combiner, values, visited",
        [
            (CombinerId.PERMIT_OVERRIDES, (D3.INDET, D3.TOP, D3.TOP), 2),
            (CombinerId.DENY_OVERRIDES, (D3.BOTTOM, D3.TOP, D3.TOP), 2),
            (CombinerId.FIRST_APPLICABLE, (D3.BOTTOM, D3.INDET, D3.TOP), 2),
        ],
    )
    def test_node_stops_at_absorbing_value(self, combiner, values, visited):
        effect = Effect.DENY if combiner is CombinerId.DENY_OVERRIDES else Effect.PERMIT
        rules = tuple(
            rule_with_value(f"r{i}", effect, value) for i, value in enumerate(values)
        )
        p = Policy("p", NULL_TARGET, rules, combiner)
        decision, trace = evaluate(p, PLAIN_REQUEST, with_trace=True)
        assert decision is eval_policy(p, PLAIN_REQUEST)
        assert len(trace.root.children) == len(trace.root.inputs) == visited
        assert trace.root.skipped == "decided"
        assert "skipped=decided" in trace.lines()[0]

    def test_only_one_applicable_stops_at_indeterminate_dp(self):
        # p-o over Indeterminate{P} and Deny gives Indeterminate{DP}, the
        # top of the only-one-applicable lattice.
        mixed = Policy(
            "mixed",
            NULL_TARGET,
            (
                rule_with_value("ip", Effect.PERMIT, D3.INDET),
                rule_with_value("d", Effect.DENY, D3.TOP),
            ),
            CombinerId.PERMIT_OVERRIDES,
        )
        ps = PolicySet(
            "ps",
            NULL_TARGET,
            (mixed, policy_with_value("p2", Effect.PERMIT, D3.TOP)),
            CombinerId.ONLY_ONE_APPLICABLE,
        )
        decision, trace = evaluate(ps, PLAIN_REQUEST, with_trace=True)
        assert decision is D6.INDET_DP
        assert decision is eval_policyset(ps, PLAIN_REQUEST)
        assert trace.root.inputs == (D6.INDET_DP,)
        assert trace.root.skipped == "decided"


class TestEvaluationProperties:
    @settings(max_examples=120, deadline=None)
    @given(strategies.policy_nodes(), strategies.requests())
    def test_generated_trees_evaluate_consistently(self, node, req):
        first, trace = evaluate(node, req, with_trace=True)
        second, _ = evaluate(node, req)
        assert first is second
        assert trace.result is first

        def walk(t):
            if t.combined is not None:
                assert combine(t.combiner, "v6", t.inputs) is t.combined
                for child, value in zip(t.children, t.inputs):
                    assert child.result is value
            for child in t.children:
                walk(child)

        walk(trace.root)


def recording(values):
    """``eval_target`` that appends each value it returns to ``values``."""
    eval_target = xpdp.policy.eval_target

    def recorded(target, index):
        value = eval_target(target, index)
        values.append(value)
        return value

    return recorded


def preorder(trace: TraceNode, node):
    """A trace's nodes, each before its children, as the walk meets them,
    each with the rule, policy or policy set it traces."""
    yield trace, node
    if trace.kind != "rule":
        members = node.rules if trace.kind == "policy" else node.children
        for child in trace.children:
            yield from preorder(child, members[child.path[-1]])


def passes(member, req) -> bool:
    """Whether a member passes its node's gate: its target is not
    BOTTOM, and, for a null-target policy or policy set, its own gate
    has an ``always`` member or a key among the request's category
    keys, the only way one of its members can apply."""
    if eval_target_lattice(member.target, req) is D3.BOTTOM:
        return False
    if isinstance(member, Rule) or member.target.keys or member.gate.always:
        return True
    return not index_all(req).category_keys.isdisjoint(member.gate.keys)


def entered_targets(trace: TraceNode, node, req) -> list[D3]:
    """The target values the untraced walk evaluates under ``node``, in
    order, from ``trace``, the node's trace in the ungated walk. A node
    is entered, and its target evaluated unless it is null, when some
    member passes its gate (``passes``); it then visits those members
    up to the stop. A visited rule's target is evaluated, null or not."""
    if trace.kind == "rule":
        return [trace.target_value]
    members = node.rules if trace.kind == "policy" else node.children
    if trace.target_value is D3.BOTTOM:
        # The ungated walk visits no member under a BOTTOM target.
        entered = any(passes(m, req) for m in members)
        return [D3.BOTTOM] if entered else []
    # Members after the stop are not traced, but the stop's own target is
    # not BOTTOM, so a node with one is entered whatever follows.
    visited = [c for c in trace.children if passes(members[c.path[-1]], req)]
    if not visited:
        return []
    values = [trace.target_value] if node.target.keys else []
    for child in visited:
        values += entered_targets(child, members[child.path[-1]], req)
    return values


def trees_with_requests():
    # Policy sets up to three wide, so that a member other than the last
    # can absorb an only-one-applicable set (Indeterminate{DP} before
    # another member).
    trees = st.one_of(strategies.policies(), strategies.policy_sets(width=3))
    return trees.flatmap(lambda node: st.tuples(st.just(node), strategies.tree_requests(node)))


class TestGatedEvaluation:
    def test_equals_exhaustive_walk(self):
        seen = Counter()

        @settings(max_examples=1000, deadline=None, derandomize=True)
        @given(trees_with_requests())
        def check(case):
            node, req = case
            decision, trace = evaluate(node, req, with_trace=True)
            targets = []
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(xpdp.policy, "eval_target", recording(targets))
                assert evaluate(node, req)[0] is decision
            expected = exhaustive_results(node, req)
            assert decision is expected[()]
            # Member gates change no trace line.
            _, reference = evaluate_ungated(node, req, with_trace=True)
            assert trace.lines() == reference.lines()
            assert trace.to_obj() == reference.to_obj()
            # The gates are exact, and the walk enters only a node with a
            # member they let through: it evaluates the targets of exactly
            # the nodes it enters and the rules it visits, in the ungated
            # walk's order.
            assert targets == entered_targets(reference.root, node, req)
            # What it would evaluate entering every node: the root's and
            # each applicable member's target, but no node's null target.
            every = [
                t.target_value
                for i, (t, n) in enumerate(preorder(reference.root, node))
                if (i == 0 or t.target_value is not D3.BOTTOM)
                and (t.kind == "rule" or n.target.keys)
            ]
            if targets != every:
                seen["not entered"] += 1

            def walk(t, n):
                assert t.result is expected[t.path]
                if t.kind == "rule":
                    assert (t.skipped is None) is (t.target_value is D3.TOP)
                    assert (t.condition_value is None) is (t.skipped is not None)
                    return
                members = n.rules if t.kind == "policy" else n.children
                seen[t.target_value] += 1
                assert (t.skipped == "target") is (t.target_value is D3.BOTTOM)
                if t.skipped == "target":
                    assert (t.inputs, t.combined, t.children) == ((), None, ())
                else:
                    assert combine(t.combiner, "v6", t.inputs) is t.combined
                    assert [c.result for c in t.children] == list(t.inputs)
                    # The walk stops at the first absorbing value.
                    absorbing = ABSORBING[t.combiner]
                    assert not any(v in absorbing for v in t.inputs[:-1])
                    if any(c.target_value is D3.BOTTOM for c in t.children):
                        seen["gated out"] += 1
                if t.skipped == "decided":
                    assert t.inputs[-1] in absorbing
                    seen[t.combiner] += 1
                for child in t.children:
                    walk(child, members[child.path[-1]])

            walk(trace.root, node)

        check()
        for value in D3:
            assert seen[value] > 0, f"no node target was {value.token}"
        for combiner in STANDARD_COMBINERS:
            assert seen[combiner] > 0, f"no early stop under {combiner.token}"
        assert seen["gated out"] > 0, "no member gate left a member out"
        assert seen["not entered"] > 0, "the walk entered every node the ungated walk did"

    def test_target_loops_equal_lattice_form(self):
        seen = Counter()
        targets_and_requests = st.lists(strategies.targets(), min_size=1, max_size=4).flatmap(
            lambda ts: st.tuples(
                st.just(ts),
                strategies.requests_over([m for t in ts for m in strategies.target_matches(t)]),
            )
        )

        @settings(max_examples=300, deadline=None, derandomize=True)
        @given(targets_and_requests)
        def check(case):
            targets, req = case
            for target in targets:
                value = eval_target(target, index_all(req))
                assert value is eval_target_lattice(target, req)
                assert value is eval_target_terms(target, req)
                seen[value] += 1

        check()
        assert all(seen[value] > 0 for value in D3)


# Predicates no generated tree names; generated trees name idents.
_UNREAD_NAMES = ("visit", "billing", "device")


@st.composite
def padded(draw, case):
    """A tree and its request, the request padded with facts and error
    attributes over names the tree never reads and over names from the
    generators' vocabulary, which it may read, with string and number
    constants."""
    node, req = case
    names = st.one_of(st.sampled_from(_UNREAD_NAMES), strategies.idents)
    pads = st.builds(
        AttributeTerm, names, st.lists(strategies.constants, min_size=1, max_size=2).map(tuple)
    )
    facts = set(req.facts) | set(draw(st.lists(pads, max_size=3)))
    errors = set(req.error_attributes) | set(draw(st.lists(pads, max_size=2)))
    return node, Request(facts=frozenset(facts), error_attributes=frozenset(errors - facts))


def index_fields(index) -> dict:
    """An index's fields, by slot name."""
    return {name: getattr(index, name) for name in index.__slots__}


def request_of(args: list[tuple]) -> Request:
    """A request with a fact ``f(a...)`` for each argument tuple."""
    return Request(facts=frozenset(AttributeTerm("f", a) for a in args))


class TestFilteredIndex:
    """``evaluate`` indexes only the facts and error attributes whose
    names the tree reads (``Policy.needs``); ``evaluate_ungated`` and
    ``evaluate_exhaustive`` read them all."""

    def test_padded_requests_equal_references(self):
        seen = Counter()

        @settings(max_examples=200, deadline=None, derandomize=True)
        @given(trees_with_requests().flatmap(padded))
        def check(case):
            node, req = case
            decision, trace = evaluate(node, req, with_trace=True)
            assert evaluate(node, req)[0] is decision
            assert decision is evaluate_exhaustive(node, req)
            _, reference = evaluate_ungated(node, req, with_trace=True)
            assert trace.lines() == reference.lines()
            assert trace.to_obj() == reference.to_obj()
            # For every name, the index is the full one; for the tree's
            # needs, it is cut down to the names the tree reads, with the
            # constants of every fact.
            full = full_index(req)
            assert index_fields(index_all(req)) == full
            filtered = index_fields(index_request(req, node.needs))
            reads = node.needs.__contains__
            assert filtered["domain"] == full["domain"]
            for field in ("facts", "errors", "category_keys"):
                assert filtered[field] == {k for k in full[field] if reads(k[0])}
            assert filtered["function_errors"] == {k for k in full["function_errors"] if reads(k[0])}
            for field in ("tuples", "functions"):
                assert filtered[field] == {k: v for k, v in full[field].items() if reads(k[0])}
            left_out = {t.name for t in req.facts | req.error_attributes} - node.needs
            seen["left out"] += bool(left_out)
            seen["mixed"] += len({type(c) for c in full["domain"]}) > 1

        check()
        assert seen["left out"] > 0 and seen["mixed"] > 0

    @pytest.mark.parametrize(
        "args",
        [
            [("b", "a"), ("c",)],
            [(3, 1), (2,), (1,)],
            [("b", 2), ("a", 10), (1,)],
            [(True, "x"), (0,), (2, False)],
            [(1, True), ("t",)],
        ],
        ids=["strings", "numbers", "mixed", "bool", "bool-equals-one"],
    )
    def test_constants_equal_reference(self, args):
        req = request_of(args)
        constants = req.constants()
        assert constants == constants_with_fallback(req)
        assert [type(c) for c in constants] == [type(c) for c in constants_with_fallback(req)]

    def test_generated_constants_equal_reference(self):
        constants = st.one_of(strategies.idents, st.integers(-5, 99), st.booleans())
        facts = st.lists(st.lists(constants, min_size=1, max_size=3).map(tuple), min_size=1)

        @settings(max_examples=300, deadline=None, derandomize=True)
        @given(facts)
        def check(args):
            req = request_of(args)
            assert req.constants() == constants_with_fallback(req)

        check()

    def test_needs_are_the_names_read(self):
        node = parse_policy((SAMPLES / "patient_policy.pol").read_text())
        assert node.needs == {
            "subject", "action", "resource", "patient", "patient_record", "patient_survey",
            "age", "guardian", "doctor", "medical_record", "patient_doctor",
        }


def wide_gated_policy() -> PolicySet:
    """A root over one d-o policy of 200 rules with distinct targets,
    ``action(aI) /\\ resource(doc)``, every tenth rule an
    ``action(aI) \\/ action(bI)`` disjunction, and a null-target rule
    after every twentieth, whose false condition leaves it
    NotApplicable."""
    rules = []
    for i in range(200):
        if i % 20 == 0:
            rules.append(rule_with_value(f"n{i}", Effect.PERMIT, D3.BOTTOM))
        action = AnyOf((AllOf((match("action", f"a{i}"),)),))
        if i % 10 == 5:
            action = AnyOf(action.all_ofs + (AllOf((match("action", f"b{i}"),)),))
        target = Target((action, AnyOf((AllOf((match("resource", "doc"),)),))))
        effect = Effect.DENY if i % 5 == 0 else Effect.PERMIT
        rules.append(Rule(f"r{i}", effect, target, TRUE_CONDITION))
    wide = Policy(
        "wide", target_of(match("subject", "s")), tuple(rules), CombinerId.DENY_OVERRIDES
    )
    return PolicySet("root", NULL_TARGET, (wide,), CombinerId.PERMIT_OVERRIDES)


def decided_as_references(node, req) -> tuple[D6, list[D3]]:
    """``node``'s decision on ``req`` and the target values its untraced
    walk evaluates, after checking that the decision is the exhaustive
    walk's, the trace the ungated walk's, and the targets those of the
    nodes and rules that pass their gates (``entered_targets``)."""
    targets = []
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(xpdp.policy, "eval_target", recording(targets))
        decision, _ = evaluate(node, req)
    assert decision is evaluate_exhaustive(node, req)
    traced, trace = evaluate(node, req, with_trace=True)
    expected, reference = evaluate_ungated(node, req, with_trace=True)
    assert traced is expected is decision
    assert trace.lines() == reference.lines()
    assert trace.to_obj() == reference.to_obj()
    assert targets == entered_targets(reference.root, node, req)
    return decision, targets


def subject_policy(name, subject, effect=Effect.PERMIT):
    """A p-o policy for ``subject(<subject>)`` with one ``action(read)``
    rule whose condition is true."""
    rule = Rule(name + "_r", effect, target_of(match("action", "read")), TRUE_CONDITION)
    return Policy(name, target_of(match("subject", subject)), (rule,), CombinerId.PERMIT_OVERRIDES)


def null_set(name, *children, combiner=CombinerId.DENY_OVERRIDES):
    return PolicySet(name, NULL_TARGET, children, combiner)


def policy_sets_in(node):
    if isinstance(node, PolicySet):
        yield node
        for child in node.children:
            yield from policy_sets_in(child)


def tree_nodes(node):
    """``node`` and every policy and policy set under it."""
    yield node
    if isinstance(node, PolicySet):
        for child in node.children:
            yield from tree_nodes(child)


def assert_gate_is_reference(gate, reference):
    assert gate == reference
    assert list(gate.keys.items()) == list(reference.keys.items())


def assert_reference_gate(node):
    """``node``'s gate is the one ``compile_gate_reference`` compiles."""
    if isinstance(node, Policy):
        reference = compile_gate_reference([r.target for r in node.rules])
    else:
        reference = compile_gate_reference([c.target for c in node.children],
                                           [c.gate for c in node.children])
    assert_gate_is_reference(node.gate, reference)


class TestMemberGate:
    @pytest.mark.parametrize(
        "request_file",
        ["request_doctor_read.req", "request_doctor_write.req", "request_errored_read.req"],
    )
    def test_sample_traces_equal_ungated_walk(self, request_file):
        node = parse_policy((SAMPLES / "patient_policy.pol").read_text())
        req = parse_request((SAMPLES / request_file).read_text())
        decision, trace = evaluate(node, req, with_trace=True)
        expected, reference = evaluate_ungated(node, req, with_trace=True)
        assert decision is expected
        assert trace.lines() == reference.lines()
        assert trace.to_obj() == reference.to_obj()

    def test_empty_child_is_listed_nowhere(self):
        empty = null_set("empty")
        root = null_set("root", empty, null_set("full", subject_policy("p", "s")))
        assert empty.gate.keys == {} and empty.gate.always == ()
        assert root.gate.always == ()
        assert root.gate.keys == {match("subject", "s").key: (1,)}
        read = request([match("subject", "s"), match("action", "read")])
        assert decided_as_references(root, read) == (D6.PERMIT, [D3.TOP, D3.TOP])
        other = request([match("subject", "t"), match("action", "read")])
        assert decided_as_references(root, other) == (D6.NOT_APPLICABLE, [])

    def test_gates_compose_through_a_chain_of_null_target_sets(self):
        # Three levels of null-target sets; only the branch whose policy
        # names the request's subject is entered.
        inner = null_set("inner", subject_policy("p1", "s1"), subject_policy("p2", "s2"))
        middle = null_set("middle", inner, null_set("side", subject_policy("p3", "s3")))
        root = null_set("root", middle, null_set("far", null_set("deep", subject_policy(
            "p4", "s4", Effect.DENY))))
        subjects = {match("subject", f"s{k}").key for k in range(1, 5)}
        assert set(root.gate.keys) == subjects
        assert root.gate.keys[match("subject", "s4").key] == (1,)
        assert set(middle.gate.keys) == subjects - {match("subject", "s4").key}
        assert all(ps.gate.always == () for ps in policy_sets_in(root))
        for k, expected in ((1, D6.PERMIT), (3, D6.PERMIT), (4, D6.DENY)):
            req = request([match("subject", f"s{k}"), match("action", "read")])
            # The policy's target and its rule's; no set's null target.
            assert decided_as_references(root, req) == (expected, [D3.TOP, D3.TOP])
        req = request([match("subject", "s2"), match("subject", "s4"), match("action", "read")])
        assert decided_as_references(root, req) == (D6.DENY, [D3.TOP, D3.TOP, D3.TOP, D3.TOP])
        req = request([match("subject", "s5"), match("action", "read")])
        assert decided_as_references(root, req) == (D6.NOT_APPLICABLE, [])

    def test_null_target_child_with_an_always_member(self):
        # A null-target rule makes the child's gate let it through on
        # any request, so its parent lists it in ``always``.
        anywhere = Policy(
            "anywhere", NULL_TARGET, (rule_with_value("any", Effect.DENY, D3.TOP),),
            CombinerId.PERMIT_OVERRIDES,
        )
        root = PolicySet(
            "root", NULL_TARGET, (subject_policy("p", "s"), anywhere),
            CombinerId.FIRST_APPLICABLE,
        )
        assert anywhere.gate.always == (0,)
        assert root.gate.always == (1,)
        assert root.gate.keys == {match("subject", "s").key: (0,)}
        read = request([PAD, match("subject", "s"), match("action", "read")])
        assert decided_as_references(root, read) == (D6.PERMIT, [D3.TOP, D3.TOP])
        assert decided_as_references(root, PLAIN_REQUEST) == (D6.DENY, [D3.TOP])

    def test_error_on_a_key_listed_through_a_child_gate(self):
        # subject(s) is a key of the root's gate only through the null-
        # target set under it; an error attribute on it enters both.
        policy = Policy(
            "p", target_of(match("subject", "s")),
            (rule_with_value("r", Effect.PERMIT, D3.TOP),), CombinerId.PERMIT_OVERRIDES,
        )
        root = null_set("root", null_set("set", policy), null_set("other", subject_policy(
            "q", "t")))
        assert root.gate.keys[match("subject", "s").key] == (0,)
        assert not root.children[0].target.keys
        req = request([PAD], [match("subject", "s")])
        assert decided_as_references(root, req) == (D6.INDET_P, [D3.INDET, D3.TOP])

    def test_null_target_rule_is_always_visited(self):
        # The empty conjunction has no any-of to be listed under.
        action = match("action", "a").key
        gate = compile_gate([target_of(match("action", "a")), Target(()), NULL_TARGET])
        assert gate.always == (1, 2)
        assert gate.keys == {action: (0,)}
        assert gate.required == ((action,), (), ())
        assert gate == compile_gate_reference([target_of(match("action", "a")), NULL_TARGET,
                                               NULL_TARGET])

    def test_gates_equal_the_reference_on_wide_policy(self):
        root = parse_policy(benchmark_workloads().wide_policy(7).policy_text)
        assert sum(1 for _ in tree_nodes(root)) == 45
        for node in tree_nodes(root):
            assert_reference_gate(node)

    def test_gates_equal_the_reference_on_shared_any_ofs(self):
        doc, read = match("resource", "doc"), match("action", "read")
        shared = AnyOf((AllOf((doc,)),))
        alternation = AnyOf((AllOf((read,)), AllOf((match("action", "list"),))))
        targets = [
            Target((shared,)),
            Target((shared,)),
            Target((shared,)),
            # doc is mentioned four times, read three times, twice through
            # one any-of used twice in one target: the pair picks read.
            Target((AnyOf((AllOf((doc, read)),)),)),
            # After that any-of, a rarer one, which is the member's pick.
            Target((alternation, alternation, AnyOf((AllOf((match("subject", "s"),)),)))),
            NULL_TARGET,
        ]
        gate = compile_gate(targets)
        assert gate.keys[read.key] == (3,)
        assert gate.keys[match("subject", "s").key] == (4,)
        assert gate.always == (5,)
        assert_gate_is_reference(gate, compile_gate_reference(targets))

    def test_gates_equal_the_reference_over_null_target_children(self):
        anywhere = Policy(
            "anywhere", NULL_TARGET, (rule_with_value("any", Effect.DENY, D3.TOP),),
            CombinerId.PERMIT_OVERRIDES,
        )
        root = null_set(
            "root", null_set("with_always", anywhere, subject_policy("p", "s")),
            null_set("without", subject_policy("q", "s"), subject_policy("r", "t")),
            PolicySet("targeted", target_of(match("subject", "s")), (subject_policy("u", "t"),),
                      CombinerId.FIRST_APPLICABLE),
            null_set("empty"),
        )
        assert root.gate.always == (0,)
        for node in tree_nodes(root):
            assert_reference_gate(node)

    def test_set_gate_holds_only_its_picks_and_null_children_keys(self):
        """A set's gate lists its members' own picks, as a gate over their
        targets alone would, and each null-target child with no ``always``
        member once under each key of that child's gate: nothing more.
        Every node's gate is the one ``compile_gate_reference`` compiles."""
        seen = Counter()

        @settings(max_examples=100, deadline=None, derandomize=True)
        @given(strategies.policy_sets(depth=3, width=3))
        def check(node):
            for each in tree_nodes(node):
                assert_reference_gate(each)
            for ps in policy_sets_in(node):
                children = ps.children
                picks = compile_gate([c.target for c in children])
                inherited = [
                    c.gate for c in children if not c.target.keys and not c.gate.always
                ]
                assert set(ps.gate.keys) == set(picks.keys).union(*(g.keys for g in inherited))
                assert sum(map(len, ps.gate.keys.values())) == sum(
                    map(len, picks.keys.values())
                ) + sum(len(g.keys) for g in inherited)
                assert set(ps.gate.always) <= set(picks.always)
                seen["inherited"] += any(g.keys for g in inherited)

        check()
        assert seen["inherited"] > 0

    def test_keys_are_the_rarest_matches(self):
        gate = wide_gated_policy().children[0].gate
        nulls = tuple(i + i // 20 for i in range(0, 200, 20))
        assert gate.always == nulls
        assert gate.keys[match("action", "a57").key] == (57 + 3,)
        assert gate.keys[match("action", "b15").key] == (15 + 1,)
        assert match("resource", "doc").key not in gate.keys

    def test_visits_only_members_that_can_apply(self, monkeypatch):
        # action(a57) makes r57 Permit; the errored action(b125) leaves
        # r125, a deny rule, indeterminate through its disjunction.
        root = wide_gated_policy()
        req = request(
            [match("subject", "s"), match("action", "a57"), match("resource", "doc")],
            [match("action", "b125")],
        )
        calls = Counter()
        eval_target = xpdp.policy.eval_target

        def counted(target, request):
            calls["eval_target"] += 1
            return eval_target(target, request)

        monkeypatch.setattr(xpdp.policy, "eval_target", counted)
        decision, trace = evaluate(root, req, with_trace=True)
        # The root's target is null, so of the ancestors only the wide
        # policy's target is evaluated; a rule's null target is.
        ancestors, hit, null_target = 1, 2, 10
        assert calls["eval_target"] == ancestors + hit + null_target
        assert decision is D6.INDET_DP
        assert decision is eval_policyset(root, req)
        expected, reference = evaluate_ungated(root, req, with_trace=True)
        assert decision is expected
        assert trace.lines() == reference.lines()
        assert trace.to_obj() == reference.to_obj()
        values = {c.name: c.target_value for c in trace.root.children[0].children}
        assert values["r57"] is D3.TOP and values["r125"] is D3.INDET
        assert sum(v is not D3.BOTTOM for v in values.values()) == hit + null_target

    def test_wide_policy_evaluates_one_rule(self, monkeypatch):
        """The benchmark's wide policy: each request names one rule's
        subject, action and resource, so that rule is the only one whose
        target is not BOTTOM. Every decision equals the exhaustive walk's,
        and each runs exactly one rule decision."""
        workload = benchmark_workloads().wide_policy(11, subjects=8)
        root = parse_policy(workload.policy_text)
        calls = Counter()
        decide_rule = xpdp.policy.rule_decision

        def counted(*args):
            calls["rule_decision"] += 1
            return decide_rule(*args)

        monkeypatch.setattr(xpdp.policy, "rule_decision", counted)
        for text, expected in zip(workload.request_texts, workload.expected):
            req = parse_request(text)
            calls.clear()
            decision, _ = evaluate(root, req)
            assert calls["rule_decision"] == 1
            assert decision is evaluate_exhaustive(root, req)
            assert decision.canonical == expected

    def test_walk_hashes_no_enum_in_python(self, monkeypatch):
        # Every enum the walk hashes (ABSORBING and the combiner tables
        # are keyed by CombinerId) must hash in C; Enum.__hash__ runs in
        # Python on each lookup. Targets and the gates look up ground
        # keys, so no AttributeTerm is hashed or compared either.
        import enum

        workload = benchmark_workloads().wide_policy(13, subjects=8)
        wide = parse_policy(workload.policy_text)
        cases = [(wide, parse_request(text)) for text in workload.request_texts]
        root = wide_gated_policy()
        req = request([match("subject", "s"), match("action", "a57"), match("resource", "doc")])
        cases.append((root, req))
        calls = Counter()

        def counting(name, fn):
            def counted(*args):
                calls[name] += 1
                return fn(*args)

            return counted

        monkeypatch.setattr(enum.Enum, "__hash__", counting("Enum.__hash__", enum.Enum.__hash__))
        for name in ("__hash__", "__eq__"):
            method = getattr(AttributeTerm, name)
            monkeypatch.setattr(AttributeTerm, name, counting(f"AttributeTerm.{name}", method))
        assert evaluate(root, req)[0] is D6.PERMIT
        for node, case in cases:
            evaluate(node, case)
            evaluate(node, case, with_trace=True)
        assert not calls
