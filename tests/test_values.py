"""What every value type promises, whatever builds its methods.

Each exported value class has one example, built by keyword, and the
exact ``repr`` it prints. The examples are checked for being frozen,
for equality and hashing by their compared fields only, for defaults
and for a pickle round trip.
"""

from __future__ import annotations

import enum
import os
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

import xpdp
from xpdp import (
    HALF,
    ONE,
    ZERO,
    AllOf,
    And,
    AnyOf,
    Atom,
    AttributeTerm,
    AxiomReport,
    AxiomViolation,
    BelnapOps,
    BelnapValue,
    BoolLiteral,
    CombinerId,
    Compare,
    ComparisonRow,
    ConditionPlan,
    Counterexample,
    DDecision,
    Decision3,
    Decision6,
    Effect,
    EquivalenceReport,
    EvalTrace,
    FunctionValue,
    LogicImages,
    Not,
    NULL_TARGET,
    Or,
    PairValue,
    Policy,
    PolicySet,
    Request,
    RequestIndex,
    Rule,
    SourceSpan,
    Target,
    TraceNode,
    TRUE_CONDITION,
    Variable,
)
from xpdp.policy import MemberGate

B = BelnapValue
D6 = Decision6
SRC = Path(__file__).resolve().parent.parent / "src"

DOCTOR = AttributeTerm(name="subject", args=("doctor",))
X = Variable(name="X")
AGE = FunctionValue(name="age", arg=X)
ATOM = Atom(name="doctor", terms=(X,))
OLD = Compare(left=AGE, op=">=", right=18)
ALL_OF = AllOf(matches=(DOCTOR,))
ANY_OF = AnyOf(all_ofs=(ALL_OF,))
TARGET = Target(any_ofs=(ANY_OF,))
RULE = Rule(name="r", effect=Effect.PERMIT, target=NULL_TARGET, condition=TRUE_CONDITION)
PO = CombinerId.PERMIT_OVERRIDES
POLICY = Policy(name="p", target=NULL_TARGET, rules=(RULE,), combiner=PO)
LEAF = TraceNode(
    path=(0,),
    kind="rule",
    name="r",
    target_value=Decision3.TOP,
    condition_value=Decision3.TOP,
    combiner=None,
    inputs=(),
    combined=None,
    result=D6.PERMIT,
    children=(),
)
PERMIT_SET = DDecision(members=frozenset({"p"}))

# (class, keyword arguments of the example, its repr)
EXAMPLES = [
    (SourceSpan, dict(start=0, end=3, line=1, column=1),
     "SourceSpan(start=0, end=3, line=1, column=1)"),
    (PairValue, dict(deny=ONE, permit=HALF), "PairValue[1,1/2]"),
    (AttributeTerm, dict(name="subject", args=("doctor",)), "AttributeTerm(subject(doctor))"),
    (Request, dict(facts=frozenset({DOCTOR})),
     "Request(facts=frozenset({AttributeTerm(subject(doctor))}), error_attributes=frozenset())"),
    (Variable, dict(name="X"), "Variable(name='X')"),
    (FunctionValue, dict(name="age", arg=X), "FunctionValue(name='age', arg=Variable(name='X'))"),
    (BoolLiteral, dict(value=False), "BoolLiteral(value=False)"),
    (Atom, dict(name="doctor", terms=(X, "a")),
     "Atom(name='doctor', terms=(Variable(name='X'), 'a'))"),
    (Compare, dict(left=AGE, op=">=", right=18),
     "Compare(left=FunctionValue(name='age', arg=Variable(name='X')), op='>=', right=18)"),
    (Not, dict(expr=BoolLiteral(True)), "Not(expr=BoolLiteral(value=True))"),
    (And, dict(children=(ATOM, OLD)),
     "And(children=(Atom(name='doctor', terms=(Variable(name='X'),)), "
     "Compare(left=FunctionValue(name='age', arg=Variable(name='X')), op='>=', right=18)))"),
    (Or, dict(children=(TRUE_CONDITION, ATOM)),
     "Or(children=(BoolLiteral(value=True), Atom(name='doctor', terms=(Variable(name='X'),))))"),
    (ConditionPlan, dict(expr=ATOM, variables=("X",), sources=(((ATOM, 0),),), sites=(None,),
                         reads=frozenset({"doctor"})),
     "ConditionPlan(expr=Atom(name='doctor', terms=(Variable(name='X'),)), variables=('X',), "
     "sources=(((Atom(name='doctor', terms=(Variable(name='X'),)), 0),),), sites=(None,), "
     "reads=frozenset({'doctor'}))"),
    (AllOf, dict(matches=(DOCTOR,)), "AllOf(matches=(AttributeTerm(subject(doctor)),))"),
    (AnyOf, dict(all_ofs=(ALL_OF,)),
     "AnyOf(all_ofs=(AllOf(matches=(AttributeTerm(subject(doctor)),)),))"),
    (Target, dict(any_ofs=()), "Target(any_ofs=())"),
    (Rule, dict(name="r", effect=Effect.DENY, target=TARGET, condition=ATOM),
     "Rule(name='r', effect=<Effect.DENY: 'deny'>, target=Target(any_ofs=(AnyOf(all_ofs=("
     "AllOf(matches=(AttributeTerm(subject(doctor)),)),)),)), "
     "condition=Atom(name='doctor', terms=(Variable(name='X'),)))"),
    (Policy, dict(name="p", target=NULL_TARGET, rules=(RULE,), combiner=PO),
     "Policy(name='p', target=Target(any_ofs=()), rules=(Rule(name='r', "
     "effect=<Effect.PERMIT: 'permit'>, target=Target(any_ofs=()), "
     "condition=BoolLiteral(value=True)),), combiner=<CombinerId.PERMIT_OVERRIDES: 'p-o'>)"),
    (PolicySet, dict(name="s", target=NULL_TARGET, children=(POLICY,),
                     combiner=CombinerId.FIRST_APPLICABLE),
     "PolicySet(name='s', target=Target(any_ofs=()), children=(Policy(name='p', "
     "target=Target(any_ofs=()), rules=(Rule(name='r', effect=<Effect.PERMIT: 'permit'>, "
     "target=Target(any_ofs=()), condition=BoolLiteral(value=True)),), "
     "combiner=<CombinerId.PERMIT_OVERRIDES: 'p-o'>),), "
     "combiner=<CombinerId.FIRST_APPLICABLE: 'f-a'>)"),
    (TraceNode, dict(path=(), kind="policy", name="p", target_value=Decision3.INDET,
                     condition_value=None, combiner=PO, inputs=(D6.PERMIT,),
                     combined=D6.PERMIT, result=D6.INDET_P, children=(LEAF,)),
     "TraceNode(path=(), kind='policy', name='p', target_value=<Decision3.INDET: 1>, "
     "condition_value=None, combiner=<CombinerId.PERMIT_OVERRIDES: 'p-o'>, "
     "inputs=(<Decision6.PERMIT: 5>,), combined=<Decision6.PERMIT: 5>, "
     "result=<Decision6.INDET_P: 2>, children=(TraceNode(path=(0,), kind='rule', name='r', "
     "target_value=<Decision3.TOP: 2>, condition_value=<Decision3.TOP: 2>, combiner=None, "
     "inputs=(), combined=None, result=<Decision6.PERMIT: 5>, children=(), skipped=None),), "
     "skipped=None)"),
    (EvalTrace, dict(root=LEAF),
     "EvalTrace(root=TraceNode(path=(0,), kind='rule', name='r', "
     "target_value=<Decision3.TOP: 2>, condition_value=<Decision3.TOP: 2>, combiner=None, "
     "inputs=(), combined=None, result=<Decision6.PERMIT: 5>, children=(), skipped=None))"),
    (Counterexample, dict(decisions=(D6.DENY,), v6_result=D6.DENY,
                          pair_result=PairValue(ONE, ZERO)),
     "Counterexample(decisions=(<Decision6.DENY: 4>,), v6_result=<Decision6.DENY: 4>, "
     "pair_result=PairValue[1,0])"),
    (EquivalenceReport, dict(algorithm=PO, max_length=1, sequences_checked=7,
                             counterexamples=()),
     "EquivalenceReport(algorithm=<CombinerId.PERMIT_OVERRIDES: 'p-o'>, max_length=1, "
     "sequences_checked=7, counterexamples=())"),
    (BelnapOps, dict(join_k=B.BOTH, meet_k=B.NONE, join_t=B.TRUE, meet_t=B.FALSE),
     "BelnapOps(join_k=<BelnapValue.BOTH: 'TT'>, meet_k=<BelnapValue.NONE: 'NN'>, "
     "join_t=<BelnapValue.TRUE: 'tt'>, meet_t=<BelnapValue.FALSE: 'ff'>)"),
    (DDecision, dict(members=frozenset({"p", "na"})), "DDecision({p,na})"),
    (AxiomViolation, dict(axiom=3, inputs=(PERMIT_SET,)),
     "AxiomViolation(axiom=3, inputs=(DDecision({p}),))"),
    (AxiomReport, dict(elements_checked=8, pairs_checked=64, triples_checked=512,
                       violations=()),
     "AxiomReport(elements_checked=8, pairs_checked=64, triples_checked=512, violations=())"),
    (LogicImages, dict(belnap=B.TRUE, dalg=PERMIT_SET),
     "LogicImages(belnap=<BelnapValue.TRUE: 'tt'>, dalg=DDecision({p}))"),
    (ComparisonRow, dict(inputs=(D6.PERMIT, D6.DENY), v6_result=D6.PERMIT,
                         pair_result=PairValue(ZERO, ONE), belnap_result=B.TRUE,
                         dalg_result=PERMIT_SET),
     "ComparisonRow(inputs=(<Decision6.PERMIT: 5>, <Decision6.DENY: 4>), "
     "v6_result=<Decision6.PERMIT: 5>, pair_result=PairValue[0,1], "
     "belnap_result=<BelnapValue.TRUE: 'tt'>, dalg_result=DDecision({p}))"),
]

IDS = [cls.__name__ for cls, _, _ in EXAMPLES]


def test_every_exported_value_class_has_an_example():
    # A request index is rebuilt on every evaluation and never compared.
    exported = {
        obj
        for name in xpdp.__all__
        if isinstance(obj := getattr(xpdp, name), type)
        and not issubclass(obj, (enum.Enum, Exception))
    }
    assert exported - {RequestIndex} == {cls for cls, _, _ in EXAMPLES}


@pytest.mark.parametrize("cls, kwargs, text", EXAMPLES, ids=IDS)
class TestValueSemantics:
    def test_repr(self, cls, kwargs, text):
        assert repr(cls(**kwargs)) == text

    def test_keyword_and_positional_construction_agree(self, cls, kwargs, text):
        value = cls(**kwargs)
        assert type(value) is cls
        assert all(getattr(value, name) == arg for name, arg in kwargs.items())
        again = cls(*kwargs.values())
        assert again == value and hash(again) == hash(value)
        assert value == cls(**kwargs) and not value != cls(**kwargs)

    def test_frozen(self, cls, kwargs, text):
        value = cls(**kwargs)
        for name, arg in kwargs.items():
            with pytest.raises(AttributeError):
                setattr(value, name, arg)
            with pytest.raises(AttributeError):
                delattr(value, name)
            assert getattr(value, name) == arg

    def test_pickle_round_trip(self, cls, kwargs, text):
        value = cls(**kwargs)
        again = pickle.loads(pickle.dumps(value))
        assert type(again) is cls and again == value and hash(again) == hash(value)

    def test_other_classes_are_unequal(self, cls, kwargs, text):
        value = cls(**kwargs)
        assert value != object()
        for other_cls, other_kwargs, _ in EXAMPLES:
            if other_cls is not cls:
                assert value != other_cls(**other_kwargs)


def test_defaults():
    assert Request(facts=frozenset({DOCTOR})).error_attributes == frozenset()
    assert LEAF.skipped is None
    node = TraceNode(*[getattr(LEAF, n) for n in (
        "path", "kind", "name", "target_value", "condition_value", "combiner",
        "inputs", "combined", "result", "children")], skipped="target")
    assert node.skipped == "target" and node != LEAF


def test_same_fields_different_class():
    assert And((ATOM, OLD)) != Or((ATOM, OLD))


def test_a_field_that_differs_breaks_equality():
    assert Variable("X") != Variable("Y")
    assert PairValue(ONE, ZERO) != PairValue(ZERO, ONE)
    assert POLICY != Policy(name="p", target=NULL_TARGET, rules=(RULE,), combiner=CombinerId.DENY_OVERRIDES)


def test_derived_fields_are_not_compared():
    other = Policy(name="p", target=NULL_TARGET, rules=(RULE,), combiner=PO)
    object.__setattr__(other, "gate", MemberGate({}, (0, 0), ((), ()), ((), ())))
    assert other.gate != POLICY.gate
    assert other == POLICY and hash(other) == hash(POLICY)
    node = PolicySet("s", NULL_TARGET, (POLICY,), PO)
    twin = PolicySet("s", NULL_TARGET, (POLICY,), PO)
    object.__setattr__(twin, "gate", MemberGate({}, (), (), ()))
    assert twin == node and hash(twin) == hash(node)
    rule = Rule("r", Effect.PERMIT, NULL_TARGET, TRUE_CONDITION)
    object.__setattr__(rule, "plan", None)
    assert rule == RULE and hash(rule) == hash(RULE)
    assert "plan" not in repr(RULE) and "gate" not in repr(POLICY)


def test_derived_fields_are_not_arguments():
    with pytest.raises(TypeError):
        Rule("r", Effect.PERMIT, NULL_TARGET, TRUE_CONDITION, None)
    with pytest.raises(TypeError):
        Policy(name="p", target=NULL_TARGET, rules=(RULE,), combiner=PO, gate=None)
    with pytest.raises(TypeError):
        AttributeTerm("subject", ("a",), 0)


def test_missing_repeated_and_unknown_arguments():
    with pytest.raises(TypeError):
        Request()
    with pytest.raises(TypeError):
        Variable("X", name="Y")
    with pytest.raises(TypeError):
        Variable(label="X")
    with pytest.raises(TypeError):
        PairValue(ONE, ZERO, ONE)


def test_validation_runs_on_construction():
    with pytest.raises(ValueError):
        SourceSpan(start=3, end=0, line=1, column=1)
    with pytest.raises(xpdp.InvalidInputError):
        PairValue(deny=3, permit=0)
    assert DDecision(members=["p"]).members == frozenset({"p"})


# (what is built, the error it raises, text its message holds)
REFUSALS = [
    (lambda: Variable("x"), "variable names start with an uppercase letter"),
    (lambda: Atom("doctor", ()), "atom 'doctor' needs at least one term"),
    (lambda: Compare(AGE, "=>", 18), "unknown comparison operator: '=>'"),
    (lambda: And((ATOM,)), "a conjunction needs at least two members"),
    (lambda: Or((ATOM,)), "a disjunction needs at least two members"),
    (lambda: AllOf(()), "an all-of group needs at least one match"),
    (lambda: AnyOf(()), "an any-of group needs at least one all-of"),
    (lambda: AttributeTerm("subject", ()), "attribute 'subject' needs arguments"),
    (lambda: AttributeTerm("owns", (X,)), "arguments must be ground constants"),
    (lambda: AttributeTerm("subject", ("a", "b")),
     "category attribute 'subject' takes exactly one argument"),
    (lambda: Request(frozenset()), "a request needs at least one attribute fact"),
    (lambda: Request(frozenset({DOCTOR}), frozenset({DOCTOR})),
     "attributes listed both as facts and as errors: ['subject(doctor)']"),
    (lambda: DDecision(frozenset({"p", "maybe"})), "not decision elements: ['maybe']"),
    (lambda: SourceSpan(5, 1, 1, 1), "span start 5 past end 1"),
    # A field that holds a tuple or a frozenset is refused as a list or
    # a set, which would build an unhashable value.
    (lambda: AttributeTerm("subject", ["doctor"]), "AttributeTerm.args must be a tuple, not list"),
    (lambda: AllOf([DOCTOR]), "AllOf.matches must be a tuple, not list"),
    (lambda: AnyOf([ALL_OF]), "AnyOf.all_ofs must be a tuple, not list"),
    (lambda: Target([ANY_OF]), "Target.any_ofs must be a tuple, not list"),
    (lambda: Policy("p", NULL_TARGET, [RULE], PO), "Policy.rules must be a tuple, not list"),
    (lambda: PolicySet("s", NULL_TARGET, [POLICY], PO),
     "PolicySet.children must be a tuple, not list"),
    (lambda: Atom("doctor", [X]), "Atom.terms must be a tuple, not list"),
    (lambda: And([ATOM, OLD]), "And.children must be a tuple, not list"),
    (lambda: Or([ATOM, OLD]), "Or.children must be a tuple, not list"),
    (lambda: Request({DOCTOR}), "Request.facts must be a frozenset, not set"),
    (lambda: Request(frozenset({DOCTOR}), set()),
     "Request.error_attributes must be a frozenset, not set"),
    # A field of the wrong kind, which would build a value that fails
    # at decision time or when written.
    (lambda: Rule("r", "permit", NULL_TARGET, TRUE_CONDITION),
     "Rule.effect must be a Effect, not str"),
    (lambda: Rule("r", Effect.PERMIT, None, TRUE_CONDITION),
     "Rule.target must be a Target, not NoneType"),
    (lambda: Policy("p", None, (RULE,), PO), "Policy.target must be a Target, not NoneType"),
    (lambda: PolicySet("s", None, (POLICY,), PO),
     "PolicySet.target must be a Target, not NoneType"),
    (lambda: Rule("r", Effect.PERMIT, NULL_TARGET, "true"), "not a condition expression: 'true'"),
    (lambda: Rule("r", Effect.PERMIT, NULL_TARGET, Not("x")), "not a condition expression: 'x'"),
    (lambda: Rule("r", Effect.PERMIT, NULL_TARGET, And((ATOM, "y"))),
     "not a condition expression: 'y'"),
    (lambda: Atom("p", (["a"],)), "atom 'p': ['a'] is not a term"),
    (lambda: Compare(["a"], "<", 1), "comparison '<': ['a'] is not a term"),
    (lambda: Compare(1, "<", FunctionValue("age", ("a",))),
     "comparison '<': ('a',) is not a term"),
]


@pytest.mark.parametrize("build, message", REFUSALS, ids=[m for _, m in REFUSALS])
def test_refused_on_construction(build, message):
    with pytest.raises(xpdp.InvalidInputError) as caught:
        build()
    assert message in str(caught.value)


def test_a_list_target_fails_at_its_constructor_not_in_a_gate():
    # A list of any-ofs used to build a target that compared unequal to
    # its tuple twin and failed, unhashable, when a policy compiled its
    # gate, with a bare TypeError.
    assert Target((ANY_OF,)) == TARGET
    rule = Rule("r", Effect.PERMIT, TARGET, TRUE_CONDITION)
    assert Policy("p", NULL_TARGET, (rule,), PO).gate.keys == {DOCTOR.key: (0,)}
    with pytest.raises(xpdp.InvalidInputError):
        Rule("r", Effect.PERMIT, Target([ANY_OF]), TRUE_CONDITION)


def test_startup_leaves_out_dataclasses_and_inspect():
    """``xpdp eval`` imports no code generator. ``import xpdp`` still
    loads ``altlogics``, whose import time the benchmark reads."""
    script = (
        "import sys\n"
        "import xpdp.cli\n"
        "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))\n"
        "import xpdp\n"
        "print('xpdp.altlogics' in sys.modules)\n"
    )
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, check=True
    ).stdout.split("\n")
    assert out[:2] == ["[]", "True"]
