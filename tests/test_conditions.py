"""Three-valued condition evaluation."""

import itertools

import pytest
from hypothesis import given, settings

from xpdp import (
    And,
    Atom,
    AttributeTerm,
    BoolLiteral,
    Compare,
    Decision3,
    FunctionValue,
    Not,
    Or,
    Request,
    UnboundVariableError,
    Variable,
    check_range_restriction,
    eval_condition,
    free_variables,
    kleene_eval,
)

import strategies

D3 = Decision3
X = Variable("X")
Y = Variable("Y")


def request(facts, errors=()):
    return Request(facts=frozenset(facts), error_attributes=frozenset(errors))


# One request realizing all three atom outcomes: yes(a) holds, err(a)
# is marked erroneous, and missing(a) is absent.
GROUND_REQUEST = request(
    [AttributeTerm("yes", ("a",))],
    [AttributeTerm("err", ("a",))],
)

ATOM_TOP = Atom("yes", ("a",))
ATOM_INDET = Atom("err", ("a",))
ATOM_BOTTOM = Atom("missing", ("a",))

GROUND_ATOMS = {
    D3.TOP: ATOM_TOP,
    D3.INDET: ATOM_INDET,
    D3.BOTTOM: ATOM_BOTTOM,
}


class TestKleeneEval:
    def test_atom_values(self):
        for value, atom in GROUND_ATOMS.items():
            assert kleene_eval(atom, {}, GROUND_REQUEST) is value

    def test_bool_literals(self):
        assert kleene_eval(BoolLiteral(True), {}, GROUND_REQUEST) is D3.TOP
        assert kleene_eval(BoolLiteral(False), {}, GROUND_REQUEST) is D3.BOTTOM

    def test_negation_of_absent_atom(self):
        req = request([AttributeTerm("subject", ("g",))])
        expr = Not(Atom("guardian", (X, Y)))
        assert kleene_eval(expr, {"X": "g", "Y": "p"}, req) is D3.TOP

    def test_function_fact_comparison(self):
        req = request([AttributeTerm("age", ("p", 17))])
        expr = Compare(FunctionValue("age", Y), "<", 18)
        assert kleene_eval(expr, {"Y": "p"}, req) is D3.TOP
        assert kleene_eval(Compare(FunctionValue("age", Y), ">=", 18), {"Y": "p"}, req) is D3.BOTTOM

    def test_errored_function_fact(self):
        req = request(
            [AttributeTerm("subject", ("p",))],
            [AttributeTerm("age", ("p", 17))],
        )
        expr = Compare(FunctionValue("age", Y), "<", 18)
        assert kleene_eval(expr, {"Y": "p"}, req) is D3.INDET

    def test_absent_function_fact(self):
        expr = Compare(FunctionValue("age", Y), "<", 18)
        assert kleene_eval(expr, {"Y": "p"}, GROUND_REQUEST) is D3.INDET

    def test_multivalued_function_fact_is_existential(self):
        req = request([AttributeTerm("age", ("p", 17)), AttributeTerm("age", ("p", 20))])
        left = FunctionValue("age", "p")
        assert kleene_eval(Compare(left, "<", 18), {}, req) is D3.TOP
        assert kleene_eval(Compare(left, ">", 19), {}, req) is D3.TOP
        assert kleene_eval(Compare(left, "=", 18), {}, req) is D3.BOTTOM

    def test_type_mismatch_is_indeterminate(self):
        assert kleene_eval(Compare(5, "<", "five"), {}, GROUND_REQUEST) is D3.INDET
        assert kleene_eval(Compare("a", "=", 1), {}, GROUND_REQUEST) is D3.INDET

    def test_string_comparison(self):
        assert kleene_eval(Compare("abc", "<", "abd"), {}, GROUND_REQUEST) is D3.TOP
        assert kleene_eval(Compare("a", "=", "a"), {}, GROUND_REQUEST) is D3.TOP

    def test_unbound_variable(self):
        with pytest.raises(UnboundVariableError):
            kleene_eval(Atom("yes", (X,)), {}, GROUND_REQUEST)


class TestKleeneLaws:
    def test_connective_tables(self):
        for a, b in itertools.product(D3, repeat=2):
            ea, eb = GROUND_ATOMS[a], GROUND_ATOMS[b]
            conj = kleene_eval(And((ea, eb)), {}, GROUND_REQUEST)
            disj = kleene_eval(Or((ea, eb)), {}, GROUND_REQUEST)
            assert conj is min(a, b)
            assert disj is max(a, b)

    def test_commutative_idempotent(self):
        for a, b in itertools.product(D3, repeat=2):
            ea, eb = GROUND_ATOMS[a], GROUND_ATOMS[b]
            assert kleene_eval(And((ea, eb)), {}, GROUND_REQUEST) is kleene_eval(
                And((eb, ea)), {}, GROUND_REQUEST
            )
            assert kleene_eval(Or((ea, eb)), {}, GROUND_REQUEST) is kleene_eval(
                Or((eb, ea)), {}, GROUND_REQUEST
            )
            assert kleene_eval(And((ea, ea)), {}, GROUND_REQUEST) is a
            assert kleene_eval(Or((ea, ea)), {}, GROUND_REQUEST) is a

    def test_associative(self):
        for a, b, c in itertools.product(D3, repeat=3):
            ea, eb, ec = (GROUND_ATOMS[v] for v in (a, b, c))
            left = kleene_eval(And((And((ea, eb)), ec)), {}, GROUND_REQUEST)
            right = kleene_eval(And((ea, And((eb, ec)))), {}, GROUND_REQUEST)
            assert left is right is kleene_eval(And((ea, eb, ec)), {}, GROUND_REQUEST)

    def test_de_morgan(self):
        for a, b in itertools.product(D3, repeat=2):
            ea, eb = GROUND_ATOMS[a], GROUND_ATOMS[b]
            lhs = kleene_eval(Not(And((ea, eb))), {}, GROUND_REQUEST)
            rhs = kleene_eval(Or((Not(ea), Not(eb))), {}, GROUND_REQUEST)
            assert lhs is rhs
            lhs = kleene_eval(Not(Or((ea, eb))), {}, GROUND_REQUEST)
            rhs = kleene_eval(And((Not(ea), Not(eb))), {}, GROUND_REQUEST)
            assert lhs is rhs


# The record-access condition shape: the reader X may see record Y when
# they are the same person, or X is the guardian of a minor Y.
RECORD_CONDITION = And(
    (
        Atom("patient", ("id", X)),
        Atom("patient_record", ("id", Y)),
        Or(
            (
                Compare(X, "=", Y),
                And((Compare(FunctionValue("age", Y), "<", 18), Atom("guardian", (X, Y)))),
            )
        ),
    )
)


class TestEvalCondition:
    def test_true_is_top(self):
        assert eval_condition(BoolLiteral(True), GROUND_REQUEST) is D3.TOP

    def test_satisfying_binding_exists(self):
        req = request(
            [
                AttributeTerm("patient", ("id", "p")),
                AttributeTerm("patient_record", ("id", "p")),
            ]
        )
        assert eval_condition(RECORD_CONDITION, req) is D3.TOP

    def test_guardian_binding(self):
        req = request(
            [
                AttributeTerm("patient", ("id", "g")),
                AttributeTerm("patient_record", ("id", "p")),
                AttributeTerm("age", ("p", 11)),
                AttributeTerm("guardian", ("g", "p")),
            ]
        )
        assert eval_condition(RECORD_CONDITION, req) is D3.TOP

    def test_no_satisfying_binding(self):
        cond = And(
            (
                Atom("doctor", ("id", X)),
                Atom("patient", ("id", Y)),
                Atom("patient_doctor", (Y, X)),
            )
        )
        req = request(
            [
                AttributeTerm("subject", ("doctor",)),
                AttributeTerm("doctor", ("id", "d")),
                AttributeTerm("patient", ("id", "p")),
            ]
        )
        assert eval_condition(cond, req) is D3.BOTTOM

    def test_indeterminate_binding_reported(self):
        req = request(
            [AttributeTerm("patient", ("id", "p"))],
            [AttributeTerm("flagged", ("p",))],
        )
        cond = And((Atom("patient", ("id", X)), Atom("flagged", (X,))))
        assert eval_condition(cond, req) is D3.INDET

    def test_range_restriction_enforced(self):
        bad = Compare(X, "<", 5)
        with pytest.raises(UnboundVariableError):
            eval_condition(bad, GROUND_REQUEST)
        with pytest.raises(UnboundVariableError):
            check_range_restriction(bad)

    def test_free_variables(self):
        assert free_variables(RECORD_CONDITION) == {"X", "Y"}


def _added_facts_keep_top(condition, req, extra_fact):
    before = eval_condition(condition, req)
    if before is not D3.TOP:
        return
    if extra_fact in req.error_attributes:
        return
    grown = Request(
        facts=req.facts | {extra_fact},
        error_attributes=req.error_attributes,
    )
    assert eval_condition(condition, grown) is D3.TOP


class TestMonotonicity:
    @settings(max_examples=150, deadline=None)
    @given(
        strategies.conditions(allow_not=False),
        strategies.requests(),
        strategies.requests(),
    )
    def test_negation_free_top_is_stable_under_fact_growth(self, condition, req, donor):
        for fact in donor.facts:
            _added_facts_keep_top(condition, req, fact)
