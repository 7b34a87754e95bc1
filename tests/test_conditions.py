"""Three-valued condition evaluation."""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import xpdp.conditions
from xpdp import (
    And,
    Atom,
    AttributeTerm,
    BoolLiteral,
    Compare,
    Decision3,
    FunctionValue,
    InvalidInputError,
    Not,
    Or,
    Request,
    UnboundVariableError,
    Variable,
    compile_condition,
    eval_condition,
    evaluate,
    kleene_eval,
    parse_policy,
    parse_request,
)

import strategies
from documents import benchmark_workloads
from oracles import (
    check_range_restriction,
    eval_condition_product,
    evaluate_exhaustive,
    free_variables,
    index_all,
    kleene_eval_terms,
)

D3 = Decision3
X = Variable("X")
Y = Variable("Y")


def request(facts, errors=()):
    return Request(facts=frozenset(facts), error_attributes=frozenset(errors))


def condition_value(expr, req):
    return eval_condition(compile_condition(expr), index_all(req))


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


def kleene(expr, binding, req):
    """kleene_eval over the request's index, checked against the
    reference evaluator that builds a term for every atom."""
    value = kleene_eval(expr, binding, index_all(req))
    assert value is kleene_eval_terms(expr, binding, req)
    return value


class TestKleeneEval:
    def test_atom_values(self):
        for value, atom in GROUND_ATOMS.items():
            assert kleene(atom, {}, GROUND_REQUEST) is value

    def test_bool_literals(self):
        assert kleene(BoolLiteral(True), {}, GROUND_REQUEST) is D3.TOP
        assert kleene(BoolLiteral(False), {}, GROUND_REQUEST) is D3.BOTTOM

    def test_negation_of_absent_atom(self):
        req = request([AttributeTerm("subject", ("g",))])
        expr = Not(Atom("guardian", (X, Y)))
        assert kleene(expr, {"X": "g", "Y": "p"}, req) is D3.TOP

    def test_function_fact_comparison(self):
        req = request([AttributeTerm("age", ("p", 17))])
        expr = Compare(FunctionValue("age", Y), "<", 18)
        assert kleene(expr, {"Y": "p"}, req) is D3.TOP
        assert kleene(Compare(FunctionValue("age", Y), ">=", 18), {"Y": "p"}, req) is D3.BOTTOM

    def test_errored_function_fact(self):
        req = request(
            [AttributeTerm("subject", ("p",))],
            [AttributeTerm("age", ("p", 17))],
        )
        expr = Compare(FunctionValue("age", Y), "<", 18)
        assert kleene(expr, {"Y": "p"}, req) is D3.INDET

    def test_absent_function_fact(self):
        expr = Compare(FunctionValue("age", Y), "<", 18)
        assert kleene(expr, {"Y": "p"}, GROUND_REQUEST) is D3.INDET

    def test_multivalued_function_fact_is_existential(self):
        req = request([AttributeTerm("age", ("p", 17)), AttributeTerm("age", ("p", 20))])
        left = FunctionValue("age", "p")
        assert kleene(Compare(left, "<", 18), {}, req) is D3.TOP
        assert kleene(Compare(left, ">", 19), {}, req) is D3.TOP
        assert kleene(Compare(left, "=", 18), {}, req) is D3.BOTTOM

    def test_type_mismatch_is_indeterminate(self):
        assert kleene(Compare(5, "<", "five"), {}, GROUND_REQUEST) is D3.INDET
        assert kleene(Compare("a", "=", 1), {}, GROUND_REQUEST) is D3.INDET

    def test_string_comparison(self):
        assert kleene(Compare("abc", "<", "abd"), {}, GROUND_REQUEST) is D3.TOP
        assert kleene(Compare("a", "=", "a"), {}, GROUND_REQUEST) is D3.TOP

    def test_unbound_variable(self):
        with pytest.raises(UnboundVariableError):
            kleene_eval(Atom("yes", (X,)), {}, index_all(GROUND_REQUEST))
        with pytest.raises(UnboundVariableError):
            kleene_eval_terms(Atom("yes", (X,)), {}, GROUND_REQUEST)

    @pytest.mark.parametrize("expr", [Compare(X, "=", 1), Compare(5, ">", FunctionValue("age", X))],
                             ids=["bare", "function argument"])
    def test_unbound_variable_in_comparison(self, expr):
        with pytest.raises(UnboundVariableError, match="no binding for variable X"):
            kleene_eval(expr, {}, index_all(GROUND_REQUEST))

    @pytest.mark.parametrize("expr", ["yes", None, Not(Variable("X"))], ids=repr)
    def test_non_expression_is_refused(self, expr):
        with pytest.raises(InvalidInputError, match="not a condition expression"):
            kleene_eval(expr, {}, index_all(GROUND_REQUEST))


class TestKleeneLaws:
    def test_connective_tables(self):
        for a, b in itertools.product(D3, repeat=2):
            ea, eb = GROUND_ATOMS[a], GROUND_ATOMS[b]
            conj = kleene(And((ea, eb)), {}, GROUND_REQUEST)
            disj = kleene(Or((ea, eb)), {}, GROUND_REQUEST)
            assert conj is min(a, b)
            assert disj is max(a, b)

    def test_commutative_idempotent(self):
        for a, b in itertools.product(D3, repeat=2):
            ea, eb = GROUND_ATOMS[a], GROUND_ATOMS[b]
            assert kleene(And((ea, eb)), {}, GROUND_REQUEST) is kleene(
                And((eb, ea)), {}, GROUND_REQUEST
            )
            assert kleene(Or((ea, eb)), {}, GROUND_REQUEST) is kleene(
                Or((eb, ea)), {}, GROUND_REQUEST
            )
            assert kleene(And((ea, ea)), {}, GROUND_REQUEST) is a
            assert kleene(Or((ea, ea)), {}, GROUND_REQUEST) is a

    def test_associative(self):
        for a, b, c in itertools.product(D3, repeat=3):
            ea, eb, ec = (GROUND_ATOMS[v] for v in (a, b, c))
            left = kleene(And((And((ea, eb)), ec)), {}, GROUND_REQUEST)
            right = kleene(And((ea, And((eb, ec)))), {}, GROUND_REQUEST)
            assert left is right is kleene(And((ea, eb, ec)), {}, GROUND_REQUEST)

    def test_de_morgan(self):
        for a, b in itertools.product(D3, repeat=2):
            ea, eb = GROUND_ATOMS[a], GROUND_ATOMS[b]
            lhs = kleene(Not(And((ea, eb))), {}, GROUND_REQUEST)
            rhs = kleene(Or((Not(ea), Not(eb))), {}, GROUND_REQUEST)
            assert lhs is rhs
            lhs = kleene(Not(Or((ea, eb))), {}, GROUND_REQUEST)
            rhs = kleene(And((Not(ea), Not(eb))), {}, GROUND_REQUEST)
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
        assert condition_value(BoolLiteral(True), GROUND_REQUEST) is D3.TOP

    def test_satisfying_binding_exists(self):
        req = request(
            [
                AttributeTerm("patient", ("id", "p")),
                AttributeTerm("patient_record", ("id", "p")),
            ]
        )
        assert condition_value(RECORD_CONDITION, req) is D3.TOP

    def test_guardian_binding(self):
        req = request(
            [
                AttributeTerm("patient", ("id", "g")),
                AttributeTerm("patient_record", ("id", "p")),
                AttributeTerm("age", ("p", 11)),
                AttributeTerm("guardian", ("g", "p")),
            ]
        )
        assert condition_value(RECORD_CONDITION, req) is D3.TOP

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
        assert condition_value(cond, req) is D3.BOTTOM

    def test_indeterminate_binding_reported(self):
        req = request(
            [AttributeTerm("patient", ("id", "p"))],
            [AttributeTerm("flagged", ("p",))],
        )
        cond = And((Atom("patient", ("id", X)), Atom("flagged", (X,))))
        assert condition_value(cond, req) is D3.INDET

    def test_range_restriction_enforced(self):
        bad = Compare(X, "<", 5)
        with pytest.raises(UnboundVariableError):
            compile_condition(bad)
        with pytest.raises(UnboundVariableError):
            check_range_restriction(bad)

    def test_free_variables(self):
        assert free_variables(RECORD_CONDITION) == {"X", "Y"}


def _added_facts_keep_top(condition, req, extra_fact):
    before = condition_value(condition, req)
    if before is not D3.TOP:
        return
    if extra_fact in req.error_attributes:
        return
    grown = Request(
        facts=req.facts | {extra_fact},
        error_attributes=req.error_attributes,
    )
    assert condition_value(condition, grown) is D3.TOP


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


def fact(name, *args):
    return AttributeTerm(name, args)


@pytest.fixture
def bindings_tried(monkeypatch):
    """The bindings eval_condition hands to kleene_eval; the calls
    kleene_eval makes on sub-expressions are not counted."""
    tried = []
    depth = [0]
    inner = xpdp.conditions.kleene_eval

    def counting(expr, binding, req):
        if depth[0] == 0:
            tried.append(dict(binding))
        depth[0] += 1
        try:
            return inner(expr, binding, req)
        finally:
            depth[0] -= 1

    monkeypatch.setattr(xpdp.conditions, "kleene_eval", counting)
    return tried


class TestJoin:
    """eval_condition draws bindings from the atoms of the top-level
    conjunction and must agree with the cross product over all
    constants."""

    def check(self, expr, req, expected, tried=None):
        assert eval_condition_product(expr, req) is expected
        if tried is not None:
            tried.clear()  # count this evaluation's bindings only
        assert condition_value(expr, req) is expected

    def test_plan(self):
        plan = compile_condition(RECORD_CONDITION)
        assert plan.variables == ("X", "Y")
        assert plan.sources == (
            ((RECORD_CONDITION.children[0], 1),),
            ((RECORD_CONDITION.children[1], 1),),
        )
        assert plan.sites == ((), ())

    def test_binding_rules(self):
        # Y occurs only under \/ or not: bare in a comparison it ranges
        # over the whole domain, otherwise over its sites' values plus a
        # representative.
        patient = Atom("patient", ("id", X))
        bare = compile_condition(And((patient, Or((Compare(X, "=", Y), Atom("guardian", (X, Y)))))))
        assert bare.sources[1] == () and bare.sites[1] is None
        minor = And((Compare(FunctionValue("age", Y), "<", 18), Atom("guardian", (X, Y))))
        sited = compile_condition(And((patient, Not(minor))))
        assert sited.sources[1] == ()
        assert sited.sites == ((), (("age", None, 0), ("guardian", 2, 1)))

    def test_index(self):
        req = request(
            [fact("r", "a", "b"), fact("r", "c"), fact("r", "a", "f")],
            [fact("r", "d", "e"), fact("s", "d")],
        )
        index = index_all(req)
        assert index.domain == req.constants() == ("a", "b", "c", "f")
        assert sorted(index.tuples[("r", 2)]) == [("a", "b"), ("a", "f"), ("d", "e")]
        assert index.tuples[("r", 1)] == [("c",)]
        assert index.facts == {("r", ("a", "b")), ("r", ("c",)), ("r", ("a", "f"))}
        assert index.errors == {("r", ("d", "e")), ("s", ("d",))}
        # Function values come from facts of arity 2 only; an error
        # attribute of any arity marks its (name, first argument).
        assert {k: sorted(v) for k, v in index.functions.items()} == {("r", "a"): ["b", "f"]}
        assert index.function_errors == {("r", "d"), ("s", "d")}

    def test_error_constant_outside_domain(self, bindings_tried):
        # z occurs only in an error attribute, so no variable ranges over
        # it: badge(X) stays BOTTOM instead of INDET.
        req = request([fact("subject", "a")], [fact("badge", "z")])
        self.check(Atom("badge", (X,)), req, D3.BOTTOM, bindings_tried)
        assert bindings_tried == []

    def test_error_constant_inside_domain(self):
        req = request([fact("subject", "z")], [fact("badge", "z")])
        self.check(Atom("badge", (X,)), req, D3.INDET)

    def test_error_constant_outside_domain_at_a_site(self, bindings_tried):
        # X meets the request only at ok's argument; z is seen there, but
        # only in an error attribute, so X does not range over it: the
        # one domain constant makes not ok(X) false, not indeterminate.
        req = request([fact("ok", "a")], [fact("ok", "z")])
        self.check(Not(Atom("ok", (X,))), req, D3.BOTTOM, bindings_tried)
        assert bindings_tried == [{"X": "a"}]

    def test_pools_keep_the_domain_order(self, bindings_tried):
        # A join pool of strings and numbers is sorted as the domain is:
        # strings first, then numbers.
        expr = And((Atom("r", (X,)), Compare(X, "!=", X)))
        req = request([fact("r", 2), fact("r", "b"), fact("r", 1), fact("r", "a")])
        self.check(expr, req, D3.BOTTOM, bindings_tried)
        assert bindings_tried == [{"X": "a"}, {"X": "b"}, {"X": 1}, {"X": 2}]

    def test_join_pools_keep_the_domain_order_under_errors(self, bindings_tried):
        # Error rows add z and 9, which no fact holds: the pool is the
        # domain constants the rows allow, in the domain's order.
        expr = And((Atom("r", (X,)), Compare(X, "!=", X)))
        facts = [fact("r", 2), fact("r", "b"), fact("r", 1), fact("r", "a")]
        req = request(facts, [fact("r", "z"), fact("r", 9)])
        self.check(expr, req, D3.BOTTOM, bindings_tried)
        assert bindings_tried == [{"X": "a"}, {"X": "b"}, {"X": 1}, {"X": 2}]

    def test_sited_pools_keep_the_domain_order_under_errors(self, bindings_tried):
        # X's site ok holds a, b and 1 from facts and z and 9 from error
        # rows only; u, seen at no site, is the representative, last.
        expr = Not(Atom("ok", (X,)))
        facts = [fact("ok", "b"), fact("ok", 1), fact("ok", "a"), fact("subject", "u")]
        req = request(facts, [fact("ok", "z"), fact("ok", 9)])
        self.check(expr, req, D3.TOP, bindings_tried)
        assert bindings_tried == [{"X": "a"}, {"X": "b"}, {"X": 1}, {"X": "u"}]

    def test_bindings_follow_the_full_product_order(self, bindings_tried):
        # Single-value pools are bound once; the others vary in variable
        # order, the last fastest, as in the product of every pool.
        z = Variable("Z")
        expr = And(
            (Atom("r", (X,)), Atom("s", (Y,)), Atom("t", (z,)), Compare(X, "=", "none"))
        )
        facts = [fact("r", "a"), fact("r", "b"), fact("s", "c"), fact("t", "d"), fact("t", "e")]
        self.check(expr, request(facts), D3.BOTTOM, bindings_tried)
        assert bindings_tried == [
            {"X": "a", "Y": "c", "Z": "d"},
            {"X": "a", "Y": "c", "Z": "e"},
            {"X": "b", "Y": "c", "Z": "d"},
            {"X": "b", "Y": "c", "Z": "e"},
        ]

    def test_repeated_variable(self, bindings_tried):
        expr = Atom("r", (X, X))
        req = request([fact("r", "a", "b"), fact("r", "c", "c")])
        self.check(expr, req, D3.TOP, bindings_tried)
        assert bindings_tried == [{"X": "c"}]
        req = request([fact("r", "a", "b"), fact("r", "b", "a")])
        self.check(expr, req, D3.BOTTOM, bindings_tried)
        assert bindings_tried == []

    def test_constant_inside_binding_atom(self, bindings_tried):
        expr = And((Atom("patient", ("id", X)), Compare(X, "=", "q")))
        req = request([fact("patient", "id", "p"), fact("patient", "other", "q")])
        self.check(expr, req, D3.BOTTOM, bindings_tried)
        assert bindings_tried == [{"X": "p"}]

    def test_nested_conjunctions_flattened(self, bindings_tried):
        expr = And(
            (
                Atom("a", (X,)),
                And((Atom("b", (Y,)), And((Atom("c", (X, Y)), Compare(X, "!=", Y))))),
            )
        )
        plan = compile_condition(expr)
        assert [len(s) for s in plan.sources] == [2, 2]
        req = request(
            [fact("a", "p"), fact("a", "q"), fact("b", "q"), fact("b", "r"), fact("c", "q", "r")]
        )
        self.check(expr, req, D3.TOP, bindings_tried)
        assert bindings_tried == [{"X": "q", "Y": "r"}]

    def test_variable_only_under_not(self, bindings_tried):
        expr = Not(Atom("banned", (X,)))
        assert compile_condition(expr).sources == ((),)
        self.check(expr, request([fact("subject", "a"), fact("banned", "a")]), D3.BOTTOM)
        req = request([fact("subject", "b"), fact("banned", "a")])
        self.check(expr, req, D3.TOP, bindings_tried)
        assert bindings_tried == [{"X": "a"}, {"X": "b"}]

    def test_variable_only_under_or(self):
        w = Variable("W")
        expr = And(
            (Atom("doctor", ("id", X)), Or((Atom("suspended", (X,)), Atom("revoked", (X, w)))))
        )
        plan = compile_condition(expr)
        assert plan.variables == ("W", "X")
        assert plan.sources[0] == ()
        assert plan.sites[0] == (("revoked", 2, 1),)
        base = [fact("doctor", "id", "d"), fact("subject", "doctor")]
        self.check(expr, request(base), D3.BOTTOM)
        self.check(expr, request(base + [fact("revoked", "d", "2024")]), D3.TOP)
        self.check(expr, request(base, [fact("revoked", "d", "id")]), D3.INDET)

    def test_empty_candidate_pool_is_bottom(self, bindings_tried):
        expr = And((Atom("doctor", ("id", X)), Atom("referral", (X, Y, Variable("Z")))))
        req = request([fact("doctor", "id", "d"), fact("patient", "id", "p")])
        self.check(expr, req, D3.BOTTOM, bindings_tried)
        assert bindings_tried == []

    def test_representative_stands_for_unseen_constants(self, bindings_tried):
        # W meets the request only at revoked's second argument, so every
        # constant seen at none is tried through one representative.
        w = Variable("W")
        expr = And(
            (Atom("doctor", ("id", X)), Or((Atom("suspended", (X,)), Atom("revoked", (X, w)))))
        )
        base = [fact("subject", "doctor"), fact("doctor", "id", "d")]
        base += [fact("visit", f"c{i:03}") for i in range(200)]
        self.check(expr, request(base), D3.BOTTOM, bindings_tried)
        assert bindings_tried == [{"W": "c000", "X": "d"}]
        self.check(expr, request(base + [fact("revoked", "d", "c150")]), D3.TOP, bindings_tried)
        assert bindings_tried == [{"W": "c150", "X": "d"}]
        # The brute-force oracle tries every binding here, so fewer pads.
        req = request(base[:22], [fact("revoked", "d", "id")])
        self.check(expr, req, D3.INDET, bindings_tried)
        assert bindings_tried == [{"W": "id", "X": "d"}, {"W": "c000", "X": "d"}]

    def test_representative_under_not(self, bindings_tried):
        w = Variable("W")
        expr = And((Atom("doctor", ("id", X)), Not(Atom("revoked", (X, w)))))
        rows = [fact("doctor", "id", "d"), fact("revoked", "d", "d"), fact("revoked", "d", "id")]
        # Every domain constant occurs at W's site: no representative.
        self.check(expr, request(rows), D3.BOTTOM, bindings_tried)
        assert bindings_tried == [{"W": "d", "X": "d"}, {"W": "id", "X": "d"}]
        # doctor occurs at none of W's sites, and it makes the atom absent.
        self.check(expr, request(rows + [fact("subject", "doctor")]), D3.TOP, bindings_tried)
        assert bindings_tried == [
            {"W": "d", "X": "d"},
            {"W": "id", "X": "d"},
            {"W": "doctor", "X": "d"},
        ]

    def test_function_argument_is_a_site(self, bindings_tried):
        # c occurs only as the argument of age(c,12): it is tried as
        # itself, not through the representative a, whose age is absent.
        expr = And(
            (
                Atom("patient", ("id", X)),
                Or((Atom("guardian", (X, Y)), Compare(FunctionValue("age", Y), "<", 18))),
            )
        )
        req = request([fact("patient", "id", "p"), fact("age", "c", 12), fact("subject", "a")])
        self.check(expr, req, D3.TOP, bindings_tried)
        assert bindings_tried == [{"X": "p", "Y": "c"}]

    def test_every_function_value_is_compared(self):
        req = request([fact("patient", "id", "c"), fact("age", "c", 17), fact("age", "c", 20)])
        for op, rhs, expected in (("<", 18, D3.TOP), (">", 19, D3.TOP), ("=", 18, D3.BOTTOM)):
            expr = And((Atom("patient", ("id", X)), Compare(FunctionValue("age", X), op, rhs)))
            self.check(expr, req, expected)

    def test_function_error_of_another_arity(self):
        # An error attribute age(c,...) of any arity marks the lookup of
        # age(c), so a false comparison becomes indeterminate.
        expr = And((Atom("patient", ("id", X)), Compare(FunctionValue("age", X), ">", 18)))
        facts = [fact("patient", "id", "c"), fact("age", "c", 12)]
        self.check(expr, request(facts), D3.BOTTOM)
        self.check(expr, request(facts, [fact("age", "c")]), D3.INDET)
        self.check(expr, request(facts, [fact("age", "c", 1, 2)]), D3.INDET)
        self.check(expr, request(facts, [fact("age", "p")]), D3.BOTTOM)

    def test_function_facts_of_another_arity_ignored(self):
        def below(limit):
            return And((Atom("patient", ("id", X)), Compare(FunctionValue("age", X), "<", limit)))

        facts = [fact("patient", "id", "c"), fact("age", "c", 5, 6), fact("age", "c")]
        self.check(below(18), request(facts), D3.INDET)
        facts.append(fact("age", "c", 12))
        self.check(below(10), request(facts), D3.BOTTOM)
        self.check(below(18), request(facts), D3.TOP)

    @settings(max_examples=1000, derandomize=True, deadline=None)
    @given(strategies.conditions(), st.data())
    def test_join_equals_cross_product(self, condition, data):
        req = data.draw(st.one_of(strategies.requests(), strategies.join_requests(condition)))
        assert condition_value(condition, req) is eval_condition_product(condition, req)

    @settings(max_examples=500, derandomize=True, deadline=None)
    @given(strategies.join_conditions(), st.data())
    def test_top_level_joins_equal_cross_product(self, condition, data):
        req = data.draw(strategies.join_requests(condition))
        assert condition_value(condition, req) is eval_condition_product(condition, req)


class TestFactHeavyShape:
    def test_decisions_equal_reference_walk(self):
        """The fact_heavy inputs: the hospital policy with its two
        referral rules, every request shape, 0, 8 and 24 padding facts.
        The decision equals the exhaustive walk's, whose conditions use
        the term-building evaluator over every binding."""
        workload = benchmark_workloads().fact_heavy(7, pads=(0, 8, 24))
        policy = parse_policy(workload.policy_text)
        for text, expected in zip(workload.request_texts, workload.expected):
            req = parse_request(text)
            decision, _ = evaluate(policy, req)
            assert decision is evaluate_exhaustive(policy, req)
            assert decision.canonical == expected
