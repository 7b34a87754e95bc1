"""What ``import xpdp`` exports."""

import types

import xpdp

# The public classes, functions and constants exported before ``__all__``
# stopped listing submodules; every one must stay exported.
PUBLIC = """
AllOf And AnyOf ArityError Atom AttributeTerm AxiomReport AxiomViolation
BelnapOps BelnapValue Binding BoolLiteral CATEGORIES CombinerId Compare
ComparisonRow ConditionExpr ConditionPlan Counterexample DDecision
Decision3 Decision6 Effect EmptyRequestError EncodingUnsupportedError
EquivalenceReport EvalTrace FunctionValue HALF InvalidInputError
KNOWLEDGE_LATTICE LATTICE_NAMES LogicImages NULL_TARGET Not ONE Or
PAIR6_VALUES PAIR9_VALUES PairValue ParseError Policy PolicyEngineError
PolicyNode PolicySet Request RequestIndex Rule STANDARD_COMBINERS
SourceSpan TRUE_CONDITION TRUTH_LATTICE Target TraceNode
UnboundVariableError UnknownCombinerError UnknownLatticeError
UnsupportedCombinerError V6_LATTICES Variable ZERO arrow atom_variables
belnap_combine belnap_negate belnap_ops belnap_overwrite belnap_priority
check_equivalence check_range_restriction combine combine_all_permit
combine_do_pair combine_do_v6 combine_fa_pair combine_fa_v6
combine_o1a_pair combine_o1a_v6 combine_po_pair combine_po_v6
compare_logics compare_variables compile_condition dalg_axiom_check
dalg_ops dalg_permit_overrides delta delta_seq emit_lattice_dot
eval_condition eval_target evaluate free_variables glb3 index_request
kleene_eval leq_pair lub3 lub_order map_v6 max_pair min_pair
parse_policy parse_request rule_decision serialize_policy sigma
weaken_to_indeterminate
""".split()


def test_all_lists_no_module():
    modules = [name for name in xpdp.__all__ if isinstance(getattr(xpdp, name), types.ModuleType)]
    assert modules == []


def test_all_keeps_every_public_name():
    assert set(PUBLIC) <= set(xpdp.__all__)
    assert all(hasattr(xpdp, name) for name in xpdp.__all__)
