"""What ``import xpdp`` exports, and the grammar its sources keep to."""

import ast
import types
from pathlib import Path

import pytest

import xpdp

# The oldest Python that ``pyproject.toml`` supports.
OLDEST_PYTHON = (3, 10)

# The public classes, functions and constants exported before ``__all__``
# stopped listing submodules, less the four condition-variable queries
# that moved to ``tests/oracles.py``; every one must stay exported.
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
UnsupportedCombinerError V6_LATTICES Variable ZERO arrow
belnap_combine belnap_negate belnap_ops belnap_overwrite belnap_priority
check_equivalence combine combine_all_permit
combine_do_pair combine_do_v6 combine_fa_pair combine_fa_v6
combine_o1a_pair combine_o1a_v6 combine_po_pair combine_po_v6
compare_logics compile_condition dalg_axiom_check
dalg_ops dalg_permit_overrides delta delta_seq emit_lattice_dot
eval_condition eval_target evaluate glb3 index_request
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


def test_sources_parse_with_the_oldest_supported_grammar():
    """Syntax only: library calls and ``re`` features new in a later
    Python are not seen here."""
    sources = sorted(Path(xpdp.__file__).parent.glob("*.py"))
    assert len(sources) > 10
    for path in sources:
        ast.parse(path.read_text(encoding="utf-8"), str(path), feature_version=OLDEST_PYTHON)


def test_grammar_check_rejects_newer_syntax():
    with pytest.raises(SyntaxError):
        ast.parse("try:\n    pass\nexcept* ValueError:\n    pass\n", feature_version=OLDEST_PYTHON)


# The deliberate refusals that are not a ``PolicyEngineError``: a value
# constructor's arity, refused as Python refuses a call's, and an
# assignment to a frozen field.
BUILTIN_REFUSALS = {("values.py", "TypeError"), ("values.py", "AttributeError")}


def test_every_refusal_is_a_policy_engine_error():
    """Each ``raise Name(...)`` in the package names a subclass of
    ``PolicyEngineError``, so a caller catches every refusal with one
    class, except for ``BUILTIN_REFUSALS``."""
    raised = set()
    for path in sorted(Path(xpdp.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Raise) and isinstance(node.exc, ast.Call):
                if isinstance(node.exc.func, ast.Name):
                    raised.add((path.name, node.exc.func.id, node.lineno))
    assert len(raised) > 40
    odd = [
        f"{file}:{line}: {name}" for file, name, line in sorted(raised)
        if (file, name) not in BUILTIN_REFUSALS
        and not issubclass(getattr(xpdp.errors, name, Exception), xpdp.PolicyEngineError)
    ]
    assert odd == []
