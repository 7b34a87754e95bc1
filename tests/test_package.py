"""What ``import xpdp`` exports, and the grammar its sources keep to."""

import ast
import importlib
import re
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


SOURCES = sorted(Path(xpdp.__file__).parent.glob("*.py"))

# Standard-library names that ``OLDEST_PYTHON`` lacks, as ``(module,
# name)``: a None module is a builtin, a None name the whole module.
NEWER_LIBRARY = {
    ("enum", "StrEnum"), ("enum", "verify"), ("typing", "Self"), ("typing", "Never"),
    ("typing", "assert_never"), ("tomllib", None), (None, "ExceptionGroup"),
    ("datetime", "UTC"), ("contextlib", "chdir"), ("operator", "call"),
}

# ``re`` opcodes that ``OLDEST_PYTHON`` cannot compile: possessive
# quantifiers and atomic groups.
NEWER_REGEX = {"POSSESSIVE_REPEAT", "ATOMIC_GROUP"}

# The ``re`` parser, named ``sre_parse`` before Python 3.11.
RE_PARSER = getattr(re, "_parser", None) or importlib.import_module("sre_parse")


def test_sources_parse_with_the_oldest_supported_grammar():
    """Syntax only; the library checks below see names and patterns."""
    assert len(SOURCES) > 10
    for path in SOURCES:
        ast.parse(path.read_text(encoding="utf-8"), str(path), feature_version=OLDEST_PYTHON)


def test_grammar_check_rejects_newer_syntax():
    with pytest.raises(SyntaxError):
        ast.parse("try:\n    pass\nexcept* ValueError:\n    pass\n", feature_version=OLDEST_PYTHON)


def newer_library_uses(source: str) -> set[tuple]:
    """The ``NEWER_LIBRARY`` names that ``source`` imports or reads as
    ``module.name`` or as a bare builtin."""
    uses = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            uses.update((alias.name, None) for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            uses.add((node.module, None))
            uses.update((node.module, alias.name) for alias in node.names)
        elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            uses.add((node.value.id, node.attr))
        elif isinstance(node, ast.Name):
            uses.add((None, node.id))
    return uses & NEWER_LIBRARY


def regex_opcodes(value) -> set[str]:
    """The opcode names anywhere in a parsed ``re`` pattern."""
    if isinstance(value, RE_PARSER.SubPattern):
        return {str(op) for op, _ in value}.union(*(regex_opcodes(av) for _, av in value))
    if isinstance(value, (list, tuple)):
        return set().union(*map(regex_opcodes, value))
    return set()


def newer_regex_features(pattern: re.Pattern) -> set[str]:
    return regex_opcodes(RE_PARSER.parse(pattern.pattern, pattern.flags)) & NEWER_REGEX


def test_sources_use_no_newer_library_name():
    assert {path.name: newer_library_uses(path.read_text(encoding="utf-8"))
            for path in SOURCES} == {path.name: set() for path in SOURCES}


def test_patterns_use_no_newer_regex_feature():
    """Every compiled pattern a module of the package holds; ``__main__``
    is left out, since importing it runs the command line."""
    modules = [importlib.import_module(f"xpdp.{p.stem}") for p in SOURCES if p.stem[0] != "_"]
    patterns = {
        f"{module.__name__}.{name}": newer_regex_features(value)
        for module in [xpdp, *modules] for name, value in vars(module).items()
        if isinstance(value, re.Pattern)
    }
    assert "xpdp.textio._TOKEN_RE" in patterns
    assert patterns == dict.fromkeys(patterns, set())


def test_library_checks_reject_newer_uses():
    assert newer_regex_features(re.compile(r"a*+")) == {"POSSESSIVE_REPEAT"}
    assert newer_regex_features(re.compile(r"(?>a|b)c")) == {"ATOMIC_GROUP"}
    assert newer_regex_features(re.compile(r"(x(?:y*+))")) == {"POSSESSIVE_REPEAT"}
    source = "import tomllib\nfrom typing import Self\nimport enum\nenum.StrEnum\nExceptionGroup\n"
    assert newer_library_uses(source) == {
        ("tomllib", None), ("typing", "Self"), ("enum", "StrEnum"), (None, "ExceptionGroup"),
    }


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


@pytest.mark.parametrize("name", [["po"], 1.5], ids=["unhashable", "wrong kind"])
@pytest.mark.parametrize("lookup, refusal", [
    (lambda name: xpdp.lub_order(name, ()), xpdp.UnknownLatticeError),
    (lambda name: xpdp.Decision6.from_canonical(name), xpdp.InvalidInputError),
    (lambda name: xpdp.emit_lattice_dot(name), xpdp.UnknownLatticeError),
    (lambda name: xpdp.belnap_combine(name, xpdp.BelnapValue.TRUE, xpdp.BelnapValue.TRUE),
     xpdp.UnknownCombinerError),
    (lambda name: xpdp.combine(name, "v6", ()), xpdp.UnknownCombinerError),
    (lambda name: xpdp.combine(name, "pair", ()), xpdp.UnknownCombinerError),
], ids=["lub_order", "from_canonical", "emit_lattice_dot", "belnap_combine",
        "combine v6", "combine pair"])
def test_lookups_by_name_refuse_with_their_own_error(lookup, refusal, name):
    """A public lookup by name refuses a name it cannot look up, of any
    kind, with the package's error, not the ``TypeError`` of a table
    lookup or the ``AttributeError`` of building a message."""
    with pytest.raises(refusal):
        lookup(name)
