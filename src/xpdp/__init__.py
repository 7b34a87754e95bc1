"""Policy decision engine over multi-valued decision lattices.

Evaluates access requests against policy trees with the four standard
combining algorithms, each implemented in two independently formulated
encodings that are cross-checked exhaustively, plus differential
backends for two rival decision logics.
"""

from types import ModuleType as _ModuleType

from .altlogics import (
    AxiomReport,
    AxiomViolation,
    BelnapOps,
    BelnapValue,
    ComparisonRow,
    DDecision,
    KNOWLEDGE_LATTICE,
    LogicImages,
    TRUTH_LATTICE,
    belnap_combine,
    belnap_negate,
    belnap_ops,
    belnap_overwrite,
    belnap_priority,
    compare_logics,
    dalg_axiom_check,
    dalg_ops,
    dalg_permit_overrides,
    map_v6,
)
from .combiners import (
    STANDARD_COMBINERS,
    CombinerId,
    Counterexample,
    EquivalenceReport,
    check_equivalence,
    combine,
    combine_all_permit,
    combine_do_pair,
    combine_do_v6,
    combine_fa_pair,
    combine_fa_v6,
    combine_o1a_pair,
    combine_o1a_v6,
    combine_po_pair,
    combine_po_v6,
)
from .conditions import (
    And,
    Atom,
    Binding,
    BoolLiteral,
    Compare,
    ConditionExpr,
    ConditionPlan,
    FunctionValue,
    Not,
    Or,
    RequestIndex,
    TRUE_CONDITION,
    Variable,
    compile_condition,
    eval_condition,
    index_request,
    kleene_eval,
)
from .decisions import (
    HALF,
    ONE,
    PAIR6_VALUES,
    PAIR9_VALUES,
    ZERO,
    Decision3,
    Decision6,
    Effect,
    PairValue,
    V6_LATTICES,
    arrow,
    delta,
    delta_seq,
    glb3,
    leq_pair,
    lub3,
    lub_order,
    max_pair,
    min_pair,
    sigma,
)
from .errors import (
    ArityError,
    EmptyRequestError,
    EncodingUnsupportedError,
    InvalidInputError,
    ParseError,
    PolicyEngineError,
    SourceSpan,
    UnboundVariableError,
    UnknownCombinerError,
    UnknownLatticeError,
    UnsupportedCombinerError,
)
from .policy import (
    AllOf,
    AnyOf,
    EvalTrace,
    NULL_TARGET,
    Policy,
    PolicyNode,
    PolicySet,
    Rule,
    Target,
    TraceNode,
    eval_target,
    evaluate,
    rule_decision,
    weaken_to_indeterminate,
)
from .requests import CATEGORIES, AttributeTerm, Request
from .textio import (
    LATTICE_NAMES,
    emit_lattice_dot,
    parse_policy,
    parse_request,
    serialize_policy,
)

# The names imported above, not the submodules their imports bind.
__all__ = sorted(
    name
    for name, value in globals().items()
    if not name.startswith("_") and not isinstance(value, _ModuleType)
)
