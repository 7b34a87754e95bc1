"""Rival decision logics and the cross-logic comparison.

Two alternative semantics for combining decisions exist in the
literature this engine is differentiated against: Belnap's four-valued
bilattice (with permit-overrides, first-applicable and
only-one-applicable encoded through its operators) and an algebra over
subsets of {p, d, na} with a permit-overrides composition function.
Both disagree with the six-valued standard semantics on indeterminate
inputs; ``compare_logics`` computes one comparison row across all four
carriers and flags the divergences.
"""

from __future__ import annotations

import itertools

from .combiners import CombinerId, combine_po_pair, combine_po_v6
from .decisions import Decision6, FiniteLattice, PairValue, TokenEnum, delta, delta_seq
from .errors import InvalidInputError, UnknownCombinerError, UnsupportedCombinerError
from .values import Value


class BelnapValue(TokenEnum):
    """The four truth values: no information, true, false, both."""

    NONE = "NN"
    TRUE = "tt"
    FALSE = "ff"
    BOTH = "TT"


_B = BelnapValue

# Knowledge order: NONE below TRUE and FALSE, both below BOTH.
KNOWLEDGE_LATTICE = FiniteLattice(
    "belnap-k",
    tuple(BelnapValue),
    ((_B.NONE, _B.TRUE), (_B.NONE, _B.FALSE), (_B.TRUE, _B.BOTH), (_B.FALSE, _B.BOTH)),
)

# Truth order: FALSE below NONE and BOTH, both below TRUE.
TRUTH_LATTICE = FiniteLattice(
    "belnap-t",
    tuple(BelnapValue),
    ((_B.FALSE, _B.NONE), (_B.FALSE, _B.BOTH), (_B.NONE, _B.TRUE), (_B.BOTH, _B.TRUE)),
)


class BelnapOps(Value):
    join_k: BelnapValue
    meet_k: BelnapValue
    join_t: BelnapValue
    meet_t: BelnapValue


def belnap_ops(a: BelnapValue, b: BelnapValue) -> BelnapOps:
    """All four bilattice operations applied to one pair."""
    return BelnapOps(
        join_k=KNOWLEDGE_LATTICE.join(a, b),
        meet_k=KNOWLEDGE_LATTICE.meet(a, b),
        join_t=TRUTH_LATTICE.join(a, b),
        meet_t=TRUTH_LATTICE.meet(a, b),
    )


_NEGATE = {
    _B.TRUE: _B.FALSE,
    _B.FALSE: _B.TRUE,
    _B.BOTH: _B.BOTH,
    _B.NONE: _B.NONE,
}


def belnap_negate(a: BelnapValue) -> BelnapValue:
    """Truth negation: swaps true and false, fixes both and none."""
    return _NEGATE[a]


def belnap_overwrite(x: BelnapValue, y: BelnapValue, z: BelnapValue) -> BelnapValue:
    """x with y rewritten to z: yields x unless x equals y."""
    return z if x is y else x


def belnap_priority(x: BelnapValue, y: BelnapValue) -> BelnapValue:
    """Fall through to y only when x carries no information."""
    return belnap_overwrite(x, _B.NONE, y)


def belnap_combine(combiner: CombinerId, p: BelnapValue, q: BelnapValue) -> BelnapValue:
    """The three combiner encodings this logic defines.

    Deny-overrides and all-permit have no encoding here and are
    rejected rather than improvised.
    """
    join, meet = KNOWLEDGE_LATTICE.join, KNOWLEDGE_LATTICE.meet
    if combiner is CombinerId.PERMIT_OVERRIDES:
        return belnap_overwrite(join(p, q), _B.BOTH, _B.FALSE)
    if combiner is CombinerId.FIRST_APPLICABLE:
        return belnap_priority(p, q)
    if combiner is CombinerId.ONLY_ONE_APPLICABLE:
        both_sides = meet(join(p, belnap_negate(p)), join(q, belnap_negate(q)))
        return join(join(p, q), both_sides)
    if not isinstance(combiner, CombinerId):
        raise UnknownCombinerError(f"unknown combining algorithm: {combiner!r}")
    raise UnsupportedCombinerError(
        f"no Belnap encoding for {combiner.token}"
    )


_D_MEMBERS = ("p", "d", "na")


class DDecision(Value):
    """A decision set: any subset of {p, d, na}."""

    members: frozenset[str]

    def __post_init__(self) -> None:
        object.__setattr__(self, "members", frozenset(self.members))
        extra = self.members - set(_D_MEMBERS)
        if extra:
            raise InvalidInputError(f"not decision elements: {sorted(extra)}")

    def __str__(self) -> str:
        inside = ",".join(m for m in _D_MEMBERS if m in self.members)
        return "{" + inside + "}"

    def __repr__(self) -> str:
        return f"DDecision({self})"


D_EMPTY = DDecision(frozenset())
D_FULL = DDecision(frozenset(_D_MEMBERS))
D_PERMIT = DDecision(frozenset(["p"]))
D_DENY = DDecision(frozenset(["d"]))
D_NA = DDecision(frozenset(["na"]))

D_CARRIER = tuple(
    DDecision(frozenset(members))
    for size in range(len(_D_MEMBERS) + 1)
    for members in itertools.combinations(_D_MEMBERS, size)
)


def dalg_neg(x: DDecision) -> DDecision:
    return DDecision(D_FULL.members - x.members)


def dalg_oplus(x: DDecision, y: DDecision) -> DDecision:
    return DDecision(x.members | y.members)


def dalg_otimes(x: DDecision, y: DDecision) -> DDecision:
    return D_FULL if x == y else D_EMPTY


def dalg_odot(x: DDecision, y: DDecision) -> DDecision:
    return dalg_neg(dalg_oplus(dalg_neg(x), dalg_neg(y)))


def dalg_ominus(x: DDecision, y: DDecision) -> DDecision:
    return dalg_odot(x, dalg_neg(y))


class DAlgebraOps(Value):
    neg: DDecision
    oplus: DDecision
    otimes: DDecision
    odot: DDecision
    ominus: DDecision


def dalg_ops(x: DDecision, y: DDecision) -> DAlgebraOps:
    """The primitive and derived operations applied to one pair
    (negation applies to the first argument)."""
    return DAlgebraOps(
        neg=dalg_neg(x),
        oplus=dalg_oplus(x, y),
        otimes=dalg_otimes(x, y),
        odot=dalg_odot(x, y),
        ominus=dalg_ominus(x, y),
    )


def dalg_permit_overrides(x: DDecision, y: DDecision) -> DDecision:
    """The algebra's permit-overrides composition, evaluated literally
    with the subtraction chain associated to the left."""
    d_na = DDecision(frozenset(["d", "na"]))
    first = dalg_oplus(x, y)
    second = dalg_odot(
        dalg_oplus(dalg_otimes(x, D_PERMIT), dalg_otimes(y, D_PERMIT)),
        d_na,
    )
    third = dalg_odot(
        dalg_odot(dalg_neg(dalg_otimes(dalg_odot(x, y), D_NA)), D_NA),
        dalg_neg(dalg_oplus(dalg_otimes(x, D_EMPTY), dalg_otimes(y, D_EMPTY))),
    )
    return dalg_ominus(dalg_ominus(first, second), third)


class AxiomViolation(Value):
    axiom: int
    inputs: tuple[DDecision, ...]


class AxiomReport(Value):
    elements_checked: int
    pairs_checked: int
    triples_checked: int
    violations: tuple[AxiomViolation, ...]

    @property
    def ok(self) -> bool:
        return not self.violations


def dalg_axiom_check() -> AxiomReport:
    """Check the seven algebra axioms over the whole 8-element carrier."""
    bad: list[AxiomViolation] = []
    for x in D_CARRIER:
        if dalg_oplus(x, D_EMPTY) != x:
            bad.append(AxiomViolation(3, (x,)))
        if dalg_neg(dalg_neg(x)) != x:
            bad.append(AxiomViolation(4, (x,)))
        if dalg_oplus(x, dalg_neg(D_EMPTY)) != dalg_neg(D_EMPTY):
            bad.append(AxiomViolation(5, (x,)))
    for x in D_CARRIER:
        for y in D_CARRIER:
            if dalg_oplus(x, y) != dalg_oplus(y, x):
                bad.append(AxiomViolation(1, (x, y)))
            lhs = dalg_oplus(dalg_neg(dalg_oplus(dalg_neg(x), y)), y)
            rhs = dalg_oplus(dalg_neg(dalg_oplus(dalg_neg(y), x)), x)
            if lhs != rhs:
                bad.append(AxiomViolation(6, (x, y)))
            expected = D_FULL if x == y else D_EMPTY
            if dalg_otimes(x, y) != expected:
                bad.append(AxiomViolation(7, (x, y)))
    for x in D_CARRIER:
        for y in D_CARRIER:
            for z in D_CARRIER:
                if dalg_oplus(dalg_oplus(x, y), z) != dalg_oplus(x, dalg_oplus(y, z)):
                    bad.append(AxiomViolation(2, (x, y, z)))
    return AxiomReport(
        elements_checked=len(D_CARRIER),
        pairs_checked=len(D_CARRIER) ** 2,
        triples_checked=len(D_CARRIER) ** 3,
        violations=tuple(bad),
    )


class LogicImages(Value):
    belnap: BelnapValue
    dalg: DDecision


_V6_TO_BELNAP = {
    Decision6.PERMIT: _B.TRUE,
    Decision6.DENY: _B.FALSE,
    Decision6.NOT_APPLICABLE: _B.NONE,
    # Indeterminates are all read as the conflict value; that is the
    # treatment under which the divergence below arises.
    Decision6.INDET_P: _B.BOTH,
    Decision6.INDET_D: _B.BOTH,
    Decision6.INDET_DP: _B.BOTH,
}

_V6_TO_DALG = {
    Decision6.PERMIT: D_PERMIT,
    Decision6.DENY: D_DENY,
    Decision6.NOT_APPLICABLE: D_NA,
    Decision6.INDET_P: DDecision(frozenset(["p", "na"])),
    Decision6.INDET_D: DDecision(frozenset(["d", "na"])),
    Decision6.INDET_DP: D_FULL,
}


def map_v6(value: Decision6) -> LogicImages:
    """The Belnap and decision-set images of a six-valued decision."""
    return LogicImages(belnap=_V6_TO_BELNAP[value], dalg=_V6_TO_DALG[value])


class ComparisonRow(Value):
    """Permit-overrides applied to one input pair under all four logics."""

    inputs: tuple[Decision6, Decision6]
    v6_result: Decision6
    pair_result: PairValue
    belnap_result: BelnapValue
    dalg_result: DDecision

    @property
    def pair_agrees(self) -> bool:
        return self.pair_result == delta(self.v6_result)

    @property
    def belnap_agrees(self) -> bool:
        return self.belnap_result is map_v6(self.v6_result).belnap

    @property
    def dalg_agrees(self) -> bool:
        return self.dalg_result == map_v6(self.v6_result).dalg


def compare_logics(inputs: tuple[Decision6, Decision6]) -> ComparisonRow:
    """Combine two decisions with permit-overrides under every logic.

    Permit-overrides is the one algorithm all four carriers define, so
    it is fixed here.
    """
    first, second = inputs
    v6_result = combine_po_v6((first, second))
    pair_result = combine_po_pair(delta_seq(inputs))
    belnap_result = belnap_combine(
        CombinerId.PERMIT_OVERRIDES,
        map_v6(first).belnap,
        map_v6(second).belnap,
    )
    dalg_result = dalg_permit_overrides(map_v6(first).dalg, map_v6(second).dalg)
    return ComparisonRow(
        inputs=(first, second),
        v6_result=v6_result,
        pair_result=pair_result,
        belnap_result=belnap_result,
        dalg_result=dalg_result,
    )
