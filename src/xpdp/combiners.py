"""The combining algorithms, in both decision encodings.

Every standard algorithm exists twice: once over six-valued decisions
(a least upper bound in a purpose-built lattice, folded through
``decisions.lub_order``; only-one-applicable folds its applicable
members and adds two duplicate detection cases) and once over the
pairwise [deny, permit] encoding (a case analysis over componentwise
maxima of ``PairValue`` levels, 0, 1/2 and 1 stored as the ints 0, 1
and 2). Each six-valued definition is a left fold from NotApplicable of
its own results on pairs, so ``combine`` folds a sequence, in its own
body, over a flat table of those 36 results built at import
(``FOLD_TABLES``: ``a`` then ``d`` at ``6*a+d``). ``check_equivalence``
enumerates decision sequences exhaustively and confirms that what
``combine`` returns agrees with the pair encoding.

The all-permit algorithm exists only in the pair encoding; asking for
it under v6 is an error rather than an invented extension. ``fold_table``
raises that one refusal for every caller: ``combine``, the check,
policies, policy sets and the parser.
"""

from __future__ import annotations

import itertools
from typing import Callable, Mapping, Sequence

from .decisions import (
    DENY,
    HALF,
    INDET_D,
    INDET_P,
    NOT_APPLICABLE,
    ONE,
    PERMIT,
    ZERO,
    Decision6,
    PairValue,
    TokenEnum,
    delta,
    delta_seq,
    lub_order,
    max_pair,
    min_pair,
)
from .errors import (
    EncodingUnsupportedError,
    InvalidInputError,
    UnknownCombinerError,
)
from .values import Value


class CombinerId(TokenEnum):
    PERMIT_OVERRIDES = "p-o"
    DENY_OVERRIDES = "d-o"
    FIRST_APPLICABLE = "f-a"
    ONLY_ONE_APPLICABLE = "o-1-a"
    ALL_PERMIT = "all-permit"

    # Members are singletons compared by identity, so the identity hash
    # agrees with equality. It runs in C, where ``Enum.__hash__`` runs
    # in Python on every lookup of ``ABSORBING``, ``FOLD_TABLES`` and
    # the pair combiners.
    __hash__ = object.__hash__

    @classmethod
    def from_token(cls, token: str) -> "CombinerId":
        try:
            return cls(token)
        except ValueError:
            raise UnknownCombinerError(f"unknown combining algorithm: {token!r}") from None


def combine_po_v6(decisions: Sequence[Decision6]) -> Decision6:
    """Permit-overrides: least upper bound in the permit-overrides lattice."""
    return lub_order("po", decisions)


def combine_do_v6(decisions: Sequence[Decision6]) -> Decision6:
    """Deny-overrides: least upper bound in the deny-overrides lattice."""
    return lub_order("do", decisions)


def combine_fa_v6(decisions: Sequence[Decision6]) -> Decision6:
    """First-applicable: the first decision that is not NOT_APPLICABLE."""
    for d in decisions:
        if d is not NOT_APPLICABLE:
            return d
    return NOT_APPLICABLE


def combine_o1a_v6(decisions: Sequence[Decision6]) -> Decision6:
    """Only-one-applicable: indeterminate when several decisions apply.

    The join is Deny (Permit) exactly when every value that is not
    NotApplicable is Deny (Permit), so two or more such values, which
    give Indeterminate{D} (Indeterminate{P}), are found by counting."""
    applied = [d for d in decisions if d is not NOT_APPLICABLE]
    result = lub_order("o1a", applied)
    if len(applied) >= 2:
        if result is DENY:
            return INDET_D
        if result is PERMIT:
            return INDET_P
    return result


def combine_po_pair(values: Sequence[PairValue]) -> PairValue:
    m = max_pair(values)
    if m.permit == ONE:
        return PairValue(ZERO, ONE)
    if m.permit == HALF and m.deny >= HALF:
        return PairValue(HALF, HALF)
    return m


def combine_do_pair(values: Sequence[PairValue]) -> PairValue:
    m = max_pair(values)
    if m.deny == ONE:
        return PairValue(ONE, ZERO)
    if m.deny == HALF and m.permit >= HALF:
        return PairValue(HALF, HALF)
    return m


def combine_fa_pair(values: Sequence[PairValue]) -> PairValue:
    for v in values:
        if v.deny or v.permit:
            return v
    return PairValue(ZERO, ZERO)


def combine_o1a_pair(values: Sequence[PairValue]) -> PairValue:
    values = tuple(values)  # consumed twice
    m = max_pair(values)
    if m.deny >= HALF and m.permit >= HALF:
        return PairValue(HALF, HALF)
    if m.permit == ZERO and m.deny >= HALF:
        if sum(1 for v in values if v.deny >= HALF) >= 2:
            return PairValue(HALF, ZERO)
    if m.deny == ZERO and m.permit >= HALF:
        if sum(1 for v in values if v.permit >= HALF) >= 2:
            return PairValue(ZERO, HALF)
    return m


def combine_all_permit(values: Sequence[PairValue]) -> PairValue:
    """Permit only when every input is permit; anything else denies.

    Unanimity over the empty sequence fails, because the componentwise
    minimum [1,1] and maximum [0,0] of nothing cannot both be [0,1].
    """
    values = tuple(values)  # consumed twice
    permit = PairValue(ZERO, ONE)
    if min_pair(values) == permit and max_pair(values) == permit:
        return permit
    return PairValue(ONE, ZERO)


# Each six-valued definition's results on pairs, as the table ``combine``
# folds over (see the module docstring).
FOLD_TABLES: Mapping[CombinerId, tuple[Decision6, ...]] = {
    combiner: tuple(fn((a, d)) for a in Decision6 for d in Decision6)
    for combiner, fn in (
        (CombinerId.PERMIT_OVERRIDES, combine_po_v6),
        (CombinerId.DENY_OVERRIDES, combine_do_v6),
        (CombinerId.FIRST_APPLICABLE, combine_fa_v6),
        (CombinerId.ONLY_ONE_APPLICABLE, combine_o1a_v6),
    )
}

# Member values that fix a combination whatever follows them, read off
# the fold tables: the top of the combiner's lattice, and for
# first-applicable anything but NotApplicable. Combining the members up
# to the first of these gives the same value as combining them all.
# Tuples, not sets: membership then compares identities instead of
# hashing enum members.
ABSORBING: Mapping[CombinerId, tuple[Decision6, ...]] = {
    combiner: tuple(
        a for a in Decision6
        if a is not NOT_APPLICABLE and all(table[6 * a + d] is a for d in Decision6)
    )
    for combiner, table in FOLD_TABLES.items()
}

# The standard combining algorithms: those with a six-valued definition.
STANDARD_COMBINERS: tuple[CombinerId, ...] = tuple(FOLD_TABLES)


def fold_table(combiner: CombinerId) -> tuple[Decision6, ...]:
    """The six-valued fold table of ``combiner``, or the one refusal of a
    combiner that has none, for folding, checking and policies alike."""
    if combiner in STANDARD_COMBINERS:
        return FOLD_TABLES[combiner]
    if not isinstance(combiner, CombinerId):
        raise UnknownCombinerError(f"unknown combining algorithm: {combiner!r}")
    *standard, last = [c.token for c in STANDARD_COMBINERS]
    raise EncodingUnsupportedError(
        f"{combiner.token} is only defined under the pair encoding; "
        f"the six-valued algorithms are {', '.join(standard)} or {last}"
    )


_PAIR_COMBINERS: dict[CombinerId, Callable] = {
    CombinerId.PERMIT_OVERRIDES: combine_po_pair,
    CombinerId.DENY_OVERRIDES: combine_do_pair,
    CombinerId.FIRST_APPLICABLE: combine_fa_pair,
    CombinerId.ONLY_ONE_APPLICABLE: combine_o1a_pair,
    CombinerId.ALL_PERMIT: combine_all_permit,
}


def combine(combiner: CombinerId, encoding: str, decisions: Sequence):
    """The named algorithm under the named encoding. Under v6 it folds
    ``decisions`` over the algorithm's table, in one call."""
    if encoding == "v6":
        try:
            table = FOLD_TABLES[combiner]
        except (KeyError, TypeError):  # TypeError: an unhashable name
            table = fold_table(combiner)
        result = NOT_APPLICABLE
        for d in decisions:
            result = table[6 * result + d]
        return result
    if encoding != "pair":
        raise InvalidInputError(f"unknown encoding: {encoding!r}")
    try:
        fn = _PAIR_COMBINERS[combiner]
    except (KeyError, TypeError):  # TypeError: an unhashable name
        raise UnknownCombinerError(f"unknown combining algorithm: {combiner!r}") from None
    return fn(decisions)


class Counterexample(Value):
    decisions: tuple[Decision6, ...]
    v6_result: Decision6
    pair_result: PairValue


class EquivalenceReport(Value):
    """Outcome of exhaustively comparing the two encodings of one algorithm."""

    algorithm: CombinerId
    max_length: int
    sequences_checked: int
    counterexamples: tuple[Counterexample, ...]

    @property
    def ok(self) -> bool:
        return not self.counterexamples


def check_equivalence(algorithm: CombinerId, max_length: int) -> EquivalenceReport:
    """Compare both encodings on every decision sequence up to a length.

    Sequences are enumerated by length, lexicographically in the fixed
    ``Decision6`` member order, so the report (counts and the order of
    any counterexamples) is deterministic.
    """
    fold_table(algorithm)
    if max_length < 0:
        raise InvalidInputError("max_length must be >= 0")

    pair_fn = _PAIR_COMBINERS[algorithm]
    members = tuple(Decision6)
    checked = 0
    bad: list[Counterexample] = []
    for length in range(max_length + 1):
        for seq in itertools.product(members, repeat=length):
            checked += 1
            v6_result = combine(algorithm, "v6", seq)
            pair_result = pair_fn(delta_seq(seq))
            if delta(v6_result) != pair_result:
                bad.append(Counterexample(seq, v6_result, pair_result))
    return EquivalenceReport(algorithm, max_length, checked, tuple(bad))
