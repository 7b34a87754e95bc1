"""Combining algorithms in both encodings, dispatch, and the
exhaustive cross-encoding checks."""

import itertools

import pytest

from xpdp import (
    CombinerId,
    Decision6,
    EncodingUnsupportedError,
    HALF,
    InvalidInputError,
    ONE,
    PAIR6_VALUES,
    PAIR9_VALUES,
    PairValue,
    STANDARD_COMBINERS,
    UnknownCombinerError,
    ZERO,
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
    delta_seq,
)
from xpdp.combiners import ABSORBING, FOLD_TABLES
from xpdp.decisions import V6_LATTICES

from oracles import (
    deny_overrides_behaviour,
    permit_overrides_behaviour,
    swap_effects,
)

D6 = Decision6

V6_DEFINITIONS = {
    CombinerId.PERMIT_OVERRIDES: combine_po_v6,
    CombinerId.DENY_OVERRIDES: combine_do_v6,
    CombinerId.FIRST_APPLICABLE: combine_fa_v6,
    CombinerId.ONLY_ONE_APPLICABLE: combine_o1a_v6,
}
NA = PairValue(ZERO, ZERO)
PERMIT = PairValue(ZERO, ONE)
DENY = PairValue(ONE, ZERO)
IND_P = PairValue(ZERO, HALF)
IND_D = PairValue(HALF, ZERO)
IND_DP = PairValue(HALF, HALF)


def _sequences(max_length, members=tuple(D6)):
    for length in range(max_length + 1):
        yield from itertools.product(members, repeat=length)


class TestCombinerId:
    def test_tokens(self):
        assert CombinerId.PERMIT_OVERRIDES.token == "p-o"
        assert CombinerId.DENY_OVERRIDES.token == "d-o"
        assert CombinerId.FIRST_APPLICABLE.token == "f-a"
        assert CombinerId.ONLY_ONE_APPLICABLE.token == "o-1-a"
        assert CombinerId.ALL_PERMIT.token == "all-permit"
        for cid in CombinerId:
            assert CombinerId.from_token(cid.token) is cid

    def test_standard_combiners_are_those_with_a_six_valued_definition(self):
        assert STANDARD_COMBINERS == tuple(c for c in CombinerId if c in FOLD_TABLES)
        assert CombinerId.ALL_PERMIT not in STANDARD_COMBINERS

    @pytest.mark.parametrize("refuse", [
        lambda: CombinerId.from_token("x-o"),
        lambda: combine("x-o", "v6", ()),
        lambda: combine("x-o", "pair", ()),
        lambda: check_equivalence("x-o", 1),
    ], ids=["from_token", "combine v6", "combine pair", "check_equivalence"])
    def test_unknown_combiner_is_refused(self, refuse):
        with pytest.raises(UnknownCombinerError) as caught:
            refuse()
        # Without a span, the message is all the error prints.
        assert caught.value.span is None
        assert str(caught.value) == "unknown combining algorithm: 'x-o'"


class TestPermitOverrides:
    def test_v6_examples(self):
        assert combine_po_v6((D6.INDET_P, D6.DENY)) is D6.INDET_DP
        assert combine_po_v6((D6.INDET_P, D6.INDET_D)) is D6.INDET_DP
        assert combine_po_v6((D6.NOT_APPLICABLE, D6.NOT_APPLICABLE)) is D6.NOT_APPLICABLE

    def test_pair_examples(self):
        assert combine_po_pair((IND_P, DENY)) == IND_DP
        assert combine_po_pair((NA,)) == NA
        # Frozen from the seven-step behaviour rules applied to
        # (Indeterminate{D}, Permit): any permit wins.
        assert permit_overrides_behaviour((D6.INDET_D, D6.PERMIT)) is D6.PERMIT
        assert combine_po_pair((IND_D, PERMIT)) == PERMIT


class TestDenyOverrides:
    def test_v6_examples(self):
        assert combine_do_v6((D6.INDET_D, D6.PERMIT)) is D6.INDET_DP
        assert combine_do_v6((D6.DENY, D6.PERMIT)) is D6.DENY
        assert combine_do_v6((D6.INDET_P,)) is D6.INDET_P

    def test_pair_examples(self):
        assert combine_do_pair((DENY, PERMIT)) == DENY
        # Frozen from the behaviour rules on (Indeterminate{D}, Permit):
        # an indeterminate deny beside a permit is indeterminate both ways.
        assert deny_overrides_behaviour((D6.INDET_D, D6.PERMIT)) is D6.INDET_DP
        assert combine_do_pair((IND_D, PERMIT)) == IND_DP
        assert combine_do_pair((IND_P,)) == IND_P


class TestFirstApplicable:
    def test_v6_examples(self):
        assert combine_fa_v6((D6.NOT_APPLICABLE, D6.INDET_D, D6.PERMIT)) is D6.INDET_D
        assert combine_fa_v6((D6.NOT_APPLICABLE, D6.NOT_APPLICABLE)) is D6.NOT_APPLICABLE
        assert combine_fa_v6((D6.PERMIT, D6.DENY)) is D6.PERMIT

    def test_pair_examples(self):
        assert combine_fa_pair((NA, IND_D)) == IND_D
        assert combine_fa_pair(()) == NA
        assert combine_fa_pair((PERMIT, DENY)) == PERMIT

    def test_order_sensitivity_witness(self):
        assert combine_fa_v6((D6.PERMIT, D6.DENY)) != combine_fa_v6((D6.DENY, D6.PERMIT))


class TestOnlyOneApplicable:
    def test_v6_examples(self):
        assert combine_o1a_v6((D6.DENY, D6.DENY)) is D6.INDET_D
        assert combine_o1a_v6((D6.PERMIT, D6.NOT_APPLICABLE)) is D6.PERMIT
        assert combine_o1a_v6((D6.DENY, D6.PERMIT)) is D6.INDET_DP

    def test_pair_examples(self):
        assert combine_o1a_pair((DENY, DENY)) == IND_D
        assert combine_o1a_pair((PERMIT, NA)) == PERMIT
        # Frozen from the v6 side through the pair encoding: the join of
        # Indeterminate{D} and Indeterminate{P} is Indeterminate{DP}.
        assert combine_o1a_v6((D6.INDET_D, D6.INDET_P)) is D6.INDET_DP
        assert combine_o1a_pair((IND_D, IND_P)) == IND_DP

    def test_duplicates_count_even_though_values_collapse(self):
        assert combine_o1a_v6((D6.DENY, D6.DENY, D6.DENY)) is D6.INDET_D
        assert combine_o1a_v6((D6.PERMIT, D6.PERMIT)) is D6.INDET_P
        assert combine_o1a_v6((D6.DENY,)) is D6.DENY


class TestAllPermit:
    def test_examples(self):
        assert combine_all_permit((PERMIT, PERMIT)) == PERMIT
        assert combine_all_permit((PERMIT, DENY)) == DENY
        assert combine_all_permit((PERMIT, NA)) == DENY

    def test_empty_sequence_denies(self):
        assert combine_all_permit(()) == DENY

    def test_not_idempotent_on_non_permit_singletons(self):
        assert combine_all_permit((IND_DP,)) == DENY


class TestDispatch:
    def test_examples(self):
        assert combine(CombinerId.PERMIT_OVERRIDES, "v6", (D6.INDET_P, D6.DENY)) is D6.INDET_DP
        assert combine(CombinerId.FIRST_APPLICABLE, "pair", (NA, DENY)) == DENY
        with pytest.raises(EncodingUnsupportedError):
            combine(CombinerId.ALL_PERMIT, "v6", ())

    def test_unknown_encoding(self):
        with pytest.raises(InvalidInputError):
            combine(CombinerId.PERMIT_OVERRIDES, "ternary", ())

    def test_all_permit_pair_dispatch(self):
        assert combine(CombinerId.ALL_PERMIT, "pair", (PERMIT,)) == PERMIT

    @pytest.mark.parametrize("combiner", STANDARD_COMBINERS)
    def test_v6_fold_equals_definition(self, combiner):
        # ``combine`` folds over a table of the definition's results on
        # pairs; it must return the definition's value on every sequence
        # up to length 5.
        definition = V6_DEFINITIONS[combiner]
        for seq in _sequences(5):
            assert combine(combiner, "v6", seq) is definition(seq), seq


class TestCheckEquivalence:
    def test_counts(self):
        report = check_equivalence(CombinerId.PERMIT_OVERRIDES, 3)
        assert report.sequences_checked == 259
        assert report.counterexamples == ()
        report = check_equivalence(CombinerId.ONLY_ONE_APPLICABLE, 0)
        assert report.sequences_checked == 1
        assert report.counterexamples == ()
        report = check_equivalence(CombinerId.FIRST_APPLICABLE, 2)
        assert report.sequences_checked == 43
        assert report.counterexamples == ()

    def test_checks_the_fold_combine_runs(self, monkeypatch):
        # The walk combines through the fold table, so that is what the
        # check compares with the pair encoding: a broken table is caught.
        table = list(FOLD_TABLES[CombinerId.DENY_OVERRIDES])
        table[6 * D6.PERMIT + D6.DENY] = D6.PERMIT
        monkeypatch.setitem(FOLD_TABLES, CombinerId.DENY_OVERRIDES, tuple(table))
        report = check_equivalence(CombinerId.DENY_OVERRIDES, 2)
        assert report.counterexamples
        assert report.counterexamples[0].decisions == (D6.PERMIT, D6.DENY)

    def test_rejects_all_permit_and_negative_lengths(self):
        with pytest.raises(EncodingUnsupportedError):
            check_equivalence(CombinerId.ALL_PERMIT, 1)
        with pytest.raises(InvalidInputError):
            check_equivalence(CombinerId.PERMIT_OVERRIDES, -1)

    def test_exhaustive_up_to_six(self):
        # 1 + 6 + 36 + ... + 6^6 sequences per algorithm.
        for cid in STANDARD_COMBINERS:
            report = check_equivalence(cid, 6)
            assert report.sequences_checked == 55987
            assert report.ok


class TestEarlyStop:
    def test_absorbing_values(self):
        assert ABSORBING[CombinerId.PERMIT_OVERRIDES] == (V6_LATTICES["po"].top,)
        assert ABSORBING[CombinerId.DENY_OVERRIDES] == (V6_LATTICES["do"].top,)
        assert ABSORBING[CombinerId.ONLY_ONE_APPLICABLE] == (V6_LATTICES["o1a"].top,)
        assert set(ABSORBING[CombinerId.FIRST_APPLICABLE]) == set(D6) - {D6.NOT_APPLICABLE}
        assert set(ABSORBING) == set(STANDARD_COMBINERS)

    @pytest.mark.parametrize("combiner", STANDARD_COMBINERS)
    def test_prefix_to_first_absorbing_value_decides(self, combiner):
        # Combining up to and including the first absorbing member gives
        # the value of the whole sequence, for every sequence up to
        # length 5.
        absorbing = ABSORBING[combiner]
        stops = 0
        for seq in _sequences(5):
            stop = next((i for i, v in enumerate(seq) if v in absorbing), None)
            if stop is None:
                continue
            stops += 1
            prefix = combine(combiner, "v6", seq[: stop + 1])
            assert prefix is combine(combiner, "v6", seq), seq
            if combiner is not CombinerId.FIRST_APPLICABLE:
                assert prefix is seq[stop]
        assert stops > 0


class TestNotApplicableIsBlank:
    @pytest.mark.parametrize("combiner", STANDARD_COMBINERS)
    def test_dropping_not_applicable_changes_nothing(self, combiner):
        # What lets a node skip the members its gate shows to be
        # NotApplicable: removing NotApplicable entries leaves the
        # combination unchanged, for every sequence up to length 5.
        dropped = 0
        for seq in _sequences(5):
            kept = tuple(v for v in seq if v is not D6.NOT_APPLICABLE)
            dropped += len(kept) < len(seq)
            assert combine(combiner, "v6", kept) is combine(combiner, "v6", seq), seq
        assert dropped > 0


class TestBehaviourOracles:
    def test_permit_overrides_agrees(self):
        for seq in _sequences(4):
            assert combine_po_v6(seq) is permit_overrides_behaviour(seq)

    def test_deny_overrides_agrees(self):
        for seq in _sequences(4):
            assert combine_do_v6(seq) is deny_overrides_behaviour(seq)


class TestAlgebraicProperties:
    def test_duality(self):
        for seq in _sequences(4):
            swapped = tuple(swap_effects(v) for v in seq)
            assert combine_do_v6(seq) is swap_effects(combine_po_v6(swapped))

    def test_singleton_identity(self):
        v6_combiners = (combine_po_v6, combine_do_v6, combine_fa_v6, combine_o1a_v6)
        for value in D6:
            for fn in v6_combiners:
                assert fn((value,)) is value
        pair_combiners = (combine_po_pair, combine_do_pair, combine_fa_pair, combine_o1a_pair)
        for value in (NA, IND_D, IND_P, IND_DP, DENY, PERMIT):
            for fn in pair_combiners:
                assert fn((value,)) == value

    def test_empty_sequences(self):
        assert combine_po_v6(()) is D6.NOT_APPLICABLE
        assert combine_do_v6(()) is D6.NOT_APPLICABLE
        assert combine_fa_v6(()) is D6.NOT_APPLICABLE
        assert combine_o1a_v6(()) is D6.NOT_APPLICABLE
        assert combine_po_pair(()) == NA
        assert combine_do_pair(()) == NA
        assert combine_o1a_pair(()) == NA

    def test_pair_results_stay_in_the_six(self):
        for seq in _sequences(3):
            for fn in (combine_po_pair, combine_do_pair, combine_fa_pair, combine_o1a_pair):
                result = fn(delta_seq(seq))
                assert result in PAIR6_VALUES

    def test_case_analyses_land_in_the_six_from_any_nine_point_input(self):
        # The override and only-one case analyses return a six-point
        # value even for inputs outside delta's image, so their final
        # pass-through of the componentwise maximum needs no narrowing.
        for seq in _sequences(3, PAIR9_VALUES):
            for fn in (combine_po_pair, combine_do_pair, combine_o1a_pair):
                assert fn(seq) in PAIR6_VALUES, (fn.__name__, seq)
