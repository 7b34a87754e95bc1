"""The rival logics: four-valued bilattice, decision-set algebra, and
the cross-logic comparison."""

import itertools

import pytest

from xpdp import (
    BelnapValue,
    CombinerId,
    DDecision,
    Decision6,
    HALF,
    KNOWLEDGE_LATTICE,
    PairValue,
    TRUTH_LATTICE,
    UnsupportedCombinerError,
    belnap_combine,
    belnap_negate,
    belnap_ops,
    belnap_overwrite,
    belnap_priority,
    combine_po_v6,
    compare_logics,
    dalg_axiom_check,
    dalg_ops,
    dalg_permit_overrides,
    map_v6,
)
from xpdp import altlogics
from xpdp.altlogics import (
    D_CARRIER,
    D_DENY,
    D_EMPTY,
    D_FULL,
    D_NA,
    D_PERMIT,
    dalg_neg,
    dalg_odot,
    dalg_oplus,
    dalg_otimes,
)

from oracles import greatest_lower_bound, least_upper_bound

B = BelnapValue
D6 = Decision6

# Independent transcriptions of the two orders on the four values.
KNOWLEDGE_PAIRS = frozenset(
    [(v, v) for v in B]
    + [(B.NONE, B.TRUE), (B.NONE, B.FALSE), (B.NONE, B.BOTH), (B.TRUE, B.BOTH), (B.FALSE, B.BOTH)]
)
TRUTH_PAIRS = frozenset(
    [(v, v) for v in B]
    + [(B.FALSE, B.NONE), (B.FALSE, B.BOTH), (B.FALSE, B.TRUE), (B.NONE, B.TRUE), (B.BOTH, B.TRUE)]
)


def _bound(order, values, upper):
    if upper:
        candidates = [u for u in B if all((v, u) in order for v in values)]
        best = [u for u in candidates if all((u, v) in order for v in candidates)]
    else:
        candidates = [u for u in B if all((u, v) in order for v in values)]
        best = [u for u in candidates if all((v, u) in order for v in candidates)]
    assert len(best) == 1
    return best[0]


class TestBelnapBilattice:
    def test_orders_match_transcription(self):
        for a, b in itertools.product(B, repeat=2):
            assert KNOWLEDGE_LATTICE.leq(a, b) == ((a, b) in KNOWLEDGE_PAIRS)
            assert TRUTH_LATTICE.leq(a, b) == ((a, b) in TRUTH_PAIRS)

    def test_ops_are_bounds_in_both_orders(self):
        for a, b in itertools.product(B, repeat=2):
            ops = belnap_ops(a, b)
            assert ops.join_k is _bound(KNOWLEDGE_PAIRS, (a, b), upper=True)
            assert ops.meet_k is _bound(KNOWLEDGE_PAIRS, (a, b), upper=False)
            assert ops.join_t is _bound(TRUTH_PAIRS, (a, b), upper=True)
            assert ops.meet_t is _bound(TRUTH_PAIRS, (a, b), upper=False)

    def test_lattices_against_oracle(self):
        for lattice, order in ((KNOWLEDGE_LATTICE, KNOWLEDGE_PAIRS), (TRUTH_LATTICE, TRUTH_PAIRS)):
            for a, b in itertools.product(B, repeat=2):
                assert lattice.join(a, b) is least_upper_bound(order, tuple(B), [a, b])
                assert lattice.meet(a, b) is greatest_lower_bound(order, tuple(B), [a, b])
            assert lattice.bottom is least_upper_bound(order, tuple(B), [])
            assert lattice.top is greatest_lower_bound(order, tuple(B), [])

    def test_lattice_laws(self):
        for join, meet in (
            (lambda a, b: belnap_ops(a, b).join_k, lambda a, b: belnap_ops(a, b).meet_k),
            (lambda a, b: belnap_ops(a, b).join_t, lambda a, b: belnap_ops(a, b).meet_t),
        ):
            for a, b, c in itertools.product(B, repeat=3):
                assert join(a, a) is a and meet(a, a) is a
                assert join(a, b) is join(b, a)
                assert meet(a, b) is meet(b, a)
                assert join(join(a, b), c) is join(a, join(b, c))
                assert meet(meet(a, b), c) is meet(a, meet(b, c))
                assert join(a, meet(a, b)) is a
                assert meet(a, join(a, b)) is a

    def test_examples(self):
        assert belnap_ops(B.TRUE, B.FALSE).join_k is B.BOTH
        assert belnap_ops(B.TRUE, B.FALSE).meet_k is B.NONE
        assert belnap_ops(B.FALSE, B.NONE).join_t is B.NONE

    def test_negate(self):
        assert belnap_negate(B.TRUE) is B.FALSE
        assert belnap_negate(B.FALSE) is B.TRUE
        assert belnap_negate(B.BOTH) is B.BOTH
        assert belnap_negate(B.NONE) is B.NONE

    def test_overwrite(self):
        assert belnap_overwrite(B.BOTH, B.BOTH, B.FALSE) is B.FALSE
        assert belnap_overwrite(B.TRUE, B.BOTH, B.FALSE) is B.TRUE
        assert belnap_priority(B.NONE, B.TRUE) is B.TRUE


class TestBelnapCombiners:
    def test_examples(self):
        assert belnap_combine(CombinerId.PERMIT_OVERRIDES, B.TRUE, B.BOTH) is B.FALSE
        assert belnap_combine(CombinerId.FIRST_APPLICABLE, B.NONE, B.TRUE) is B.TRUE
        assert belnap_combine(CombinerId.ONLY_ONE_APPLICABLE, B.TRUE, B.NONE) is B.TRUE

    def test_unsupported(self):
        with pytest.raises(UnsupportedCombinerError):
            belnap_combine(CombinerId.DENY_OVERRIDES, B.TRUE, B.TRUE)
        with pytest.raises(UnsupportedCombinerError):
            belnap_combine(CombinerId.ALL_PERMIT, B.TRUE, B.TRUE)

    def test_only_one_applicable_formula_literal(self):
        def joink(a, b):
            return belnap_ops(a, b).join_k

        def meetk(a, b):
            return belnap_ops(a, b).meet_k

        for p, q in itertools.product(B, repeat=2):
            expected = joink(
                joink(p, q),
                meetk(joink(p, belnap_negate(p)), joink(q, belnap_negate(q))),
            )
            assert belnap_combine(CombinerId.ONLY_ONE_APPLICABLE, p, q) is expected

    def test_divergence_regression(self):
        # permit beside indeterminate turns into deny here, while the
        # standard semantics keeps the permit.
        assert belnap_combine(CombinerId.PERMIT_OVERRIDES, B.TRUE, B.BOTH) is B.FALSE
        standard = combine_po_v6((D6.PERMIT, D6.INDET_DP))
        assert standard is D6.PERMIT
        assert map_v6(standard).belnap is B.TRUE
        assert belnap_combine(CombinerId.PERMIT_OVERRIDES, B.TRUE, B.BOTH) is not B.TRUE


def dset(*members):
    return DDecision(frozenset(members))


class TestDecisionSetAlgebra:
    def test_carrier(self):
        assert len(D_CARRIER) == 8
        assert len(set(D_CARRIER)) == 8

    def test_representations(self):
        assert dalg_neg(dset("p")) == dset("d", "na")
        assert dalg_oplus(dset("p"), dset("d")) == dset("p", "d")
        assert dalg_otimes(dset("p"), dset("p")) == D_FULL
        assert dalg_otimes(dset("p"), dset("d")) == D_EMPTY
        assert dalg_odot(D_FULL, dset("p", "d")) == dset("p", "d")

    def test_derived_ops(self):
        for x, y in itertools.product(D_CARRIER, repeat=2):
            ops = dalg_ops(x, y)
            assert ops.odot == DDecision(x.members & y.members)
            assert ops.ominus == DDecision(x.members - y.members)
            assert ops.oplus == DDecision(x.members | y.members)
            assert ops.neg == DDecision(D_FULL.members - x.members)

    def test_axioms(self):
        report = dalg_axiom_check()
        assert report.ok
        assert report.violations == ()
        assert report.elements_checked == 8
        assert report.pairs_checked == 64
        assert report.triples_checked == 512

    @pytest.mark.parametrize("name, broken, axioms", [
        ("dalg_neg", lambda x: x, {5}),
        ("dalg_neg", lambda x: D_EMPTY, {4, 5, 6}),
        ("dalg_otimes", lambda x, y: D_EMPTY, {7}),
        ("dalg_oplus", lambda x, y: x, {1, 5, 6}),
        ("dalg_oplus", lambda x, y: DDecision(D_FULL.members - x.members - y.members),
         {2, 3, 5, 6}),
    ], ids=["neg identity", "neg empty", "otimes empty", "oplus left", "oplus nor"])
    def test_a_broken_operation_is_reported(self, monkeypatch, name, broken, axioms):
        # The check reads the operations as module globals, so each of
        # the seven axioms is seen to fail for some broken operation.
        monkeypatch.setattr(altlogics, name, broken)
        report = dalg_axiom_check()
        assert not report.ok
        assert {v.axiom for v in report.violations} == axioms

    def test_permit_overrides_examples(self):
        assert dalg_permit_overrides(dset("p", "na"), dset("d")) == dset("p", "d")
        assert dalg_permit_overrides(dset("p"), dset("d")) == dset("p")
        assert dalg_permit_overrides(dset("na"), dset("na")) == dset("na")

    def test_permit_survives_composition(self):
        for y in D_CARRIER:
            assert "p" in dalg_permit_overrides(D_PERMIT, y).members

    def test_rendering(self):
        assert str(D_FULL) == "{p,d,na}"
        assert str(D_EMPTY) == "{}"
        assert str(dset("d", "p")) == "{p,d}"


class TestMapping:
    def test_map_v6(self):
        assert map_v6(D6.INDET_P) == map_v6(D6.INDET_P)
        assert map_v6(D6.INDET_P).belnap is B.BOTH
        assert map_v6(D6.INDET_P).dalg == dset("p", "na")
        assert map_v6(D6.DENY).belnap is B.FALSE
        assert map_v6(D6.DENY).dalg == D_DENY
        assert map_v6(D6.NOT_APPLICABLE).belnap is B.NONE
        assert map_v6(D6.NOT_APPLICABLE).dalg == D_NA
        assert map_v6(D6.PERMIT).belnap is B.TRUE
        assert map_v6(D6.INDET_D).dalg == dset("d", "na")
        assert map_v6(D6.INDET_DP).dalg == D_FULL


class TestCompareLogics:
    def test_divergent_row(self):
        row = compare_logics((D6.INDET_P, D6.DENY))
        assert row.v6_result is D6.INDET_DP
        assert row.pair_result == PairValue(HALF, HALF)
        assert row.belnap_result is B.FALSE
        assert row.dalg_result == dset("p", "d")
        assert row.pair_agrees
        assert not row.belnap_agrees
        assert not row.dalg_agrees

    def test_agreeing_row(self):
        row = compare_logics((D6.PERMIT, D6.NOT_APPLICABLE))
        assert row.v6_result is D6.PERMIT
        assert row.belnap_result is B.TRUE
        assert row.dalg_result == D_PERMIT
        assert row.pair_agrees and row.belnap_agrees and row.dalg_agrees

    def test_neutral_row(self):
        row = compare_logics((D6.NOT_APPLICABLE, D6.NOT_APPLICABLE))
        assert row.v6_result is D6.NOT_APPLICABLE
        assert row.belnap_result is B.NONE
        assert row.dalg_result == D_NA
        assert row.pair_agrees and row.belnap_agrees and row.dalg_agrees
