"""Decision domains, orders and primitive operators."""

import itertools

import pytest

from xpdp import (
    Decision3,
    Decision6,
    Effect,
    HALF,
    InvalidInputError,
    ONE,
    PAIR6_VALUES,
    PAIR9_VALUES,
    PairValue,
    UnknownLatticeError,
    V6_LATTICES,
    ZERO,
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
from xpdp.decisions import FiniteLattice

from oracles import ORDERS, delta_inverse, greatest_lower_bound, least_upper_bound

D3 = Decision3
D6 = Decision6


class TestThreeValued:
    def test_glb_examples(self):
        assert glb3({D3.TOP, D3.INDET}) is D3.INDET
        assert glb3([]) is D3.TOP
        assert glb3({D3.TOP, D3.BOTTOM, D3.INDET}) is D3.BOTTOM

    def test_lub_examples(self):
        assert lub3({D3.BOTTOM, D3.INDET}) is D3.INDET
        assert lub3([]) is D3.BOTTOM
        assert lub3({D3.TOP, D3.INDET}) is D3.TOP

    def test_lattice_laws(self):
        for a, b, c in itertools.product(D3, repeat=3):
            assert glb3([a, a]) is a
            assert glb3([a, b]) is glb3([b, a])
            assert glb3([glb3([a, b]), c]) is glb3([a, b, c])
            assert lub3([a, a]) is a
            assert lub3([a, b]) is lub3([b, a])
            assert lub3([lub3([a, b]), c]) is lub3([a, b, c])

    def test_glb_below_lub(self):
        for a, b in itertools.product(D3, repeat=2):
            assert glb3([a, b]) <= lub3([a, b])


class TestArrowSigma:
    def test_arrow_examples(self):
        assert arrow(D3.TOP, D3.INDET) is D3.INDET
        assert arrow(D3.BOTTOM, D3.TOP) is D3.BOTTOM
        assert arrow(D3.INDET, D3.BOTTOM) is D3.INDET

    def test_arrow_exhaustive(self):
        for f, g in itertools.product(D3, repeat=2):
            expected = g if f is D3.TOP else f
            assert arrow(f, g) is expected

    def test_sigma_table(self):
        assert sigma(D3.BOTTOM, Effect.PERMIT) is D6.NOT_APPLICABLE
        assert sigma(D3.BOTTOM, Effect.DENY) is D6.NOT_APPLICABLE
        assert sigma(D3.TOP, Effect.DENY) is D6.DENY
        assert sigma(D3.TOP, Effect.PERMIT) is D6.PERMIT
        assert sigma(D3.INDET, Effect.PERMIT) is D6.INDET_P
        assert sigma(D3.INDET, Effect.DENY) is D6.INDET_D


class TestDecision6:
    def test_partitions(self):
        assert {d for d in D6 if d.is_applicable} == {D6.PERMIT, D6.DENY}
        assert {d for d in D6 if d.is_indeterminate} == {
            D6.INDET_P,
            D6.INDET_D,
            D6.INDET_DP,
        }

    def test_canonical_round_trip(self):
        for d in D6:
            assert D6.from_canonical(d.canonical) is d
        with pytest.raises(InvalidInputError):
            D6.from_canonical("Bogus")

    def test_canonical_strings(self):
        assert D6.PERMIT.canonical == "Permit"
        assert D6.DENY.canonical == "Deny"
        assert D6.NOT_APPLICABLE.canonical == "NotApplicable"
        assert D6.INDET_P.canonical == "Indeterminate{P}"
        assert D6.INDET_D.canonical == "Indeterminate{D}"
        assert D6.INDET_DP.canonical == "Indeterminate{DP}"


class TestPairValues:
    def test_six_legal_pairs(self):
        assert len(PAIR6_VALUES) == 6
        assert set(PAIR6_VALUES) == {delta(d) for d in D6}
        for v in PAIR6_VALUES:
            assert PairValue(v.deny, v.permit) == v

    def test_illegal_pairs_rejected(self):
        # Components are the levels 0, 1, 2 (for 0, 1/2, 1) and nothing
        # else; the six-point restriction is membership, not the type.
        with pytest.raises(InvalidInputError):
            PairValue(3, ZERO)
        with pytest.raises(InvalidInputError):
            PairValue(ZERO, -1)
        with pytest.raises(InvalidInputError):
            PairValue(0.5, ZERO)
        assert PairValue(ONE, ONE) not in PAIR6_VALUES
        assert PairValue(ONE, HALF) not in PAIR6_VALUES

    def test_nine_superset(self):
        assert len(PAIR9_VALUES) == 9
        assert set(PAIR6_VALUES) < set(PAIR9_VALUES)
        assert [v for v in PAIR9_VALUES if v in PAIR6_VALUES] == list(PAIR6_VALUES)

    def test_cross_type_equality(self):
        # A point of the six-point image is the same value as that point
        # among the nine, equal and hashing alike however it was built.
        assert delta(D6.PERMIT) == PairValue(ZERO, ONE)
        assert PAIR9_VALUES.index(PairValue(ZERO, ONE)) == 2
        assert hash(delta(D6.INDET_D)) == hash(PairValue(HALF, ZERO))

    def test_rendering(self):
        assert str(PairValue(HALF, HALF)) == "[1/2,1/2]"
        assert str(PairValue(ZERO, ONE)) == "[0,1]"
        assert str(PairValue(ONE, ONE)) == "[1,1]"
        assert repr(PairValue(ONE, HALF)) == "PairValue[1,1/2]"


class TestDelta:
    def test_table(self):
        assert delta(D6.NOT_APPLICABLE) == PairValue(ZERO, ZERO)
        assert delta(D6.INDET_D) == PairValue(HALF, ZERO)
        assert delta(D6.INDET_P) == PairValue(ZERO, HALF)
        assert delta(D6.INDET_DP) == PairValue(HALF, HALF)
        assert delta(D6.DENY) == PairValue(ONE, ZERO)
        assert delta(D6.PERMIT) == PairValue(ZERO, ONE)

    def test_bijection(self):
        images = {delta(d) for d in D6}
        assert len(images) == 6
        for d in D6:
            assert delta_inverse(delta(d)) is d

    def test_delta_seq(self):
        assert delta_seq((D6.PERMIT, D6.NOT_APPLICABLE)) == (
            PairValue(ZERO, ONE),
            PairValue(ZERO, ZERO),
        )
        assert delta_seq(()) == ()
        assert delta_seq((D6.INDET_D, D6.INDET_D)) == (
            PairValue(HALF, ZERO),
            PairValue(HALF, ZERO),
        )

    def test_delta_inverse_examples(self):
        assert delta_inverse(PairValue(ZERO, ONE)) is D6.PERMIT
        assert delta_inverse(PairValue(HALF, ZERO)) is D6.INDET_D
        assert delta_inverse(PairValue(ZERO, ZERO)) is D6.NOT_APPLICABLE

    def test_delta_inverse_rejects_extended_values(self):
        with pytest.raises(InvalidInputError):
            delta_inverse(PairValue(ONE, ONE))


class TestPairOrder:
    def test_leq_examples(self):
        assert leq_pair(PairValue(ZERO, ZERO), PairValue(HALF, HALF))
        assert not leq_pair(PairValue(ONE, ZERO), PairValue(ZERO, ONE))
        assert not leq_pair(PairValue(ZERO, ONE), PairValue(ONE, ZERO))
        assert leq_pair(PairValue(HALF, HALF), PairValue(ONE, ONE))

    def test_max_examples(self):
        assert max_pair([PairValue(ONE, ZERO), PairValue(ZERO, HALF)]) == PairValue(
            ONE, HALF
        )
        assert max_pair([PairValue(ZERO, ZERO)]) == PairValue(ZERO, ZERO)
        assert max_pair([]) == PairValue(ZERO, ZERO)

    def test_min_examples(self):
        assert min_pair([PairValue(ONE, ZERO), PairValue(ZERO, ONE)]) == PairValue(
            ZERO, ZERO
        )
        assert min_pair([PairValue(HALF, HALF)]) == PairValue(HALF, HALF)
        assert min_pair([PairValue(ONE, ONE), PairValue(ONE, HALF)]) == PairValue(
            ONE, HALF
        )
        assert min_pair([]) == PairValue(ONE, ONE)

    def test_monotone(self):
        for a, b, c in itertools.product(PAIR9_VALUES, repeat=3):
            if leq_pair(a, b):
                assert leq_pair(max_pair([a, c]), max_pair([b, c]))
                assert leq_pair(min_pair([a, c]), min_pair([b, c]))

    def test_pair9_is_a_lattice(self):
        # Unique least upper and greatest lower bounds for all 81 pairs,
        # found by brute force, must coincide with the componentwise
        # maximum and minimum.
        for a, b in itertools.product(PAIR9_VALUES, repeat=2):
            uppers = [u for u in PAIR9_VALUES if leq_pair(a, u) and leq_pair(b, u)]
            least = [u for u in uppers if all(leq_pair(u, v) for v in uppers)]
            assert len(least) == 1
            assert least[0] == max_pair([a, b])
            lowers = [u for u in PAIR9_VALUES if leq_pair(u, a) and leq_pair(u, b)]
            greatest = [u for u in lowers if all(leq_pair(v, u) for v in lowers)]
            assert len(greatest) == 1
            assert greatest[0] == min_pair([a, b])


class TestDecisionLattices:
    def test_lub_examples(self):
        assert lub_order("po", {D6.PERMIT, D6.INDET_DP}) is D6.PERMIT
        assert lub_order("do", {D6.PERMIT, D6.INDET_P}) is D6.PERMIT
        assert lub_order("o1a", {D6.DENY, D6.PERMIT}) is D6.INDET_DP

    def test_empty_is_bottom(self):
        for name in ("po", "do", "o1a"):
            assert lub_order(name, []) is D6.NOT_APPLICABLE

    def test_unknown_lattice(self):
        with pytest.raises(UnknownLatticeError):
            lub_order("nope", [D6.PERMIT])

    def test_joins_are_least_upper_bounds(self):
        # Against the independently transcribed orders, for all 36 pairs
        # of each lattice.
        for name, order in ORDERS.items():
            for a, b in itertools.product(D6, repeat=2):
                expected = least_upper_bound(order, tuple(D6), [a, b])
                assert expected is not None
                assert lub_order(name, [a, b]) is expected

    def test_meets_against_oracle(self):
        for name, order in ORDERS.items():
            lattice = V6_LATTICES[name]
            for a, b in itertools.product(D6, repeat=2):
                expected = greatest_lower_bound(order, tuple(D6), [a, b])
                assert lattice.meet(a, b) is expected

    def test_lub_of_sets_matches_brute_force(self):
        # Fold-of-joins must equal the brute-force bound for every
        # subset, not just pairs.
        members = tuple(D6)
        for name, order in ORDERS.items():
            for bits in range(64):
                subset = [members[i] for i in range(6) if bits >> i & 1]
                expected = least_upper_bound(order, members, subset)
                assert lub_order(name, subset) is expected

    def test_cover_relation_that_is_not_a_lattice(self):
        # 0 below a and b, both below c and d, both below 1: a and b have
        # the upper bounds c, d and 1 but no least one.
        covers = (
            ("0", "a"), ("0", "b"),
            ("a", "c"), ("a", "d"), ("b", "c"), ("b", "d"),
            ("c", "1"), ("d", "1"),
        )
        with pytest.raises(InvalidInputError, match="no unique join for 'a' and 'b'"):
            FiniteLattice("bowtie", ("0", "a", "b", "c", "d", "1"), covers)
        # Without 0 there is no bottom; a cycle makes two elements tie.
        with pytest.raises(InvalidInputError, match="no unique"):
            FiniteLattice("no-bottom", ("a", "b", "c"), (("a", "c"), ("b", "c")))
        with pytest.raises(InvalidInputError, match="no unique"):
            FiniteLattice("cycle", ("a", "b"), (("a", "b"), ("b", "a")))
