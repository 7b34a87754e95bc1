"""Acceptance criteria. Each test prints one PASS line on success; a
failing assertion marks the criterion failed."""

import itertools
import json
import time
from pathlib import Path

from hypothesis import HealthCheck, given, settings

from xpdp import (
    Decision3,
    Decision6,
    Effect,
    PAIR9_VALUES,
    STANDARD_COMBINERS,
    arrow,
    check_equivalence,
    combine_all_permit,
    combine_do_pair,
    combine_do_v6,
    combine_fa_v6,
    combine_o1a_pair,
    combine_o1a_v6,
    combine_po_pair,
    combine_po_v6,
    dalg_axiom_check,
    dalg_permit_overrides,
    delta_seq,
    evaluate,
    leq_pair,
    lub_order,
    max_pair,
    min_pair,
    parse_policy,
    parse_request,
    rule_decision,
    serialize_policy,
    sigma,
)
from xpdp.altlogics import DDecision
from xpdp.cli import main

import strategies
from oracles import (
    ORDERS,
    deny_overrides_behaviour,
    least_upper_bound,
    permit_overrides_behaviour,
    rule_decision_cases,
)

D3 = Decision3
D6 = Decision6
SAMPLES = Path(__file__).resolve().parent.parent / "samples"


def _ok(name: str) -> None:
    print(f"ACCEPTANCE {name}: PASS")


def _sequences(max_length):
    for length in range(max_length + 1):
        yield from itertools.product(tuple(D6), repeat=length)


def test_c1_worked_example_golden():
    """C1: the two golden requests decide Permit and Deny, quickly."""
    node = parse_policy((SAMPLES / "patient_policy.pol").read_text())
    read_request = parse_request((SAMPLES / "request_doctor_read.req").read_text())
    write_request = parse_request((SAMPLES / "request_doctor_write.req").read_text())

    start = time.perf_counter()
    decision_read, _ = evaluate(node, read_request)
    read_elapsed = time.perf_counter() - start

    start = time.perf_counter()
    decision_write, _ = evaluate(node, write_request)
    write_elapsed = time.perf_counter() - start

    assert decision_read is D6.PERMIT
    assert decision_write is D6.DENY
    assert read_elapsed < 0.010, f"read evaluation took {read_elapsed:.4f}s"
    assert write_elapsed < 0.010, f"write evaluation took {write_elapsed:.4f}s"
    _ok("C1 worked-example golden decisions")


def test_c2_encoding_equivalence_exhaustive():
    """C2: both encodings agree on all 9331 sequences per algorithm."""
    start = time.perf_counter()
    for algorithm in STANDARD_COMBINERS:
        report = check_equivalence(algorithm, 5)
        assert report.sequences_checked == 9331, algorithm
        assert report.counterexamples == (), algorithm
    elapsed = time.perf_counter() - start
    assert elapsed < 2.0, f"equivalence sweep took {elapsed:.2f}s"
    _ok("C2 encoding equivalence, 4 x 9331 sequences")


# The rule-decision table: (target, condition) -> outcome, with the
# effect filling in the annotation. The target-unmatched rows are
# inapplicable regardless of the condition; the composed form produces
# the same column, which is the point of the check.
RULE_TABLE = {
    (D3.TOP, D3.TOP): "effect",
    (D3.TOP, D3.BOTTOM): "na",
    (D3.TOP, D3.INDET): "indet",
    (D3.BOTTOM, D3.TOP): "na",
    (D3.BOTTOM, D3.BOTTOM): "na",
    (D3.BOTTOM, D3.INDET): "na",
    (D3.INDET, D3.TOP): "indet",
    (D3.INDET, D3.BOTTOM): "indet",
    (D3.INDET, D3.INDET): "indet",
}


def test_c3_rule_decision_table():
    """C3: the 18 rule-evaluation combinations match the composed form."""
    for (target, condition), kind in RULE_TABLE.items():
        for effect in Effect:
            if kind == "na":
                expected = D6.NOT_APPLICABLE
            elif kind == "effect":
                expected = D6.PERMIT if effect is Effect.PERMIT else D6.DENY
            else:
                expected = D6.INDET_P if effect is Effect.PERMIT else D6.INDET_D
            composed = sigma(arrow(target, condition), effect)
            assert composed is expected, (target, condition, effect)
            assert rule_decision(target, condition, effect) is expected
            assert rule_decision_cases(target, condition, effect) is expected
    _ok("C3 rule decision table, 18 combinations")


def test_c4_compare_command_reproduces_table(capsys):
    """C4: the four-logic comparison row for (Indeterminate{P}, Deny)."""
    code = main(["compare", "Indeterminate{P}", "Deny", "--format", "structured"])
    out = capsys.readouterr().out
    assert code == 0
    row = json.loads(out)
    assert row["belnap"] == "ff"
    assert row["dalg"] == "{p,d}"
    assert row["v6"] == "Indeterminate{DP}"
    assert row["pair"] == "[1/2,1/2]"
    assert row["belnap_agrees"] is False
    assert row["dalg_agrees"] is False
    assert row["pair_agrees"] is True

    code = main(["compare", "Indeterminate{P}", "Deny"])
    text = capsys.readouterr().out
    assert code == 0
    assert text.count("DIVERGES") == 2
    _ok("C4 four-logic comparison row")


def test_c5_decision_algebra_soundness():
    """C5: all seven axioms hold on the 8-element carrier; the
    permit-overrides composition gives the documented conflict."""
    report = dalg_axiom_check()
    assert report.ok
    assert report.pairs_checked == 64
    assert report.triples_checked == 512
    result = dalg_permit_overrides(
        DDecision(frozenset(["p", "na"])), DDecision(frozenset(["d"]))
    )
    assert result == DDecision(frozenset(["p", "d"]))
    _ok("C5 decision-set algebra axioms and composition")


def test_c6_behaviour_list_oracle():
    """C6: the stepwise prose rules agree with the lattice forms on all
    9331 sequences for both override algorithms."""
    count = 0
    for seq in _sequences(5):
        count += 1
        assert combine_po_v6(seq) is permit_overrides_behaviour(seq)
        assert combine_do_v6(seq) is deny_overrides_behaviour(seq)
    assert count == 9331
    _ok("C6 behaviour-list oracle, 2 x 9331 sequences")


def test_c7_lattice_integrity():
    """C7: the nine-point pair order is a lattice with max/min as its
    bounds, and the three decision-lattice joins are least upper bounds
    of the transcribed orders."""
    for a, b in itertools.product(PAIR9_VALUES, repeat=2):
        uppers = [u for u in PAIR9_VALUES if leq_pair(a, u) and leq_pair(b, u)]
        least = [u for u in uppers if all(leq_pair(u, v) for v in uppers)]
        assert len(least) == 1 and least[0] == max_pair([a, b])
        lowers = [u for u in PAIR9_VALUES if leq_pair(u, a) and leq_pair(u, b)]
        greatest = [u for u in lowers if all(leq_pair(v, u) for v in lowers)]
        assert len(greatest) == 1 and greatest[0] == min_pair([a, b])
    for name, order in ORDERS.items():
        for a, b in itertools.product(tuple(D6), repeat=2):
            expected = least_upper_bound(order, tuple(D6), [a, b])
            assert lub_order(name, [a, b]) is expected, (name, a, b)
    _ok("C7 lattice integrity, 81 pair bounds + 3 x 36 joins")


def test_c8_round_trip_property():
    """C8: 1000 generated policy trees survive serialize-then-parse."""
    executed = 0

    @settings(
        max_examples=1000,
        deadline=None,
        derandomize=True,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(strategies.policy_nodes())
    def check(node):
        nonlocal executed
        executed += 1
        assert parse_policy(serialize_policy(node)) == node

    check()
    assert executed >= 1000
    _ok(f"C8 round-trip property, {executed} generated trees")


def test_c9_permutation_invariance():
    """C9: the order-insensitive algorithms really are, in both
    encodings, and first-applicable shows its order sensitivity."""
    insensitive_v6 = (combine_po_v6, combine_do_v6, combine_o1a_v6)
    insensitive_pair = (combine_po_pair, combine_do_pair, combine_o1a_pair, combine_all_permit)
    for seq in _sequences(4):
        pairs = delta_seq(seq)
        v6_base = [fn(seq) for fn in insensitive_v6]
        pair_base = [fn(pairs) for fn in insensitive_pair]
        for permutation in set(itertools.permutations(seq)):
            ppairs = delta_seq(permutation)
            for fn, expected in zip(insensitive_v6, v6_base):
                assert fn(permutation) is expected
            for fn, expected in zip(insensitive_pair, pair_base):
                assert fn(ppairs) == expected
    assert combine_fa_v6((D6.PERMIT, D6.DENY)) is D6.PERMIT
    assert combine_fa_v6((D6.DENY, D6.PERMIT)) is D6.DENY
    _ok("C9 permutation invariance + first-applicable witness")
