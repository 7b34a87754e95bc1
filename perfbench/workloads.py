"""Seeded input generators for the xpdp benchmark.

Every generator takes the workload seed and returns DSL text for the
engine plus the decision each request must get. Expected decisions come
from how the input was built, never from the engine under test.

Costs are kept independent of the seed: the seed decides which rule
gets which condition and effect, which rules the requests name, the
order of the requests and the constants of the padding facts, but the
counts of each kind are fixed, so runs with different seeds measure the
same amount of work.
"""

from __future__ import annotations

import random
import string
from dataclasses import dataclass

COMBINERS = ("p-o", "d-o", "f-a", "o-1-a")

# The exit code the CLI documents for each decision.
EXIT_CODES = {
    "Permit": 0,
    "Deny": 1,
    "NotApplicable": 2,
    "Indeterminate{P}": 3,
    "Indeterminate{D}": 3,
    "Indeterminate{DP}": 3,
}


@dataclass
class Workload:
    """One workload's inputs.

    ``policy_text`` and ``request_texts`` are handed to the engine as
    DSL text; ``expected[i]`` is the canonical decision for request i.
    ``sample_files`` is set only for the CLI workload, which runs the
    committed sample files rather than generated ones.
    """

    name: str
    policy_text: str
    request_texts: list[str]
    expected: list[str]
    sample_files: list[str] | None = None
    sample_policy: str | None = None


def _block(items: list[str], prefix: str) -> str:
    """Comma-separated DSL items, one per line, each line indented."""
    text = ",\n".join(items)
    return "\n".join(prefix + line if line else line for line in text.split("\n"))


# -- cli_trace -------------------------------------------------------------

SAMPLE_POLICY = "samples/patient_policy.pol"

# Hand-written answers for the committed sample requests.
SAMPLE_EXPECTED = {
    "samples/request_doctor_read.req": "Permit",
    "samples/request_doctor_write.req": "Deny",
    "samples/request_errored_read.req": "Indeterminate{P}",
}


def cli_trace(seed: int, root: str) -> Workload:
    """The three sample requests in a seeded order, run through the CLI."""
    files = sorted(SAMPLE_EXPECTED)
    random.Random(seed).shuffle(files)
    with open(f"{root}/{SAMPLE_POLICY}", encoding="utf-8") as fh:
        policy_text = fh.read()
    texts = []
    for path in files:
        with open(f"{root}/{path}", encoding="utf-8") as fh:
            texts.append(fh.read())
    return Workload(
        name="cli_trace",
        policy_text=policy_text,
        request_texts=texts,
        expected=[SAMPLE_EXPECTED[p] for p in files],
        sample_files=files,
        sample_policy=SAMPLE_POLICY,
    )


# -- wide_policy -----------------------------------------------------------

WIDE_SUBJECTS = 40
WIDE_ACTIONS = 5
WIDE_RESOURCES = 5

# Request cases and their counts in one batch. "match" makes the one
# applicable rule's condition hold, "nomatch" makes it fail, and the two
# error cases mark one of that rule's target or condition attributes as
# erroneous.
WIDE_CASES = (("match", 12), ("nomatch", 6), ("target_error", 3), ("cond_error", 3))


def _condition(kind: str, resource: int) -> str:
    if kind == "true":
        return "true"
    if kind == "one":
        return f"badge(X) /\\ assigned(X,res{resource})"
    return f"badge(X) /\\ delegate(X,Y) /\\ assigned(Y,res{resource})"


def wide_policy(
    seed: int,
    subjects: int = WIDE_SUBJECTS,
    cases: tuple[tuple[str, int], ...] = WIDE_CASES,
) -> Workload:
    """A policy set of ``subjects * 25`` rules with distinct targets.

    The root (d-o) holds four policy sets, one per combiner, and each of
    those holds one policy per subject, with the policies cycling
    through the four combiners. Each policy's rules cover every
    action/resource pair for its subject. Conditions are a fixed
    one-third mix each of ``true``, a one-variable join and a
    two-variable join, placed by the seed. Each request names one
    rule's subject, action and resource, so no other rule's target can
    match; its expected decision follows from that rule's effect and
    the request case.
    """
    rng = random.Random(seed)
    triples = [
        (s, a, r)
        for s in range(subjects)
        for a in range(WIDE_ACTIONS)
        for r in range(WIDE_RESOURCES)
    ]
    n = len(triples)
    kinds = ["true", "one", "two"] * (n // 3) + ["two"] * (n % 3)
    rng.shuffle(kinds)
    effects = ["permit", "deny"] * (n // 2) + ["permit"] * (n % 2)
    rng.shuffle(effects)
    rules = {t: (kinds[i], effects[i]) for i, t in enumerate(triples)}

    sets = []
    for ci, set_combiner in enumerate(COMBINERS):
        policies = []
        for s in range(ci, subjects, len(COMBINERS)):
            rule_texts = []
            for a in range(WIDE_ACTIONS):
                for r in range(WIDE_RESOURCES):
                    kind, effect = rules[(s, a, r)]
                    rule_texts.append(
                        f"rule R_s{s}_a{a}_r{r} {{\n"
                        f"  effect: {effect};\n"
                        f"  target: subject(sub{s}) /\\ action(act{a}) /\\ resource(res{r});\n"
                        f"  condition: {_condition(kind, r)};\n"
                        f"}}"
                    )
            combiner = COMBINERS[(s + ci) % len(COMBINERS)]
            policies.append(
                f"policy P_s{s} {{\n"
                f"  target: subject(sub{s});\n"
                f"  combiner: {combiner};\n"
                f"  rules: [\n{_block(rule_texts, '    ')}\n  ];\n"
                f"}}"
            )
        sets.append(
            f"policyset PS_{ci} {{\n"
            f"  target: null;\n"
            f"  combiner: {set_combiner};\n"
            f"  children: [\n{_block(policies, '    ')}\n  ];\n"
            f"}}"
        )
    policy_text = (
        "# Generated wide policy: distinct rule targets, at most one\n"
        "# applicable rule per request.\n"
        "policyset PS_root {\n"
        "  target: null;\n"
        "  combiner: d-o;\n"
        f"  children: [\n{_block(sets, '    ')}\n  ];\n"
        "}\n"
    )

    join_triples = [t for t in triples if rules[t][0] != "true"]
    plan = [case for case, count in cases for _ in range(count)]
    rng.shuffle(plan)
    request_texts = []
    expected = []
    target_errors = 0
    for i, case in enumerate(plan):
        pool = triples if case in ("match", "target_error") else join_triples
        triple = pool[rng.randrange(len(pool))]
        kind, effect = rules[triple]
        request_texts.append(_wide_request(i, triple, kind, case, target_errors % 3))
        if case == "target_error":
            target_errors += 1
        if case == "match":
            expected.append("Permit" if effect == "permit" else "Deny")
        elif case == "nomatch":
            expected.append("NotApplicable")
        else:
            expected.append("Indeterminate{P}" if effect == "permit" else "Indeterminate{D}")
    return Workload("wide_policy", policy_text, request_texts, expected)


def _wide_request(i, triple, kind, case, error_slot) -> str:
    """One request for the rule at ``triple``.

    A request has five constants: its subject, action and resource, a
    badge holder ``e`` and the holder's delegate ``f``. The one-variable
    join holds when ``e`` is assigned the resource, the two-variable
    join when ``f`` is; the request assigns it to exactly one of them,
    so the two join kinds fail on each other's facts. A target error
    marks the subject, action or resource fact (``error_slot`` 0, 1 or
    2) as erroneous; the batch cycles through the three, so the mix is
    the same for every seed.
    """
    s, a, r = triple
    emp, dele = f"e{i}", f"f{i}"
    holder = emp if (kind == "two") == (case != "match") else dele
    facts = [
        f"subject(sub{s})",
        f"action(act{a})",
        f"resource(res{r})",
        f"badge({emp})",
        f"delegate({emp},{dele})",
        f"assigned({holder},res{r})",
    ]
    errors = []
    if case == "target_error":
        errors.append(facts.pop(error_slot))
    elif case == "cond_error":
        # The fact the condition needs turns erroneous; the other holder
        # keeps the assignment so the constants stay the same.
        errors.append(f"assigned({dele if kind == 'two' else emp},res{r})")
    items = facts + [f"error:{e}" for e in errors]
    return "{ " + ", ".join(items) + " }\n"


# -- fact_heavy ------------------------------------------------------------

HOSPITAL_POLICY = """\
policyset PS_patient {
  target: null;
  combiner: p-o;
  children: [
    policy P_patient_record {
      target: null;
      combiner: d-o;
      rules: [
        rule RP1 {
          effect: permit;
          target: subject(patient) /\\ action(read) /\\ resource(patient_record);
          condition: patient(id,X) /\\ patient_record(id,Y) /\\ (X = Y \\/ (age(Y) < 18 /\\ guardian(X,Y)));
        },
        rule RP2 {
          effect: permit;
          target: subject(patient) /\\ action(write) /\\ resource(patient_survey);
          condition: patient(id,X) /\\ patient_survey(id,X);
        },
        rule RP3 {
          effect: permit;
          target: (subject(doctor) \\/ subject(nurse)) /\\ action(read) /\\ resource(patient_record);
          condition: true;
        }
      ];
    },
    policy P_medical_record {
      target: null;
      combiner: d-o;
      rules: [
        rule RM1 {
          effect: permit;
          target: subject(doctor) /\\ action(write) /\\ resource(medical_record);
          condition: doctor(id,X) /\\ patient(id,Y) /\\ medical_record(id,Y) /\\ patient_doctor(Y,X);
        },
        rule RM2 {
          effect: deny;
          target: subject(doctor) /\\ action(write) /\\ resource(medical_record);
          condition: doctor(id,X) /\\ patient(id,Y) /\\ medical_record(id,Y) /\\ not patient_doctor(Y,X);
        }
      ];
    },
    policy P_referrals {
      target: null;
      combiner: f-a;
      rules: [
        rule RX1 {
          effect: permit;
          target: null;
          condition: doctor(id,X) /\\ patient(id,Y) /\\ referral(X,Y,Z);
        },
        rule RX2 {
          effect: deny;
          target: null;
          condition: doctor(id,X) /\\ (suspended(X) \\/ revoked(X,W));
        }
      ];
    }
  ];
}
"""

# The hospital request shapes with their hand-written answers. The two
# referral rules never hold on these requests (no referral, suspended or
# revoked facts), so they add condition work without changing a decision.
HOSPITAL_SHAPES = (
    (
        ["subject(doctor)", "action(read)", "resource(patient_record)",
         "doctor(id,d)", "patient(id,p)", "patient_record(id,p)"],
        [],
        "Permit",
    ),
    (
        ["subject(doctor)", "action(write)", "resource(medical_record)",
         "doctor(id,d)", "patient(id,p)", "medical_record(id,p)"],
        [],
        "Deny",
    ),
    (
        ["subject(doctor)", "action(write)", "resource(medical_record)",
         "doctor(id,d)", "patient(id,p)", "medical_record(id,p)", "patient_doctor(p,d)"],
        [],
        "Permit",
    ),
    (
        ["action(read)", "resource(patient_record)"],
        ["subject(doctor)"],
        "Indeterminate{P}",
    ),
    (
        ["subject(patient)", "action(read)", "resource(patient_record)",
         "patient(id,p)", "patient_record(id,p)"],
        [],
        "Permit",
    ),
    (
        ["subject(patient)", "action(read)", "resource(patient_record)",
         "patient(id,g)", "patient_record(id,c)", "age(c,12)", "guardian(g,c)"],
        [],
        "Permit",
    ),
    (
        ["subject(patient)", "action(read)", "resource(patient_record)",
         "patient(id,a)", "patient_record(id,b)", "age(b,40)", "guardian(a,b)"],
        [],
        "NotApplicable",
    ),
)

# Predicates no rule names: facts over them add constants to a request
# but cannot change its decision.
PAD_PREDICATES = ("visit", "billing", "shift", "ward_log", "device", "badge_scan")

# Padding sizes; every shape appears once with each. Each padding fact
# brings one new constant.
FACT_PADS = (0, 4, 8, 12, 16, 20, 24)


def fact_heavy(seed: int, pads: tuple[int, ...] = FACT_PADS) -> Workload:
    """Every hospital shape once with every padding size, in a seeded
    order, with seeded padding facts. The mix of shapes and sizes is the
    same for every seed, so the cost of a batch is too."""
    rng = random.Random(seed)
    batch = [(shape, size) for shape in HOSPITAL_SHAPES for size in pads]
    rng.shuffle(batch)
    used: set[str] = set()
    request_texts = []
    expected = []
    for (facts, errors, decision), size in batch:
        padding = []
        for _ in range(size):
            const = _fresh_constant(rng, used)
            padding.append(f"{rng.choice(PAD_PREDICATES)}({const})")
        items = facts + padding + [f"error:{e}" for e in errors]
        request_texts.append("{ " + ", ".join(items) + " }\n")
        expected.append(decision)
    return Workload("fact_heavy", HOSPITAL_POLICY, request_texts, expected)


def _fresh_constant(rng: random.Random, used: set[str]) -> str:
    while True:
        const = rng.choice(string.ascii_lowercase) + "".join(
            rng.choice(string.ascii_lowercase + string.digits) for _ in range(5)
        )
        if const not in used:
            used.add(const)
            return const
