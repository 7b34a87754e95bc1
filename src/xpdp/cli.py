"""Command-line front end.

Subcommands::

    xpdp eval --policy FILE --request FILE [--trace] [--format text|structured]
    xpdp check-equivalence [--algorithm p-o|d-o|f-a|o-1-a|all] [--max-len N]
    xpdp compare DECISION DECISION
    xpdp lattice --name NAME [--out FILE]

Exit codes: 0 permit, 1 deny, 2 not applicable, 3 indeterminate,
64 usage error, 65 unreadable or unparseable data, 70 an exhaustive
check found a counterexample, 71 an internal error (an exception no
handler expected; a one-line ``xpdp: internal error: ...`` diagnostic,
never a traceback). Input that is not UTF-8, a policy node using
``all-permit`` (defined only under the pair encoding), a number too
long to convert and nesting deeper than ``textio.MAX_NESTING`` are all
data errors: exit 65 with a one-line diagnostic naming the input.
``check-equivalence --max-len`` above ``MAX_EQUIVALENCE_LENGTH`` is a
usage error: the check enumerates 6^N sequences per length N. Results
go to stdout, diagnostics to stderr. Structured output is one JSON
object per line with a fixed key order. A reader that closes stdout
early (``xpdp eval ... | head -1``) ends the output, not the command:
the rest is dropped, stderr stays empty and the exit code is the one
the command computes (for ``eval``, the decision's).
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import sys
from pathlib import Path
from typing import Sequence

from .altlogics import compare_logics
from .combiners import (
    STANDARD_COMBINERS,
    CombinerId,
    EquivalenceReport,
    check_equivalence,
)
from .decisions import Decision6
from .errors import InvalidInputError, PolicyEngineError, UnknownLatticeError
from .policy import evaluate
from .textio import LATTICE_NAMES, emit_lattice_dot, parse_policy, parse_request

EXIT_PERMIT = 0
EXIT_DENY = 1
EXIT_NOT_APPLICABLE = 2
EXIT_INDETERMINATE = 3
EXIT_USAGE = 64
EXIT_DATA = 65
EXIT_CHECK_FAILED = 70
EXIT_INTERNAL = 71

# Longest sequences check-equivalence enumerates. Time grows about six
# times per step: 0.27 s at 5, 1.96 s at 6, 12 s at 7, so about 72 s at 8.
MAX_EQUIVALENCE_LENGTH = 8

_DECISION_EXIT = {
    Decision6.PERMIT: EXIT_PERMIT,
    Decision6.DENY: EXIT_DENY,
    Decision6.NOT_APPLICABLE: EXIT_NOT_APPLICABLE,
    Decision6.INDET_P: EXIT_INDETERMINATE,
    Decision6.INDET_D: EXIT_INDETERMINATE,
    Decision6.INDET_DP: EXIT_INDETERMINATE,
}


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # exit 64 instead of argparse's default 2
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="xpdp", description="Policy decision engine")
    sub = parser.add_subparsers(dest="command", required=True)

    p_eval = sub.add_parser("eval", help="evaluate a request against a policy")
    p_eval.add_argument("--policy", required=True, help="policy file (.pol)")
    p_eval.add_argument("--request", required=True, help="request file (.req)")
    p_eval.add_argument("--trace", action="store_true", help="show the evaluation trace")
    p_eval.add_argument("--format", choices=("text", "structured"), default="text")

    p_check = sub.add_parser(
        "check-equivalence",
        help="exhaustively compare both encodings of the combining algorithms",
    )
    p_check.add_argument(
        "--algorithm",
        choices=(*(combiner.token for combiner in STANDARD_COMBINERS), "all"),
        default="all",
    )
    p_check.add_argument(
        "--max-len",
        type=int,
        default=5,
        help=f"longest sequence length, 0 to {MAX_EQUIVALENCE_LENGTH}",
    )
    p_check.add_argument("--format", choices=("text", "structured"), default="text")

    p_compare = sub.add_parser(
        "compare", help="combine two decisions with permit-overrides under every logic"
    )
    p_compare.add_argument("left", help='decision name, e.g. "Indeterminate{P}"')
    p_compare.add_argument("right", help='decision name, e.g. "Deny"')
    p_compare.add_argument("--format", choices=("text", "structured"), default="text")

    p_lattice = sub.add_parser("lattice", help="export a lattice as a DOT Hasse diagram")
    p_lattice.add_argument("--name", required=True, help=", ".join(LATTICE_NAMES))
    p_lattice.add_argument("--out", help="output file; stdout when omitted or '-'")

    return parser


def _print(text: str = "", end: str = "\n", flush: bool = False) -> None:
    """``print`` to stdout. Once the reader has closed the pipe, fd 1 is
    pointed at ``os.devnull``, as the Python docs' note on SIGPIPE
    shows, so the rest of the output and the flush at exit are dropped
    there and the command runs on to its exit code."""
    try:
        print(text, end=end, flush=flush)
    except BrokenPipeError:
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())


def _read_input(option: str, path: str) -> str | None:
    """The text of an input file, or None after a diagnostic naming
    the option and the path."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        print(f"xpdp: cannot read input: {option} {path}: {exc}", file=sys.stderr)
        return None


def _cmd_eval(args) -> int:
    policy_text = _read_input("--policy", args.policy)
    if policy_text is None:
        return EXIT_DATA
    request_text = _read_input("--request", args.request)
    if request_text is None:
        return EXIT_DATA
    try:
        node = parse_policy(policy_text)
        request = parse_request(request_text)
    except PolicyEngineError as exc:
        print(f"xpdp: {exc}", file=sys.stderr)
        return EXIT_DATA
    decision, trace = evaluate(node, request, with_trace=args.trace)
    if args.format == "structured":
        obj = {"decision": decision.canonical}
        if trace is not None:
            obj["trace"] = trace.to_obj()
        _print(json.dumps(obj))
    else:
        _print(decision.canonical)
        if trace is not None:
            for line in trace.lines():
                _print(line)
    return _DECISION_EXIT[decision]


def _report_obj(report: EquivalenceReport) -> dict:
    obj = {
        "algorithm": report.algorithm.token,
        "max_length": report.max_length,
        "sequences_checked": report.sequences_checked,
        "counterexamples": len(report.counterexamples),
    }
    if report.counterexamples:
        first = report.counterexamples[0]
        obj["first_counterexample"] = {
            "decisions": [d.canonical for d in first.decisions],
            "v6": first.v6_result.canonical,
            "pair": str(first.pair_result),
        }
    return obj


def _report_lines(obj: dict) -> list[str]:
    """The text form of a report's ``_report_obj``."""
    lines = [
        f"{obj['algorithm']}: {obj['sequences_checked']} sequences "
        f"(length <= {obj['max_length']}), {obj['counterexamples']} counterexamples"
    ]
    first = obj.get("first_counterexample")
    if first is not None:
        lines.append(
            f"  first counterexample: <{', '.join(first['decisions'])}> "
            f"v6={first['v6']} pair={first['pair']}"
        )
    return lines


def _cmd_check_equivalence(args) -> int:
    if args.max_len < 0:
        print("xpdp: error: --max-len must be >= 0", file=sys.stderr)
        return EXIT_USAGE
    if args.max_len > MAX_EQUIVALENCE_LENGTH:
        print(
            f"xpdp: error: --max-len must be <= {MAX_EQUIVALENCE_LENGTH}",
            file=sys.stderr,
        )
        return EXIT_USAGE
    if args.algorithm == "all":
        algorithms = STANDARD_COMBINERS
    else:
        algorithms = (CombinerId.from_token(args.algorithm),)
    failed = False
    for algorithm in algorithms:
        report = check_equivalence(algorithm, args.max_len)
        obj = _report_obj(report)
        _print(json.dumps(obj) if args.format == "structured" else "\n".join(_report_lines(obj)))
        failed = failed or not report.ok
    return EXIT_CHECK_FAILED if failed else 0


def _cmd_compare(args) -> int:
    try:
        left = Decision6.from_canonical(args.left)
        right = Decision6.from_canonical(args.right)
    except InvalidInputError as exc:
        print(f"xpdp: error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    row = compare_logics((left, right))
    obj = {
        "algorithm": CombinerId.PERMIT_OVERRIDES.token,
        "inputs": [left.canonical, right.canonical],
        "v6": row.v6_result.canonical,
        "pair": str(row.pair_result),
        "belnap": row.belnap_result.token,
        "dalg": str(row.dalg_result),
        "pair_agrees": row.pair_agrees,
        "belnap_agrees": row.belnap_agrees,
        "dalg_agrees": row.dalg_agrees,
    }
    if args.format == "structured":
        _print(json.dumps(obj))
        return 0
    _print(f"permit-overrides of {', '.join(obj['inputs'])}")
    _print(f"  {'V6 (standard):':15}{obj['v6']}")
    for key, label in (("pair", "pair:"), ("belnap", "Belnap:"), ("dalg", "D-algebra:")):
        verdict = "agrees" if obj[key + "_agrees"] else "DIVERGES from standard"
        _print(f"  {label:15}{obj[key]}  ({verdict})")
    return 0


def _cmd_lattice(args) -> int:
    try:
        dot = emit_lattice_dot(args.name)
    except UnknownLatticeError as exc:
        print(f"xpdp: error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    if args.out and args.out != "-":
        try:
            Path(args.out).write_text(dot, encoding="utf-8")
        except OSError as exc:
            print(f"xpdp: cannot write output: {exc}", file=sys.stderr)
            return EXIT_DATA
    else:
        _print(dot, end="")
    return 0


_HANDLERS = {
    "eval": _cmd_eval,
    "check-equivalence": _cmd_check_equivalence,
    "compare": _cmd_compare,
    "lattice": _cmd_lattice,
}


def main(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 0
    try:
        code = _HANDLERS[args.command](args)
        _print(end="", flush=True)  # a closed pipe shows here, not at exit
        return code
    except Exception as exc:  # the last resort: one line, never a traceback
        print(f"xpdp: internal error: {exc!r}", file=sys.stderr)
        return EXIT_INTERNAL


def run() -> None:
    code = main()
    # Exit-time collections skip frozen objects: what the imports built is
    # left to the operating system instead of being traversed and freed.
    gc.freeze()
    sys.exit(code)
