"""Command-line behaviour: output, exit codes, failure paths."""

import io
import json
import os
import re
import subprocess
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import xpdp.cli
from documents import benchmark_workloads
from test_cli_recorded import DATA as RECORDED, runs as recorded_runs
from xpdp import STANDARD_COMBINERS, CombinerId, PairValue, ZERO
from xpdp.cli import (
    EXIT_CHECK_FAILED,
    EXIT_DATA,
    EXIT_DENY,
    EXIT_INDETERMINATE,
    EXIT_INTERNAL,
    EXIT_NOT_APPLICABLE,
    EXIT_PERMIT,
    EXIT_USAGE,
    MAX_EQUIVALENCE_LENGTH,
    main,
)
from xpdp.textio import MAX_NESTING

SAMPLES = Path(__file__).resolve().parent.parent / "samples"
POLICY = str(SAMPLES / "patient_policy.pol")
READ_REQ = str(SAMPLES / "request_doctor_read.req")
WRITE_REQ = str(SAMPLES / "request_doctor_write.req")


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestEval:
    def test_permit(self, capsys):
        code, out, err = run(capsys, "eval", "--policy", POLICY, "--request", READ_REQ)
        assert code == EXIT_PERMIT
        assert out == "Permit\n"
        assert err == ""

    def test_deny(self, capsys):
        code, out, _ = run(capsys, "eval", "--policy", POLICY, "--request", WRITE_REQ)
        assert code == EXIT_DENY
        assert out == "Deny\n"

    def test_not_applicable(self, capsys, tmp_path):
        req = tmp_path / "other.req"
        req.write_text("{ subject(visitor), action(sleep) }\n")
        code, out, _ = run(capsys, "eval", "--policy", POLICY, "--request", str(req))
        assert code == EXIT_NOT_APPLICABLE
        assert out == "NotApplicable\n"

    def test_indeterminate(self, capsys, tmp_path):
        req = tmp_path / "errored.req"
        req.write_text(
            "{ action(read), resource(patient_record), error:subject(doctor) }\n"
        )
        code, out, _ = run(capsys, "eval", "--policy", POLICY, "--request", str(req))
        assert code == EXIT_INDETERMINATE
        assert out == "Indeterminate{P}\n"

    def test_trace(self, capsys):
        code, out, _ = run(
            capsys, "eval", "--policy", POLICY, "--request", WRITE_REQ, "--trace"
        )
        assert code == EXIT_DENY
        lines = out.splitlines()
        assert lines[0] == "Deny"
        assert len(lines) == 9
        assert any("rule RM2" in line and "result=Deny" in line for line in lines)

    def test_trace_marks_skipped_conditions(self, capsys):
        code, out, _ = run(
            capsys, "eval", "--policy", POLICY, "--request", WRITE_REQ, "--trace"
        )
        assert code == EXIT_DENY
        rp1 = next(line for line in out.splitlines() if "rule RP1:" in line)
        assert "skipped=target" in rp1
        assert "condition=" not in rp1
        code, out, _ = run(
            capsys,
            "eval", "--policy", POLICY, "--request", WRITE_REQ,
            "--trace", "--format", "structured",
        )
        rp1 = json.loads(out)["trace"]["children"][0]["children"][0]
        assert rp1["name"] == "RP1"
        assert rp1["skipped"] == "target"

    def test_structured(self, capsys):
        code, out, _ = run(
            capsys,
            "eval", "--policy", POLICY, "--request", READ_REQ,
            "--trace", "--format", "structured",
        )
        assert code == EXIT_PERMIT
        obj = json.loads(out)
        assert obj["decision"] == "Permit"
        assert obj["trace"]["kind"] == "policyset"

    def test_missing_file(self, capsys):
        code, out, err = run(capsys, "eval", "--policy", POLICY, "--request", "no_such.req")
        assert code == EXIT_DATA
        assert out == ""
        assert "no_such.req" in err

    def test_parse_error(self, capsys, tmp_path):
        bad = tmp_path / "bad.pol"
        bad.write_text("policy P {")
        code, out, err = run(capsys, "eval", "--policy", str(bad), "--request", READ_REQ)
        assert code == EXIT_DATA
        assert out == ""
        assert err.startswith("xpdp:")

    def test_parse_error_names_punctuation(self, capsys, tmp_path):
        req = tmp_path / "missing_brace.req"
        req.write_text("{ subject(a) action(b) }")
        code, out, err = run(capsys, "eval", "--policy", POLICY, "--request", str(req))
        assert (code, out) == (EXIT_DATA, "")
        assert err == "xpdp: 1:14: expected '}', found 'action'\n"

    def test_non_utf8_request(self, capsys, tmp_path):
        req = tmp_path / "latin1.req"
        req.write_bytes(b"{ subject(doctor), action(read) \xff }\n")
        code, out, err = run(capsys, "eval", "--policy", POLICY, "--request", str(req))
        assert (code, out) == (EXIT_DATA, "")
        assert err.startswith("xpdp: cannot read input:")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("option", ["--policy", "--request"])
    def test_non_utf8_input_names_option_and_path(self, capsys, tmp_path, option):
        bad = tmp_path / "latin1.txt"
        bad.write_bytes(b"{ subject(doctor) \xff }\n")
        inputs = {"--policy": POLICY, "--request": READ_REQ, option: str(bad)}
        code, out, err = run(capsys, "eval", *(x for kv in inputs.items() for x in kv))
        assert (code, out) == (EXIT_DATA, "")
        assert err.startswith(f"xpdp: cannot read input: {option} {bad}: ")
        assert err.count("\n") == 1

    def test_unknown_combiner_has_location(self, capsys, tmp_path):
        pol = tmp_path / "shuffle.pol"
        pol.write_text(Path(POLICY).read_text().replace("combiner: d-o", "combiner: shuffle", 1))
        code, out, err = run(capsys, "eval", "--policy", str(pol), "--request", READ_REQ)
        assert (code, out) == (EXIT_DATA, "")
        assert re.fullmatch(r"xpdp: \d+:\d+: unknown combining algorithm: 'shuffle'\n", err)

    def test_internal_error_is_one_line(self, capsys, monkeypatch):
        def broken(*args, **kwargs):
            raise RuntimeError("engine fault")

        monkeypatch.setattr(xpdp.cli, "evaluate", broken)
        code, out, err = run(capsys, "eval", "--policy", POLICY, "--request", READ_REQ)
        assert (code, out) == (EXIT_INTERNAL, "")
        assert err == "xpdp: internal error: RuntimeError('engine fault')\n"
        assert EXIT_INTERNAL not in (0, 1, 2, 3, EXIT_USAGE, EXIT_DATA, EXIT_CHECK_FAILED)

    def test_all_permit_policy(self, capsys, tmp_path):
        pol = tmp_path / "all_permit.pol"
        pol.write_text(Path(POLICY).read_text().replace("d-o", "all-permit", 1))
        code, out, err = run(capsys, "eval", "--policy", str(pol), "--request", READ_REQ)
        assert (code, out) == (EXIT_DATA, "")
        assert "all-permit" in err
        assert err.count("\n") == 1

    def test_over_long_number(self, capsys, tmp_path):
        req = tmp_path / "big.req"
        req.write_text("{ subject(doctor), n(" + "9" * 5000 + ") }")
        code, out, err = run(capsys, "eval", "--policy", POLICY, "--request", str(req))
        assert (code, out) == (EXIT_DATA, "")
        assert "too long" in err
        assert err.count("\n") == 1

    def test_over_deep_policy_set(self, capsys, tmp_path):
        pol = tmp_path / "deep.pol"
        head = "policyset S { target: null; combiner: p-o; children: [ "
        pol.write_text(head * 2000 + " ]; }" * 2000)
        code, out, err = run(capsys, "eval", "--policy", str(pol), "--request", READ_REQ)
        assert (code, out) == (EXIT_DATA, "")
        assert "nesting deeper than" in err
        assert err.count("\n") == 1

    def test_missing_flag_is_usage_error(self, capsys):
        code, _, _ = run(capsys, "eval", "--policy", POLICY)
        assert code == EXIT_USAGE


class TestCheckEquivalence:
    def test_single_algorithm_zero_length(self, capsys):
        code, out, _ = run(capsys, "check-equivalence", "--algorithm", "p-o", "--max-len", "0")
        assert code == 0
        assert "p-o: 1 sequences (length <= 0), 0 counterexamples" in out

    @pytest.mark.parametrize("combiner", STANDARD_COMBINERS, ids=lambda c: c.token)
    def test_every_standard_algorithm(self, capsys, combiner):
        code, out, _ = run(
            capsys, "check-equivalence", "--algorithm", combiner.token, "--max-len", "2"
        )
        assert code == 0
        assert out == f"{combiner.token}: 43 sequences (length <= 2), 0 counterexamples\n"

    def test_all_default_length(self, capsys):
        code, out, _ = run(capsys, "check-equivalence")
        assert code == 0
        lines = out.strip().splitlines()
        assert len(lines) == 4
        assert all("9331 sequences" in line for line in lines)
        assert all("0 counterexamples" in line for line in lines)

    def test_structured(self, capsys):
        code, out, _ = run(
            capsys, "check-equivalence", "--algorithm", "f-a", "--max-len", "2",
            "--format", "structured",
        )
        assert code == 0
        obj = json.loads(out)
        assert obj == {
            "algorithm": "f-a",
            "max_length": 2,
            "sequences_checked": 43,
            "counterexamples": 0,
        }

    def test_unknown_algorithm(self, capsys):
        code, _, err = run(capsys, "check-equivalence", "--algorithm", "x-o")
        assert code == EXIT_USAGE
        assert "x-o" in err

    def test_negative_length(self, capsys):
        code, _, err = run(capsys, "check-equivalence", "--max-len", "-1")
        assert code == EXIT_USAGE
        assert "max-len" in err

    def test_length_above_bound(self, capsys):
        too_long = str(MAX_EQUIVALENCE_LENGTH + 1)
        code, out, err = run(capsys, "check-equivalence", "--max-len", too_long)
        assert (code, out) == (EXIT_USAGE, "")
        assert err == f"xpdp: error: --max-len must be <= {MAX_EQUIVALENCE_LENGTH}\n"

    def test_mutated_combiner_is_caught(self, capsys, monkeypatch):
        # A deliberately broken pair-side implementation must surface as
        # a counterexample and exit 70.
        import xpdp.combiners as combiners

        monkeypatch.setitem(
            combiners._PAIR_COMBINERS,
            CombinerId.PERMIT_OVERRIDES,
            lambda values: PairValue(ZERO, ZERO),
        )
        code, out, _ = run(
            capsys, "check-equivalence", "--algorithm", "p-o", "--max-len", "1"
        )
        assert code == EXIT_CHECK_FAILED
        assert "first counterexample" in out


class TestCompare:
    def test_divergent_pair(self, capsys):
        code, out, _ = run(capsys, "compare", "Indeterminate{P}", "Deny")
        assert code == 0
        assert "Indeterminate{DP}" in out
        assert "[1/2,1/2]" in out
        assert "ff" in out
        assert "{p,d}" in out
        assert out.count("DIVERGES") == 2

    def test_agreement(self, capsys):
        code, out, _ = run(capsys, "compare", "Permit", "NotApplicable")
        assert code == 0
        assert "DIVERGES" not in out

    def test_structured(self, capsys):
        code, out, _ = run(
            capsys, "compare", "Indeterminate{P}", "Deny", "--format", "structured"
        )
        assert code == 0
        obj = json.loads(out)
        assert obj["v6"] == "Indeterminate{DP}"
        assert obj["pair"] == "[1/2,1/2]"
        assert obj["belnap"] == "ff"
        assert obj["dalg"] == "{p,d}"
        assert obj["belnap_agrees"] is False
        assert obj["dalg_agrees"] is False
        assert obj["pair_agrees"] is True

    def test_unknown_decision(self, capsys):
        code, _, err = run(capsys, "compare", "Bogus", "Deny")
        assert code == EXIT_USAGE
        assert "Bogus" in err


class TestLattice:
    def test_stdout(self, capsys):
        code, out, _ = run(capsys, "lattice", "--name", "pair9")
        assert code == 0
        assert out.startswith('digraph "pair9"')
        assert out.count("->") == 12

    def test_file_output(self, capsys, tmp_path):
        out_path = tmp_path / "po.dot"
        code, out, _ = run(capsys, "lattice", "--name", "po", "--out", str(out_path))
        assert code == 0
        assert out == ""
        assert out_path.read_text().startswith('digraph "po"')

    def test_unwritable_output(self, capsys, tmp_path):
        out_path = tmp_path / "missing" / "po.dot"
        code, out, err = run(capsys, "lattice", "--name", "po", "--out", str(out_path))
        assert (code, out) == (EXIT_DATA, "")
        assert err.startswith("xpdp: cannot write output: ") and err.count("\n") == 1

    def test_unknown(self, capsys):
        code, _, err = run(capsys, "lattice", "--name", "nope")
        assert code == EXIT_USAGE
        assert "nope" in err


def child_env() -> dict[str, str]:
    """The environment of a child process that imports this ``xpdp``."""
    return dict(os.environ, PYTHONPATH=str(Path(xpdp.cli.__file__).resolve().parent.parent))


def run_process(*argv: str) -> tuple[int, bytes, bytes]:
    """Exit code, stdout and stderr of ``python -m xpdp *argv``."""
    proc = subprocess.run([sys.executable, "-m", "xpdp", *argv], capture_output=True,
                          env=child_env(), timeout=60)
    return proc.returncode, proc.stdout, proc.stderr


def first_line_then_close(*argv: str) -> tuple[bytes, int, bytes]:
    """Run ``xpdp *argv`` in its own process, read one line of its stdout
    and close the pipe, as ``| head -1`` does. Returns that line, the
    exit code and everything written to stderr."""
    proc = subprocess.Popen(
        [sys.executable, "-m", "xpdp", *argv], stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        env=child_env(),
    )
    first = proc.stdout.readline()
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    return first, proc.wait(), err


class TestEarlyReader:
    """A reader that closes stdout after one line ends the output, not
    the command: the exit code is the one the command computes, and
    stderr stays empty."""

    def test_trace_longer_than_a_pipe_holds(self, capsys, tmp_path):
        rules = ",\n".join(
            f"rule r{k} {{ effect: permit; target: subject(s{k}); condition: true; }}"
            for k in range(3000)
        )
        pol = tmp_path / "wide.pol"
        pol.write_text(f"policy P {{ target: null; combiner: d-o; rules: [\n{rules}\n]; }}\n")
        req = tmp_path / "errored.req"
        req.write_text("{ action(read), error:subject(s2999) }\n")
        argv = ("eval", "--policy", str(pol), "--request", str(req), "--trace")
        code, out, _ = run(capsys, *argv)
        # Far more than a pipe buffers (64 KiB on Linux), so the process
        # is still writing when the pipe closes.
        assert code == EXIT_INDETERMINATE and len(out) > 2 ** 17
        assert first_line_then_close(*argv) == (b"Indeterminate{P}\n", EXIT_INDETERMINATE, b"")

    def test_wide_policy_trace(self, tmp_path):
        workload = benchmark_workloads().wide_policy(7)
        case = next(i for i, d in enumerate(workload.expected) if d.startswith("Indeterminate"))
        pol = tmp_path / "wide.pol"
        pol.write_text(workload.policy_text)
        req = tmp_path / "case.req"
        req.write_text(workload.request_texts[case])
        first, code, err = first_line_then_close(
            "eval", "--policy", str(pol), "--request", str(req), "--trace"
        )
        assert (first.decode(), code, err) == (workload.expected[case] + "\n", 3, b"")

    def test_check_equivalence(self):
        first, code, err = first_line_then_close("check-equivalence", "--max-len", "3")
        assert (first, code, err) == (b"p-o: 259 sequences (length <= 3), 0 counterexamples\n",
                                      0, b"")


class TestProcess:
    """``python -m xpdp`` as its own process: the entry point ``run()``
    adds only the exit and its freeze, so each run matches ``main()``
    in process."""

    @pytest.mark.parametrize("name, argv", [
        pytest.param(name, argv, id=name) for name, argv, _ in recorded_runs()
        if name.startswith("eval --trace") or name == "lattice nosuch"
    ])
    def test_matches_the_recording(self, name, argv):
        code, out, err = run_process(*argv)
        recorded = json.loads(RECORDED.read_text(encoding="utf-8"))[name]
        assert [code, out.decode("utf-8"), err.decode("utf-8")] == recorded

    @pytest.mark.parametrize("option, data", [
        ("--request", b"{ subject(doctor), action(read) \xff }\n"),
        ("--request", b"{ subject(doctor), n(" + b"9" * 5000 + b") }"),
        ("--policy", b"policyset S { target: null; combiner: p-o; children: [ "
         * (MAX_NESTING + 1) + b" ]; }" * (MAX_NESTING + 1)),
    ], ids=["non-utf8", "long-number", "deep-nesting"])
    def test_data_error_is_one_line(self, capsys, tmp_path, option, data):
        bad = tmp_path / "bad.txt"
        bad.write_bytes(data)
        inputs = {"--policy": POLICY, "--request": READ_REQ, option: str(bad)}
        argv = ("eval", *(x for kv in inputs.items() for x in kv))
        code, out, err = run_process(*argv)
        assert (code, out, err.count(b"\n"), err[:6]) == (EXIT_DATA, b"", 1, b"xpdp: ")
        assert (code, out.decode(), err.decode()) == run(capsys, *argv)

    def test_exit_freezes_the_collector(self):
        # Freezing leaves the imports' objects to the operating system at
        # exit; only timing shows it otherwise. atexit hooks still run.
        hook = (
            "import atexit, gc, sys, xpdp.cli\n"
            "atexit.register(lambda: print(gc.get_freeze_count(), file=sys.stderr))\n"
            "sys.argv[1:] = ['eval', '--policy', sys.argv[1], '--request', sys.argv[2]]\n"
            "xpdp.cli.run()\n"
        )
        proc = subprocess.run([sys.executable, "-c", hook, POLICY, READ_REQ],
                              capture_output=True, env=child_env(), timeout=60)
        assert (proc.returncode, proc.stdout) == (EXIT_PERMIT, b"Permit\n")
        assert int(proc.stderr) > 0


class TestUsage:
    def test_no_command(self, capsys):
        assert run(capsys, )[0] == EXIT_USAGE

    def test_unknown_command(self, capsys):
        assert run(capsys, "frobnicate")[0] == EXIT_USAGE


def _mutations(sample: bytes):
    """``sample`` with a few bytes overwritten, mostly by DSL punctuation
    and letters so that some mutants still parse, and maybe truncated."""
    values = st.one_of(st.sampled_from(b"(),;:{}[]/\\ aXY1-"), st.integers(0, 255))
    edits = st.lists(st.tuples(st.integers(0, len(sample) - 1), values), max_size=4)
    ends = st.one_of(st.none(), st.integers(0, len(sample)))

    def apply(args):
        changes, end = args
        data = bytearray(sample)
        for index, value in changes:
            data[index] = value
        return bytes(data[:end])

    return st.tuples(edits, ends).map(apply)


_SAMPLE_POLICY = Path(POLICY).read_bytes()
_SAMPLE_REQUESTS = [p.read_bytes() for p in sorted(SAMPLES.glob("*.req"))]
_policy_inputs = st.one_of(st.binary(max_size=200), _mutations(_SAMPLE_POLICY))
_request_inputs = st.one_of(st.binary(max_size=80), *map(_mutations, _SAMPLE_REQUESTS))
# Fuzz one file against an intact sample, or both at once.
_eval_inputs = st.one_of(
    st.tuples(_policy_inputs, st.sampled_from(_SAMPLE_REQUESTS)),
    st.tuples(st.just(_SAMPLE_POLICY), _request_inputs),
    st.tuples(_policy_inputs, _request_inputs),
)
_CLI_EXIT_CODES = {
    EXIT_PERMIT, EXIT_DENY, EXIT_NOT_APPLICABLE, EXIT_INDETERMINATE, EXIT_USAGE, EXIT_DATA,
}


class TestEvalFuzz:
    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(_eval_inputs, st.booleans())
    def test_any_bytes_give_a_documented_exit_code(self, inputs, trace):
        policy, request = inputs
        with tempfile.TemporaryDirectory() as tmp:
            pol, req = Path(tmp, "p.pol"), Path(tmp, "r.req")
            pol.write_bytes(policy)
            req.write_bytes(request)
            argv = ["eval", "--policy", str(pol), "--request", str(req)]
            out, err = io.StringIO(), io.StringIO()
            with redirect_stdout(out), redirect_stderr(err):
                code = main(argv + ["--trace"] * trace)
        assert code in _CLI_EXIT_CODES
        if code == EXIT_DATA:
            assert out.getvalue() == ""
            assert err.getvalue().count("\n") == 1
        else:
            assert err.getvalue() == ""
