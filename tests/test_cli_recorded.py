"""The CLI's result forms, byte for byte, against a recording.

``data/cli_outputs.json`` holds the exit code, stdout and stderr of
every run below: ``eval --trace`` on each sample request, every
``check-equivalence`` algorithm at ``--max-len 4`` and one run with a
counterexample, ``compare`` on all 36 decision pairs, and ``lattice``
for every name and one unknown name, each result form in both formats.
Other tests check fragments of these forms; this one pins all of them,
so a change to how a result is rendered must reproduce it exactly.

Record it afresh only for a deliberate change of output, with
``python tests/test_cli_recorded.py``.
"""

from __future__ import annotations

import io
import json
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from unittest import mock

import xpdp.combiners
from xpdp import CombinerId, Decision6, PairValue, ZERO
from xpdp.cli import main
from xpdp.textio import LATTICE_NAMES

HERE = Path(__file__).resolve().parent
DATA = HERE / "data" / "cli_outputs.json"
SAMPLES = HERE.parent / "samples"
FORMATS = ("text", "structured")


def runs():
    """``(name, argv, mutated)`` for every recorded run; a mutated run
    checks equivalence against a pair permit-overrides that always
    answers [0,0], so it finds a counterexample."""
    policy = str(SAMPLES / "patient_policy.pol")
    for request in sorted(SAMPLES.glob("*.req")):
        for fmt in FORMATS:
            yield (f"eval --trace {request.name} {fmt}",
                   ["eval", "--policy", policy, "--request", str(request), "--trace",
                    "--format", fmt], False)
    for algorithm in ("p-o", "d-o", "f-a", "o-1-a", "all"):
        for fmt in FORMATS:
            yield (f"check-equivalence {algorithm} {fmt}",
                   ["check-equivalence", "--algorithm", algorithm, "--max-len", "4",
                    "--format", fmt], False)
    for fmt in FORMATS:
        yield (f"check-equivalence mutated p-o {fmt}",
               ["check-equivalence", "--algorithm", "p-o", "--max-len", "4",
                "--format", fmt], True)
    for left in Decision6:
        for right in Decision6:
            for fmt in FORMATS:
                yield (f"compare {left.canonical} {right.canonical} {fmt}",
                       ["compare", left.canonical, right.canonical, "--format", fmt], False)
    for name in (*LATTICE_NAMES, "nosuch"):
        yield f"lattice {name}", ["lattice", "--name", name], False


def outcome(argv: list[str], mutated: bool) -> list:
    """``[exit code, stdout, stderr]`` of one run of the CLI."""
    out, err = io.StringIO(), io.StringIO()
    broken = {CombinerId.PERMIT_OVERRIDES: lambda values: PairValue(ZERO, ZERO)}
    with mock.patch.dict(xpdp.combiners._PAIR_COMBINERS, broken if mutated else {}):
        with redirect_stdout(out), redirect_stderr(err):
            code = main(argv)
    return [code, out.getvalue(), err.getvalue()]


def record() -> dict[str, list]:
    return {name: outcome(argv, mutated) for name, argv, mutated in runs()}


def test_outputs_match_the_recording():
    recorded = json.loads(DATA.read_text(encoding="utf-8"))
    got = record()
    assert list(got) == list(recorded)
    wrong = [name for name in got if got[name] != recorded[name]]
    assert not wrong, f"{len(wrong)} runs differ; first: {wrong[0]}: {got[wrong[0]]!r}"


def test_recording_covers_every_exit_path():
    codes = {code for code, _, _ in json.loads(DATA.read_text(encoding="utf-8")).values()}
    assert codes == {0, 1, 3, 64, 70}


if __name__ == "__main__":
    DATA.parent.mkdir(exist_ok=True)
    DATA.write_text(
        "{\n" + ",\n".join(
            f"{json.dumps(name)}: {json.dumps(result)}" for name, result in record().items()
        ) + "\n}\n",
        encoding="utf-8",
    )
    sys.exit(0)
