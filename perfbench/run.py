"""The xpdp benchmark: closed-loop decisions over seeded workloads.

Run from the root of a checkout::

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

One process, one client, closed loop: the next request goes out only
after the previous decision returns. The engine is driven only through
its public API (``parse_policy``, ``parse_request``, ``evaluate``,
``EvalTrace.to_obj``) and through the ``python -m xpdp eval`` CLI,
whose processes get the checkout's ``src`` on ``PYTHONPATH``.

``--trace 0`` prints the end-to-end metrics, measured with tracing off.
``--trace 1`` is a separate run that alternates untraced and traced
passes over the same requests and prints the per-layer metrics (see
``tracer.py``); its spans go to ``.perfbench/spans-<workload>.csv.gz``.

Workloads, and the ROADMAP item each exists to judge:

* ``cli_trace`` (item 3: import, parse, ``Decision3``, pair values).
  ``xpdp eval --trace --format structured`` over the three sample
  requests: interpreter start, ``import xpdp`` and trace/JSON rendering
  dominate. Items 4 and 5 predict no change here.
* ``wide_policy`` (item 5: target-gated, indexed evaluation). About
  1 000 rules with distinct targets, at most one applicable per
  request: target matching, the tree walk and conditions evaluated under
  unmatched targets dominate, and ``setup_s`` carries a 200 kB parse.
  Item 4 predicts only the join share of the condition time to move.
* ``fact_heavy`` (item 4: conditions as joins). The hospital policy plus
  a three-variable join and a variable bound only under ``\\/``, with
  requests padded by 0 to 24 irrelevant facts: condition binding
  dominates and the tree is tiny. Item 5 predicts no change here.

Timing: each decision's wall time is scaled to a reference CPU speed
by a calibration loop timed right before and after it
(``speed_factor``). The process pins itself and the children it starts
to one CPU, so the loop and the decision run on the same CPU. The
JSON line carries the scaled figures; the report also prints the
wall-clock ones. ``decisions_per_s`` counts decision time only.
``setup_s`` is the median, over fresh processes, of the time from
spawn until ``xpdp`` is imported and the inputs are parsed.
``failed_ratio`` is printed in the report but is not a JSON metric: it
is 0 on a good run, and any failed decision fails the run.

Every decision is checked against an answer that comes from how the
input was built. The last line of stdout is one JSON object with keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the exit code is
0 only when every decision was right and every metric was measured.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import traceback
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import tracer as tr
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
CLI_CHILD = Path(__file__).resolve().parent / "cli_child.py"

GENERATORS = {
    "cli_trace": lambda seed: workloads.cli_trace(seed, ROOT),
    "wide_policy": workloads.wide_policy,
    "fact_heavy": workloads.fact_heavy,
}

SETUP_RUNS = 7  # fresh processes whose set-up time gives setup_s
PROBE_RUNS = 5  # bare-interpreter and import-time processes
CLI_PROBES = 3  # traced CLI processes on an in-process workload
POLICY_PARSES = 3  # in-process policy parses in a traced run

# What a benchmark process does before its first decision: import the
# package and parse the policy and every request.
SETUP_PROBE = (
    "import sys, xpdp\n"
    "xpdp.parse_policy(open(sys.argv[1], encoding='utf-8').read())\n"
    "for path in sys.argv[2:]:\n"
    "    xpdp.parse_request(open(path, encoding='utf-8').read())\n"
    "print('ready', flush=True)\n"
)

END_TO_END_UNITS = {
    "decisions_per_s": "1/s",
    "decision_p50_ms": "ms",
    "decision_p90_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

PER_LAYER_UNITS = {
    "import.xpdp_ms": "ms",
    "import.altlogics_self_ms": "ms",
    "import.textio_self_ms": "ms",
    "cli.interpreter_ms": "ms",
    "cli.main_ms": "ms",
    "textio.parse_policy_ms": "ms",
    "textio.parse_bytes_per_s": "B/s",
    "textio.parse_request_us": "us",
    "policy.evaluate_ms": "ms",
    "policy.walk_self_ms": "ms",
    "policy.eval_target_calls": "count",
    "policy.eval_target_ms": "ms",
    "policy.rules_evaluated": "count",
    "policy.conditions_wasted_ratio": "ratio",
    "policy.trace_render_ms": "ms",
    "conditions.eval_condition_calls": "count",
    "conditions.eval_condition_ms": "ms",
    "conditions.bindings_tried": "count",
    "conditions.bindings_useful_ratio": "ratio",
    "requests.constants_calls": "count",
    "combiners.combine_calls": "count",
    "combiners.combine_ms": "ms",
    "combiners.inputs_per_call": "count",
    "trace.overhead_ratio": "ratio",
}


class BenchError(Exception):
    """The benchmark could not run; no result is printed."""


@dataclass
class Tally:
    """Decisions attempted and failed."""

    attempted: int = 0
    failed: int = 0
    first_failure: str | None = None

    def add(self, ok: bool, why: str = "") -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if self.first_failure is None:
                self.first_failure = why


# -- CPU speed -----------------------------------------------------------------

# Times are reported at a reference CPU speed: the speed at which one
# calibration loop takes CALIBRATION_S. On a shared two-vCPU virtual
# machine the same code was measured running up to twice as slow from
# one second to the next, on either CPU.
# Timing the loop right before and right after each decision and scaling
# the decision's wall time by CALIBRATION_S over the loop time (the mean
# of the two factors) cancels most of that drift; the report prints the
# wall-clock figures and the factors as well.
CALIBRATION_S = 0.002


def calibration_loop() -> int:
    """Fixed pure-Python work of the kind the engine does: tuple keys,
    string formatting, dict updates and set lookups."""
    acc = 0
    table: dict[tuple[int, str], int] = {}
    for i in range(3000):
        key = (i % 97, "k%d" % (i % 13))
        table[key] = table.get(key, 0) + 1
        acc += len(key[1])
    keys = frozenset(table)
    for i in range(3000):
        if (i % 89, "k3") in keys:
            acc += 1
    return acc


def speed_factor() -> float:
    """CALIBRATION_S over the time the calibration loop takes now (the
    median of three runs, so one interrupt does not skew it)."""
    times = []
    for _ in range(3):
        start = perf_counter()
        calibration_loop()
        times.append(perf_counter() - start)
    return CALIBRATION_S / statistics.median(times)


# -- child processes ---------------------------------------------------------


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


@dataclass
class Child:
    wall_s: float
    returncode: int
    stdout: bytes
    stderr: bytes
    maxrss_kb: int


def spawn(argv: list[str], scratch: Path) -> Child:
    """Run one child to completion; wall time runs from spawn to exit.

    stderr goes to a file so a chatty child cannot block on a full pipe
    while stdout is being read.
    """
    with tempfile.TemporaryFile(dir=scratch) as errf:
        start = perf_counter()
        with subprocess.Popen(
            argv, stdout=subprocess.PIPE, stderr=errf, env=child_env(), cwd=ROOT
        ) as proc:
            out = proc.stdout.read()
            _, status, usage = os.wait4(proc.pid, 0)
            wall = perf_counter() - start
            proc.returncode = os.waitstatus_to_exitcode(status)
        errf.seek(0)
        err = errf.read()
    return Child(wall, proc.returncode, out, err, usage.ru_maxrss)


def setup_time(policy: Path, requests: list[Path], scratch: Path) -> tuple[float, float]:
    """Seconds from spawning a fresh interpreter until it has imported
    xpdp and parsed the workload's inputs, and the speed factor around
    it."""
    argv = [sys.executable, "-c", SETUP_PROBE, str(policy), *map(str, requests)]
    with tempfile.TemporaryFile(dir=scratch) as errf:
        before = speed_factor()
        start = perf_counter()
        with subprocess.Popen(
            argv, stdout=subprocess.PIPE, stderr=errf, env=child_env(), cwd=ROOT
        ) as proc:
            line = proc.stdout.readline()
            ready = perf_counter() - start
            proc.stdout.read()
            returncode = proc.wait()
        if line.strip() != b"ready" or returncode != 0:
            errf.seek(0)
            raise BenchError(f"set-up probe failed: {errf.read().decode(errors='replace')}")
    return ready, (before + speed_factor()) / 2


def interpreter_ms(scratch: Path) -> float:
    """Median start-to-exit time of a bare interpreter. It includes the
    installation's ``site`` start-up and any ``.pth`` imports, which
    every CLI process pays as well."""
    return 1000.0 * statistics.median(
        spawn([sys.executable, "-c", "pass"], scratch).wall_s for _ in range(PROBE_RUNS)
    )


def import_times_ms(scratch: Path) -> tuple[dict[str, float], float]:
    """Medians of ``-X importtime`` figures for ``import xpdp``, and of
    the interpreter's own ``site`` start-up."""
    wanted = {
        "import.xpdp_ms": ("xpdp", 1),
        "import.altlogics_self_ms": ("xpdp.altlogics", 0),
        "import.textio_self_ms": ("xpdp.textio", 0),
        "site": ("site", 1),
    }
    samples: dict[str, list[float]] = {key: [] for key in wanted}
    for _ in range(PROBE_RUNS):
        child = spawn([sys.executable, "-X", "importtime", "-c", "import xpdp"], scratch)
        if child.returncode != 0:
            raise BenchError(f"import xpdp failed: {child.stderr.decode(errors='replace')}")
        rows = {}
        for line in child.stderr.decode().splitlines():
            fields = line.removeprefix("import time:").split("|")
            if line.startswith("import time:") and fields[0].strip().isdigit():
                rows[fields[2].strip()] = (int(fields[0]), int(fields[1]))
        for key, (module, column) in wanted.items():
            if module in rows:
                samples[key].append(rows[module][column] / 1000.0)
    medians = {key: statistics.median(v) for key, v in samples.items() if v}
    return medians, medians.pop("site", 0.0)


def cli_argv(policy: Path | str, request: Path | str, traced_to: Path | None) -> list[str]:
    args = ["eval", "--policy", str(policy), "--request", str(request), "--trace",
            "--format", "structured"]
    if traced_to is None:
        return [sys.executable, "-m", "xpdp", *args]
    return [sys.executable, str(CLI_CHILD), str(traced_to), *args]


def check_cli(child: Child, expected: str) -> tuple[bool, str]:
    """A CLI decision is right when the exit code, the printed decision
    and the trace root's result all agree with the expected decision."""
    want = workloads.EXIT_CODES[expected]
    if child.returncode != want:
        return False, f"exit {child.returncode}, expected {want} ({expected})"
    try:
        obj = json.loads(child.stdout)
        decision, root = obj["decision"], obj["trace"]["result"]
    except (ValueError, TypeError, KeyError):
        return False, f"not a decision with a trace: {child.stdout[:200]!r}"
    if decision != expected or root != expected:
        return False, f"decision {decision}, trace root {root}, expected {expected}"
    return True, ""


# -- the workloads -------------------------------------------------------------


def write_inputs(workload: workloads.Workload, scratch: Path) -> tuple[Path, list[Path]]:
    """The workload's inputs as files, for set-up probes and the CLI."""
    if workload.sample_files is not None:
        return ROOT / workload.sample_policy, [ROOT / f for f in workload.sample_files]
    policy = scratch / "policy.pol"
    policy.write_text(workload.policy_text, encoding="utf-8")
    requests = []
    for i, text in enumerate(workload.request_texts):
        path = scratch / f"request_{i}.req"
        path.write_text(text, encoding="utf-8")
        requests.append(path)
    return policy, requests


class CliRunner:
    """Runs one CLI decision per process and checks it. While a tracer
    is set, the processes run under ``cli_child.py`` and their spans are
    merged into it."""

    def __init__(self, workload, policy, requests, scratch) -> None:
        self.workload = workload
        self.policy = policy
        self.requests = requests
        self.scratch = scratch
        self.tracer: tr.Tracer | None = None
        self.peak_rss_kb = 0

    def trace(self, tracer: tr.Tracer | None) -> None:
        self.tracer = tracer

    def decide(self, i: int, tally: Tally) -> tuple[float, float]:
        """Wall time of one decision and the speed factor around it."""
        spans = self.scratch / "spans.json" if self.tracer is not None else None
        before = speed_factor()
        child = spawn(cli_argv(self.policy, self.requests[i], spans), self.scratch)
        ok, why = check_cli(child, self.workload.expected[i])
        tally.add(ok, why)
        self.peak_rss_kb = max(self.peak_rss_kb, child.maxrss_kb)
        if spans is not None and spans.exists():
            with open(spans, encoding="utf-8") as fh:
                self.tracer.merge(json.load(fh))
            spans.unlink()
        return child.wall_s, (before + speed_factor()) / 2


class InProcessRunner:
    """Evaluates parsed requests in this process through the public API.
    While a tracer is set, its wrappers are installed and each decision
    gets a ``policy.evaluate`` span."""

    def __init__(self, workload, evaluate, policy, requests) -> None:
        self.workload = workload
        self.plain_evaluate = self.evaluate = evaluate
        self.policy = policy
        self.requests = requests
        self.tracer: tr.Tracer | None = None

    def trace(self, tracer: tr.Tracer | None) -> None:
        if self.tracer is not None:
            self.tracer.uninstall()
            self.evaluate = self.plain_evaluate
        self.tracer = tracer
        if tracer is not None:
            tracer.install()
            self.evaluate = tracer.wrap(tr.EVALUATE, self.plain_evaluate)

    def decide(self, i: int, tally: Tally) -> tuple[float, float]:
        """Wall time of one decision and the speed factor around it."""
        if self.tracer is not None:
            self.tracer.new_decision()
        expected = self.workload.expected[i]
        before = speed_factor()
        start = perf_counter()
        try:
            decision, _ = self.evaluate(self.policy, self.requests[i])
            elapsed = perf_counter() - start
            ok = decision.canonical == expected
            why = "" if ok else f"request {i}: {decision.canonical}, expected {expected}"
        except Exception:  # a decision that raises is a failed decision
            elapsed = perf_counter() - start
            ok, why = False, traceback.format_exc()
        tally.add(ok, why)
        return elapsed, (before + speed_factor()) / 2


def run_passes(runner, n: int, seconds: float, tally: Tally, tracer: tr.Tracer | None = None):
    """Closed-loop passes over all n requests until ``seconds`` have
    passed; only whole passes run, so every run measures the same mix.
    With a tracer, passes alternate untraced and traced, starting
    untraced. Returns (wall time, speed factor) per decision of the
    untraced and of the traced passes."""
    plain: list[tuple[float, float]] = []
    traced: list[tuple[float, float]] = []
    start = perf_counter()
    k = 0
    try:
        while True:
            tracing = tracer is not None and k % 2 == 1
            runner.trace(tracer if tracing else None)
            sink = traced if tracing else plain
            for i in range(n):
                sink.append(runner.decide(i, tally))
            k += 1
            if perf_counter() - start >= seconds and (tracer is None or k >= 2):
                break
    finally:
        runner.trace(None)
    return plain, traced


def p90(values: list[float]) -> float:
    return statistics.quantiles(values, n=10)[8]


def in_process_runner(workload, tracer: tr.Tracer | None) -> InProcessRunner:
    """Import xpdp from the checkout and parse the workload's inputs;
    in a traced run the policy is parsed several times, each in a span."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import xpdp

    parse_policy, parse_request = xpdp.parse_policy, xpdp.parse_request
    parses = 1
    if tracer is not None:
        parse_policy = tracer.wrap(tr.PARSE_POLICY, parse_policy)
        parse_request = tracer.wrap(tr.PARSE_REQUEST, parse_request)
        parses = POLICY_PARSES
    for _ in range(parses):
        policy = parse_policy(workload.policy_text)
    requests = [parse_request(text) for text in workload.request_texts]
    return InProcessRunner(workload, xpdp.evaluate, policy, requests)


def timing_figures(times: list[float]) -> dict[str, float]:
    """Throughput and latency percentiles of decision times. Throughput
    counts decision time only, not the benchmark's own calibration and
    checking between decisions."""
    cut = p90(times)
    return {
        "decisions_per_s": len(times) / sum(times),
        "decision_p50_ms": 1000.0 * statistics.median(times),
        "decision_p90_ms": 1000.0 * cut,
        "beyond_p90": sum(1 for t in times if t > cut),
    }


def measure(workload: workloads.Workload, seconds: float, trace: bool, scratch: Path) -> dict:
    """Run one workload; return its tally, its metrics (None for a
    layer that saw no calls) and notes for the report."""
    policy_file, request_files = write_inputs(workload, scratch)
    n = len(workload.expected)
    tally = Tally()
    calibration_loop()  # first run warms the loop itself
    interpreter = interpreter_ms(scratch)
    notes = [
        f"environment: python {platform.python_version()}, "
        f"nproc {os.cpu_count()}, running on CPUs {sorted(os.sched_getaffinity(0))}, "
        f"cli.interpreter_ms {interpreter:.1f} "
        "(bare interpreter start, including site and any .pth imports)"
    ]
    metrics: dict[str, float | None] = {}
    if not trace:
        setups = [setup_time(policy_file, request_files, scratch) for _ in range(SETUP_RUNS)]
        metrics["setup_s"] = statistics.median(t * f for t, f in setups)
        notes.append(f"setup_s: median of {SETUP_RUNS} fresh processes; wall clock "
                     f"{statistics.median(t for t, _ in setups):.4f} s")

    loop_tracer = tr.Tracer() if trace else None
    cli_tracer = loop_tracer
    if workload.sample_files is not None:
        runner = CliRunner(workload, policy_file, request_files, scratch)
        runner.decide(0, Tally())  # warms the file cache; not counted
        plain, traced = run_passes(runner, n, seconds, tally, loop_tracer)
        peak_rss_kb = runner.peak_rss_kb
    else:
        runner = in_process_runner(workload, loop_tracer)
        runner.decide(0, Tally())  # first call outside the timed loop
        plain, traced = run_passes(runner, n, seconds, tally, loop_tracer)
        peak_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        if trace:
            # The CLI layers and trace rendering, on this workload's inputs.
            cli_tracer = tr.Tracer()
            cli = CliRunner(workload, policy_file, request_files, scratch)
            cli.trace(cli_tracer)
            for i in range(CLI_PROBES):
                cli.decide(i % n, tally)

    factors = [f for _, f in plain + traced]
    notes.append(f"speed factor: median {statistics.median(factors):.3f}, range "
                 f"{min(factors):.3f}..{max(factors):.3f} over {len(factors)} decisions")
    if not trace:
        figures = timing_figures([t * f for t, f in plain])
        wall = timing_figures([t for t, _ in plain])
        metrics.update((k, v) for k, v in figures.items() if k != "beyond_p90")
        metrics["peak_rss_mb"] = peak_rss_kb / 1024.0
        notes.append(f"closed loop, one client: {len(plain)} decisions, "
                     f"{figures['beyond_p90']} beyond p90")
        notes.append(f"wall clock: {wall['decisions_per_s']:.4g} decisions/s, "
                     f"p50 {wall['decision_p50_ms']:.4g} ms, p90 {wall['decision_p90_ms']:.4g} ms")
    else:
        metrics.update(layer_metrics(loop_tracer, cli_tracer, len(workload.policy_text.encode())))
        imports, site_ms = import_times_ms(scratch)
        metrics.update(imports)
        metrics["cli.interpreter_ms"] = interpreter
        metrics["trace.overhead_ratio"] = (
            statistics.fmean(t * f for t, f in traced)
            / statistics.fmean(t * f for t, f in plain) - 1.0
        )
        notes.append(f"site start-up inside the interpreter: {site_ms:.1f} ms (-X importtime)")
        notes.append(f"traced run: {len(plain)} untraced and {len(traced)} traced decisions; "
                     f"per-decision layer figures over the {loop_tracer.decision_id + 1} "
                     "traced ones, in wall-clock time")
        OUT.mkdir(exist_ok=True)
        loop_tracer.write_csv(OUT / f"spans-{workload.name}.csv.gz")
    return {"tally": tally, "metrics": metrics, "notes": notes}


def layer_metrics(loop: tr.Tracer, cli: tr.Tracer, policy_bytes: int) -> dict[str, float | None]:
    """Per-decision layer figures from the traced passes, and per-call
    CLI and parse figures. A layer that saw no calls comes out as None."""
    total, self_time, calls = loop.totals()
    counts = loop.counts
    decisions = calls[tr.EVALUATE]

    def per_decision(value: float, present: int) -> float | None:
        return value / decisions if present and decisions else None

    def ratio(part: int, whole: int) -> float | None:
        return part / whole if whole else None

    def median_s(tracers, name: str) -> float | None:
        values = [d for t in tracers for d in t.durations(name)]
        return statistics.median(values) if values else None

    parsers = (loop,) if cli is loop else (loop, cli)
    parse_s = median_s(parsers, tr.PARSE_POLICY)
    parse_request_s = median_s(parsers, tr.PARSE_REQUEST)
    main_s = median_s((cli,), tr.CLI_MAIN)
    render_s = median_s((cli,), tr.TRACE_RENDER)
    return {
        "cli.main_ms": main_s and main_s * 1e3,
        "textio.parse_policy_ms": parse_s and parse_s * 1e3,
        "textio.parse_bytes_per_s": parse_s and policy_bytes / parse_s,
        "textio.parse_request_us": parse_request_s and parse_request_s * 1e6,
        "policy.evaluate_ms": per_decision(total[tr.EVALUATE] * 1e3, decisions),
        "policy.walk_self_ms": per_decision(self_time[tr.EVALUATE] * 1e3, decisions),
        "policy.eval_target_calls": per_decision(calls[tr.EVAL_TARGET], calls[tr.EVAL_TARGET]),
        "policy.eval_target_ms": per_decision(total[tr.EVAL_TARGET] * 1e3, calls[tr.EVAL_TARGET]),
        "policy.rules_evaluated": per_decision(counts[tr.RULES], counts[tr.RULES]),
        "policy.conditions_wasted_ratio": ratio(counts[tr.WASTED], calls[tr.EVAL_CONDITION]),
        "policy.trace_render_ms": render_s and render_s * 1e3,
        "conditions.eval_condition_calls": per_decision(
            calls[tr.EVAL_CONDITION], calls[tr.EVAL_CONDITION]
        ),
        "conditions.eval_condition_ms": per_decision(
            total[tr.EVAL_CONDITION] * 1e3, calls[tr.EVAL_CONDITION]
        ),
        "conditions.bindings_tried": per_decision(counts[tr.BINDINGS], counts[tr.BINDINGS]),
        "conditions.bindings_useful_ratio": ratio(counts[tr.USEFUL], counts[tr.BINDINGS]),
        "requests.constants_calls": per_decision(counts[tr.CONSTANTS], counts[tr.CONSTANTS]),
        "combiners.combine_calls": per_decision(calls[tr.COMBINE], calls[tr.COMBINE]),
        "combiners.combine_ms": per_decision(total[tr.COMBINE] * 1e3, calls[tr.COMBINE]),
        "combiners.inputs_per_call": ratio(counts[tr.INPUTS], calls[tr.COMBINE]),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(GENERATORS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "xpdp" / "__init__.py").is_file():
        print(f"run.py: no xpdp sources under {SRC}", file=sys.stderr)
        return 2
    # One CPU for this process and the children it starts, so the speed
    # factor is taken on the CPU the timed work then runs on.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    workload = GENERATORS[args.workload](args.seed)
    OUT.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT))
    try:
        result = measure(workload, args.seconds, bool(args.trace), scratch)
    except BenchError as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    return report(args, result)


def report(args, result: dict) -> int:
    tally: Tally = result["tally"]
    units = PER_LAYER_UNITS if args.trace else END_TO_END_UNITS
    metrics = result["metrics"]
    missing = [name for name in units if metrics.get(name) is None]
    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds:g}  "
          f"trace {args.trace}")
    for line in result["notes"]:
        print(f"  {line}")
    for name, unit in units.items():
        value = metrics.get(name)
        shown = "MISSING (layer saw no calls)" if value is None else f"{value:.6g} {unit}"
        print(f"  {name:34s} {shown}")
    # Not in the JSON metrics: it is 0 on a good run, and any failure
    # already fails the run through "correct" and the exit code.
    print(f"  {'failed_ratio':34s} {tally.failed / tally.attempted:.6g} ratio "
          f"({tally.failed} of {tally.attempted} decisions attempted)")
    if tally.first_failure:
        print(f"run.py: first failed decision: {tally.first_failure}", file=sys.stderr)
    for name in missing:
        print(f"run.py: layer metric {name} is missing", file=sys.stderr)
    correct = tally.failed == 0 and not missing
    print(json.dumps({
        "correct": correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {
            name: {"value": metrics[name], "unit": unit}
            for name, unit in units.items()
            if metrics.get(name) is not None
        },
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
