"""Spans and work counts recorded around the engine's layer boundaries.

The tracer wraps module-level names that the evaluator looks up each
time it calls them, so no engine code changes:

* ``xpdp.policy.eval_target``, ``eval_condition`` and ``combine`` get
  spans; ``xpdp.policy.rule_decision`` is counted (one call per rule
  evaluated).
* ``xpdp.conditions.kleene_eval`` is counted only for its top-level
  calls, one per binding ``eval_condition`` tries; the recursive calls
  it makes on sub-expressions pass straight through.
* ``Request.constants`` is counted and ``EvalTrace.to_obj`` gets a span.
* Inside a CLI process, ``xpdp.cli.parse_policy``, ``parse_request``
  and ``evaluate`` get spans.

A span is (name, start, end, parent, decision). Spans stay in memory in
flat arrays and are written out once, when the run ends. ``glb3`` and
``lub3`` get no span: they run inside targets and conditions, and
wrapping them would swamp the timing.
"""

from __future__ import annotations

import gzip
from array import array
from collections import defaultdict
from time import perf_counter

# Span names, by module.
EVALUATE = "policy.evaluate"
EVAL_TARGET = "policy.eval_target"
TRACE_RENDER = "policy.trace_render"
EVAL_CONDITION = "conditions.eval_condition"
COMBINE = "combiners.combine"
PARSE_POLICY = "textio.parse_policy"
PARSE_REQUEST = "textio.parse_request"
CLI_MAIN = "cli.main"

# Counter names.
RULES = "rules_evaluated"
WASTED = "conditions_wasted"
BINDINGS = "bindings_tried"
USEFUL = "bindings_useful"
CONSTANTS = "constants_calls"
INPUTS = "combine_inputs"


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.span_name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.decision = array("i")
        self.counts: dict[str, int] = defaultdict(int)
        self.decision_id = -1
        self._stack = [-1]
        self._last_target = None
        self._in_kleene = False
        self._patches: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def new_decision(self) -> None:
        self.decision_id += 1

    def _name_id(self, name: str) -> int:
        idx = self._name_ids.get(name)
        if idx is None:
            idx = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return idx

    def wrap(self, name: str, fn, after=None):
        """``fn`` with a span around each call; ``after(args, result)``
        runs once the span is closed."""
        name_id = self._name_id(name)
        stack = self._stack
        span_name, start, end = self.span_name, self.start, self.end
        parent, decision = self.parent, self.decision

        def traced(*args, **kwargs):
            sid = len(start)
            span_name.append(name_id)
            parent.append(stack[-1])
            decision.append(self.decision_id)
            end.append(0.0)
            stack.append(sid)
            start.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[sid] = perf_counter()
                stack.pop()
            if after is not None:
                after(args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _patch(self, obj, attr: str, replacement) -> None:
        self._patches.append((obj, attr, getattr(obj, attr)))
        setattr(obj, attr, replacement)

    def install(self) -> None:
        """Wrap the evaluator's layer functions (and the CLI's, when
        ``xpdp.cli`` is imported)."""
        import sys

        import xpdp.conditions as conditions
        import xpdp.policy as policy
        from xpdp.decisions import Decision3
        from xpdp.requests import Request

        counts = self.counts
        top, bottom = Decision3.TOP, Decision3.BOTTOM

        def saw_target(args, value):
            self._last_target = value

        def saw_condition(args, value):
            # The evaluator computes a rule's target right before its
            # condition, so the last target seen is this rule's.
            if self._last_target is not top:
                counts[WASTED] += 1

        def saw_combine(args, value):
            counts[INPUTS] += len(args[2])

        self._patch(policy, "eval_target", self.wrap(EVAL_TARGET, policy.eval_target, saw_target))
        self._patch(
            policy, "eval_condition", self.wrap(EVAL_CONDITION, policy.eval_condition, saw_condition)
        )
        self._patch(policy, "combine", self.wrap(COMBINE, policy.combine, saw_combine))
        self._patch(policy.EvalTrace, "to_obj", self.wrap(TRACE_RENDER, policy.EvalTrace.to_obj))

        rule_decision = policy.rule_decision

        def counted_rule_decision(*args, **kwargs):
            counts[RULES] += 1
            return rule_decision(*args, **kwargs)

        self._patch(policy, "rule_decision", counted_rule_decision)

        kleene_eval = conditions.kleene_eval

        def counted_kleene_eval(expr, binding, request):
            if self._in_kleene:
                return kleene_eval(expr, binding, request)
            self._in_kleene = True
            try:
                value = kleene_eval(expr, binding, request)
            finally:
                self._in_kleene = False
            counts[BINDINGS] += 1
            if value is not bottom:
                counts[USEFUL] += 1
            return value

        self._patch(conditions, "kleene_eval", counted_kleene_eval)

        constants = Request.constants

        def counted_constants(request):
            counts[CONSTANTS] += 1
            return constants(request)

        self._patch(Request, "constants", counted_constants)

        cli = sys.modules.get("xpdp.cli")
        if cli is not None:
            self._patch(cli, "parse_policy", self.wrap(PARSE_POLICY, cli.parse_policy))
            self._patch(cli, "parse_request", self.wrap(PARSE_REQUEST, cli.parse_request))
            self._patch(cli, "evaluate", self.wrap(EVALUATE, cli.evaluate))

    def uninstall(self) -> None:
        while self._patches:
            obj, attr, original = self._patches.pop()
            setattr(obj, attr, original)

    # -- exchange between processes ---------------------------------------

    def to_obj(self) -> dict:
        return {
            "names": self.names,
            "spans": [
                list(row)
                for row in zip(self.span_name, self.start, self.end, self.parent, self.decision)
            ],
            "counts": dict(self.counts),
        }

    def merge(self, obj: dict) -> None:
        """Append another process's spans as new decisions of this one."""
        base = len(self.start)
        first_decision = self.decision_id + 1
        ids = [self._name_id(n) for n in obj["names"]]
        for name, start, end, parent, decision in obj["spans"]:
            self.span_name.append(ids[name])
            self.start.append(start)
            self.end.append(end)
            self.parent.append(parent + base if parent >= 0 else -1)
            self.decision.append(decision + first_decision if decision >= 0 else -1)
            self.decision_id = max(self.decision_id, self.decision[-1])
        for key, value in obj["counts"].items():
            self.counts[key] += value

    def write_csv(self, path) -> None:
        """All spans as gzip-compressed CSV, one row per span."""
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            fh.write("span,name,start_s,end_s,parent,decision\n")
            for i, row in enumerate(
                zip(self.span_name, self.start, self.end, self.parent, self.decision)
            ):
                name, start, end, parent, decision = row
                fh.write(f"{i},{self.names[name]},{start:.9f},{end:.9f},{parent},{decision}\n")

    # -- summaries ---------------------------------------------------------

    def durations(self, name: str) -> list[float]:
        idx = self._name_ids.get(name)
        if idx is None:
            return []
        return [e - s for n, s, e in zip(self.span_name, self.start, self.end) if n == idx]

    def totals(self) -> tuple[dict[str, float], dict[str, float], dict[str, int]]:
        """Total time, self time and call count per span name. Self time
        is a span's duration minus the time its direct children cover."""
        n = len(self.start)
        child_time = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child_time[p] += self.end[i] - self.start[i]
        total: dict[str, float] = defaultdict(float)
        self_time: dict[str, float] = defaultdict(float)
        calls: dict[str, int] = defaultdict(int)
        for i in range(n):
            name = self.names[self.span_name[i]]
            d = self.end[i] - self.start[i]
            total[name] += d
            self_time[name] += d - child_time[i]
            calls[name] += 1
        return total, self_time, calls
