"""Spans around spinsim's public calls, recorded from outside the package.

The package imports by name (`sched` binds `step`, `cli` binds `explore`,
`lint` and `emit_trace`, `debug` binds `_Runner` and `emit_trace`), so
patching only the defining module would miss most calls. `Tracer.install`
therefore replaces a function in every loaded `spinsim` module that holds
it; methods are patched on their class, which every importer shares.

A span is (name, start, end, parent) in `perf_counter_ns` units, kept in
flat arrays while the run lasts and written out when it ends. A span's
self time is its duration minus the time its child spans cover and minus
the time their wrappers spent outside them, which each wrapper measures;
only the call into the wrapper and one clock read stay unaccounted.
"""

from __future__ import annotations

import gzip
import sys
import time
from array import array
from dataclasses import dataclass, field

ALL = frozenset({"explore-3t", "random-trace", "cli-corpus"})


def _step_kind(args, kwargs) -> str:
    collect = kwargs.get("collect_events", args[3] if len(args) > 3 else True)
    return "machine.step.collect" if collect else "machine.step.nocollect"


@dataclass(frozen=True)
class Target:
    """One wrapped function: its span name, where it is defined, and the
    workloads on which the traced run must see at least one call."""

    span: str
    module: str
    qualname: str
    workloads: frozenset
    classify: object = None  # (args, kwargs) -> span name, for split spans


# `_freeze`/`_thaw` are private and feed `sched.explore.key_s`. A change
# that removes them must re-point that metric at whatever replaces them.
TARGETS = (
    Target("isa.parse", "spinsim.isa", "parse_program", frozenset({"cli-corpus"})),
    Target("machine.init", "spinsim.machine", "init_machine", ALL),
    Target("machine.step", "spinsim.machine", "step", ALL, _step_kind),
    Target("sched.explore", "spinsim.sched", "explore", frozenset({"explore-3t", "cli-corpus"})),
    Target("sched.freeze", "spinsim.sched", "_freeze", frozenset({"explore-3t", "cli-corpus"})),
    Target("sched.thaw", "spinsim.sched", "_thaw", frozenset({"explore-3t", "cli-corpus"})),
    Target("sched.run_random", "spinsim.sched", "run_random", frozenset({"random-trace", "cli-corpus"})),
    Target("sched.run_schedule", "spinsim.sched", "run_schedule", frozenset({"cli-corpus"})),
    Target("sched.dispatch", "spinsim.sched", "_Runner.dispatch", frozenset({"random-trace", "cli-corpus"})),
    Target("tamper.compile", "spinsim.tamper", "compile_tampers", frozenset({"cli-corpus"})),
    Target("tamper.apply", "spinsim.tamper", "apply_tampers", frozenset({"cli-corpus"})),
    Target("lint.lint", "spinsim.lint", "lint", frozenset({"cli-corpus"})),
    Target("trace.emit", "spinsim.trace", "emit_trace", frozenset({"random-trace", "cli-corpus"})),
    Target("trace.summarize", "spinsim.trace", "summarize", frozenset({"random-trace", "cli-corpus"})),
    Target("scenario.load", "spinsim.scenario", "load_scenario", frozenset({"cli-corpus"})),
    Target("scenario.run", "spinsim.scenario", "run_scenario", frozenset({"cli-corpus"})),
    Target("scenario.check", "spinsim.scenario", "check_expectations", frozenset({"cli-corpus"})),
    Target("cli.main", "spinsim.cli", "main", frozenset({"cli-corpus"})),
    Target("debug.handle", "spinsim.debug", "DebugSession.handle", frozenset({"cli-corpus"})),
    Target("debug.repl", "spinsim.debug", "run_repl", frozenset({"cli-corpus"})),
)

JOB_SPAN = "bench.job"


@dataclass
class SpanStats:
    calls: int = 0
    total_ns: int = 0
    self_ns: int = 0


@dataclass
class Tracer:
    names: list = field(default_factory=list)
    name_ids: dict = field(default_factory=dict)
    ids: array = field(default_factory=lambda: array("H"))
    starts: array = field(default_factory=lambda: array("q"))
    ends: array = field(default_factory=lambda: array("q"))
    lost: array = field(default_factory=lambda: array("q"))   # wrapper time outside [start, end]
    parents: array = field(default_factory=lambda: array("l"))
    stack: list = field(default_factory=list)
    counters: dict = field(default_factory=dict)
    explore_keys: set = field(default_factory=set)
    patches: list = field(default_factory=list)   # (owner, attr, original, wrapper)

    def name_id(self, name: str) -> int:
        if name not in self.name_ids:
            self.name_ids[name] = len(self.names)
            self.names.append(name)
        return self.name_ids[name]

    def count(self, key: str, n: int = 1) -> None:
        self.counters[key] = self.counters.get(key, 0) + n

    def call(self, name: str, fn, *args, **kwargs):
        """Run `fn` inside a span named `name`."""
        return self._wrap(fn, name, None)(*args, **kwargs)

    def _wrap(self, fn, span: str, classify):
        ids, starts, ends, lost, parents, stack = (
            self.ids, self.starts, self.ends, self.lost, self.parents, self.stack)
        fixed = self.name_id(span)
        observe = getattr(self, "_observe_" + span.replace(".", "_"), None)
        clock = time.perf_counter_ns

        def wrapper(*args, **kwargs):
            entered = clock()
            idx = len(starts)
            ids.append(self.name_id(classify(args, kwargs)) if classify else fixed)
            parents.append(stack[-1] if stack else -1)
            ends.append(0)
            lost.append(0)
            stack.append(idx)
            start = clock()
            starts.append(start)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                ends[idx] = end
                stack.pop()
            if observe is not None:
                observe(idx, args, kwargs, result)
            lost[idx] = start - entered + clock() - end
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    # Counts taken at the same boundaries as the spans.
    def _observe_machine_step(self, idx, args, kwargs, outcome):
        self.count(self.names[self.ids[idx]] + ".instr", len(outcome.executed))
        parent = self.parents[idx]
        if parent >= 0 and self.names[self.ids[parent]] == "sched.explore":
            self.count("sched.explore.transitions")

    def _observe_sched_freeze(self, idx, args, kwargs, snap):
        self.explore_keys.add(snap)

    def _observe_sched_explore(self, idx, args, kwargs, report):
        # The explorer visits exactly the distinct snapshots it freezes
        # (root plus every child) when it is not truncated.
        self.count("sched.explore.states", len(self.explore_keys))
        self.explore_keys.clear()
        self.count("sched.explore.terminal_states", report.schedules_explored)
        self.count("sched.explore.violating_states", len(report.mutual_exclusion_violations))

    def _observe_tamper_apply(self, idx, args, kwargs, edits):
        self.count("tamper.fires", len(edits))

    def _observe_lint_lint(self, idx, args, kwargs, findings):
        self.count("lint.findings", len(findings))

    def _observe_trace_emit(self, idx, args, kwargs, data):
        self.count("trace.bytes", len(data))
        self.count("trace.events", len(args[0].trace))

    def install(self) -> None:
        """Compute every binding site of every target. Call `enable` to
        put the wrappers in place."""
        modules = [m for n, m in sorted(sys.modules.items()) if n == "spinsim" or n.startswith("spinsim.")]
        for target in TARGETS:
            owner = sys.modules[target.module]
            cls_name, _, attr = target.qualname.rpartition(".")
            if cls_name:
                owner = getattr(owner, cls_name)
                original = owner.__dict__[attr]
                self.patches.append((owner, attr, original, self._wrap(original, target.span, target.classify)))
                continue
            original = getattr(owner, attr)
            wrapper = self._wrap(original, target.span, target.classify)
            for module in modules:
                for name, value in list(vars(module).items()):
                    if value is original:
                        self.patches.append((module, name, original, wrapper))

    def enable(self) -> None:
        for owner, attr, _, wrapper in self.patches:
            setattr(owner, attr, wrapper)

    def disable(self) -> None:
        for owner, attr, original, _ in reversed(self.patches):
            setattr(owner, attr, original)

    def stats(self) -> dict:
        """Per-name call count, total time and self time over all spans."""
        child_ns = [0] * len(self.starts)
        stats = {name: SpanStats() for name in self.names}
        ids, starts, ends, lost, parents = self.ids, self.starts, self.ends, self.lost, self.parents
        for i in range(len(starts)):
            if parents[i] >= 0:
                child_ns[parents[i]] += ends[i] - starts[i] + lost[i]
        for i in range(len(starts)):
            s = stats[self.names[ids[i]]]
            dur = ends[i] - starts[i]
            s.calls += 1
            s.total_ns += dur
            s.self_ns += dur - child_ns[i]
        return stats

    def write_spans(self, path) -> None:
        """Gzipped TSV, one span per line; a span's index is its line
        number (from 0, after the header) and parent -1 marks a root."""
        names, ids, starts, ends, parents = self.names, self.ids, self.starts, self.ends, self.parents
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as f:
            f.write("name\tstart_ns\tend_ns\tparent\n")
            for i in range(len(starts)):
                f.write(f"{names[ids[i]]}\t{starts[i]}\t{ends[i]}\t{parents[i]}\n")
