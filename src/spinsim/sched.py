"""Schedule execution: scripted and random runs, exhaustive exploration.

A schedule is a list of (thread_id, step_count) entries consumed in
order; one entry step equals one runner dispatch. After the script any
remaining runnable threads are completed round-robin (lowest thread id
first) unless the script says halt.

Runs dispatch through `_Runner`. It keeps the one arrival count,
`arrivals[(thread, pc)]`, the thread's runnable dispatches from that pc,
which scenario hooks and debugger edits alike match their occurrence
against, and `step_count`, the runnable dispatches of all threads, which
`max_steps` bounds and `RunResult.steps_taken` reports. It applies
tampers between dispatches, orders the trace's events and numbers them
by trace position; `trace`, the format's one owner, renders each line,
an instruction's from its `StepOutcome.executed` entry.

`machine.step` retires one instruction; how many one dispatch retires
is the runner's rule, by mode:

    HW   one step.
    GDB  reproduces a debugger that cannot stop between LDREX and its
         matching STREX: the runner steps the thread again while its pc
         is strictly inside a static [LDREX, STREX] index range (the
         stop table `Program.inside_range`), and faults it rather than
         hang once one dispatch retires `_ATOMIC_STEP_LIMIT` of them.

Mutual exclusion has one rule, `crowded_regions`: a `.region` is
crowded when two or more runnable threads are inside it. The explorer
reports each visited state with a crowded region. A run records a
violation event when a dispatch leaves its thread runnable inside a region
it was not inside before, and that region is crowded: one event per
region, in region order, kept in `violations` as well as in the trace.
Regions may not hold the entry pc, so threads start outside them and
every explorer witness replays to a violation.

Random runs draw the next thread uniformly from the runnable set with
SplitMix64 (the generator is recorded in the trace header so seeds are
portable): pick = runnable[next_output % len(runnable)].

The explorer enumerates all interleavings of a program in HW mode, in
level order: a FIFO of state keys, children taken in ascending thread
order. It records a state when first reached, so every recorded state
is expanded once and lies at its shortest distance from the start; a
new state farther than `max_steps`, or past `max_states` recorded ones,
is dropped and sets `truncated`. A state is the full machine state
(registers, flags, PCs, monitors, memory, and version counters), keyed
by a short tuple of ints in the manner of SPIN's "collapse" compression
(Holzmann, State Compression in SPIN, 1997): each thread record and
each memory tuple is interned once per exploration, and the key holds
their ids. The explorer holds no
machine: `_thaw` turns each dequeued key into its records and memory,
which serve the region check, the runnable scan and every child, since
`step` writes nothing. One step changes one thread and at most memory,
so `_freeze` keys a child from its parent's ids, interning the stepped
thread's new record and any new memory. States are numbered in the
order they are first reached, and two flat arrays indexed by that
number hold the search tree: the parent's number and the thread that
stepped. `_path` reads a schedule back from them only for a reported
violation or a witness, and every such schedule has the fewest steps.
"""

from __future__ import annotations

import hashlib
import json
from array import array
from collections import deque
from dataclasses import dataclass
from itertools import islice

from . import trace
from .isa import Program
from .machine import (
    FAULTED,
    RUNNABLE,
    ExecMode,
    MachineState,
    Memory,
    StepOutcome,
    ThreadState,
    init_machine,
    step,
)
from .tamper import Hooks, TamperSpec, apply_tampers, compile_tampers

MASK64 = 0xFFFFFFFFFFFFFFFF

DEFAULT_MAX_STEPS = 100_000
EXPLORE_MAX_STEPS = 10_000
EXPLORE_MAX_STATES = 1_000_000

# A GDB-mode dispatch retiring this many instructions without leaving the
# exclusive range means the program loops there; fault rather than hang.
_ATOMIC_STEP_LIMIT = 4096


def splitmix64(seed: int):
    """Endless SplitMix64 output stream for the given 64-bit seed."""
    state = seed & MASK64
    while True:
        state = (state + 0x9E3779B97F4A7C15) & MASK64
        z = state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK64
        yield z ^ (z >> 31)


@dataclass
class ScheduleScript:
    entries: list[tuple[int, int]]
    clrex_on_switch: bool = False
    halt: bool = False

    def digest(self) -> str:
        payload = json.dumps(
            [list(e) for e in self.entries] + [self.clrex_on_switch, self.halt],
            separators=(",", ":"),
        )
        return hashlib.sha256(payload.encode()).hexdigest()


@dataclass
class RandomSchedule:
    seed: int
    max_steps: int = DEFAULT_MAX_STEPS


@dataclass
class RunResult:
    final_memory: dict[str, int]
    thread_statuses: list[tuple[str, str | None]]
    violations: list[str]              # the violation lines of `trace`
    trace: list[str]                   # one encoded JSON line per event
    steps_taken: int
    truncated: bool
    header: dict


def crowded_regions(program: Program, threads: list[ThreadState]) -> set[int]:
    """The indices of the regions that two or more runnable threads are
    inside: the one mutual-exclusion rule."""
    region_at = program.region_at
    inside: list[int] = []
    for t in threads:
        if t.status == RUNNABLE:
            inside += region_at[t.pc]
    return {r for r in inside if inside.count(r) > 1} if len(inside) > 1 else set()


class _Runner:
    """Dispatch loop shared by scripted runs, random runs, and the
    debugger: counts arrivals and steps, applies tampers, steps threads
    by the mode's dispatch rule, records region entries into crowded
    regions, and hands each event to `trace`, which renders its line.
    With `events` off (the debugger's) it has only the violation lines
    rendered, and gives them no `step` number."""

    def __init__(self, machine: MachineState, hooks: Hooks | None = None, events: bool = True):
        self.machine = machine
        self.hooks = hooks
        self.events = events
        # GDB mode's stop table; None in HW mode, where every pc is a stop.
        self.inside = machine.program.inside_range if machine.mode is ExecMode.GDB else None
        self.arrivals: dict[tuple[int, int], int] = {}
        self.step_count = 0
        self.trace: list[str] = []
        self.violations: list[str] = []
        self._render = trace.instruction_lines(machine.program) if events else None
        self.clrex_on_switch = False
        self._prev_tid: int | None = None

    def dispatch(self, thread_id: int):
        """Count an arrival and apply the tampers at the thread's pc, step
        it to its next stop (or record a no-op for a finished one), record
        its entries into crowded regions and return the StepOutcome of the
        whole dispatch, None when nothing ran. Tampers fire before the
        first step only: GDB-mode hooks strictly inside an exclusive range
        are rejected when compiled, so no hook can match a later
        instruction of the same dispatch."""
        m = self.machine
        if self.clrex_on_switch and self._prev_tid not in (None, thread_id):
            # OS-like behavior: descheduling drops the outgoing reservation.
            prev = m.threads[self._prev_tid]
            m.threads[self._prev_tid] = prev._replace(monitor=None)
        self._prev_tid = thread_id

        t = m.threads[thread_id]
        if t.status != RUNNABLE:
            if self.events:
                self.trace.append(trace.noop_line(m.program, len(self.trace), thread_id, t.pc))
            return None
        key = (thread_id, t.pc)
        arrival = self.arrivals[key] = self.arrivals.get(key, 0) + 1
        self.step_count += 1
        edits = None
        if self.hooks is not None:
            edits = apply_tampers(self.hooks, m, thread_id, t.pc, arrival)
        outcome = step(m.program, m.threads[thread_id], m.memory)
        executed = outcome.executed
        _, after, _, memory = executed[0]
        inside = self.inside
        if inside is not None and inside[after.pc] is not None and after.status == RUNNABLE:
            # GDB mode: step on through the rest of the exclusive range.
            while inside[after.pc] is not None and after.status == RUNNABLE:
                if len(executed) == _ATOMIC_STEP_LIMIT:
                    # Fault the record that reached it, so its event names the fault.
                    before, _, memory_before, _ = executed[-1]
                    after = after._replace(status=FAULTED, fault="atomic-step limit", monitor=None)
                    executed[-1] = (before, after, memory_before, memory)
                    break
                executed += step(m.program, after, memory).executed
                _, after, _, memory = executed[-1]
            outcome = StepOutcome(executed, after.status)
        m.threads[thread_id] = after
        m.memory = memory
        if self.events:
            note = "; ".join(edits) if edits else None  # on the first instruction only
            for entry in outcome.executed:
                self.trace.append(self._render(entry, len(self.trace), thread_id, note))
                note = None
        region_at = m.program.region_at
        if region_at[after.pc] and after.status == RUNNABLE:
            entered = [r for r in region_at[after.pc] if r not in region_at[t.pc]]
            crowded = crowded_regions(m.program, m.threads) if entered else ()
            for r in entered:
                if r in crowded:
                    line = trace.violation_line(
                        thread_id, after.pc, m.program.regions[r].name, len(self.trace) if self.events else None
                    )
                    if self.events:
                        self.trace.append(line)
                    self.violations.append(line)
        return outcome

    def run_round_robin(self, max_steps: int) -> bool:
        """Step runnable threads ascending until everyone is done; returns
        True if the step budget ran out first."""
        m = self.machine
        while True:
            runnable = m.runnable_threads()
            if not runnable:
                return False
            for tid in runnable:
                if self.step_count >= max_steps:
                    return True
                self.dispatch(tid)

    def result(self, schedule: str, truncated: bool = False) -> RunResult:
        """The run so far; `schedule` names it in the trace header."""
        m = self.machine
        return RunResult(
            final_memory=m.memory_by_symbol(),
            thread_statuses=[(t.status, t.fault) for t in m.threads],
            violations=self.violations,
            trace=self.trace,
            steps_taken=self.step_count,
            truncated=truncated,
            header={
                "program_sha256": m.program.sha256(),
                "mode": m.mode.value,
                "schedule": schedule,
            },
        )


def run_schedule(
    machine: MachineState,
    script: ScheduleScript,
    tampers: list[TamperSpec] | None = None,
    max_steps: int = DEFAULT_MAX_STEPS,
) -> RunResult:
    """Drive the machine through the script, then round-robin any
    remaining runnable threads to completion (unless the script halts).
    Either phase stops, truncated, when it reaches `max_steps`.

    Tampers are compiled before the run starts; in GDB mode a tamper
    aimed strictly inside an LDREX..STREX range is rejected here.
    """
    if max_steps < 1:
        raise ValueError("max_steps must be >= 1")
    for tid, count in script.entries:
        if not 0 <= tid < len(machine.threads):
            raise ValueError(f"schedule entry names unknown thread {tid}")
        if count < 1:
            raise ValueError(f"schedule entry for thread {tid} has step count {count}")

    runner = _Runner(machine, compile_tampers(tampers, machine) if tampers else None)
    runner.clrex_on_switch = script.clrex_on_switch

    # The budget counts the script's dispatches, no-ops included.
    dispatches = (tid for tid, count in script.entries for _ in range(count))
    for tid in islice(dispatches, max_steps):
        runner.dispatch(tid)
    truncated = next(dispatches, None) is not None
    if not (truncated or script.halt):
        truncated = runner.run_round_robin(max_steps)
    return runner.result(f"script:{script.digest()}", truncated)


def run_random(
    machine: MachineState,
    seed: int,
    max_steps: int = DEFAULT_MAX_STEPS,
    tampers: list[TamperSpec] | None = None,
) -> RunResult:
    """Step uniformly random runnable threads until completion or the
    step budget runs out. Identical seeds give identical runs."""
    if max_steps < 1:
        raise ValueError("max_steps must be >= 1")
    runner = _Runner(machine, compile_tampers(tampers, machine) if tampers else None)
    rng = splitmix64(seed)
    truncated = False
    # Only a step that ends its thread changes the runnable set: tampers
    # edit registers only, and random runs never clear on switch.
    runnable = machine.runnable_threads()
    while runnable:
        if runner.step_count >= max_steps:
            truncated = True
            break
        if runner.dispatch(runnable[next(rng) % len(runnable)]).new_status != RUNNABLE:
            runnable = machine.runnable_threads()
    return runner.result(f"random:splitmix64:{seed}", truncated)


@dataclass
class ExploreReport:
    # Final memory -> a schedule reaching it. This and each violation
    # schedule have the fewest steps that reach their state.
    witnesses: dict[tuple[tuple[str, int], ...], list[int]]
    schedules_explored: int
    mutual_exclusion_violations: list[list[int]]
    truncated: bool
    faulted_terminal_states: int = 0   # terminal states in which some thread faulted

    @property
    def final_states(self) -> set[tuple[tuple[str, int], ...]]:
        return set(self.witnesses)

    @property
    def final_memories(self) -> list[dict[str, int]]:
        return [dict(state) for state in sorted(self.final_states)]

    def final_values(self, symbol: str) -> set[int]:
        return {dict(state)[symbol] for state in self.final_states}


class _InternTable:
    """Numbers each distinct component state (one thread record, or one
    memory tuple) in order of first sight, and maps numbers back."""

    def __init__(self) -> None:
        self.ids: dict[tuple, int] = {}
        self.parts: list[tuple] = []

    def intern(self, part: tuple) -> int:
        i = self.ids.get(part)
        if i is None:
            i = self.ids[part] = len(self.parts)
            self.parts.append(part)
        return i


def _freeze(
    table: _InternTable,
    threads: list[ThreadState] | ThreadState,
    memory: Memory,
    parent: tuple[int, ...] | None = None,
    tid: int = 0,
    parent_memory: Memory | None = None,
) -> tuple[int, ...]:
    """State key: the interned id of each thread record, then the id of
    the memory tuple. The root gives all its records. A child of state
    `parent` gives only the new record of thread `tid`, the one that
    stepped, and the `parent_memory` it stepped from; memory is
    re-interned only when the step replaced it."""
    intern = table.intern
    if parent is None:
        return tuple([intern(t) for t in threads] + [intern(memory)])
    # A list edit: on CPython 3.11 it is cheaper than tuple slicing.
    key = list(parent)
    key[tid] = intern(threads)
    if memory is not parent_memory:
        key[-1] = intern(memory)
    return tuple(key)


def _thaw(key: tuple[int, ...], table: _InternTable) -> tuple[list[ThreadState], Memory]:
    """The thread records and the memory of state `key`."""
    parts = table.parts
    return [parts[i] for i in key[:-1]], parts[key[-1]]


def _path(parent: array, via: array, i: int) -> list[int]:
    """The thread ids that step from the root, state 0, to state `i`."""
    tids = []
    while i:
        tids.append(via[i])
        i = parent[i]
    tids.reverse()
    return tids


def explore(
    program: Program,
    thread_count: int,
    max_steps: int = EXPLORE_MAX_STEPS,
    max_states: int = EXPLORE_MAX_STATES,
) -> ExploreReport:
    """Level-order enumeration of every interleaving in HW mode, one
    `step` per transition over thawed values (no runner and no machine,
    so no step count). Reports each distinct final memory with a witness
    schedule, plus every reachable state with a crowded region; each
    schedule has the fewest steps that reach its state. `max_steps`
    bounds a state's distance from the start: `truncated` means a state
    farther than that exists, or a new state came past `max_states`
    recorded ones. Every recorded state was expanded.
    `_freeze` and `_thaw` stay separate because perfbench times them as
    the explorer's keying layer (`sched.explore.key_s`)."""
    if max_steps < 1:
        raise ValueError("max_steps must be >= 1")
    if max_states < 1:
        raise ValueError("max_states must be >= 1")
    root = init_machine(program, thread_count, ExecMode.HW)
    syms = list(program.data_words)
    table = _InternTable()

    witnesses: dict = {}
    violations: list[list[int]] = []
    schedules_explored = faulted_terminal_states = 0
    truncated = False

    queue = deque([_freeze(table, root.threads, root.memory)])
    seen = set(queue)
    # State i's parent's number and the thread that stepped; the root is 0.
    parent, via = array("i", [0]), array("H", [0])
    depth, level_end = 0, 1   # state i's distance from the start; its level ends at `level_end`

    while queue:
        i = len(parent) - len(queue)   # the number of the state at the queue's head
        if i == level_end:
            depth, level_end = depth + 1, len(parent)
        key = queue.popleft()
        threads, memory = _thaw(key, table)
        if program.regions and crowded_regions(program, threads):
            violations.append(_path(parent, via, i))

        runnable = [tid for tid, t in enumerate(threads) if t.status == RUNNABLE]
        if not runnable:
            memory_key = tuple(sorted(zip(syms, [value for value, _ in memory])))
            if memory_key not in witnesses:
                witnesses[memory_key] = _path(parent, via, i)
            schedules_explored += 1
            faulted_terminal_states += any(t.status == FAULTED for t in threads)
            continue

        for tid in runnable:
            _, after, _, memory_after = step(program, threads[tid], memory).executed[0]
            child = _freeze(table, after, memory_after, key, tid, memory)
            if child in seen:
                continue
            if depth >= max_steps or len(seen) >= max_states:
                truncated = True
                continue
            seen.add(child)
            queue.append(child)
            parent.append(i)
            via.append(tid)

    return ExploreReport(
        witnesses=witnesses,
        schedules_explored=schedules_explored,
        mutual_exclusion_violations=violations,
        truncated=truncated,
        faulted_terminal_states=faulted_terminal_states,
    )


def witness_script(path: list[int]) -> ScheduleScript:
    """Schedule replaying a path of thread ids, one step each (an
    explorer witness, or a debugger session's dispatches), through
    run_schedule."""
    entries: list[tuple[int, int]] = []
    for tid in path:
        if entries and entries[-1][0] == tid:
            entries[-1] = (tid, entries[-1][1] + 1)
        else:
            entries.append((tid, 1))
    return ScheduleScript(entries=entries, halt=True)
