"""Schedule execution: scripted and random runs, exhaustive exploration.

A schedule is a list of (thread_id, step_count) entries consumed in
order; one entry step equals one machine step() call, so in GDB mode a
step may retire a whole LDREX..STREX group while in HW mode it retires
exactly one instruction. After the script any remaining runnable
threads are completed round-robin (lowest thread id first) unless the
script says halt.

Random runs draw the next thread uniformly from the runnable set with
SplitMix64 (the generator is recorded in the trace header so seeds are
portable): pick = runnable[next_output % len(runnable)].

The explorer enumerates all interleavings of a program depth-first in
HW mode, memoizing on the full machine state (registers, flags, PCs,
monitors, memory, and version counters; versions are semantic state
because they decide reservation validity). It keys a state by a short
tuple of ints, in the manner of SPIN's "collapse" compression (Holzmann,
State Compression in SPIN, 1997): each thread's state and the memory
(values plus versions) are interned once per exploration, and the key
holds their ids. Thread records are immutable values, so `_freeze`
interns them as they are and `_thaw` puts interned records back. One
step changes one thread and at most memory, so a child's key reuses
its parent's other ids, and after each child only the stepped thread
and memory are rolled back. Every declared `.region` is treated as a
mutual-exclusion region: a state where two threads' PCs lie inside the
same region at once is reported with the thread schedule that reached
it.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field

from .isa import Program
from .machine import (
    RUNNABLE,
    STORE_OPCODES,
    ExecMode,
    MachineState,
    init_machine,
    step,
)
from .tamper import CompiledTampers, TamperError, TamperSpec, apply_tampers, compile_tampers
from .trace import TraceEvent

MASK64 = 0xFFFFFFFFFFFFFFFF

DEFAULT_MAX_STEPS = 100_000
EXPLORE_MAX_STEPS = 10_000
EXPLORE_MAX_STATES = 1_000_000


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
    mode: ExecMode | None = None       # validated against the machine when set
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


@dataclass(frozen=True)
class Violation:
    kind: str
    step_index: int
    threads: tuple[int, ...]
    region: str = ""


@dataclass
class RunResult:
    final_memory: dict[str, int]
    thread_statuses: list[tuple[str, str | None]]
    violations: list[Violation]
    trace: list[TraceEvent]
    steps_taken: int
    truncated: bool
    header: dict


class _Runner:
    """Dispatch loop shared by scripted runs, random runs, and the
    debugger: steps threads, applies tampers, tracks region occupancy,
    and accumulates the trace."""

    def __init__(self, machine: MachineState, compiled: CompiledTampers | None = None):
        self.machine = machine
        self.compiled = compiled
        self.trace: list[TraceEvent] = []
        self.violations: list[Violation] = []
        self.clrex_on_switch = False
        self._prev_tid: int | None = None
        self._occupants: list[set[int]] = [set() for _ in machine.program.regions]

    def _pre_exec(self, thread_id: int, pc: int) -> str | None:
        if self.compiled is None:
            return None
        edits = apply_tampers(self.compiled, self.machine, thread_id, pc)
        return "; ".join(edits) if edits else None

    def dispatch(self, thread_id: int):
        """Step one thread (or record a no-op for a finished one) and
        return the StepOutcome, None when nothing ran."""
        m = self.machine
        if self.clrex_on_switch and self._prev_tid not in (None, thread_id):
            # OS-like behavior: descheduling drops the outgoing reservation.
            prev = m.threads[self._prev_tid]
            m.threads[self._prev_tid] = prev._replace(mon_granule=None)
        self._prev_tid = thread_id

        t = m.threads[thread_id]
        if t.status != RUNNABLE:
            self.trace.append(
                TraceEvent(
                    step_index=m.next_event_index(),
                    thread_id=thread_id,
                    pc=t.pc,
                    label=m.program.nearest_label(t.pc) if t.pc < len(m.program.instructions) else None,
                    noop=True,
                )
            )
            return None
        outcome = step(m, thread_id, pre_exec=self._pre_exec)
        self.trace.extend(outcome.events)
        self._update_regions(thread_id)
        return outcome

    def _update_regions(self, thread_id: int) -> None:
        m = self.machine
        t = m.threads[thread_id]
        for i, region in enumerate(m.program.regions):
            occupants = self._occupants[i]
            inside = t.status == RUNNABLE and region.start <= t.pc < region.end
            if inside and thread_id not in occupants:
                if occupants:
                    idx = m.next_event_index()
                    group = tuple(sorted(occupants | {thread_id}))
                    self.violations.append(
                        Violation("mutual_exclusion", idx, group, region.name)
                    )
                    self.trace.append(
                        TraceEvent(
                            step_index=idx,
                            thread_id=thread_id,
                            pc=t.pc,
                            label=region.name,
                            violation="mutual_exclusion",
                        )
                    )
                occupants.add(thread_id)
            elif not inside and thread_id in occupants:
                occupants.discard(thread_id)

    def run_round_robin(self, max_steps: int) -> bool:
        """Step runnable threads ascending until everyone is done; returns
        True if the step budget ran out first."""
        m = self.machine
        while True:
            runnable = m.runnable_threads()
            if not runnable:
                return False
            for tid in runnable:
                if m.step_count >= max_steps:
                    return True
                self.dispatch(tid)

    def result(self, header: dict, truncated: bool = False) -> RunResult:
        m = self.machine
        return RunResult(
            final_memory=m.memory_by_symbol(),
            thread_statuses=[(t.status, t.fault) for t in m.threads],
            violations=self.violations,
            trace=self.trace,
            steps_taken=m.step_count,
            truncated=truncated,
            header=header,
        )


def _compile_tampers(
    tampers: list[TamperSpec] | None, machine: MachineState
) -> CompiledTampers | None:
    """Compile a run's tampers, rejecting any aimed at a thread the
    machine does not have (it could never fire)."""
    if not tampers:
        return None
    for spec in tampers:
        if not 0 <= spec.thread_id < len(machine.threads):
            raise TamperError(
                f"tamper at {spec.location!r} names unknown thread {spec.thread_id} "
                f"(threads are 0..{len(machine.threads) - 1})"
            )
    return compile_tampers(tampers, machine.program, machine.mode)


def run_schedule(
    machine: MachineState,
    script: ScheduleScript,
    tampers: list[TamperSpec] | None = None,
    max_steps: int = DEFAULT_MAX_STEPS,
) -> RunResult:
    """Drive the machine through the script, then round-robin any
    remaining runnable threads to completion (unless the script halts).

    Tampers are compiled before the run starts; in GDB mode a tamper
    aimed strictly inside an LDREX..STREX range is rejected here.
    """
    if script.mode is not None and script.mode is not machine.mode:
        raise ValueError(
            f"schedule mode {script.mode.value!r} does not match machine mode "
            f"{machine.mode.value!r}"
        )
    for tid, count in script.entries:
        if not 0 <= tid < len(machine.threads):
            raise ValueError(f"schedule entry names unknown thread {tid}")
        if count < 1:
            raise ValueError(f"schedule entry for thread {tid} has step count {count}")

    compiled = _compile_tampers(tampers, machine)
    runner = _Runner(machine, compiled)
    runner.clrex_on_switch = script.clrex_on_switch

    header = {
        "program_sha256": machine.program.sha256(),
        "mode": machine.mode.value,
        "schedule": f"script:{script.digest()}",
    }

    for tid, count in script.entries:
        for _ in range(count):
            runner.dispatch(tid)
    truncated = False
    if not script.halt:
        truncated = runner.run_round_robin(max_steps)
    return runner.result(header, truncated)


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
    compiled = _compile_tampers(tampers, machine)
    runner = _Runner(machine, compiled)
    header = {
        "program_sha256": machine.program.sha256(),
        "mode": machine.mode.value,
        "schedule": f"random:splitmix64:{seed}",
    }
    rng = splitmix64(seed)
    truncated = False
    while True:
        runnable = machine.runnable_threads()
        if not runnable:
            break
        if machine.step_count >= max_steps:
            truncated = True
            break
        runner.dispatch(runnable[next(rng) % len(runnable)])
    return runner.result(header, truncated)


@dataclass
class ExploreReport:
    final_states: set[tuple[tuple[str, int], ...]]
    schedules_explored: int
    mutual_exclusion_violations: list[list[int]]
    truncated: bool
    witnesses: dict[tuple[tuple[str, int], ...], list[int]] = field(default_factory=dict)

    @property
    def final_memories(self) -> list[dict[str, int]]:
        return [dict(state) for state in sorted(self.final_states)]

    def final_values(self, symbol: str) -> set[int]:
        return {dict(state)[symbol] for state in self.final_states}


class _InternTable:
    """Numbers each distinct component state (one thread, or memory with
    its versions) in order of first sight, and maps numbers back."""

    def __init__(self) -> None:
        self.ids: dict[tuple, int] = {}
        self.parts: list[tuple] = []

    def intern(self, part: tuple) -> int:
        i = self.ids.get(part)
        if i is None:
            i = self.ids[part] = len(self.parts)
            self.parts.append(part)
        return i


def _memory_part(machine: MachineState, addrs: list[int]) -> tuple:
    return (
        tuple([machine.memory[a] for a in addrs]),
        tuple([machine.versions[a] for a in addrs]),
    )


def _freeze(
    machine: MachineState,
    addrs: list[int],
    table: _InternTable,
    parent: tuple[int, ...] | None = None,
    tid: int = 0,
    stored: bool = True,
) -> tuple[int, ...]:
    """State key: the interned id of each thread's state, then the id of
    memory plus versions. Given the `parent` key the machine was thawed
    from, only thread `tid`, and memory when the step `stored`, changed,
    so only those are re-interned."""
    intern = table.intern
    if parent is None:
        key = [intern(t) for t in machine.threads]
        key.append(intern(_memory_part(machine, addrs)))
        return tuple(key)
    key = list(parent)
    key[tid] = intern(machine.threads[tid])
    if stored:
        key[-1] = intern(_memory_part(machine, addrs))
    return tuple(key)


def _thaw(
    machine: MachineState,
    key: tuple[int, ...],
    addrs: list[int],
    table: _InternTable,
    tid: int | None = None,
    stored: bool = True,
) -> None:
    """Load state `key` into the machine: every thread, or only thread
    `tid` when the machine already holds `key` apart from that thread's
    last step (and memory, when that step `stored`)."""
    parts = table.parts
    if tid is None:
        machine.threads[:] = [parts[i] for i in key[:-1]]
    else:
        machine.threads[tid] = parts[key[tid]]
    if stored:
        values, versions = parts[key[-1]]
        for a, value, version in zip(addrs, values, versions):
            machine.memory[a] = value
            machine.versions[a] = version


def explore(
    program: Program,
    thread_count: int,
    max_steps: int = EXPLORE_MAX_STEPS,
    max_states: int = EXPLORE_MAX_STATES,
    overrides: dict[str, int] | None = None,
) -> ExploreReport:
    """Depth-first enumeration of every interleaving (HW mode, one
    instruction per step) up to the bounds, memoized on full machine
    state. Reports each distinct final memory with a witness schedule,
    plus every reachable state where two or more threads occupy the
    same declared region. Bound exhaustion sets truncated; the report
    stays sound for the explored prefix.

    The visited set holds keys of N+1 small ints: the interned ids of
    each thread's `ThreadState` record and of the memory values plus
    versions, so a component shared by many states is stored once. An
    expanded state is thawed once; each child re-interns only the thread
    it stepped (and memory after a store) and rolls back only those. `_freeze` and `_thaw` stay separate functions
    because perfbench times them as the explorer's keying layer
    (`sched.explore.key_s`)."""
    machine = init_machine(program, thread_count, ExecMode.HW, overrides)
    addrs = sorted(machine.memory)
    syms = [machine.addr_sym[a] for a in addrs]
    regions = program.regions
    stores = {i for i, ins in enumerate(program.instructions) if ins.opcode in STORE_OPCODES}
    table = _InternTable()
    parts = table.parts

    final_states: set = set()
    witnesses: dict = {}
    violations: list[list[int]] = []
    schedules_explored = 0
    truncated = False

    root = _freeze(machine, addrs, table)
    stack: list[tuple[tuple[int, ...], tuple[int, ...]]] = [(root, ())]
    visited: set[tuple[int, ...]] = set()

    while stack:
        key, path = stack.pop()
        if key in visited:
            continue
        if len(visited) >= max_states:
            truncated = True
            break
        visited.add(key)

        threads = [parts[i] for i in key[:-1]]
        if regions:
            for region in regions:
                inside = [
                    i
                    for i, t in enumerate(threads)
                    if t.status == RUNNABLE and region.start <= t.pc < region.end
                ]
                if len(inside) >= 2:
                    violations.append(list(path))
                    break

        runnable = [i for i, t in enumerate(threads) if t.status == RUNNABLE]
        if not runnable:
            memory_key = tuple(sorted(zip(syms, parts[key[-1]][0])))
            final_states.add(memory_key)
            witnesses.setdefault(memory_key, list(path))
            schedules_explored += 1
            continue
        if len(path) >= max_steps:
            truncated = True
            continue

        _thaw(machine, key, addrs, table)
        for tid in reversed(runnable):
            # In HW mode a step retires exactly the instruction at the pc.
            stored = threads[tid].pc in stores
            step(machine, tid, collect_events=False)
            child = _freeze(machine, addrs, table, key, tid, stored)
            if child not in visited:
                stack.append((child, path + (tid,)))
            _thaw(machine, key, addrs, table, tid, stored)

    return ExploreReport(
        final_states=final_states,
        schedules_explored=schedules_explored,
        mutual_exclusion_violations=violations,
        truncated=truncated,
        witnesses=witnesses,
    )


def witness_script(path: list[int]) -> ScheduleScript:
    """Schedule replaying a path of thread ids, one step each (an
    explorer witness, or a debugger session's dispatches), through
    run_schedule. The mode is HW, the explorer's; set it for others."""
    entries: list[tuple[int, int]] = []
    for tid in path:
        if entries and entries[-1][0] == tid:
            entries[-1] = (tid, entries[-1][1] + 1)
        else:
            entries.append((tid, 1))
    return ScheduleScript(entries=entries, mode=ExecMode.HW, halt=True)
