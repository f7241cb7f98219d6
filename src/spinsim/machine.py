"""Simulated machine state and single-step execution.

Each thread's state is an immutable `ThreadState` value. `step`, the
one transition function, puts a new record in `MachineState.threads`
for every instruction it retires; tampers, the debugger's `set $R` and
a scheduler-switch CLREX replace records the same way, so a record
taken earlier never changes. Memory and versions are mutable dicts.

The machine is sequentially consistent: one instruction retires at a
time and every store is immediately visible to all threads. Reservation
tracking is version-based: each mapped word (the exclusivity granule is
one 4-byte word) carries a counter that every store bumps. LDREX records
the counter; STREX succeeds only if the counter is unchanged and the
monitor still covers the addressed granule. A thread's own plain STR to
its monitored word also bumps the counter, so its later STREX fails.

Per-opcode semantics:

    MOV Rd, op2        Rd := op2
    LDR Rd, =sym       Rd := address(sym)
    LDR Rd, [Rn]       Rd := memory[Rn]
    STR Rm, [Rn]       memory[Rn] := Rm; version(granule) += 1
    LDREX Rd, [Rn]     Rd := memory[Rn]; monitor := (granule, version)
    STREX Rd, Rm, [Rn] on valid reservation: store, bump version, Rd := 0
                       otherwise Rd := 1; monitor opens either way
    CLREX              monitor opens
    CMP Ra, op2        d := Ra - op2 (32-bit); Z := d == 0; N := bit31(d)
    ADD Rd, Rn, op2    Rd := Rn + op2 (wrapping); flags unchanged
    B / BNE / BEQ      jump always / if Z clear / if Z set
    NOP                nothing

Two stepping modes:

    HW   one step() retires exactly one instruction.
    GDB  reproduces a debugger that cannot stop between LDREX and its
         matching STREX: a step starting at an LDREX retires
         instructions until the PC leaves the static [LDREX, STREX]
         index range, so a stopped thread never rests strictly inside
         an exclusive range.

Faults (unmapped or unaligned access, bad branch target) halt only the
offending thread; the rest of the machine keeps running.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import NamedTuple

from .isa import Program
from .trace import TraceEvent

MASK32 = 0xFFFFFFFF
GRANULE_BYTES = 4
DATA_BASE = 0x1000

# Opcodes that may write memory (and bump a version).
STORE_OPCODES = frozenset({"STR", "STREX"})

RUNNABLE = "runnable"
EXITED = "exited"
FAULTED = "faulted"

# A GDB-mode step retiring more than this many instructions means the
# program loops without leaving the exclusive range; fault rather than hang.
_ATOMIC_STEP_LIMIT = 4096


class ExecMode(enum.Enum):
    GDB = "gdb"
    HW = "hw"


class ThreadState(NamedTuple):
    regs: tuple[int, ...]          # R0..R12
    z: bool = False
    n: bool = False
    pc: int = 0
    mon_granule: int | None = None   # None == monitor open
    mon_version: int = 0
    status: str = RUNNABLE
    fault: str | None = None

    def monitor_open(self) -> bool:
        return self.mon_granule is None


@dataclass
class StepOutcome:
    executed: list[tuple[int, object]]
    events: list[TraceEvent]
    new_status: str


@dataclass
class MachineState:
    program: Program
    mode: ExecMode
    threads: list[ThreadState]
    memory: dict[int, int]
    versions: dict[int, int]
    sym_addr: dict[str, int]
    addr_sym: dict[int, str]
    step_count: int = 0
    event_seq: int = 0
    exclusive_ranges: list[tuple[int, int]] = field(default_factory=list)

    def next_event_index(self) -> int:
        idx = self.event_seq
        self.event_seq += 1
        return idx

    def runnable_threads(self) -> list[int]:
        return [i for i, t in enumerate(self.threads) if t.status == RUNNABLE]

    def finished(self) -> bool:
        return not self.runnable_threads()

    def memory_by_symbol(self) -> dict[str, int]:
        return {sym: self.memory[addr] for sym, addr in self.sym_addr.items()}

    def strictly_inside_exclusive(self, pc: int) -> tuple[int, int] | None:
        """`strictly_inside` over this program's exclusive ranges."""
        return strictly_inside(self.exclusive_ranges, pc)


def strictly_inside(ranges: list[tuple[int, int]], pc: int) -> tuple[int, int] | None:
    """The GDB stop-point rule: the range (l, s) of `ranges` with
    l < pc <= s, i.e. past the LDREX but not past the STREX, or None
    when a debugger may stop at `pc`. The LDREX index itself is a legal
    stop point."""
    for l, s in ranges:
        if l < pc <= s:
            return (l, s)
    return None


def init_machine(
    program: Program,
    thread_count: int,
    mode: ExecMode = ExecMode.HW,
    overrides: dict[str, int] | None = None,
) -> MachineState:
    """Fresh machine: every thread Runnable at the entry with zeroed
    registers, clear flags, and an open monitor; memory initialized from
    the program's data words and then `overrides`."""
    if thread_count < 1:
        raise ValueError("thread_count must be >= 1")
    sym_addr = {}
    memory = {}
    versions = {}
    for i, (name, value) in enumerate(program.data_words.items()):
        addr = DATA_BASE + GRANULE_BYTES * i
        sym_addr[name] = addr
        memory[addr] = value & MASK32
        versions[addr] = 0
    if overrides:
        for name, value in overrides.items():
            if name not in sym_addr:
                raise ValueError(f"override names undeclared symbol {name!r}")
            memory[sym_addr[name]] = value & MASK32
    return MachineState(
        program=program,
        mode=mode,
        threads=[ThreadState((0,) * 13, pc=program.entry)] * thread_count,
        memory=memory,
        versions=versions,
        sym_addr=sym_addr,
        addr_sym={addr: name for name, addr in sym_addr.items()},
        exclusive_ranges=program.exclusive_ranges(),
    )


def _monitor_desc(m: MachineState, granule: int | None, version: int) -> str:
    if granule is None:
        return "open"
    return f"{m.addr_sym.get(granule, hex(granule))}:v{version}"


def _execute_one(
    m: MachineState,
    tid: int,
    t: ThreadState,
    tamper_note: str | None,
    events: list[TraceEvent] | None,
) -> ThreadState:
    """Retire the instruction at `t.pc` for thread `tid`: apply its store
    to memory, append its trace event to `events` unless that is None,
    and return the thread's new record."""
    prog = m.program
    memory = m.memory
    regs, z, n, pc, granule, version, _, _ = t
    ins = prog.instructions[pc]
    op = ins.opcode
    ops = ins.operands
    next_pc = pc + 1
    fault = None
    rd = None                      # register written, with `value`
    store_addr = None              # word stored, with `store_value`
    if op in ("MOV", "CMP", "ADD"):
        kind, src = ops[-1]        # a register or an immediate
        if kind == "reg":
            src = regs[src]

    # Memory maps aligned words only, so `addr not in memory` also
    # rejects unaligned addresses.
    if op == "MOV":
        rd, value = ops[0][1], src
    elif op == "LDR_ADDR":
        rd, value = ops[0][1], m.sym_addr[ops[1][1]]
    elif op == "LDR_MEM" or op == "LDREX":
        addr = regs[ops[1][1]]
        if addr not in memory:
            fault = "bus error"
        else:
            rd, value = ops[0][1], memory[addr]
            if op == "LDREX":
                granule, version = addr, m.versions[addr]
    elif op == "STR":
        addr = regs[ops[1][1]]
        if addr not in memory:
            fault = "bus error"
        else:
            store_addr, store_value = addr, regs[ops[0][1]]
    elif op == "STREX":
        addr = regs[ops[2][1]]
        if addr not in memory:
            fault = "bus error"
        else:
            rd = ops[0][1]
            if granule == addr and version == m.versions[addr]:
                store_addr, store_value, value = addr, regs[ops[1][1]], 0
            else:
                value = 1
            granule = None
    elif op == "CLREX":
        granule = None
    elif op == "CMP":
        d = (regs[ops[0][1]] - src) & MASK32
        z = d == 0
        n = bool(d & 0x80000000)
    elif op == "ADD":
        rd, value = ops[0][1], regs[ops[1][1]] + src
    elif op in ("B", "BNE", "BEQ"):
        if op == "B" or (op == "BNE" and not z) or (op == "BEQ" and z):
            target = prog.labels[ops[0][1]]
            if not 0 <= target <= len(prog.instructions):
                fault = "bad branch"
            else:
                next_pc = target
    elif op != "NOP":  # pragma: no cover - parser admits no other opcode
        raise AssertionError(f"unhandled opcode {op}")

    status = RUNNABLE
    if fault is not None:
        status, granule, next_pc = FAULTED, None, pc
    elif next_pc == len(prog.instructions):
        status, granule = EXITED, None
    if rd is not None:
        value &= MASK32
        new_regs = list(regs)
        new_regs[rd] = value
        regs = tuple(new_regs)
    if store_addr is not None:
        old_word = memory[store_addr]
        store_value &= MASK32
        memory[store_addr] = store_value
        m.versions[store_addr] += 1

    if events is not None:
        event = TraceEvent(
            step_index=m.next_event_index(),
            thread_id=tid,
            pc=pc,
            label=prog.nearest_label(pc),
            instr=ins.text(),
            reg_writes=[] if rd is None else [(f"R{rd}", t.regs[rd], value)],
            mem_writes=(
                [] if store_addr is None
                else [(m.addr_sym[store_addr], old_word, store_value)]
            ),
            tamper=tamper_note,
            fault=fault,
        )
        if granule != t.mon_granule or version != t.mon_version:
            before = _monitor_desc(m, t.mon_granule, t.mon_version)
            after = _monitor_desc(m, granule, version)
            if after != before:
                event.monitor = (before, after)
        events.append(event)
    # tuple.__new__ skips the Python-level ThreadState.__new__, about half
    # the cost of the one record built per retired instruction.
    return tuple.__new__(ThreadState, (regs, z, n, next_pc, granule, version, status, fault))


def step(
    machine: MachineState,
    thread_id: int,
    pre_exec=None,
    collect_events: bool = True,
) -> StepOutcome:
    """Advance one thread by one scheduling step.

    In HW mode exactly one instruction retires. In GDB mode the step
    keeps retiring instructions while the PC sits strictly inside an
    LDREX..STREX range, so the thread never stops mid-pair. Each retired
    instruction replaces `machine.threads[thread_id]` with a new record.

    `pre_exec(thread_id, pc)`, when given, runs immediately before each
    instruction retires (the tamper hook point), may replace the thread's
    record, and may return a description string recorded on that
    instruction's trace event.
    """
    threads = machine.threads
    t = threads[thread_id]
    if t.status != RUNNABLE:
        return StepOutcome([], [], t.status)

    instructions = machine.program.instructions
    executed: list[tuple[int, object]] = []
    events: list[TraceEvent] = []
    sink = events if collect_events else None
    while True:
        pc = t.pc
        note = None
        if pre_exec is not None:
            note = pre_exec(thread_id, pc)
            t = threads[thread_id]
        t = threads[thread_id] = _execute_one(machine, thread_id, t, note, sink)
        executed.append((pc, instructions[pc]))
        if t.status != RUNNABLE or machine.mode is ExecMode.HW:
            break
        if strictly_inside(machine.exclusive_ranges, t.pc) is None:
            break
        if len(executed) >= _ATOMIC_STEP_LIMIT:
            t = threads[thread_id] = t._replace(
                status=FAULTED, fault="atomic-step limit", mon_granule=None
            )
            break
    machine.step_count += 1
    return StepOutcome(executed, events, t.status)
