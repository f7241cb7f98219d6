"""Simulated machine state and single-step execution.

Each thread's state is an immutable `ThreadState` value. `step(machine,
thread_id)`, the one transition function, puts a new record in
`MachineState.threads` for every instruction it retires; tampers, the
debugger's `set $R` and a scheduler-switch CLREX replace records the
same way, between steps, so a record taken earlier never changes.
Memory is a value too: a tuple with one `(value, version)` pair per
data word in declaration order, which each store replaces whole. `step`
returns the records and memories around each retired instruction; trace
events are built from those by the scheduler, not here.

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

MASK32 = 0xFFFFFFFF
GRANULE_BYTES = 4
DATA_BASE = 0x1000

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


Memory = tuple[tuple[int, int], ...]   # (value, version) per data word


@dataclass
class StepOutcome:
    # (record before, record after, memory before, memory after) per
    # retired instruction
    executed: list[tuple[ThreadState, ThreadState, Memory, Memory]]
    new_status: str


@dataclass
class MachineState:
    program: Program
    mode: ExecMode
    threads: list[ThreadState]
    memory: Memory
    word_index: dict[int, int]            # address -> index into memory
    sym_addr: dict[str, int]
    addr_sym: dict[int, str]
    step_count: int = 0
    exclusive_ranges: list[tuple[int, int]] = field(default_factory=list)

    def runnable_threads(self) -> list[int]:
        return [i for i, t in enumerate(self.threads) if t.status == RUNNABLE]

    def finished(self) -> bool:
        return not self.runnable_threads()

    def memory_by_symbol(self) -> dict[str, int]:
        return {sym: value for sym, (value, _) in zip(self.sym_addr, self.memory)}

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
    values = dict(program.data_words)
    for name, value in (overrides or {}).items():
        if name not in values:
            raise ValueError(f"override names undeclared symbol {name!r}")
        values[name] = value
    sym_addr = {name: DATA_BASE + GRANULE_BYTES * i for i, name in enumerate(values)}
    return MachineState(
        program=program,
        mode=mode,
        threads=[ThreadState((0,) * 13, pc=program.entry)] * thread_count,
        memory=tuple((value & MASK32, 0) for value in values.values()),
        word_index={addr: i for i, addr in enumerate(sym_addr.values())},
        sym_addr=sym_addr,
        addr_sym={addr: name for name, addr in sym_addr.items()},
        exclusive_ranges=program.exclusive_ranges(),
    )


def _execute_one(m: MachineState, t: ThreadState) -> ThreadState:
    """Retire the instruction at `t.pc` for a thread in state `t`: put
    the memory its store leaves in `m.memory` and return the thread's
    new record."""
    prog = m.program
    memory = m.memory
    word_index = m.word_index
    regs, z, n, pc, granule, version, _, _ = t
    ins = prog.instructions[pc]
    op = ins.opcode
    ops = ins.operands
    next_pc = pc + 1
    fault = None
    rd = None                      # register written, with `value`
    store_word = None              # word index stored, with `store_value`
    if op in ("MOV", "CMP", "ADD"):
        kind, src = ops[-1]        # a register or an immediate
        if kind == "reg":
            src = regs[src]

    # Only aligned mapped words are keys of `word_index`, so a miss is
    # both the unmapped and the unaligned case.
    if op == "MOV":
        rd, value = ops[0][1], src
    elif op == "LDR_ADDR":
        rd, value = ops[0][1], m.sym_addr[ops[1][1]]
    elif op == "LDR_MEM" or op == "LDREX":
        addr = regs[ops[1][1]]
        w = word_index.get(addr)
        if w is None:
            fault = "bus error"
        else:
            rd = ops[0][1]
            value, word_version = memory[w]
            if op == "LDREX":
                granule, version = addr, word_version
    elif op == "STR":
        addr = regs[ops[1][1]]
        w = word_index.get(addr)
        if w is None:
            fault = "bus error"
        else:
            store_word, store_value = w, regs[ops[0][1]]
    elif op == "STREX":
        addr = regs[ops[2][1]]
        w = word_index.get(addr)
        if w is None:
            fault = "bus error"
        else:
            rd = ops[0][1]
            if granule == addr and version == memory[w][1]:
                store_word, store_value, value = w, regs[ops[1][1]], 0
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
    if store_word is not None:
        new_memory = list(memory)
        new_memory[store_word] = (store_value & MASK32, memory[store_word][1] + 1)
        m.memory = tuple(new_memory)
    # tuple.__new__ skips the Python-level ThreadState.__new__, about half
    # the cost of the one record built per retired instruction.
    return tuple.__new__(ThreadState, (regs, z, n, next_pc, granule, version, status, fault))


def step(machine: MachineState, thread_id: int) -> StepOutcome:
    """Advance one thread by one scheduling step.

    In HW mode exactly one instruction retires. In GDB mode the step
    keeps retiring instructions while the PC sits strictly inside an
    LDREX..STREX range, so the thread never stops mid-pair. Each retired
    instruction replaces `machine.threads[thread_id]` with a new record
    and is reported in `StepOutcome.executed` with the records and
    memories around it.

    Nothing acts between the instructions of one step: a tamper is an
    edit made before the step starts, at a point a debugger (GDB) or a
    fault (HW, one instruction per step) can stop at.
    """
    threads = machine.threads
    t = threads[thread_id]
    if t.status != RUNNABLE:
        return StepOutcome([], t.status)

    executed: list[tuple[ThreadState, ThreadState, Memory, Memory]] = []
    while True:
        memory = machine.memory
        after = threads[thread_id] = _execute_one(machine, t)
        executed.append((t, after, memory, machine.memory))
        t = after
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
    return StepOutcome(executed, t.status)
