"""Simulated machine state and single-step execution.

Each thread's state is an immutable `ThreadState` value, and memory is
one too: a tuple with one `(value, version)` pair per data word in
declaration order, which each store replaces whole. `step(program, t,
memory)`, the one transition function, is pure: it retires one
instruction of the record `t` and returns the records and memories
around it, writing nothing. Only the runner (`sched`) puts a new record
and memory into a `MachineState`; tampers, the debugger's `set $R` and a
scheduler-switch CLREX replace records between steps, so a record taken
earlier never changes. Trace events are built from `step`'s entries by
`trace`, not here.

The machine is sequentially consistent: one instruction retires at a
time and every store is immediately visible to all threads. Reservation
tracking is version-based: each mapped word (the exclusivity granule is
one 4-byte word) carries a counter that every store bumps. A thread's
monitor is `(granule, counter)` from its LDREX while it holds a
reservation and None while it is open: STREX, CLREX, a fault and exit
open it, so an open monitor keeps nothing. STREX succeeds only if the
monitor is the addressed granule with its counter unchanged. A thread's
own plain STR to its monitored word also bumps the counter, so its later
STREX fails.

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

Those semantics live in one place, the program's kernel table
(`build_kernels`): one kernel per pc, with that instruction's operands,
branch target, immediate mask and end-of-program exit resolved once.
`Program.kernels` builds the table on a program's first step, never at
parse or lint time, and the runner, the explorer and the debugger all
share it. A kernel takes a thread record and a memory and returns the
new record and memory; the memory is the same object unless the
instruction stored, and traces and explorer keys test for that with `is`.

`step` retires exactly one instruction, one kernel call, in either
mode: GDB mode's rule that a thread never stops between LDREX and its
STREX is the runner's dispatch rule (see `sched`). `MachineState` holds
run state only; what depends only on the program lives on `Program`.

Faults (unmapped or unaligned access, bad branch target) halt only the
offending thread; the rest of the machine keeps running.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Callable, NamedTuple

from .isa import REGISTER_COUNT, Instruction, Program

MASK32 = 0xFFFFFFFF

RUNNABLE = "runnable"
EXITED = "exited"
FAULTED = "faulted"

# The most threads a machine may have, checked before `init_machine`
# allocates; no corpus scenario or benchmark workload uses more than 10.
MAX_THREADS = 1024


class ExecMode(enum.Enum):
    GDB = "gdb"
    HW = "hw"


class ThreadState(NamedTuple):
    regs: tuple[int, ...]          # R0..R12
    z: bool = False
    n: bool = False
    pc: int = 0
    monitor: tuple[int, int] | None = None   # (granule, version at LDREX); None == open
    status: str = RUNNABLE
    fault: str | None = None


Memory = tuple[tuple[int, int], ...]   # (value, version) per data word


class StepOutcome(NamedTuple):
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

    def runnable_threads(self) -> list[int]:
        return [i for i, t in enumerate(self.threads) if t.status == RUNNABLE]

    def finished(self) -> bool:
        return not self.runnable_threads()

    def memory_by_symbol(self) -> dict[str, int]:
        return {sym: value for sym, (value, _) in zip(self.program.data_words, self.memory)}


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
    if thread_count > MAX_THREADS:
        raise ValueError(f"thread_count must be <= {MAX_THREADS}")
    values = dict(program.data_words)
    for name, value in (overrides or {}).items():
        if name not in values:
            raise ValueError(f"override names undeclared symbol {name!r}")
        values[name] = value
    return MachineState(
        program=program,
        mode=mode,
        threads=[ThreadState((0,) * REGISTER_COUNT, pc=program.entry)] * thread_count,
        memory=tuple((value & MASK32, 0) for value in values.values()),
    )


Kernel = Callable[[ThreadState, Memory], tuple[ThreadState, Memory]]

# tuple.__new__ skips the Python-level NamedTuple __new__, about half the
# cost of the one record each retired instruction builds.
_new = tuple.__new__


def build_kernels(program: Program) -> tuple[Kernel, ...]:
    """The program's kernel table: `kernels[pc](t, memory)` retires the
    instruction at `pc` for the runnable thread record `t` and returns
    its new record and the memory after it, the same object unless the
    instruction stored. Operands, branch targets, immediate masks and
    the end-of-program exit are resolved here, once; registers and
    memory words hold 32-bit values, so only immediates, sums and
    differences are masked."""
    end = len(program.instructions)
    labels = program.labels
    table = []
    for pc, ins in enumerate(program.instructions):
        kernel = _KERNEL_OF[ins.opcode](program, ins, pc + 1)
        if pc + 1 == end or (ins.opcode in _BRANCHES and labels[ins.operands[0][1]] == end):
            kernel = _exiting(kernel, end)
        table.append(kernel)
    return tuple(table)


def _exiting(kernel: Kernel, end: int) -> Kernel:
    def exiting(t, memory):
        # Retiring into the end of the program exits, dropping the monitor.
        after, memory = kernel(t, memory)
        if after.pc == end:
            regs, z, n, _, _, _, _ = after
            after = _new(ThreadState, (regs, z, n, end, None, EXITED, None))
        return after, memory

    return exiting


def _fault(t: ThreadState, reason: str) -> ThreadState:
    """`t` halted at its own pc with an open monitor."""
    regs, z, n, pc, _, _, _ = t
    return _new(ThreadState, (regs, z, n, pc, None, FAULTED, reason))


# One kernel maker per opcode: `(program, instruction, next pc)`. Where
# the last operand is a register or an immediate, the maker picks the
# kernel for its kind.


def _set_reg(rd: int, value: int, nxt: int) -> Kernel:
    def kernel(t, memory):
        regs, z, n, _, monitor, _, _ = t
        regs = list(regs)
        regs[rd] = value
        return _new(ThreadState, (tuple(regs), z, n, nxt, monitor, RUNNABLE, None)), memory

    return kernel


def _mov(program: Program, ins: Instruction, nxt: int) -> Kernel:
    (_, rd), (kind, src) = ins.operands

    def mov_reg(t, memory):
        regs, z, n, _, monitor, _, _ = t
        regs = list(regs)
        regs[rd] = regs[src]
        return _new(ThreadState, (tuple(regs), z, n, nxt, monitor, RUNNABLE, None)), memory

    return mov_reg if kind == "reg" else _set_reg(rd, src & MASK32, nxt)


def _ldr_addr(program: Program, ins: Instruction, nxt: int) -> Kernel:
    (_, rd), (_, sym) = ins.operands
    return _set_reg(rd, program.sym_addr[sym], nxt)


def _add(program: Program, ins: Instruction, nxt: int) -> Kernel:
    (_, rd), (_, rn), (kind, src) = ins.operands

    def add_imm(t, memory):
        regs, z, n, _, monitor, _, _ = t
        regs = list(regs)
        regs[rd] = (regs[rn] + src) & MASK32
        return _new(ThreadState, (tuple(regs), z, n, nxt, monitor, RUNNABLE, None)), memory

    def add_reg(t, memory):
        regs, z, n, _, monitor, _, _ = t
        regs = list(regs)
        regs[rd] = (regs[rn] + regs[src]) & MASK32
        return _new(ThreadState, (tuple(regs), z, n, nxt, monitor, RUNNABLE, None)), memory

    return add_reg if kind == "reg" else add_imm


def _cmp(program: Program, ins: Instruction, nxt: int) -> Kernel:
    (_, ra), (kind, src) = ins.operands

    # Z: the 32-bit difference is zero; N: its bit 31 is set.
    def cmp_imm(t, memory):
        regs, _, _, _, monitor, _, _ = t
        d = (regs[ra] - src) & MASK32
        z, n = d == 0, d > 0x7FFFFFFF
        return _new(ThreadState, (regs, z, n, nxt, monitor, RUNNABLE, None)), memory

    def cmp_reg(t, memory):
        regs, _, _, _, monitor, _, _ = t
        d = (regs[ra] - regs[src]) & MASK32
        z, n = d == 0, d > 0x7FFFFFFF
        return _new(ThreadState, (regs, z, n, nxt, monitor, RUNNABLE, None)), memory

    return cmp_reg if kind == "reg" else cmp_imm


def _ldr_mem(program: Program, ins: Instruction, nxt: int) -> Kernel:
    (_, rd), (_, rn) = ins.operands
    word_index = program.word_index

    def kernel(t, memory):
        regs, z, n, _, monitor, _, _ = t
        w = word_index.get(regs[rn])
        if w is None:
            return _fault(t, "bus error"), memory
        regs = list(regs)
        regs[rd] = memory[w][0]
        return _new(ThreadState, (tuple(regs), z, n, nxt, monitor, RUNNABLE, None)), memory

    return kernel


def _ldrex(program: Program, ins: Instruction, nxt: int) -> Kernel:
    (_, rd), (_, rn) = ins.operands
    word_index = program.word_index

    def kernel(t, memory):
        regs, z, n, _, _, _, _ = t
        addr = regs[rn]
        w = word_index.get(addr)
        if w is None:
            return _fault(t, "bus error"), memory
        regs = list(regs)
        regs[rd], version = memory[w]
        return _new(ThreadState, (tuple(regs), z, n, nxt, (addr, version), RUNNABLE, None)), memory

    return kernel


def _str(program: Program, ins: Instruction, nxt: int) -> Kernel:
    (_, rm), (_, rn) = ins.operands
    word_index = program.word_index

    def kernel(t, memory):
        regs, z, n, _, monitor, _, _ = t
        w = word_index.get(regs[rn])
        if w is None:
            return _fault(t, "bus error"), memory
        stored = list(memory)
        stored[w] = (regs[rm], memory[w][1] + 1)
        after = _new(ThreadState, (regs, z, n, nxt, monitor, RUNNABLE, None))
        return after, tuple(stored)

    return kernel


def _strex(program: Program, ins: Instruction, nxt: int) -> Kernel:
    (_, rd), (_, rm), (_, rn) = ins.operands
    word_index = program.word_index

    def kernel(t, memory):
        regs, z, n, _, monitor, _, _ = t
        addr = regs[rn]
        w = word_index.get(addr)
        if w is None:
            return _fault(t, "bus error"), memory
        new_regs = list(regs)
        version = memory[w][1]
        if monitor == (addr, version):
            new_regs[rd] = 0
            stored = list(memory)
            stored[w] = (regs[rm], version + 1)
            memory = tuple(stored)
        else:
            new_regs[rd] = 1
        after = _new(ThreadState, (tuple(new_regs), z, n, nxt, None, RUNNABLE, None))
        return after, memory

    return kernel


def _nop(program: Program, ins: Instruction, nxt: int) -> Kernel:
    """NOP, and CLREX, which also opens the monitor."""
    clear = ins.opcode == "CLREX"

    def kernel(t, memory):
        regs, z, n, _, monitor, _, _ = t
        monitor = None if clear else monitor
        return _new(ThreadState, (regs, z, n, nxt, monitor, RUNNABLE, None)), memory

    return kernel


def _branch(program: Program, ins: Instruction, nxt: int) -> Kernel:
    """B, BNE and BEQ: the pc to take with Z set and with Z clear, None
    where taking a branch to a target outside the program faults."""
    op = ins.opcode
    target = program.labels[ins.operands[0][1]]
    if not 0 <= target <= len(program.instructions):
        target = None
    if_z = nxt if op == "BNE" else target
    if_not_z = nxt if op == "BEQ" else target

    def kernel(t, memory):
        regs, z, n, _, monitor, _, _ = t
        to = if_z if z else if_not_z
        if to is None:
            return _fault(t, "bad branch"), memory
        return _new(ThreadState, (regs, z, n, to, monitor, RUNNABLE, None)), memory

    return kernel


_BRANCHES = frozenset({"B", "BNE", "BEQ"})
_KERNEL_OF = {
    "MOV": _mov, "LDR_ADDR": _ldr_addr, "LDR_MEM": _ldr_mem, "LDREX": _ldrex, "STR": _str,
    "STREX": _strex, "CLREX": _nop, "CMP": _cmp, "ADD": _add, "NOP": _nop,
    "B": _branch, "BNE": _branch, "BEQ": _branch,
}


def step(program: Program, t: ThreadState, memory: Memory) -> StepOutcome:
    """Retire one instruction of the runnable record `t` over `memory`
    and report it in `StepOutcome.executed` with the records and
    memories around it. A record that is not runnable retires nothing
    and reports no entry. `step` writes nothing: placing the new record
    and memory is the caller's.
    """
    if t.status != RUNNABLE:
        return _new(StepOutcome, ([], t.status))
    after, memory_after = program.kernels[t.pc](t, memory)
    return _new(StepOutcome, ([(t, after, memory, memory_after)], after.status))
