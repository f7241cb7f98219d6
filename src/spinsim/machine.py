"""Simulated machine state and single-step execution.

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


@dataclass
class ThreadState:
    regs: list[int]
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
        """Range (l, s) with l < pc <= s, i.e. past the LDREX but not past
        the STREX. The LDREX index itself is a legal stop point."""
        for l, s in self.exclusive_ranges:
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
    threads = [
        ThreadState(regs=[0] * 13, pc=program.entry) for _ in range(thread_count)
    ]
    return MachineState(
        program=program,
        mode=mode,
        threads=threads,
        memory=memory,
        versions=versions,
        sym_addr=sym_addr,
        addr_sym={addr: name for name, addr in sym_addr.items()},
        exclusive_ranges=program.exclusive_ranges(),
    )


def _operand_value(t: ThreadState, operand) -> int:
    kind, value = operand
    if kind == "reg":
        return t.regs[value]
    return value & MASK32


def _monitor_desc(m: MachineState, t: ThreadState) -> str:
    if t.mon_granule is None:
        return "open"
    sym = m.addr_sym.get(t.mon_granule, hex(t.mon_granule))
    return f"{sym}:v{t.mon_version}"


def _fault(t: ThreadState, reason: str) -> None:
    t.status = FAULTED
    t.fault = reason
    t.mon_granule = None


def _execute_one(
    m: MachineState,
    tid: int,
    t: ThreadState,
    collect: bool,
    tamper_note: str | None,
) -> TraceEvent | None:
    prog = m.program
    pc = t.pc
    ins = prog.instructions[pc]
    op = ins.opcode
    ops = ins.operands

    reg_writes: list[tuple[str, int, int]] = []
    mem_writes: list[tuple[str, int, int]] = []
    monitor_before = _monitor_desc(m, t) if collect else ""

    def write_reg(rd: int, value: int) -> None:
        value &= MASK32
        if collect:
            reg_writes.append((f"R{rd}", t.regs[rd], value))
        t.regs[rd] = value

    def load(addr: int) -> int | None:
        if addr % GRANULE_BYTES or addr not in m.memory:
            _fault(t, "bus error")
            return None
        return m.memory[addr]

    def store(addr: int, value: int) -> bool:
        if addr % GRANULE_BYTES or addr not in m.memory:
            _fault(t, "bus error")
            return False
        value &= MASK32
        if collect:
            sym = m.addr_sym.get(addr, hex(addr))
            mem_writes.append((sym, m.memory[addr], value))
        m.memory[addr] = value
        m.versions[addr] += 1
        return True

    next_pc = pc + 1

    if op == "MOV":
        write_reg(ops[0][1], _operand_value(t, ops[1]))
    elif op == "LDR_ADDR":
        write_reg(ops[0][1], m.sym_addr[ops[1][1]])
    elif op == "LDR_MEM":
        value = load(t.regs[ops[1][1]])
        if value is not None:
            write_reg(ops[0][1], value)
    elif op == "STR":
        store(t.regs[ops[1][1]], t.regs[ops[0][1]])
    elif op == "LDREX":
        addr = t.regs[ops[1][1]]
        value = load(addr)
        if value is not None:
            write_reg(ops[0][1], value)
            t.mon_granule = addr
            t.mon_version = m.versions[addr]
    elif op == "STREX":
        addr = t.regs[ops[2][1]]
        if addr % GRANULE_BYTES or addr not in m.memory:
            _fault(t, "bus error")
        else:
            ok = t.mon_granule == addr and t.mon_version == m.versions[addr]
            t.mon_granule = None
            if ok:
                store(addr, t.regs[ops[1][1]])
                write_reg(ops[0][1], 0)
            else:
                write_reg(ops[0][1], 1)
    elif op == "CLREX":
        t.mon_granule = None
    elif op == "CMP":
        d = (t.regs[ops[0][1]] - _operand_value(t, ops[1])) & MASK32
        t.z = d == 0
        t.n = bool(d & 0x80000000)
    elif op == "ADD":
        write_reg(ops[0][1], t.regs[ops[1][1]] + _operand_value(t, ops[2]))
    elif op in ("B", "BNE", "BEQ"):
        taken = op == "B" or (op == "BNE" and not t.z) or (op == "BEQ" and t.z)
        if taken:
            target = prog.labels[ops[0][1]]
            if not 0 <= target <= len(prog.instructions):
                _fault(t, "bad branch")
            else:
                next_pc = target
    elif op == "NOP":
        pass
    else:  # pragma: no cover - parser admits no other opcode
        raise AssertionError(f"unhandled opcode {op}")

    if t.status == RUNNABLE:
        t.pc = next_pc
        if t.pc == len(prog.instructions):
            t.status = EXITED
            t.mon_granule = None

    if not collect:
        return None
    event = TraceEvent(
        step_index=m.next_event_index(),
        thread_id=tid,
        pc=pc,
        label=prog.nearest_label(pc),
        instr=ins.text(),
        reg_writes=reg_writes,
        mem_writes=mem_writes,
        tamper=tamper_note,
        fault=t.fault if t.status == FAULTED else None,
    )
    monitor_after = _monitor_desc(m, t)
    if monitor_after != monitor_before:
        event.monitor = (monitor_before, monitor_after)
    return event


def step(
    machine: MachineState,
    thread_id: int,
    pre_exec=None,
    collect_events: bool = True,
) -> StepOutcome:
    """Advance one thread by one scheduling step.

    In HW mode exactly one instruction retires. In GDB mode the step
    keeps retiring instructions while the PC sits strictly inside an
    LDREX..STREX range, so the thread never stops mid-pair.

    `pre_exec(thread_id, pc)`, when given, runs immediately before each
    instruction retires (the tamper hook point) and may return a
    description string recorded on that instruction's trace event.
    """
    t = machine.threads[thread_id]
    if t.status != RUNNABLE:
        return StepOutcome([], [], t.status)

    executed: list[tuple[int, object]] = []
    events: list[TraceEvent] = []
    while True:
        pc = t.pc
        note = pre_exec(thread_id, pc) if pre_exec is not None else None
        event = _execute_one(machine, thread_id, t, collect_events, note)
        executed.append((pc, machine.program.instructions[pc]))
        if event is not None:
            events.append(event)
        if t.status != RUNNABLE or machine.mode is ExecMode.HW:
            break
        if machine.strictly_inside_exclusive(t.pc) is None:
            break
        if len(executed) >= _ATOMIC_STEP_LIMIT:
            _fault(t, "atomic-step limit")
            break
    machine.step_count += 1
    return StepOutcome(executed, events, t.status)
