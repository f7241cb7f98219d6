from __future__ import annotations

import ast
import dataclasses
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import step_machine

import spinsim
from spinsim import machine as machine_module
from spinsim.debug import DebugSession
from spinsim.isa import DATA_BASE, Instruction, Program, parse_program, strictly_inside
from spinsim.lint import lint
from spinsim.machine import (
    EXITED,
    FAULTED,
    MASK32,
    MAX_THREADS,
    RUNNABLE,
    ExecMode,
    MachineState,
    StepOutcome,
    ThreadState,
    init_machine,
)
from spinsim.sched import (
    _ATOMIC_STEP_LIMIT,
    ScheduleScript,
    _Runner,
    explore,
    run_schedule,
    splitmix64,
)

TWO_WORDS = ".data lockVar 0\n.data accountBalance 100\n"


def word(machine, symbol):
    """The (value, version) pair of a data word."""
    program = machine.program
    return machine.memory[program.word_index[program.sym_addr[symbol]]]


def run_to_completion(machine, tid):
    while machine.threads[tid].status == RUNNABLE:
        step_machine(machine, tid)


def test_init_ten_threads(load_corpus):
    p = load_corpus("lock_unlock.s")
    m = init_machine(p, 10, ExecMode.GDB)
    assert len(m.threads) == 10
    assert all(t.status == RUNNABLE for t in m.threads)
    assert all(t.pc == p.entry for t in m.threads)
    assert all(t.regs == (0,) * 13 for t in m.threads)
    assert all(t.mon_granule is None for t in m.threads)
    assert m.memory_by_symbol()["lockVar"] == 0


def test_init_bounds_the_thread_count_before_allocating(load_corpus):
    """A count above MAX_THREADS is refused before any allocation: the
    thread list for 10**18 records could never be built, so only an
    early check gives the ValueError."""
    p = load_corpus("lock_basic.s")
    assert len(init_machine(p, MAX_THREADS).threads) == MAX_THREADS
    for count in (MAX_THREADS + 1, 10**18):
        with pytest.raises(ValueError, match=f"^thread_count must be <= {MAX_THREADS}$"):
            init_machine(p, count)


def test_init_single_thread_minimal(load_corpus):
    m = init_machine(load_corpus("lock_basic.s"), 1)
    assert len(m.threads) == 1
    assert m.threads[0].mon_granule is None


def test_init_overrides(load_corpus):
    p = load_corpus("lock_regcmp.s")
    m = init_machine(p, 3, ExecMode.GDB, overrides={"accountBalance": 100})
    assert m.memory_by_symbol()["accountBalance"] == 100
    m = init_machine(p, 3, ExecMode.GDB, overrides={"accountBalance": 250})
    assert m.memory_by_symbol()["accountBalance"] == 250
    with pytest.raises(ValueError, match="undeclared symbol"):
        init_machine(p, 3, ExecMode.GDB, overrides={"nosuch": 1})
    with pytest.raises(ValueError, match="thread_count"):
        init_machine(p, 0)


def test_strex_without_reservation_fails():
    p = parse_program(
        TWO_WORDS + "    LDR R10, =lockVar\n    MOV R9, #1\n    STREX R2, R9, [R10]\n"
    )
    m = init_machine(p, 1)
    for _ in range(3):
        step_machine(m, 0)
    assert m.threads[0].regs[2] == 1
    assert m.memory_by_symbol()["lockVar"] == 0  # no write happened
    assert word(m, "lockVar")[1] == 0


def test_memory_is_a_value():
    """A memory tuple taken before a storing step is unchanged afterwards
    and the machine holds a new one; a step that stores nothing leaves
    the same tuple in place."""
    p = parse_program(
        TWO_WORDS
        + "    LDR R10, =accountBalance\n"
        + "    LDREX R8, [R10]\n"
        + "    MOV R9, #7\n"
        + "    STREX R2, R9, [R10]\n"
        + "    STR R2, [R10]\n"
    )
    m = init_machine(p, 1)
    held = m.memory
    for _ in range(3):  # LDR, LDREX, MOV
        step_machine(m, 0)
    assert m.memory is held
    step_machine(m, 0)  # STREX succeeds
    assert held == ((0, 0), (100, 0))
    assert m.memory == ((0, 0), (7, 1))
    held = m.memory
    step_machine(m, 0)  # STR
    assert held == ((0, 0), (7, 1))
    assert m.memory == ((0, 0), (0, 2))


def test_cross_thread_invalidation_exact():
    """A: LDREX; B: STR; A: STREX returns 1 and writes nothing."""
    p = parse_program(
        TWO_WORDS
        + "    LDR R10, =lockVar\n"
        + "    LDREX R8, [R10]\n"
        + "    NOP\n"
        + "    NOP\n"
        + "    MOV R9, #1\n"
        + "    STREX R2, R9, [R10]\n"
        + "    MOV R3, #9\n"
        + "    STR R3, [R10]\n"
    )
    m = init_machine(p, 2)
    step_machine(m, 0)
    step_machine(m, 0)  # A holds a reservation at version 0
    # B runs all the way through its STR (its own STREX also stores)
    for _ in range(8):
        step_machine(m, 1)
    version_after_b = word(m, "lockVar")[1]
    assert version_after_b > 0
    for _ in range(3):
        step_machine(m, 0)  # NOP, NOP, MOV
    step_machine(m, 0)      # A: STREX
    assert m.threads[0].regs[2] == 1
    assert word(m, "lockVar")[1] == version_after_b  # A wrote nothing
    assert word(m, "lockVar")[0] == 9


def test_own_str_invalidates_own_reservation():
    p = parse_program(
        ".data x 0\n"
        + "    LDR R10, =x\n"
        + "    LDREX R8, [R10]\n"
        + "    MOV R9, #3\n"
        + "    STR R9, [R10]\n"
        + "    STREX R2, R9, [R10]\n"
    )
    m = init_machine(p, 1)
    for _ in range(5):
        step_machine(m, 0)
    assert m.threads[0].regs[2] == 1
    assert m.memory_by_symbol()["x"] == 3


def test_monitor_hygiene_second_strex_fails():
    p = parse_program(
        ".data x 0\n"
        + "    LDR R10, =x\n"
        + "    LDREX R8, [R10]\n"
        + "    MOV R9, #1\n"
        + "    STREX R2, R9, [R10]\n"
        + "    STREX R3, R9, [R10]\n"
    )
    m = init_machine(p, 1)
    for _ in range(5):
        step_machine(m, 0)
    t = m.threads[0]
    assert t.regs[2] == 0    # first succeeds
    assert t.regs[3] == 1    # second has no reservation
    assert t.mon_granule is None


def test_clrex_drops_reservation():
    p = parse_program(
        ".data x 0\n"
        + "    LDR R10, =x\n"
        + "    LDREX R8, [R10]\n"
        + "    CLREX\n"
        + "    MOV R9, #1\n"
        + "    STREX R2, R9, [R10]\n"
    )
    m = init_machine(p, 1)
    step_machine(m, 0)
    step_machine(m, 0)
    assert m.threads[0].mon_granule is not None
    step_machine(m, 0)
    assert m.threads[0].mon_granule is None
    step_machine(m, 0)
    step_machine(m, 0)
    assert m.threads[0].regs[2] == 1


def test_cmp_flags_and_add_wrapping():
    p = parse_program(
        "    MOV R1, #5\n"
        + "    CMP R1, #5\n"   # Z set
        + "    CMP R1, #6\n"   # negative difference -> N set
        + "    CMP R1, #4\n"   # positive -> both clear
        + "    MOV R2, #-1\n"
        + "    ADD R3, R2, #2\n"  # wraps to 1
        + "    ADD R4, R2, R2\n"
    )
    m = init_machine(p, 1)
    step_machine(m, 0)
    step_machine(m, 0)
    t = m.threads[0]
    assert t.z and not t.n
    step_machine(m, 0)
    t = m.threads[0]
    assert not t.z and t.n
    step_machine(m, 0)
    t = m.threads[0]
    assert not t.z and not t.n
    z_before, n_before = t.z, t.n
    step_machine(m, 0)
    step_machine(m, 0)
    t = m.threads[0]
    assert t.regs[3] == 1
    assert (t.z, t.n) == (z_before, n_before)  # ADD leaves flags alone
    step_machine(m, 0)
    assert m.threads[0].regs[4] == 0xFFFFFFFE


def test_branches():
    p = parse_program(
        "    MOV R1, #0\n"
        + "    CMP R1, #0\n"
        + "    BEQ over\n"
        + "    MOV R2, #99\n"
        + "over:\n"
        + "    BNE never\n"
        + "    B done\n"
        + "never:\n"
        + "    MOV R3, #99\n"
        + "done:\n"
    )
    m = init_machine(p, 1)
    run_to_completion(m, 0)
    t = m.threads[0]
    assert t.status == EXITED
    assert t.regs[2] == 0 and t.regs[3] == 0


def test_unmapped_access_faults_thread_only():
    p = parse_program(".data x 1\n    LDR R1, [R0]\n")  # R0 = 0: unmapped
    m = init_machine(p, 2)
    out = step_machine(m, 0)
    assert out.new_status == FAULTED
    assert m.threads[0].fault == "bus error"
    assert m.threads[0].mon_granule is None
    # the machine keeps running other threads
    assert m.threads[1].status == RUNNABLE
    step_machine(m, 1)
    assert m.threads[1].status == FAULTED  # same program, same fault
    # stepping a faulted thread is a no-op at machine level
    out = step_machine(m, 0)
    assert out.executed == [] and out.new_status == FAULTED


def test_unaligned_access_faults():
    p = parse_program(
        ".data x 1\n    LDR R1, =x\n    ADD R1, R1, #2\n    LDR R2, [R1]\n"
    )
    m = init_machine(p, 1)
    for _ in range(3):
        step_machine(m, 0)
    assert m.threads[0].status == FAULTED
    assert m.threads[0].fault == "bus error"


def test_branch_to_out_of_range_index_faults():
    # unreachable through the parser (labels always resolve in range);
    # the engine still guards a hand-built program
    from spinsim.isa import Instruction, Program

    p = Program(
        instructions=[Instruction("B", (("label", "x"),))],
        labels={"x": 99},
        data_words={},
        regions=[],
    )
    m = init_machine(p, 1)
    out = step_machine(m, 0)
    assert out.new_status == FAULTED
    assert m.threads[0].fault == "bad branch"


def test_exit_at_program_end():
    p = parse_program("    NOP\n")
    m = init_machine(p, 1)
    out = step_machine(m, 0)
    assert out.new_status == EXITED
    assert m.threads[0].pc == 1


def test_step_retires_one_instruction_in_gdb_mode(load_corpus):
    """`step` has one path: at an LDREX it retires that one instruction
    in GDB mode too, leaving the thread inside the exclusive range; the
    runner, not the machine, steps on to the next stop."""
    p = load_corpus("lock_regcmp.s")
    m = init_machine(p, 1, ExecMode.GDB)
    step_machine(m, 0)  # LDR
    step_machine(m, 0)  # MOV R7
    assert p.instructions[2].opcode == "LDREX"
    out = step_machine(m, 0)
    assert [before.pc for before, _, _, _ in out.executed] == [2]
    assert m.threads[0].pc == 3 and p.inside_range[3] is not None


def test_gdb_winner_single_step_retires_through_strex(load_corpus):
    """At the LDREX with the lock free, one gdb-mode dispatch retires
    LDREX, CMP, BNE (not taken), MOV, STREX and stops at the status
    compare."""
    p = load_corpus("lock_regcmp.s")
    runner = _Runner(init_machine(p, 1, ExecMode.GDB))
    m = runner.machine
    runner.dispatch(0)  # LDR
    runner.dispatch(0)  # MOV R7
    assert m.threads[0].pc == 2
    out = runner.dispatch(0)
    assert [before.pc for before, _, _, _ in out.executed] == [2, 3, 4, 5, 6]
    assert m.threads[0].pc == 7
    assert p.instructions[7].text() == "CMP R2, R7"
    assert m.threads[0].regs[2] == 0  # acquired


def test_gdb_loser_cycles_three_stop_points(load_corpus):
    p = load_corpus("lock_regcmp.s")
    runner = _Runner(init_machine(p, 2, ExecMode.GDB))
    m = runner.machine
    for _ in range(5):
        runner.dispatch(0)  # thread 0 acquires and sits in the critical section
    assert m.memory_by_symbol()["lockVar"] == 1
    stops = []
    for _ in range(12):
        runner.dispatch(1)
        stops.append(m.threads[1].pc)
        assert strictly_inside(p.exclusive_ranges(), m.threads[1].pc) is None
    assert stops == [1, 2, 0] * 4


def test_hw_mode_steps_single_instructions(load_corpus):
    p = load_corpus("lock_regcmp.s")
    m = init_machine(p, 1, ExecMode.HW)
    for expected_pc in [1, 2, 3, 4, 5, 6, 7]:
        out = step_machine(m, 0)
        assert len(out.executed) == 1
        assert m.threads[0].pc == expected_pc


RUNAWAY = (
    ".data x 0\n"
    + "    LDR R10, =x\n"
    + "    LDREX R8, [R10]\n"
    + "spin:\n"
    + "    B spin\n"
    + "    STREX R2, R8, [R10]\n"
)


def test_atomic_runaway_faults_instead_of_hanging():
    runner = _Runner(init_machine(parse_program(RUNAWAY), 1, ExecMode.GDB))
    runner.dispatch(0)
    out = runner.dispatch(0)  # LDREX region never exits
    assert out.new_status == FAULTED
    assert runner.machine.threads[0].fault == "atomic-step limit"


def test_step_determinism(load_corpus):
    p = load_corpus("lock_regcmp.s")
    results = []
    for _ in range(2):
        runner = _Runner(init_machine(p, 3, ExecMode.GDB))
        m = runner.machine
        seq = [0, 0, 0, 1, 1, 2, 0, 1, 2, 2, 1, 0] * 5
        for tid in seq:
            runner.dispatch(tid)
        results.append(
            (
                tuple(tuple(t.regs) + (t.pc, t.status) for t in m.threads),
                m.memory,
            )
        )
    assert results[0] == results[1]


# Inline programs for the stop table: two LDREX..STREX pairs, and a
# pair followed by an LDREX that no STREX follows.
STOP_TABLE_INLINE = {
    "two_pairs": (
        ".data a 0\n.data b 0\n"
        "    LDR R10, =a\n    LDREX R1, [R10]\n    ADD R1, R1, #1\n    STREX R2, R1, [R10]\n"
        "    LDR R11, =b\n    LDREX R3, [R11]\n    STREX R4, R3, [R11]\n    NOP\n",
        [(1, 3), (5, 6)],
    ),
    "ldrex_without_strex": (
        ".data a 0\n"
        "    LDR R10, =a\n    LDREX R1, [R10]\n    STREX R2, R1, [R10]\n"
        "    LDREX R3, [R10]\n    MOV R4, #1\n    NOP\n",
        [(1, 2)],
    ),
}


@pytest.mark.parametrize(
    "name",
    sorted(p.name for p in spinsim.corpus_dir().glob("*.s")) + sorted(STOP_TABLE_INLINE),
)
def test_stop_table_is_strictly_inside_per_pc(name, load_corpus):
    if name in STOP_TABLE_INLINE:
        source, want_ranges = STOP_TABLE_INLINE[name]
        p = parse_program(source)
        assert p.exclusive_ranges() == want_ranges
    else:
        p = load_corpus(name)
    ranges = p.exclusive_ranges()
    assert len(p.inside_range) == len(p.instructions) + 1
    for pc in range(len(p.instructions) + 1):
        assert p.inside_range[pc] == strictly_inside(ranges, pc), pc
    assert p.inside_range is p.inside_range  # built once per Program


def test_gdb_step_retires_each_of_two_pairs_whole():
    source, _ = STOP_TABLE_INLINE["two_pairs"]
    runner = _Runner(init_machine(parse_program(source), 1, ExecMode.GDB))
    m = runner.machine
    stops = []
    while m.threads[0].status == RUNNABLE:
        runner.dispatch(0)
        stops.append(m.threads[0].pc)
    assert stops == [1, 4, 5, 7, 8]
    assert m.threads[0].regs[2] == 0 and m.threads[0].regs[4] == 0  # both STREXes stored


def test_machine_state_holds_run_state_only():
    """What depends only on the program lives on `Program`."""
    fields = [f.name for f in dataclasses.fields(spinsim.MachineState)]
    assert fields == ["program", "mode", "threads", "memory"]


def test_only_isa_evaluates_the_stop_rule():
    """The GDB stop rule has one owner: every other module reads the
    program's stop table instead of calling `strictly_inside`."""
    callers = set()
    for path in Path(spinsim.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Call):
                func = node.func
                name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
                if name == "strictly_inside":
                    callers.add(path.stem)
    assert callers == {"isa"}


def test_only_trace_renders_events():
    """The event format has one owner: only `trace` reads what only an
    event shows, the listing (instruction text and labels), the symbol
    of an address and the monitor's version."""
    readers: dict[str, set] = {"listing": set(), "addr_sym": set(), "mon_version": set()}
    for path in Path(spinsim.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Attribute) and node.attr in readers:
                readers[node.attr].add(path.stem)
    assert readers == {"listing": {"trace"}, "addr_sym": {"trace"}, "mon_version": {"trace"}}


def test_only_the_runner_writes_a_machine():
    """`step` is pure: the only functions that assign to a machine's
    `threads`, one of its records or its `memory` are the runner's
    dispatch and the tamper hook it calls; the explorer keys values."""
    writers = set()

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                visit(child, scope + [child.name])
                continue
            targets = child.targets if isinstance(child, ast.Assign) else []
            if isinstance(child, (ast.AugAssign, ast.AnnAssign)):
                targets = [child.target]
            for target in targets:
                for n in ast.walk(target):
                    n = n.value if isinstance(n, ast.Subscript) else n
                    if isinstance(n, ast.Attribute) and n.attr in ("threads", "memory"):
                        writers.add(".".join(scope))
            visit(child, scope)

    for path in Path(spinsim.__file__).parent.glob("*.py"):
        visit(ast.parse(path.read_text(encoding="utf-8")), [path.stem])
    assert writers == {"sched._Runner.dispatch", "tamper.apply_tampers"}


def test_only_the_dispatch_rule_and_the_hook_check_read_the_stop_table():
    """GDB stepping has one owner: outside `isa`, only `sched` (the
    runner's dispatch rule) and `tamper` (the hook check) read
    `Program.inside_range`, and `machine` reads neither the stop table
    nor a machine's mode, so `step` cannot branch on either."""
    readers: dict[str, set] = {"inside_range": set(), "mode": set(), "GDB": set()}
    for path in Path(spinsim.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Attribute) and node.attr in readers:
                readers[node.attr].add(path.stem)
    assert readers["inside_range"] - {"isa"} == {"sched", "tamper"}
    assert "machine" not in readers["mode"] | readers["GDB"]


def test_only_isa_relates_pcs_to_regions():
    """Mutual exclusion has one owner: outside `isa`, code reads the
    program's `region_at` table instead of a region's `start` or `end`."""
    readers = set()
    for path in Path(spinsim.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Attribute) and node.attr in ("start", "end"):
                readers.add(path.stem)
    assert readers == {"isa"}


# --- Differential check of the kernel table against the decoding interpreter ---


def reference_execute(m: MachineState, t: ThreadState) -> ThreadState:
    """The decode-every-time interpreter the kernel table replaced: retire
    the instruction at `t.pc` for a thread in state `t`, put the memory
    its store leaves in `m.memory` and return the thread's new record."""
    prog = m.program
    memory = m.memory
    word_index = prog.word_index
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

    if op == "MOV":
        rd, value = ops[0][1], src
    elif op == "LDR_ADDR":
        rd, value = ops[0][1], prog.sym_addr[ops[1][1]]
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
    elif op != "NOP":
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
    return ThreadState(regs, z, n, next_pc, granule, version, status, fault)



_SYMS = ("a", "b", "c")
_REG = st.integers(0, 12)
_IMM = st.one_of(
    st.sampled_from((0, 1, -1, 2**31 - 1, -(2**31))), st.integers(-(2**31), 2**31 - 1)
)
# Mapped words, unaligned and unmapped addresses, and wrap-prone values.
_REG_VALUE = st.one_of(
    st.sampled_from(
        (0, 1, 2, MASK32, 0x80000000, 0x7FFFFFFF, DATA_BASE, DATA_BASE + 4, DATA_BASE + 8)
    ),
    st.integers(DATA_BASE - 4, DATA_BASE + 16),
    st.integers(0, MASK32),
)


# Operand kinds per opcode, as `isa` parses them; "src" is a register or
# an immediate.
_SIGNATURES = {
    "MOV": ("reg", "src"), "LDR_ADDR": ("reg", "sym"), "LDR_MEM": ("reg", "mem"),
    "LDREX": ("reg", "mem"), "STR": ("reg", "mem"), "STREX": ("reg", "reg", "mem"),
    "CLREX": (), "NOP": (), "CMP": ("reg", "src"), "ADD": ("reg", "reg", "src"),
    "B": ("label",), "BNE": ("label",), "BEQ": ("label",),
}


def _operand(draw, kind: str, labels: list[str], syms: list[str]) -> tuple:
    if kind == "src":
        kind = draw(st.sampled_from(("reg", "imm")))
    value = {
        "reg": _REG, "mem": _REG, "imm": _IMM,
        "sym": st.sampled_from(syms), "label": st.sampled_from(labels),
    }[kind]
    return (kind, draw(value))


@st.composite
def kernel_cases(draw, opcode: str):
    """A hand-built program (operands of every kind, branch targets in
    and out of range) with `opcode` at the pc of a runnable thread
    record, and a memory."""
    size = draw(st.integers(1, 6))
    pc = draw(st.integers(0, size - 1))
    words = draw(st.integers(1, len(_SYMS)))
    labels = {f"L{i}": draw(st.integers(-2, size + 2)) for i in range(3)}
    syms = list(_SYMS[:words])
    opcodes = draw(st.lists(st.sampled_from(sorted(_SIGNATURES)), min_size=size, max_size=size))
    opcodes[pc] = opcode
    instructions = [
        Instruction(op, tuple(_operand(draw, kind, list(labels), syms) for kind in _SIGNATURES[op]))
        for op in opcodes
    ]
    program = Program(instructions, labels, {sym: 0 for sym in syms}, regions=[])
    regs = tuple(draw(st.lists(_REG_VALUE, min_size=13, max_size=13)))
    granule = draw(st.one_of(st.none(), st.sampled_from(regs), _REG_VALUE))
    t = ThreadState(
        regs,
        z=draw(st.booleans()),
        n=draw(st.booleans()),
        pc=pc,
        mon_granule=granule,
        mon_version=draw(st.integers(0, 2)),
    )
    memory = tuple((draw(_REG_VALUE), draw(st.integers(0, 2))) for _ in range(words))
    return program, t, memory


def _case(source: str, *, pc: int = 0, regs: dict | None = None, granule=None, version=0):
    """A parsed one-word program, a thread record and a memory holding 7
    at version 1."""
    program = parse_program(".data a 0\n" + source)
    values = [0] * 13
    for r, v in (regs or {}).items():
        values[r] = v
    t = ThreadState(tuple(values), pc=pc, mon_granule=granule, mon_version=version)
    return program, t, ((7, 1),)


def _hand_built(opcode: str, target: int, z: bool):
    """A branch to `target` and a NOP, and a thread record at the branch."""
    instructions = [Instruction(opcode, (("label", "x"),)), Instruction("NOP", ())]
    program = Program(instructions, {"x": target}, {"a": 0}, [])
    return program, ThreadState((0,) * 13, z=z), ((0, 0),)


NAMED_KERNEL_CASES = {
    "add wraps below zero": lambda: _case("    ADD R1, R2, #-1\n"),
    "add wraps above 2**32": lambda: _case("    ADD R1, R2, R3\n", regs={2: MASK32, 3: 2}),
    "cmp 32-bit difference": lambda: _case("    CMP R1, #-1\n"),
    "cmp N clear at 2**31 - 1": lambda: _case("    CMP R1, #-1\n", regs={1: 0x7FFFFFFE}),
    "cmp N set at 2**31": lambda: _case("    CMP R1, R2\n", regs={1: 0x80000000}),
    "mov negative immediate": lambda: _case("    MOV R1, #-5\n"),
    "mov register": lambda: _case("    MOV R1, R2\n", regs={2: 9}),
    "ldr unmapped": lambda: _case("    LDR R1, [R2]\n"),
    "ldr unaligned": lambda: _case("    LDR R1, [R2]\n", regs={2: DATA_BASE + 2}),
    "str": lambda: _case("    STR R1, [R2]\n", regs={1: 3, 2: DATA_BASE}),
    "strex success": lambda: _case(
        "    STREX R1, R3, [R2]\n", regs={1: 4, 2: DATA_BASE, 3: 9}, granule=DATA_BASE, version=1
    ),
    "strex success into its value register": lambda: _case(
        "    STREX R1, R1, [R2]\n", regs={1: 9, 2: DATA_BASE}, granule=DATA_BASE, version=1
    ),
    "strex stale version": lambda: _case(
        "    STREX R1, R3, [R2]\n", regs={2: DATA_BASE}, granule=DATA_BASE, version=0
    ),
    "strex unmapped": lambda: _case("    STREX R1, R3, [R2]\n", regs={2: DATA_BASE + 4}),
    "ldrex": lambda: _case("    LDREX R2, [R2]\n    NOP\n", regs={2: DATA_BASE}),
    "clrex": lambda: _case("    CLREX\n    NOP\n", granule=DATA_BASE, version=1),
    "exit at program end": lambda: _case("    NOP\n    NOP\n", pc=1, granule=DATA_BASE),
    "branch to program end": lambda: _case("    B done\n    NOP\ndone:\n", granule=DATA_BASE),
    "branch past program end": lambda: _hand_built("B", 99, False),
    "branch before program start": lambda: _hand_built("BEQ", -1, True),
}


def assert_kernel_matches_reference(program: Program, t: ThreadState, memory) -> None:
    """The kernel returns the record and memory the decoding interpreter
    does, and hands back the same memory object exactly when nothing was
    stored: traces and explorer keys test it with `is`."""
    m = MachineState(program, ExecMode.HW, [t], memory)
    want = reference_execute(m, t)
    got, got_memory = program.kernels[t.pc](t, memory)
    assert got == want
    assert got_memory == m.memory
    assert (got_memory is memory) == (m.memory is memory)


@pytest.mark.parametrize("name", list(NAMED_KERNEL_CASES))
def test_kernel_matches_reference_on_named_cases(name):
    assert_kernel_matches_reference(*NAMED_KERNEL_CASES[name]())


@pytest.mark.parametrize("opcode", sorted(_SIGNATURES))
@settings(max_examples=25, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_kernel_matches_reference(opcode, data):
    assert_kernel_matches_reference(*data.draw(kernel_cases(opcode)))


# --- The kernel table is built lazily, once per Program ---


def _count_builds(monkeypatch) -> list:
    built = []
    original = machine_module.build_kernels

    def counted(program):
        built.append(program)
        return original(program)

    monkeypatch.setattr(machine_module, "build_kernels", counted)
    return built


@pytest.mark.parametrize("name", sorted(p.name for p in spinsim.corpus_dir().glob("*.s")))
def test_parse_and_lint_never_build_the_kernel_table(name, monkeypatch):
    built = _count_builds(monkeypatch)
    program = parse_program(spinsim.corpus_path(name).read_text(encoding="utf-8"))
    lint(program)
    assert built == [] and "kernels" not in vars(program)


def test_one_program_builds_its_kernel_table_once(load_corpus, monkeypatch):
    built = _count_builds(monkeypatch)
    program = load_corpus("lock_regcmp.s")
    run_schedule(init_machine(program, 2), ScheduleScript(entries=[(0, 3), (1, 2)]))
    explore(program, 2)
    session = DebugSession(program, 2, ExecMode.GDB)
    session.handle("step 3")
    run_schedule(init_machine(program, 3, ExecMode.GDB), ScheduleScript(entries=[]))
    assert built == [program]


# --- Differential check of GDB dispatch against the in-step group loop ---


def reference_gdb_step(machine: MachineState, thread_id: int) -> StepOutcome:
    """The GDB-mode loop `step` ran before the runner owned it: retire
    instructions while the pc is strictly inside an exclusive range, and
    fault the record of the instruction that reaches the limit."""
    threads = machine.threads
    t = threads[thread_id]
    if t.status != RUNNABLE:
        return StepOutcome([], t.status)
    kernels = machine.program.kernels
    memory = machine.memory
    executed = []
    inside = machine.program.inside_range
    while True:
        after, machine.memory = kernels[t.pc](t, memory)
        more = after.status == RUNNABLE and inside[after.pc] is not None
        if more and len(executed) == _ATOMIC_STEP_LIMIT - 1:
            after = after._replace(status=FAULTED, fault="atomic-step limit", mon_granule=None)
            more = False
        threads[thread_id] = after
        executed.append((t, after, memory, machine.memory))
        t, memory = after, machine.memory
        if not more:
            return StepOutcome(executed, t.status)


def assert_dispatch_matches_reference(program: Program, thread_count: int, picks) -> MachineState:
    """Dispatch runnable threads in the order `picks` chooses, through the
    runner and through the reference on a twin machine: every dispatch
    reports the same `executed` tuples and leaves the same thread
    records and memory. Returns the reference machine."""
    runner = _Runner(init_machine(program, thread_count, ExecMode.GDB))
    m = runner.machine
    ref = init_machine(program, thread_count, ExecMode.GDB)
    for pick in picks:
        runnable = ref.runnable_threads()
        if not runnable:
            break
        tid = runnable[pick % len(runnable)]
        want = reference_gdb_step(ref, tid)
        assert runner.dispatch(tid) == want
        assert m.threads == ref.threads and m.memory == ref.memory
    return ref


@pytest.mark.parametrize("name", sorted(p.name for p in spinsim.corpus_dir().glob("*.s")))
def test_gdb_dispatch_matches_reference_on_corpus(name, load_corpus):
    program = load_corpus(name)
    for seed in range(4):
        rng = splitmix64(seed)
        assert_dispatch_matches_reference(program, 3, [next(rng) for _ in range(400)])


def test_gdb_dispatch_matches_reference_at_the_atomic_step_limit():
    ref = assert_dispatch_matches_reference(parse_program(RUNAWAY), 2, [0, 0, 1, 1])
    assert [t.fault for t in ref.threads] == ["atomic-step limit"] * 2


_GDB_OPCODES = ("LDREX",) * 3 + ("STREX",) * 3 + (
    "LDR_ADDR", "STR", "LDR_MEM", "MOV", "ADD", "CMP", "B", "BNE", "BEQ", "CLREX", "NOP",
)


@st.composite
def gdb_programs(draw):
    """A program over two words with at least one exclusive pair, and
    branches, forward and back, that can loop inside it. It first loads
    the words' addresses into R0 and R1, which address every access and
    nothing writes, so most accesses reach memory."""
    size = draw(st.integers(2, 12))
    labels = {f"L{i}": draw(st.integers(2, size + 2)) for i in range(3)}
    values = {
        "reg": st.integers(2, 3), "mem": st.integers(0, 1), "imm": st.integers(-2, 2),
        "sym": st.sampled_from(["a", "b"]), "label": st.sampled_from(sorted(labels)),
    }
    instructions = [
        Instruction("LDR_ADDR", (("reg", 0), ("sym", "a"))),
        Instruction("LDR_ADDR", (("reg", 1), ("sym", "b"))),
    ]
    opcodes = draw(st.lists(st.sampled_from(_GDB_OPCODES), min_size=size, max_size=size))
    ldrex = draw(st.integers(0, size - 2))
    opcodes[ldrex], opcodes[draw(st.integers(ldrex + 1, size - 1))] = "LDREX", "STREX"
    for op in opcodes:
        operands = []
        for kind in _SIGNATURES[op]:
            if kind == "src":
                kind = draw(st.sampled_from(("reg", "imm")))
            operands.append((kind, draw(values[kind])))
        instructions.append(Instruction(op, tuple(operands)))
    return Program(instructions, labels, {"a": 0, "b": 0}, regions=[])


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(
    program=gdb_programs(),
    thread_count=st.integers(1, 3),
    picks=st.lists(st.integers(0, 5), min_size=10, max_size=40),
)
def test_gdb_dispatch_matches_reference(program, thread_count, picks):
    assert_dispatch_matches_reference(program, thread_count, picks)
