from __future__ import annotations

import ast
import dataclasses
from pathlib import Path

import pytest

import spinsim
from spinsim.isa import parse_program, strictly_inside
from spinsim.machine import (
    EXITED,
    FAULTED,
    RUNNABLE,
    ExecMode,
    init_machine,
    step,
)

TWO_WORDS = ".data lockVar 0\n.data accountBalance 100\n"


def word(machine, symbol):
    """The (value, version) pair of a data word."""
    program = machine.program
    return machine.memory[program.word_index[program.sym_addr[symbol]]]


def run_to_completion(machine, tid):
    while machine.threads[tid].status == RUNNABLE:
        step(machine, tid)


def test_init_ten_threads(load_corpus):
    p = load_corpus("lock_unlock.s")
    m = init_machine(p, 10, ExecMode.GDB)
    assert len(m.threads) == 10
    assert all(t.status == RUNNABLE for t in m.threads)
    assert all(t.pc == p.entry for t in m.threads)
    assert all(t.regs == (0,) * 13 for t in m.threads)
    assert all(t.monitor_open() for t in m.threads)
    assert m.memory_by_symbol()["lockVar"] == 0
    assert m.step_count == 0


def test_init_single_thread_minimal(load_corpus):
    m = init_machine(load_corpus("lock_basic.s"), 1)
    assert len(m.threads) == 1
    assert m.threads[0].monitor_open()


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
        step(m, 0)
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
        step(m, 0)
    assert m.memory is held
    step(m, 0)  # STREX succeeds
    assert held == ((0, 0), (100, 0))
    assert m.memory == ((0, 0), (7, 1))
    held = m.memory
    step(m, 0)  # STR
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
    step(m, 0)
    step(m, 0)  # A holds a reservation at version 0
    # B runs all the way through its STR (its own STREX also stores)
    for _ in range(8):
        step(m, 1)
    version_after_b = word(m, "lockVar")[1]
    assert version_after_b > 0
    for _ in range(3):
        step(m, 0)  # NOP, NOP, MOV
    step(m, 0)      # A: STREX
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
        step(m, 0)
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
        step(m, 0)
    t = m.threads[0]
    assert t.regs[2] == 0    # first succeeds
    assert t.regs[3] == 1    # second has no reservation
    assert t.monitor_open()


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
    step(m, 0)
    step(m, 0)
    assert not m.threads[0].monitor_open()
    step(m, 0)
    assert m.threads[0].monitor_open()
    step(m, 0)
    step(m, 0)
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
    step(m, 0)
    step(m, 0)
    t = m.threads[0]
    assert t.z and not t.n
    step(m, 0)
    t = m.threads[0]
    assert not t.z and t.n
    step(m, 0)
    t = m.threads[0]
    assert not t.z and not t.n
    z_before, n_before = t.z, t.n
    step(m, 0)
    step(m, 0)
    t = m.threads[0]
    assert t.regs[3] == 1
    assert (t.z, t.n) == (z_before, n_before)  # ADD leaves flags alone
    step(m, 0)
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
    out = step(m, 0)
    assert out.new_status == FAULTED
    assert m.threads[0].fault == "bus error"
    assert m.threads[0].monitor_open()
    # the machine keeps running other threads
    assert m.threads[1].status == RUNNABLE
    step(m, 1)
    assert m.threads[1].status == FAULTED  # same program, same fault
    # stepping a faulted thread is a no-op at machine level
    out = step(m, 0)
    assert out.executed == [] and out.new_status == FAULTED


def test_unaligned_access_faults():
    p = parse_program(
        ".data x 1\n    LDR R1, =x\n    ADD R1, R1, #2\n    LDR R2, [R1]\n"
    )
    m = init_machine(p, 1)
    for _ in range(3):
        step(m, 0)
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
    out = step(m, 0)
    assert out.new_status == FAULTED
    assert m.threads[0].fault == "bad branch"


def test_exit_at_program_end():
    p = parse_program("    NOP\n")
    m = init_machine(p, 1)
    out = step(m, 0)
    assert out.new_status == EXITED
    assert m.threads[0].pc == 1


def test_gdb_winner_single_step_retires_through_strex(load_corpus):
    """At the LDREX with the lock free, one gdb-mode step retires
    LDREX, CMP, BNE (not taken), MOV, STREX and stops at the status
    compare."""
    p = load_corpus("lock_regcmp.s")
    m = init_machine(p, 1, ExecMode.GDB)
    step(m, 0)  # LDR
    step(m, 0)  # MOV R7
    assert m.threads[0].pc == 2
    out = step(m, 0)
    assert [before.pc for before, _, _, _ in out.executed] == [2, 3, 4, 5, 6]
    assert m.threads[0].pc == 7
    assert p.instructions[7].text() == "CMP R2, R7"
    assert m.threads[0].regs[2] == 0  # acquired


def test_gdb_loser_cycles_three_stop_points(load_corpus):
    p = load_corpus("lock_regcmp.s")
    m = init_machine(p, 2, ExecMode.GDB)
    for _ in range(5):
        step(m, 0)  # thread 0 acquires and sits in the critical section
    assert m.memory_by_symbol()["lockVar"] == 1
    stops = []
    for _ in range(12):
        step(m, 1)
        stops.append(m.threads[1].pc)
        assert strictly_inside(p.exclusive_ranges(), m.threads[1].pc) is None
    assert stops == [1, 2, 0] * 4


def test_hw_mode_steps_single_instructions(load_corpus):
    p = load_corpus("lock_regcmp.s")
    m = init_machine(p, 1, ExecMode.HW)
    for expected_pc in [1, 2, 3, 4, 5, 6, 7]:
        out = step(m, 0)
        assert len(out.executed) == 1
        assert m.threads[0].pc == expected_pc


def test_atomic_runaway_faults_instead_of_hanging():
    p = parse_program(
        ".data x 0\n"
        + "    LDR R10, =x\n"
        + "    LDREX R8, [R10]\n"
        + "spin:\n"
        + "    B spin\n"
        + "    STREX R2, R8, [R10]\n"
    )
    m = init_machine(p, 1, ExecMode.GDB)
    step(m, 0)
    out = step(m, 0)  # LDREX region never exits
    assert out.new_status == FAULTED
    assert m.threads[0].fault == "atomic-step limit"


def test_step_determinism(load_corpus):
    p = load_corpus("lock_regcmp.s")
    results = []
    for _ in range(2):
        m = init_machine(p, 3, ExecMode.GDB)
        seq = [0, 0, 0, 1, 1, 2, 0, 1, 2, 2, 1, 0] * 5
        for tid in seq:
            step(m, tid)
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
    m = init_machine(parse_program(source), 1, ExecMode.GDB)
    stops = []
    while m.threads[0].status == RUNNABLE:
        step(m, 0)
        stops.append(m.threads[0].pc)
    assert stops == [1, 4, 5, 7, 8]
    assert m.threads[0].regs[2] == 0 and m.threads[0].regs[4] == 0  # both STREXes stored


def test_machine_state_holds_run_state_only():
    """What depends only on the program lives on `Program`."""
    fields = [f.name for f in dataclasses.fields(spinsim.MachineState)]
    assert fields == ["program", "mode", "threads", "memory", "step_count"]


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
