from __future__ import annotations

from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import spinsim
from spinsim.isa import parse_program
from spinsim.machine import ExecMode, init_machine
from spinsim.scenario import load_scenario, run_scenario
from spinsim.sched import ScheduleScript, _Runner, run_random, run_schedule
from spinsim.tamper import (
    EVERY,
    TamperError,
    TamperSpec,
    apply_tampers,
    compile_tampers,
    location_for_pc,
    resolve_location,
)

ADD1 = TamperSpec(thread_id=1, location="retry+2", register=7, action=("add", 1))
SET0 = TamperSpec(thread_id=1, location="retry+7", register=7, action=("set", 0))


def test_resolve_locations(load_corpus):
    p = load_corpus("lock_regcmp.s")
    assert resolve_location("retry", p) == 0
    assert resolve_location("retry+7", p) == 7
    assert resolve_location("critical_section", p) == 9
    assert resolve_location("unlock-1", p) == 12
    with pytest.raises(TamperError, match="unknown label"):
        resolve_location("nonexistent", p)
    with pytest.raises(TamperError, match="outside the program"):
        resolve_location("unlock+99", p)


def test_location_for_pc(load_corpus):
    p = load_corpus("lock_regcmp.s")
    assert location_for_pc(p, 0) == "retry"
    assert location_for_pc(p, 2) == "retry+2"
    assert location_for_pc(p, 9) == "critical_section"
    assert location_for_pc(p, 14) == "unlock+1"


def assert_locations_round_trip(p):
    for pc in range(len(p.instructions)):
        location = location_for_pc(p, pc)
        if location is not None:
            assert resolve_location(location, p) == pc, (pc, location)


def test_location_round_trip_on_the_corpus():
    programs = sorted(spinsim.corpus_dir().glob("*.s"))
    assert programs
    for path in programs:
        assert_locations_round_trip(parse_program(path.read_text(encoding="utf-8")))


@st.composite
def labelled_programs(draw):
    """Straight-line programs with labels at drawn pcs, before the first
    instruction, sharing a pc, or past the last one, or with none."""
    size = draw(st.integers(1, 8))
    body = draw(st.lists(st.sampled_from(["NOP", "MOV R1, #1", "CLREX"]), min_size=size, max_size=size))
    at = draw(st.lists(st.integers(0, size), max_size=4))
    lines = []
    for pc, text in enumerate(body + [None]):
        lines += [f"L{i}:" for i, where in enumerate(at) if where == pc]
        if text is not None:
            lines.append(text)
    return parse_program("\n".join(lines) + "\n")


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(p=labelled_programs())
def test_location_round_trip_on_random_programs(p):
    assert_locations_round_trip(p)


def test_gdb_mode_rejects_hooks_strictly_inside_range(load_corpus):
    p = load_corpus("lock_regcmp.s")  # exclusive range [2, 6]
    for offset in (3, 4, 5, 6):
        spec = TamperSpec(thread_id=1, location=f"retry+{offset}", register=7, action=("set", 0))
        with pytest.raises(TamperError, match=r"\[2, 6\]"):
            compile_tampers([spec], init_machine(p, 2, ExecMode.GDB))
    # the range entry (the LDREX itself) is a legal stop point
    compile_tampers([ADD1], init_machine(p, 2, ExecMode.GDB))


def test_hw_mode_allows_hooks_inside_range(load_corpus):
    p = load_corpus("lock_regcmp.s")
    spec = TamperSpec(thread_id=0, location="retry+5", register=9, action=("set", 0))
    compiled = compile_tampers([spec], init_machine(p, 2, ExecMode.HW))
    assert compiled


def test_spec_validation(load_corpus):
    p = load_corpus("lock_regcmp.s")
    with pytest.raises(TamperError, match="out of range"):
        compile_tampers([TamperSpec(0, "retry", 13, ("set", 0))], init_machine(p, 2, ExecMode.HW))
    with pytest.raises(TamperError, match="unknown tamper action"):
        compile_tampers([TamperSpec(0, "retry", 1, ("xor", 0))], init_machine(p, 2, ExecMode.HW))
    with pytest.raises(TamperError, match="flip_bit position"):
        compile_tampers([TamperSpec(0, "retry", 1, ("flip_bit", 32))], init_machine(p, 2, ExecMode.HW))
    with pytest.raises(TamperError, match="occurrence"):
        compile_tampers([TamperSpec(0, "retry", 1, ("set", 0), occurrence=0)], init_machine(p, 2, ExecMode.HW))
    # booleans and non-integers, which would otherwise fail mid-run
    for occurrence in (True, "2", 1.5):
        with pytest.raises(TamperError, match="occurrence"):
            spec = TamperSpec(0, "retry", 1, ("set", 0), occurrence=occurrence)
            compile_tampers([spec], init_machine(p, 2, ExecMode.HW))
    for value in ("x", True, 1.5, None):
        with pytest.raises(TamperError, match="action value must be an integer"):
            compile_tampers([TamperSpec(0, "retry", 1, ("add", value))], init_machine(p, 2, ExecMode.HW))
    with pytest.raises(TamperError, match="out of range"):
        compile_tampers([TamperSpec(0, "retry", True, ("set", 0))], init_machine(p, 2, ExecMode.HW))
    with pytest.raises(TamperError, match=r"unknown thread 2 \(threads are 0\.\.1\)"):
        compile_tampers([TamperSpec(2, "retry", 1, ("set", 0))], init_machine(p, 2, ExecMode.HW))


def test_apply_respects_thread_and_occurrence(load_corpus):
    p = load_corpus("lock_regcmp.s")
    m = init_machine(p, 3, ExecMode.GDB)
    compiled = compile_tampers([ADD1], init_machine(p, 2, ExecMode.GDB))

    # wrong thread: no-op
    assert apply_tampers(compiled, m, 0, 2, 1) == []
    assert m.threads[0].regs[7] == 0
    # matching thread, first arrival: fires
    edits = apply_tampers(compiled, m, 1, 2, 1)
    assert edits == ["R7 += 1 (0 -> 1)"]
    assert m.threads[1].regs[7] == 1
    # second arrival: occurrence=1 exhausted
    assert apply_tampers(compiled, m, 1, 2, 2) == []
    assert m.threads[1].regs[7] == 1


def test_every_occurrence_fires_each_arrival(load_corpus):
    p = load_corpus("lock_regcmp.s")
    m = init_machine(p, 1, ExecMode.GDB)
    spec = TamperSpec(0, "retry", 3, ("add", 2), occurrence=EVERY)
    compiled = compile_tampers([spec], init_machine(p, 2, ExecMode.GDB))
    for arrival, expected in ((1, 2), (2, 4), (3, 6)):
        apply_tampers(compiled, m, 0, 0, arrival)
        assert m.threads[0].regs[3] == expected


def test_flip_bit_action(load_corpus):
    p = load_corpus("lock_regcmp.s")
    m = init_machine(p, 1, ExecMode.HW)
    spec = TamperSpec(0, "retry", 4, ("flip_bit", 31))
    compiled = compile_tampers([spec], init_machine(p, 2, ExecMode.HW))
    apply_tampers(compiled, m, 0, 0, 1)
    assert m.threads[0].regs[4] == 0x80000000


def test_tampers_touch_registers_only(load_corpus):
    """A firing tamper changes nothing but the named register: memory,
    versions, flags, pc, and the monitor stay put."""
    p = load_corpus("lock_regcmp.s")
    m = init_machine(p, 2, ExecMode.GDB)
    compiled = compile_tampers([ADD1], init_machine(p, 2, ExecMode.GDB))
    t = m.threads[1]
    before = (
        m.memory,
        t.z,
        t.n,
        t.pc,
        t.mon_granule,
        t.mon_version,
        [r for i, r in enumerate(t.regs) if i != 7],
    )
    apply_tampers(compiled, m, 1, 2, 1)
    t = m.threads[1]
    after = (
        m.memory,
        t.z,
        t.n,
        t.pc,
        t.mon_granule,
        t.mon_version,
        [r for i, r in enumerate(t.regs) if i != 7],
    )
    assert before == after
    assert t.regs[7] == 1


def test_attack_walks_loser_past_both_compares(load_corpus):
    """With the lock held, R7 += 1 before the LDREX lets the loser fall
    through CMP R8, R7; R7 = 0 before CMP R2, R7 lets it keep the
    successful store-conditional status."""
    p = load_corpus("lock_regcmp.s")
    runner = _Runner(init_machine(p, 2, ExecMode.GDB))
    m = runner.machine
    for _ in range(5):
        runner.dispatch(0)  # thread 0 holds the lock, sits in the critical region
    compiled = compile_tampers([ADD1, SET0], init_machine(p, 2, ExecMode.GDB))

    arrivals = Counter()

    def tamper_then_step():
        pc = m.threads[1].pc
        arrivals[pc] += 1
        apply_tampers(compiled, m, 1, pc, arrivals[pc])
        runner.dispatch(1)

    for _ in range(2):
        tamper_then_step()
    assert m.threads[1].pc == 2
    tamper_then_step()  # atomic group with R7 == 1
    assert m.threads[1].pc == 7
    assert m.threads[1].regs[2] == 0  # the conditional store *succeeded*
    tamper_then_step()  # CMP R2, R7 with R7 reset to 0
    tamper_then_step()  # BNE falls through
    assert m.threads[1].pc == 9  # inside the critical region
    assert 9 <= m.threads[0].pc < 13  # alongside thread 0


def test_ab_comparison_attack_vs_disarmed(load_corpus, corpus_file):
    """Stripping the tampers from the attack scenario restores the
    honest final state: the breakage is attributable to the register
    edits alone."""
    p = load_corpus("lock_regcmp.s")
    attack = load_scenario(corpus_file("regtamper_attack.scn"))

    armed = run_scenario(attack, p)
    assert armed.final_memory["accountBalance"] == 110
    assert len(armed.violations) == 1

    attack.tampers = []
    disarmed = run_scenario(attack, p)
    assert disarmed.final_memory["accountBalance"] == 115
    assert disarmed.violations == []


def test_hw_attacker_can_strike_inside_the_range(load_corpus):
    """The stronger fault attacker edits the stored value between LDREX
    and STREX; the debugger could never stop there."""
    p = load_corpus("lock_basic.s")  # range [1, 5], MOV R9,#1 at pc 4
    m = init_machine(p, 1, ExecMode.HW)
    spec = TamperSpec(0, "retry+5", 9, ("set", 41))  # right before STREX
    res = run_schedule(
        m,
        ScheduleScript(entries=[(0, 6)], halt=True),
        tampers=[spec],
    )
    assert res.final_memory["lockVar"] == 41  # tampered value got stored


def test_run_schedule_rejects_gdb_inside_hooks_before_running(load_corpus):
    p = load_corpus("lock_regcmp.s")
    m = init_machine(p, 2, ExecMode.GDB)
    bad = TamperSpec(1, "retry+4", 7, ("set", 0))
    with pytest.raises(TamperError):
        run_schedule(m, ScheduleScript(entries=[(0, 1)]), tampers=[bad])
    assert m == init_machine(p, 2, ExecMode.GDB)  # rejected before anything ran


def test_runs_reject_tampers_on_missing_threads(load_corpus):
    p = load_corpus("lock_regcmp.s")
    ghost = TamperSpec(thread_id=7, location="retry+2", register=7, action=("add", 1))
    with pytest.raises(TamperError, match="unknown thread 7"):
        run_schedule(init_machine(p, 2, ExecMode.HW), ScheduleScript(entries=[]), tampers=[ghost])
    with pytest.raises(TamperError, match="unknown thread 7"):
        run_random(init_machine(p, 2, ExecMode.HW), seed=1, tampers=[ghost])
