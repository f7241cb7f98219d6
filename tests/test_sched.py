from __future__ import annotations

import importlib
import importlib.util
import sys
from collections import deque
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import decode_events, step_machine

from spinsim import corpus_path, sched
from spinsim.debug import DebugSession
from spinsim.isa import parse_program
from spinsim.machine import EXITED, RUNNABLE, ExecMode, ThreadState, init_machine
from spinsim.sched import (
    ScheduleScript,
    _Runner,
    explore,
    run_random,
    run_schedule,
    splitmix64,
    witness_script,
)
from spinsim.tamper import TamperSpec, apply_tampers, compile_tampers

NORMAL3 = ScheduleScript(entries=[(0, 16), (1, 16), (2, 16)])


def counter_loop_program(iterations: int) -> str:
    """Locked counter: each thread adds 1 to `counter` `iterations` times."""
    return (
        ".data lockVar 0\n"
        ".data counter 0\n"
        ".region critical critical_section unlock\n"
        "start:\n"
        "    MOV R6, #0\n"
        "loop:\n"
        "retry:\n"
        "    LDR R10, =lockVar\n"
        "    LDREX R8, [R10]\n"
        "    CMP R8, #0\n"
        "    BNE retry\n"
        "    MOV R9, #1\n"
        "    STREX R2, R9, [R10]\n"
        "    CMP R2, #0\n"
        "    BNE retry\n"
        "critical_section:\n"
        "    LDR R10, =counter\n"
        "    LDR R4, [R10]\n"
        "    ADD R4, R4, #1\n"
        "    STR R4, [R10]\n"
        "unlock:\n"
        "    MOV R5, #0\n"
        "    LDR R10, =lockVar\n"
        "    STR R5, [R10]\n"
        "    ADD R6, R6, #1\n"
        f"    CMP R6, #{iterations}\n"
        "    BNE loop\n"
    )


def test_sequential_schedule_reaches_115(load_corpus):
    p = load_corpus("lock_regcmp.s")
    m = init_machine(p, 3, ExecMode.HW)
    res = run_schedule(m, NORMAL3)
    assert res.final_memory["accountBalance"] == 115
    assert res.violations == []
    assert all(status == EXITED for status, _ in res.thread_statuses)


def test_single_thread_reaches_105(load_corpus):
    p = load_corpus("lock_regcmp.s")
    m = init_machine(p, 1, ExecMode.HW)
    res = run_schedule(m, ScheduleScript(entries=[]))
    assert res.final_memory["accountBalance"] == 105
    assert res.violations == []


def test_steps_of_finished_threads_are_recorded_noops(load_corpus):
    p = load_corpus("unlocked_inc.s")
    m = init_machine(p, 1, ExecMode.HW)
    res = run_schedule(m, ScheduleScript(entries=[(0, 10)], halt=True))
    noops = [e for e in decode_events(res.trace) if e.get("noop")]
    assert len(noops) == 6  # 4 instructions, then 6 dead steps
    assert res.final_memory["accountBalance"] == 105


def test_runner_counts_runnable_dispatches(load_corpus):
    """The runner's `step_count` starts at 0 and counts runnable
    dispatches: a GDB-mode LDREX..STREX group is one, a finished
    thread's no-op is none, and `steps_taken` reports it."""
    runner = _Runner(init_machine(load_corpus("lock_regcmp.s"), 1, ExecMode.GDB))
    assert runner.step_count == 0
    for _ in range(3):
        runner.dispatch(0)  # LDR, MOV R7, then LDREX..STREX as one
    assert runner.step_count == 3 and runner.machine.threads[0].pc == 7
    while runner.machine.threads[0].status == RUNNABLE:
        runner.dispatch(0)
    steps = runner.step_count
    assert runner.dispatch(0) is None  # a recorded no-op
    assert runner.step_count == runner.result("script").steps_taken == steps


def test_halt_skips_round_robin_completion(load_corpus):
    p = load_corpus("lock_regcmp.s")
    m = init_machine(p, 2, ExecMode.HW)
    res = run_schedule(m, ScheduleScript(entries=[(0, 3)], halt=True))
    assert res.final_memory["accountBalance"] == 100
    assert res.thread_statuses[0][0] == "runnable"


def test_schedule_validation(load_corpus):
    p = load_corpus("lock_regcmp.s")
    m = init_machine(p, 2, ExecMode.HW)
    with pytest.raises(ValueError, match="unknown thread"):
        run_schedule(m, ScheduleScript(entries=[(7, 1)]))
    with pytest.raises(ValueError, match="step count"):
        run_schedule(m, ScheduleScript(entries=[(0, 0)]))


def test_script_stops_at_the_step_budget(load_corpus):
    """The script's dispatches, no-ops included, count against max_steps."""
    m = init_machine(load_corpus("lock_basic.s"), 1, ExecMode.HW)
    res = run_schedule(m, ScheduleScript(entries=[(0, 50)], halt=True), max_steps=10)
    assert res.truncated
    assert len(res.trace) == 10


def test_huge_script_entry_returns_at_the_budget(load_corpus):
    m = init_machine(load_corpus("lock_basic.s"), 1, ExecMode.HW)
    res = run_schedule(m, ScheduleScript(entries=[(0, 10**12)]))
    assert res.truncated
    assert len(res.trace) == sched.DEFAULT_MAX_STEPS
    assert res.final_memory["accountBalance"] == 105


def test_entries_into_crowded_regions_are_reported_in_region_order():
    """A step into two nested regions that another thread already holds
    records one violation per region, outer (declared first) first."""
    p = parse_program(
        ".region outer a d\n.region inner a c\n"
        "    NOP\na:\n    NOP\n    NOP\nc:\n    NOP\nd:\n    NOP\n"
    )
    res = run_schedule(init_machine(p, 2, ExecMode.HW), ScheduleScript([(0, 1), (1, 1)], halt=True))
    assert [(v["thread"], v["pc"], v["label"]) for v in decode_events(res.violations)] == [
        (1, 1, "outer"),
        (1, 1, "inner"),
    ]
    assert res.trace[-2:] == res.violations


def test_schedule_replay_determinism(load_corpus):
    p = load_corpus("lock_regcmp.s")
    script = ScheduleScript(entries=[(0, 5), (1, 9), (2, 2), (0, 4)])
    results = []
    for _ in range(2):
        res = run_schedule(init_machine(p, 3, ExecMode.HW), script)
        results.append((res.final_memory, res.steps_taken, res.trace))
    assert results[0] == results[1]


def test_clrex_on_switch_restores_os_behavior():
    # Without the flag, a reservation survives a scheduler switch; with
    # it, the descheduled thread's STREX fails.
    text = (
        ".data x 0\n"
        "    LDR R10, =x\n"
        "    LDREX R8, [R10]\n"
        "    MOV R9, #1\n"
        "    STREX R2, R9, [R10]\n"
    )
    p = parse_program(text)

    m = init_machine(p, 2, ExecMode.HW)
    script = ScheduleScript(entries=[(0, 2), (1, 1), (0, 2)], halt=True)
    res = run_schedule(m, script)
    assert m.threads[0].regs[2] == 0  # survived the switch

    m = init_machine(p, 2, ExecMode.HW)
    script = ScheduleScript(entries=[(0, 2), (1, 1), (0, 2)], halt=True, clrex_on_switch=True)
    res = run_schedule(m, script)
    assert m.threads[0].regs[2] == 1
    assert res.final_memory["x"] == 0


def test_thread_records_are_values(load_corpus):
    """A thread record taken before a step, a tamper firing, a debugger
    register edit or a scheduler-switch CLREX is unchanged afterwards,
    and the machine holds the new record."""
    p = load_corpus("lock_regcmp.s")
    fresh = ThreadState((0,) * 13, pc=p.entry)
    lock_var = p.sym_addr["lockVar"]

    m = init_machine(p, 2, ExecMode.HW)
    held = m.threads[0]
    step_machine(m, 0)  # LDR R10, =lockVar
    assert held == fresh
    assert m.threads[0] == fresh._replace(regs=(0,) * 10 + (lock_var, 0, 0), pc=1)

    compiled = compile_tampers([TamperSpec(1, "retry", 7, ("set", 5))], init_machine(p, 2, ExecMode.HW))
    held = m.threads[1]
    assert apply_tampers(compiled, m, 1, 0, 1) == ["R7 = 5 (0 -> 5)"]
    assert held == fresh
    assert m.threads[1] == fresh._replace(regs=(0,) * 7 + (5,) + (0,) * 5)

    session = DebugSession(p, 1, ExecMode.GDB)
    held = session.machine.threads[0]
    assert session.handle("set $R9 = 77") == "R9 = 77 (was 0)"
    assert held == fresh
    assert session.machine.threads[0] == fresh._replace(regs=(0,) * 9 + (77, 0, 0, 0))

    m = init_machine(p, 2, ExecMode.HW)
    runner = _Runner(m)
    runner.clrex_on_switch = True
    for _ in range(3):  # through the LDREX
        runner.dispatch(0)
    held = m.threads[0]
    assert held.monitor == (lock_var, 0)
    runner.dispatch(1)
    assert held.monitor == (lock_var, 0)
    assert m.threads[0] == held._replace(monitor=None)


def test_splitmix64_reference_values():
    # First outputs for seed 1234567, cross-checked against the widely
    # published reference implementation.
    stream = splitmix64(1234567)
    assert next(stream) == 6457827717110365317
    assert next(stream) == 3203168211198807973


def test_random_same_seed_identical_runs(load_corpus):
    p = load_corpus("lock_regcmp.s")
    runs = []
    for _ in range(2):
        res = run_random(init_machine(p, 3, ExecMode.HW), seed=42)
        runs.append((res.final_memory, res.trace))
    assert runs[0] == runs[1]


def test_random_runs_always_reach_115(load_corpus):
    p = load_corpus("lock_regcmp.s")
    for seed in range(20):
        res = run_random(init_machine(p, 3, ExecMode.HW), seed=seed)
        assert res.final_memory["accountBalance"] == 115, f"seed {seed}"
        assert not res.violations
        assert not res.truncated


def test_random_gdb_mode_also_serializes(load_corpus):
    p = load_corpus("lock_regcmp.s")
    for seed in (3, 50, 91):
        res = run_random(init_machine(p, 3, ExecMode.GDB), seed=seed)
        assert res.final_memory["accountBalance"] == 115


def test_locked_counter_loop_total():
    """10 threads adding 1 a hundred times each: the lock makes the
    total exact (the single-threaded oracle is 10 * 100)."""
    p = parse_program(counter_loop_program(100))
    res = run_random(init_machine(p, 10, ExecMode.HW), seed=2024, max_steps=2_000_000)
    assert not res.truncated
    assert res.final_memory["counter"] == 1000
    assert not res.violations


def test_unlocked_program_loses_updates_under_some_seed(load_corpus):
    p = load_corpus("unlocked_inc.s")
    finals = set()
    for seed in range(100):
        res = run_random(init_machine(p, 2, ExecMode.HW), seed=seed)
        finals.add(res.final_memory["accountBalance"])
    assert 105 in finals  # the lost update shows up in a seed sweep
    assert finals <= {105, 110}


def test_random_step_budget_truncates(load_corpus):
    p = load_corpus("lock_regcmp.s")
    res = run_random(init_machine(p, 3, ExecMode.HW), seed=0, max_steps=5)
    assert res.truncated
    assert res.steps_taken == 5


def test_explore_locked_two_threads(load_corpus):
    rep = explore(load_corpus("lock_basic.s"), 2)
    assert rep.final_values("accountBalance") == {110}
    assert rep.mutual_exclusion_violations == []
    assert not rep.truncated
    assert rep.schedules_explored >= len(rep.final_states)


def test_explore_unlocked_two_threads(load_corpus):
    rep = explore(load_corpus("unlocked_inc.s"), 2)
    assert rep.final_values("accountBalance") == {105, 110}
    assert rep.mutual_exclusion_violations == []  # no regions declared
    assert not rep.truncated


def test_explore_single_thread_single_final(load_corpus):
    rep = explore(load_corpus("lock_basic.s"), 1)
    assert len(rep.final_states) == 1
    assert rep.mutual_exclusion_violations == []


def test_explore_witnesses_replay(load_corpus):
    """Every reported final state is reachable by replaying its witness
    schedule through run_schedule."""
    p = load_corpus("unlocked_inc.s")
    rep = explore(p, 2)
    assert len(rep.witnesses) == len(rep.final_states)
    for state, path in rep.witnesses.items():
        m = init_machine(p, 2, ExecMode.HW)
        res = run_schedule(m, witness_script(path))
        assert res.final_memory == dict(state)


def test_explore_violation_witness_replays(load_corpus):
    """A violation witness from the explorer, replayed through
    run_schedule, reproduces the mutual-exclusion breach."""
    p = load_corpus("lock_no_ll_branch.s")  # admits double entry
    rep = explore(p, 2)
    assert rep.mutual_exclusion_violations
    witness = min(rep.mutual_exclusion_violations, key=len)
    m = init_machine(p, 2, ExecMode.HW)
    res = run_schedule(m, witness_script(witness))
    assert any(v["violation"] == "mutual_exclusion" for v in decode_events(res.violations))


def test_explore_truncation_flag(load_corpus):
    rep = explore(load_corpus("lock_basic.s"), 2, max_steps=5)
    assert rep.truncated
    rep = explore(load_corpus("lock_basic.s"), 2, max_states=10)
    assert rep.truncated


@pytest.mark.parametrize(
    "bounds, message",
    [
        ({"max_steps": 0}, "max_steps must be >= 1"),
        ({"max_steps": -1}, "max_steps must be >= 1"),
        ({"max_states": 0}, "max_states must be >= 1"),
        ({"max_states": -5}, "max_states must be >= 1"),
    ],
)
def test_explore_rejects_bounds_below_one(load_corpus, bounds, message):
    with pytest.raises(ValueError, match=message):
        explore(load_corpus("lock_basic.s"), 2, **bounds)


@pytest.mark.parametrize("max_steps", [0, -3])
def test_run_schedule_rejects_step_budget_below_one(load_corpus, max_steps):
    p = load_corpus("lock_basic.s")
    m = init_machine(p, 2, ExecMode.HW)
    with pytest.raises(ValueError, match="max_steps must be >= 1"):
        run_schedule(m, ScheduleScript(entries=[(0, 1)]), max_steps=max_steps)
    assert m == init_machine(p, 2, ExecMode.HW)  # nothing ran


def test_explore_bounded_exhaustive_scale(load_corpus):
    """Two threads, under 40 retired instructions each: enumeration
    completes without hitting any bound."""
    rep = explore(load_corpus("lock_basic.s"), 2, max_steps=80)
    assert not rep.truncated


@pytest.mark.parametrize("name, max_steps", [("lock_basic.s", 60), ("lock_regcmp.s", 61)])
def test_explore_depth_bound_past_every_state_loses_nothing(load_corpus, name, max_steps):
    """Each state is recorded and expanded at the depth of the path that
    first reaches it, and no later path cuts it: a bound that every such
    path fits within gives the unbounded report."""
    p = load_corpus(name)
    rep = explore(p, 2, max_steps=max_steps)
    assert not rep.truncated
    assert report_fields(rep) == report_fields(explore(p, 2))


def test_explore_depth_bound_is_exact_and_monotone(load_corpus, monkeypatch):
    """Level order records each state at its distance from the start, so
    a larger `max_steps` never records fewer states (counted as `_thaw`
    calls: each recorded state is thawed once, when expanded), and a run
    is truncated exactly while some state lies farther than the bound:
    30 steps for `lock_basic.s` at 2 threads, 32 for `lock_regcmp.s`."""
    thaws = []

    def counted(*args, _original=sched._thaw):
        thaws.append(None)
        return _original(*args)

    monkeypatch.setattr(sched, "_thaw", counted)
    p = load_corpus("lock_basic.s")
    unbounded = report_fields(explore(p, 2))
    recorded = 0
    for max_steps in range(1, 36):
        thaws.clear()
        rep = explore(p, 2, max_steps=max_steps)
        assert len(thaws) >= recorded, max_steps
        recorded = len(thaws)
        assert rep.truncated == (max_steps < 30), max_steps
        if max_steps == 30:
            assert report_fields(rep) == unbounded
    p = load_corpus("lock_regcmp.s")
    assert explore(p, 2, max_steps=31).truncated
    assert not explore(p, 2, max_steps=32).truncated


@pytest.mark.parametrize("threads", [2, 3])
def test_explore_violation_witnesses_have_the_fewest_steps(load_corpus, threads):
    """`lock_no_ll_branch.s` first crowds its region 12 steps in; the
    first witness has those 12 steps, none is shorter, and a bound of 11
    steps finds no violation while one of 12 does."""
    p = load_corpus("lock_no_ll_branch.s")
    violations = explore(p, threads).mutual_exclusion_violations
    assert len(violations[0]) == 12
    assert min(map(len, violations)) == 12
    assert explore(p, threads, max_steps=11).mutual_exclusion_violations == []
    assert explore(p, threads, max_steps=12).mutual_exclusion_violations


@pytest.mark.parametrize("threads", [2, 3])
def test_explore_lock_unlock_has_one_terminal_state(load_corpus, threads):
    """Every schedule of `lock_unlock.s` ends with each thread exited,
    its monitor open and the lock free, and an open monitor holds no
    version: there is one terminal state."""
    rep = explore(load_corpus("lock_unlock.s"), threads)
    assert rep.schedules_explored == 1
    assert rep.final_states == {(("lockVar", 0),)}


def test_explore_three_threads(load_corpus):
    rep = explore(load_corpus("lock_basic.s"), 3)
    assert rep.final_values("accountBalance") == {115}
    assert rep.mutual_exclusion_violations == []
    assert not rep.truncated


# --- Differential check of the explorer against the nested-tuple reference ---


def reference_explore(program, thread_count, max_steps=10_000, max_states=1_000_000):
    """The explorer keyed on whole-machine nested-tuple snapshots, thawed
    in full before every child step, each state queued with its whole
    path. States are expanded in level order, children in ascending
    thread order, and a state is recorded and queued when first reached,
    so its path has the fewest steps; a bound drops a new state, one more
    than `max_steps` steps from the start or past `max_states` recorded
    ones, and sets truncated. Returns the report's fields and the number
    of states recorded."""
    m = init_machine(program, thread_count, ExecMode.HW)

    def freeze():
        return (
            tuple(
                ThreadState(tuple(t.regs), t.z, t.n, t.pc, t.monitor, t.status, t.fault)
                for t in m.threads
            ),
            m.memory,
        )

    def thaw(snap):
        m.threads[:] = snap[0]
        m.memory = snap[1]

    finals, witnesses, violations, terminal, truncated = set(), {}, [], 0, False
    queue = deque([(freeze(), ())])
    seen = {queue[0][0]}
    while queue:
        snap, path = queue.popleft()
        threads = snap[0]
        if any(
            sum(t.status == RUNNABLE and r.start <= t.pc < r.end for t in threads) >= 2
            for r in program.regions
        ):
            violations.append(list(path))
        runnable = [i for i, t in enumerate(threads) if t.status == RUNNABLE]
        if not runnable:
            final = tuple(sorted((sym, value) for sym, (value, _) in zip(program.data_words, snap[1])))
            finals.add(final)
            witnesses.setdefault(final, list(path))
            terminal += 1
            continue
        for tid in runnable:
            thaw(snap)
            step_machine(m, tid)
            child = freeze()
            if child in seen:
                continue
            if len(path) >= max_steps or len(seen) >= max_states:
                truncated = True
                continue
            seen.add(child)
            queue.append((child, path + (tid,)))
    return (finals, witnesses, violations, terminal, truncated), len(seen)


def report_fields(rep):
    return (
        rep.final_states,
        rep.witnesses,
        rep.mutual_exclusion_violations,
        rep.schedules_explored,
        rep.truncated,
    )


def assert_explorers_agree(program, thread_count, cap_sweep=True):
    """Same report as the reference, untruncated and (with `cap_sweep`)
    at every max_states around the reference's state count, and every
    violation witness replays through `run_schedule` to a violation."""
    want, states = reference_explore(program, thread_count)
    assert not want[-1]
    for witness in want[2]:  # violation witnesses replay to a run's violation
        machine = init_machine(program, thread_count, ExecMode.HW)
        assert run_schedule(machine, witness_script(witness)).violations, witness
    assert report_fields(explore(program, thread_count)) == want
    if not cap_sweep:
        return states
    for cap in sorted({1, 10, 100, states - 1} - {0}):
        want_capped, _ = reference_explore(program, thread_count, max_states=cap)
        got = report_fields(explore(program, thread_count, max_states=cap))
        assert got == want_capped, (thread_count, cap)
        assert got[-1] == (cap < states), cap
    assert report_fields(explore(program, thread_count, max_states=states)) == want
    return states


@pytest.mark.parametrize(
    "name, threads",
    [
        ("lock_basic.s", 2),
        ("lock_regcmp.s", 2),
        ("lock_no_ll_branch.s", 2),
        ("lock_unlock.s", 2),
        ("unlocked_inc.s", 2),
        ("unlocked_inc.s", 3),
    ],
)
def test_explore_matches_reference_on_corpus(load_corpus, name, threads):
    assert_explorers_agree(load_corpus(name), threads)


def test_explore_matches_reference_where_a_state_is_reached_twice_before_expansion():
    """`lock_unlock.s` with its STREX check at pc 6 turned into `CMP R2, #1`
    goes past its STREX only when the STREX fails. At 3 threads it
    reaches states again while they wait in the queue, so its witnesses
    show the push rule: a state is queued once, from the path that first
    reaches it."""
    source = corpus_path("lock_unlock.s").read_text(encoding="utf-8")
    assert source.count("CMP R2, #0") == 1
    program = parse_program(source.replace("CMP R2, #0", "CMP R2, #1"))
    assert assert_explorers_agree(program, 3, cap_sweep=False) == 10_024


_REG_ADDR = st.sampled_from(("R10", "R11"))
_STRAIGHT_LINE_OP = st.one_of(
    st.builds("LDREX {}, [{}]".format, st.sampled_from(("R1", "R2", "R3")), _REG_ADDR),
    st.builds(
        "STREX {}, {}, [{}]".format,
        st.sampled_from(("R1", "R2", "R3")),
        st.sampled_from(("R4", "R5")),
        _REG_ADDR,
    ),
    st.builds("STR {}, [{}]".format, st.sampled_from(("R4", "R5")), _REG_ADDR),
    st.builds("LDR {}, [{}]".format, st.sampled_from(("R6", "R7")), _REG_ADDR),
    st.builds("MOV {}, #{}".format, st.sampled_from(("R4", "R5")), st.integers(1, 9)),
    st.just("CLREX"),
    st.just("NOP"),
)


@st.composite
def straight_line_programs(draw):
    """Exclusive-access soup over two words, shaped like the property
    sweep's `random_ops`, with one `.region` around a drawn slice."""
    ops = draw(st.lists(_STRAIGHT_LINE_OP, min_size=3, max_size=8))
    enter = draw(st.integers(0, len(ops) - 1))
    leave = draw(st.integers(enter + 1, len(ops)))
    body = ops[:enter] + ["enter:"] + ops[enter:leave] + ["leave:"] + ops[leave:] + ["NOP"]
    lines = [".data A 0", ".data B 0", ".region crit enter leave"]
    lines += ["LDR R10, =A", "LDR R11, =B"] + body
    return parse_program("\n".join(lines) + "\n")


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(program=straight_line_programs(), threads=st.integers(2, 3))
def test_explore_matches_reference_on_random_programs(program, threads):
    assert_explorers_agree(program, threads)


# --- The benchmark's wrapping contract ---


def _perfbench_tracing(monkeypatch):
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


def test_benchmark_targets_resolve(monkeypatch):
    """perfbench wraps these functions by module and name, so a rename
    must fail here rather than in a benchmark run."""
    targets = _perfbench_tracing(monkeypatch).TARGETS
    assert targets
    for target in targets:
        owner = importlib.import_module(target.module)
        for name in target.qualname.split("."):
            owner = getattr(owner, name)
        assert callable(owner), target


def test_explore_calls_freeze_and_thaw(load_corpus, monkeypatch):
    """perfbench counts explorer states as distinct `sched._freeze`
    results and times `_freeze` plus `_thaw` as the keying layer: an
    untruncated exploration freezes the root and one child per `step`,
    and thaws each distinct key once."""
    calls = {"_freeze": [], "_thaw": [], "step": []}
    for name in calls:

        def counted(*args, _name=name, _original=getattr(sched, name)):
            result = _original(*args)
            calls[_name].append(result)
            return result

        monkeypatch.setattr(sched, name, counted)
    for name, threads in (("lock_basic.s", 2), ("lock_no_ll_branch.s", 2), ("unlocked_inc.s", 3)):
        for made in calls.values():
            made.clear()
        rep = explore(load_corpus(name), threads)
        assert not rep.truncated and rep.schedules_explored > 0
        assert len(calls["_freeze"]) == 1 + len(calls["step"]), name
        assert len(calls["_thaw"]) == len(set(calls["_freeze"])), name


@pytest.mark.parametrize(
    "name, threads, states, transitions, terminal, violating",
    [
        ("lock_basic.s", 3, 13_140, 34_926, 6, 0),
        ("unlocked_inc.s", 4, 2_765, 6_136, 109, 0),
        ("lock_no_ll_branch.s", 3, 38_134, 97_212, 93, 3_936),
        ("lock_regcmp.s", 3, 18_619, 50_295, 6, 0),
    ],
)
def test_explore_graph_size_is_pinned(
    load_corpus, monkeypatch, name, threads, states, transitions, terminal, violating
):
    """The unreduced state graph, counted as perfbench counts it: states
    are distinct `_freeze` results, transitions are `sched.step` calls,
    and violating states are the reported violation paths."""
    keys, steps = set(), []
    freeze, original_step = sched._freeze, sched.step

    def counted_freeze(*args):
        key = freeze(*args)
        keys.add(key)
        return key

    def counted_step(*args):
        steps.append(args[1])
        return original_step(*args)

    monkeypatch.setattr(sched, "_freeze", counted_freeze)
    monkeypatch.setattr(sched, "step", counted_step)
    rep = explore(load_corpus(name), threads)
    assert not rep.truncated
    assert (len(keys), len(steps), rep.schedules_explored, len(rep.mutual_exclusion_violations)) == (
        states, transitions, terminal, violating
    )


def test_benchmark_workloads_pass_under_the_tracer(monkeypatch, tmp_path):
    """Every perfbench job, run once at smoke size under perfbench's
    tracer, passes its own check, and every wrapped layer its workload
    maps to is called: a refactor that breaks what the benchmark reads
    fails here rather than as failed benchmark operations."""
    perfbench = Path(__file__).resolve().parents[1] / "perfbench"
    monkeypatch.syspath_prepend(str(perfbench))  # sys.path is restored afterwards
    try:
        run = importlib.import_module("run")
        workloads = sys.modules["workloads"]
        monkeypatch.setattr(workloads.RandomTrace, "RUNS", 5)
        monkeypatch.setattr(workloads.CliCorpus, "ROUNDS", 1)
        monkeypatch.setattr(workloads.Explore3t, "CONFIGS", (("lock_basic.s", 3),))
        S = workloads.load_spinsim(perfbench.parent)
        expected = run.load_expected()
        for name, workload in workloads.WORKLOADS.items():
            wl = workload(S, 1, expected, tmp_path)
            tracer = run.Tracer()
            tracer.install()
            for job in wl.jobs():
                tracer.enable()
                try:
                    output = tracer.call(run.JOB_SPAN, job.run)
                finally:
                    tracer.disable()
                assert job.check(output) == [], f"{name}: {job.name}"
            assert wl.final_checks() == [], name
            assert run.unwrapped_calls(tracer.stats(), name) == [], name
    finally:
        for name in ("run", "tracing", "workloads"):
            sys.modules.pop(name, None)
