from __future__ import annotations

import json
from collections import Counter

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import decode_events

import spinsim
from spinsim.debug import HELP, DebugSession, run_repl
from spinsim.isa import parse_program
from spinsim.machine import ExecMode
from spinsim.scenario import check_expectations, load_scenario, run_scenario
from spinsim.trace import emit_trace

ATTACK_COMMANDS = [
    "thread 0",
    "step 5",          # thread 0 takes the lock, stops at the critical entry
    "thread 1",
    "step 2",          # thread 1 stops at the LDREX (right after its MOV)
    "set $R7 += 1",
    "step",            # atomic group sails through the held lock
    "set $R7 = 0",
    "step",            # status compare passes
    "set scheduler-locking off",
    "continue",
]


def drive(session, commands):
    return [session.handle(c) for c in commands]


def test_manual_attack_reaches_110(load_corpus):
    session = DebugSession(load_corpus("lock_regcmp.s"), 3, ExecMode.GDB)
    outputs = drive(session, ATTACK_COMMANDS)
    final = outputs[-1]
    assert "accountBalance = 110" in final
    assert "violations: 1" in final
    assert session.machine.finished()


def test_losers_shown_cycling_at_retry(load_corpus):
    session = DebugSession(load_corpus("lock_regcmp.s"), 3, ExecMode.GDB)
    drive(session, ["thread 0", "step 5"])
    # loser threads sit at the retry loop
    info = session.handle("info threads")
    lines = info.splitlines()
    assert "critical_section" in lines[0]
    assert "retry" in lines[1] and "retry" in lines[2]
    # step the loser a few times: it stays in the retry labels
    drive(session, ["thread 1", "step 7"])
    info = session.handle("info threads")
    assert "retry" in info.splitlines()[1]


def test_register_edit_refused_strictly_inside_range(load_corpus):
    session = DebugSession(load_corpus("lock_regcmp.s"), 1, ExecMode.GDB)
    # force a thread into the middle of the exclusive range (normal gdb
    # stepping can never park it there)
    session.machine.threads[0] = session.machine.threads[0]._replace(pc=4)
    out = session.handle("set $R7 += 1")
    assert "refused" in out
    assert "[2, 6]" in out
    assert session.machine.threads[0].regs[7] == 0


def test_register_edit_refused_where_no_label_names_the_pc(tmp_path, capsys):
    """An edit that export could not record as a tamper is refused, so a
    label-less session exports a scenario that replays to its own end."""
    source = ".data x 0\n    LDR R1, =x\n    MOV R2, #1\n    STR R2, [R1]\n"
    session = DebugSession(parse_program(source), 1, ExecMode.GDB, program_name="nolabels.s")
    drive(session, ["step 2"])
    before = session.machine.threads[0]
    out = session.handle("set $R2 = 7")
    assert out.startswith("refused: ") and "pc 2" in out and "\n" not in out
    assert session.machine.threads[0] == before
    assert session.recorded_tampers == []
    drive(session, ["continue", f"export {tmp_path}/nolabels.scn"])
    assert session.handle("x x") == "x = 1"

    (tmp_path / "nolabels.s").write_text(source)
    from spinsim.cli import main

    assert main(["run", str(tmp_path / "nolabels.s"), str(tmp_path / "nolabels.scn")]) == 0
    assert "x = 1" in capsys.readouterr().out


def test_register_edit_checked_as_a_tamper(load_corpus):
    """`set` refuses what `compile_tampers` refuses, with its message, and
    records the spec it applied."""
    session = DebugSession(load_corpus("lock_regcmp.s"), 1, ExecMode.GDB)
    out = session.handle("set $R13 = 1")
    assert out == "refused: register R13 out of range R0..R12"
    assert session.recorded_tampers == []
    assert session.handle("set $R3 = -1") == "R3 = 4294967295 (was 0)"
    assert session.handle("set $R3 += 2") == "R3 = 1 (was 4294967295)"
    assert [t.action for t in session.recorded_tampers] == [("set", -1), ("add", 2)]


def test_register_edit_allowed_inside_range_in_hw_mode(load_corpus):
    session = DebugSession(load_corpus("lock_regcmp.s"), 1, ExecMode.HW)
    drive(session, ["step 4"])  # single-instruction steps land mid-range
    assert session.machine.threads[0].pc == 4
    out = session.handle("set $R9 = 77")
    assert "R9 = 77" in out


def test_exported_session_replays_exactly(load_corpus, corpus_file, tmp_path):
    program = load_corpus("lock_regcmp.s")
    session = DebugSession(program, 3, ExecMode.GDB, program_name="lock_regcmp.s")
    drive(session, ATTACK_COMMANDS)
    session.handle(f"export {tmp_path}/session.scn")

    scenario = load_scenario(tmp_path / "session.scn")
    result = run_scenario(scenario, program)
    assert result.final_memory == dict(session.machine.memory_by_symbol())
    assert len(result.violations) == len(session.runner.violations) == 1
    assert result.final_memory["accountBalance"] == 110

    # the export embeds the session's outcome as expectations, so the
    # run command's exit status re-verifies the reproduction
    from spinsim.cli import main

    code = main(["run", str(corpus_file("lock_regcmp.s")), f"{tmp_path}/session.scn"])
    assert code == 0


def test_session_budget_stops_step_and_export_replays(tmp_path):
    """A session holds at most the dispatches a scenario replays within:
    `step 100001` stops at exactly 100,000 with the budget line, later
    commands that would dispatch stop at once, and the export replays to
    the session's memory. The session holds no event records."""
    program = parse_program(
        ".data counter 0\n    LDR R10, =counter\n    MOV R1, #0\n"
        "loop:\n    ADD R1, R1, #1\n    STR R1, [R10]\n    CMP R1, #50000\n    BNE loop\n"
    )
    session = DebugSession(program, 1, ExecMode.HW)
    budget_line = "step budget exhausted: a session holds at most 100000 dispatches"
    assert session.handle("step 100001") == budget_line
    assert len(session.dispatch_log) == session.runner.step_count == 100_000
    assert session.runner.trace == []
    assert session.handle("continue") == budget_line
    assert session.handle("step") == budget_line
    assert len(session.dispatch_log) == 100_000

    assert session.handle(f"export {tmp_path}/long.scn") == f"session exported to {tmp_path}/long.scn"
    result = run_scenario(load_scenario(tmp_path / "long.scn"), program)
    assert not result.truncated and result.steps_taken == 100_000
    assert result.final_memory == session.machine.memory_by_symbol() == {"counter": 25_000}


_SESSION_COMMANDS = st.one_of(
    st.integers(0, 2).map("thread {}".format),
    st.integers(1, 6).map("step {}".format),
    st.builds(
        "set $R{} {} {}".format,
        st.sampled_from([2, 5, 7, 8, 9, 10]),
        st.sampled_from(["=", "+="]),
        st.integers(-2, 2),
    ),
    st.sampled_from(["set scheduler-locking off", "set scheduler-locking step", "continue"]),
)


LATE_ATTACK_COMMANDS = ["thread 0", "step 5", "thread 1", "step 8"] + ATTACK_COMMANDS[4:]
# Thread 1 steps into the held critical section, which records a violation
# event at its pc, and is edited there: that event is not a retirement.
EDIT_AT_VIOLATION_COMMANDS = ATTACK_COMMANDS[:8] + ["step", "set $R9 = 3", "continue"]


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@example(name="lock_regcmp.s", mode=ExecMode.GDB, threads=3, commands=ATTACK_COMMANDS)
@example(name="lock_regcmp.s", mode=ExecMode.GDB, threads=2, commands=LATE_ATTACK_COMMANDS)
@example(name="lock_regcmp.s", mode=ExecMode.GDB, threads=2, commands=EDIT_AT_VIOLATION_COMMANDS)
@given(
    name=st.sampled_from(["lock_regcmp.s", "lock_basic.s"]),
    mode=st.sampled_from(list(ExecMode)),
    threads=st.integers(1, 3),
    commands=st.lists(_SESSION_COMMANDS, min_size=4, max_size=16),
)
def test_exported_sessions_replay_exactly(name, mode, threads, commands, tmp_path_factory):
    """Every `set` is recorded with the occurrence its replayed hook
    fires at: the replay of an export retraces the session, so memory and
    violations agree, its trace is the one `trace on` wrote, and it fires
    each recorded edit once. The runner's arrival count is the reference
    rule: a thread's retirements, in the session's trace, at each pc where
    it can stop (every pc in HW mode). The replay halts before a later
    arrival, so export refuses while an edited thread has not stepped
    since its edit, naming the first such edit."""
    program = parse_program(spinsim.corpus_path(name).read_text(encoding="utf-8"))
    session = DebugSession(program, threads, mode, program_name=name)
    directory = tmp_path_factory.mktemp("export")
    path, trace_path = directory / "session.scn", directory / "session.jsonl"
    session.handle(f"trace on {trace_path}")
    marks = []  # the dispatches made before each recorded edit
    for command in commands:
        session.handle(command)
        marks += [len(session.dispatch_log)] * (len(session.recorded_tampers) - len(marks))
    unreplayed = [
        spec for spec, at in zip(session.recorded_tampers, marks)
        if spec.thread_id not in session.dispatch_log[at:]
    ]
    out = session.handle(f"export {path}")
    assert session.handle("quit").startswith(f"trace written to {trace_path}\n")
    events = [json.loads(line) for line in trace_path.read_bytes().splitlines()[1:]]
    stops = [mode is ExecMode.HW or inside is None for inside in program.inside_range]
    retired = Counter((e["thread"], e["pc"]) for e in events if "instr" in e and stops[e["pc"]])
    assert session.runner.arrivals == retired
    if unreplayed:
        first = unreplayed[0]
        assert out.startswith(
            f"refused: thread {first.thread_id} has not stepped since set ${first.describe_action()} "
        )
        assert "\n" not in out and not path.exists()
        return
    assert out == f"session exported to {path}"

    scenario = load_scenario(path)
    result = run_scenario(scenario, program)
    assert result.final_memory == session.machine.memory_by_symbol()
    assert len(result.violations) == len(session.runner.violations)
    assert check_expectations(scenario, result) == []
    assert emit_trace(result) == trace_path.read_bytes()
    fired = [e["tamper"] for e in decode_events(result.trace) if "tamper" in e]
    assert sum(len(note.split("; ")) for note in fired) == len(session.recorded_tampers)


def test_export_refuses_an_edit_the_replay_never_fires(load_corpus, tmp_path):
    """Thread 1 is edited and never stepped again, so the exported
    schedule, which halts after thread 0's steps, would never dispatch
    its hook: export refuses, and succeeds once thread 1 steps."""
    session = DebugSession(load_corpus("lock_basic.s"), 2, ExecMode.GDB, program_name="lock_basic.s")
    drive(session, ["thread 0", "step 3", "thread 1", "set $R2 = 5", "thread 0", "step 30"])
    assert session.machine.threads[0].status == "exited"
    out = session.handle(f"export {tmp_path}/x.scn")
    assert out == (
        "refused: thread 1 has not stepped since set $R2 = 5 at retry, "
        "so a replay would never make that edit"
    )
    assert not (tmp_path / "x.scn").exists()

    drive(session, ["thread 1", "step"])
    assert session.handle(f"export {tmp_path}/x.scn") == f"session exported to {tmp_path}/x.scn"
    result = run_scenario(load_scenario(tmp_path / "x.scn"), load_corpus("lock_basic.s"))
    assert [e["tamper"] for e in decode_events(result.trace) if "tamper" in e] == ["R2 = 5 (0 -> 5)"]


def test_export_records_later_occurrences(load_corpus, tmp_path):
    """A register edit made after the loser already spun through the
    hooked pc exports with the matching occurrence number."""
    program = load_corpus("lock_regcmp.s")
    session = DebugSession(program, 2, ExecMode.GDB, program_name="lock_regcmp.s")
    drive(session, ["thread 0", "step 5", "thread 1", "step 8"])  # two full spin cycles
    assert session.machine.threads[1].pc == 2
    session.handle("set $R7 += 1")
    spec = session.recorded_tampers[-1]
    assert spec.location == "retry+2"
    assert spec.occurrence == 3  # pc 2 executed twice already
    drive(session, ["step", "set $R7 = 0", "step", "set scheduler-locking off", "continue"])
    session.handle(f"export {tmp_path}/late.scn")

    result = run_scenario(load_scenario(tmp_path / "late.scn"), program)
    assert result.final_memory["accountBalance"] == 105  # 2 threads, one update lost
    assert len(result.violations) == 1


def test_breakpoints_and_continue(load_corpus):
    session = DebugSession(load_corpus("lock_regcmp.s"), 2, ExecMode.GDB)
    assert "no label" in session.handle("break nowhere")
    out = session.handle("break critical_section")
    assert "pc 9" in out
    out = session.handle("continue")
    assert "breakpoint critical_section" in out
    # the thread that hit the breakpoint takes focus
    assert session.machine.threads[session.focus].pc == 9


_LABEL_PAST_END = ".data x 0\nstart:\n    LDR R1, =x\n    MOV R2, #1\n    STR R2, [R1]\ndone:\n"
_LABEL_IN_RANGE = (".data x 0\n    LDR R1, =x\nll:\n    LDREX R2, [R1]\ninner:\n    ADD R2, R2, #1\n"
                   "    STREX R3, R2, [R1]\n")


@pytest.mark.parametrize("mode", list(ExecMode))
def test_break_refuses_a_label_past_the_last_instruction(mode):
    """An exited thread's pc is past the last instruction, where no
    runnable thread stops, so that breakpoint could never fire."""
    session = DebugSession(parse_program(_LABEL_PAST_END), 1, mode)
    assert session.handle("break done") == "refused: location 'done' resolves outside the program (pc 3)"
    assert session.breakpoints == set()
    assert session.handle("continue") == "all threads finished\n" + str(session.result_summary())


def test_break_refuses_a_label_inside_a_range_in_gdb_mode():
    """In gdb mode a dispatch never stops strictly inside LDREX..STREX;
    the LDREX itself, the range entry, stays a breakpoint that fires."""
    session = DebugSession(parse_program(_LABEL_IN_RANGE), 1, ExecMode.GDB)
    assert session.handle("break inner") == (
        "refused: breakpoint at 'inner' (pc 2) lies strictly inside the exclusive range [1, 3]; "
        "in gdb mode only the range entry (pc 1) is a legal stop point"
    )
    assert session.breakpoints == set()
    assert session.handle("break ll") == "breakpoint at ll (pc 1)"
    assert session.handle("continue").startswith("breakpoint ll:\nthread 0 stopped at pc 1")


def test_break_accepts_a_label_inside_a_range_in_hw_mode():
    session = DebugSession(parse_program(_LABEL_IN_RANGE), 1, ExecMode.HW)
    assert session.handle("break inner") == "breakpoint at inner (pc 2)"
    assert session.handle("continue").startswith("breakpoint inner:\nthread 0 stopped at pc 2")


def test_info_registers_and_examine(load_corpus):
    session = DebugSession(load_corpus("lock_regcmp.s"), 1, ExecMode.GDB)
    drive(session, ["step 3"])
    info = session.handle("info registers")
    assert "R8 = 0" in info and "R9 = 1" in info
    assert "Z = 1" in info
    assert session.handle("x lockVar") == "lockVar = 1"
    assert "no data word" in session.handle("x nothing")


def test_step_rejects_dead_thread_and_counts(load_corpus):
    session = DebugSession(load_corpus("unlocked_inc.s"), 1, ExecMode.GDB)
    drive(session, ["step 4"])
    out = session.handle("step")
    assert "exited" in out
    assert "cannot set registers" in session.handle("set $R1 = 5")


def test_unknown_command_prints_help(load_corpus):
    session = DebugSession(load_corpus("lock_regcmp.s"), 1, ExecMode.GDB)
    out = session.handle("disassemble")
    assert "unknown or incomplete command" in out
    assert "scheduler-locking" in out


@pytest.mark.parametrize(
    "command",
    [
        "thread 1 junk", "step 3 junk", "break retry junk", "x lockVar junk", "info threads junk",
        "continue junk", "quit now", "q now", "export {tmp}/my attack.scn",
    ],
)
def test_commands_refuse_extra_words(load_corpus, tmp_path, command):
    """A command given more arguments than it takes gets the reply of an
    incomplete one and does nothing: no file, no step, no focus change."""
    command = command.format(tmp=tmp_path)
    session = DebugSession(load_corpus("lock_regcmp.s"), 2, ExecMode.GDB)
    assert session.handle(command) == f"unknown or incomplete command: {command!r}\n" + HELP
    assert session.focus == 0 and session.dispatch_log == [] and session.breakpoints == set()
    assert not session.done
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize(
    "command",
    [
        "set scheduler-locking junk off", "set scheduler-lockingfoo step", "set scheduler-locking",
        "set scheduler-locking step extra",
    ],
)
def test_scheduler_locking_takes_exactly_one_value(load_corpus, command):
    """Only `set scheduler-locking step|off` switches locking; any other
    line that starts with it gets the refusal and changes nothing."""
    session = DebugSession(load_corpus("lock_regcmp.s"), 2, ExecMode.GDB)
    for value in ("off", "step"):
        assert session.handle(f"set scheduler-locking {value}") == f"scheduler-locking {value}"
        assert session.handle(command) == "scheduler-locking takes 'step' or 'off'"
        assert session.scheduler_locking == value
    assert session.dispatch_log == [] and session.recorded_tampers == []


def test_trace_command_keeps_its_usage_reply(load_corpus, tmp_path):
    """`trace` checks its own arguments: a second path keeps its usage reply."""
    session = DebugSession(load_corpus("lock_regcmp.s"), 1, ExecMode.GDB)
    assert session.handle(f"trace on {tmp_path}/a {tmp_path}/b") == "usage: trace on <path>"
    assert session.trace_path is None


def test_trace_on_writes_at_quit(load_corpus, tmp_path):
    session = DebugSession(load_corpus("lock_regcmp.s"), 1, ExecMode.GDB)
    session.handle(f"trace on {tmp_path}/session.trace")
    drive(session, ["step 3"])
    out = session.handle("quit")
    assert session.done
    assert "trace written" in out
    lines = (tmp_path / "session.trace").read_bytes().decode().splitlines()
    assert json.loads(lines[0])["type"] == "header"
    assert len(lines) > 3


def test_unwritable_paths_keep_the_session(load_corpus, tmp_path):
    """`export` and the trace written at quit report an unwritable path
    in one line, and the session goes on."""
    session = DebugSession(load_corpus("lock_regcmp.s"), 1, ExecMode.GDB)
    drive(session, ["step 3"])
    missing = tmp_path / "missing"
    out = session.handle(f"export {missing}/s.scn")
    assert out.startswith(f"cannot export to {missing}/s.scn: ") and "\n" not in out

    session.handle(f"trace on {missing}/t.jsonl")
    out = session.handle("quit")
    assert out.startswith(f"cannot write trace {missing}/t.jsonl: ") and "\n" not in out
    assert not session.done
    assert "stopped at pc" in session.handle("step")

    session.handle(f"trace on {tmp_path}/t.jsonl")
    out = session.handle("quit")
    assert session.done and "trace written" in out
    assert (tmp_path / "t.jsonl").is_file()


def test_repl_loop_quits_on_eof(load_corpus, capsys):
    session = DebugSession(load_corpus("lock_regcmp.s"), 1, ExecMode.GDB)
    feed = iter(["step 2", "info registers"])

    def fake_input(prompt):
        try:
            return next(feed)
        except StopIteration:
            raise EOFError

    run_repl(session, input_fn=fake_input, output=print)
    out = capsys.readouterr().out
    assert "spinsim debugger" in out
    assert session.done
