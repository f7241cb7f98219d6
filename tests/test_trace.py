from __future__ import annotations

import hashlib
import json

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from spinsim import trace
from spinsim.debug import DebugSession
from spinsim.isa import parse_program
from spinsim.machine import ExecMode, init_machine
from spinsim.scenario import load_scenario, run_scenario
from spinsim.sched import ScheduleScript, run_random, run_schedule
from spinsim.tamper import TamperSpec
from spinsim.trace import emit_trace, summarize


def attack_result(load_corpus, corpus_file):
    scenario = load_scenario(corpus_file("regtamper_attack.scn"))
    return run_scenario(scenario, load_corpus("lock_regcmp.s"))


def test_trace_stream_shape(load_corpus, corpus_file, tmp_path):
    res = attack_result(load_corpus, corpus_file)
    data = emit_trace(res, tmp_path / "run.trace")
    assert (tmp_path / "run.trace").read_bytes() == data
    lines = data.decode().splitlines()
    header = json.loads(lines[0])
    assert header["type"] == "header"
    assert header["mode"] == "gdb"
    assert header["schedule"].startswith("script:")
    assert len(header["program_sha256"]) == 64
    assert header["tool"].startswith("spinsim ")
    events = [json.loads(line) for line in lines[1:]]
    assert all(e["type"] == "event" for e in events)
    steps = [e["step"] for e in events]
    assert steps == sorted(steps) and len(set(steps)) == len(steps)


def test_attack_trace_has_two_tampers_and_one_violation(load_corpus, corpus_file):
    res = attack_result(load_corpus, corpus_file)
    tamper_events = [e for e in res.trace if "tamper" in e]
    assert len(tamper_events) == 2
    assert all(e["thread"] == 1 for e in tamper_events)
    assert "R7 += 1" in tamper_events[0]["tamper"]
    assert "R7 = 0" in tamper_events[1]["tamper"]
    violation_events = [e for e in res.trace if "violation" in e]
    assert len(violation_events) == 1
    assert violation_events[0]["violation"] == "mutual_exclusion"


def test_empty_run_emits_header_only(load_corpus):
    m = init_machine(load_corpus("lock_basic.s"), 1, ExecMode.HW)
    res = run_schedule(m, ScheduleScript(entries=[], halt=True))
    data = emit_trace(res)
    assert len(data.splitlines()) == 1


def test_identical_runs_identical_bytes(load_corpus, corpus_file):
    a = emit_trace(attack_result(load_corpus, corpus_file))
    b = emit_trace(attack_result(load_corpus, corpus_file))
    assert a == b


def test_memory_write_deltas_conserve(load_corpus, corpus_file):
    """Summing the trace's accountBalance write deltas reproduces
    final minus initial."""
    res = attack_result(load_corpus, corpus_file)
    delta = 0
    for event in res.trace:
        for sym, old, new in event.get("mem_writes", []):
            if sym == "accountBalance":
                delta += new - old
    assert delta == res.final_memory["accountBalance"] - 100


def test_summarize_normal_and_attack(load_corpus, corpus_file):
    normal = load_scenario(corpus_file("normal3.scn"))
    res = run_scenario(normal, load_corpus("lock_regcmp.s"))
    text = str(summarize(res))
    assert "accountBalance = 115" in text
    assert "violations: 0" in text

    res = attack_result(load_corpus, corpus_file)
    text = str(summarize(res))
    assert "accountBalance = 110" in text
    assert "violations: 1" in text
    assert "thread 1: exited" in text


def test_summarize_lists_faults(load_corpus):
    p = parse_program(".data x 1\n    LDR R1, [R0]\n")
    m = init_machine(p, 1, ExecMode.HW)
    res = run_schedule(m, ScheduleScript(entries=[(0, 1)], halt=True))
    text = str(summarize(res))
    assert 'thread 0: faulted("bus error")' in text


def test_events_name_mapped_symbols(load_corpus, corpus_file):
    res = attack_result(load_corpus, corpus_file)
    symbols = {"lockVar", "accountBalance"}
    for event in res.trace:
        for sym, _, _ in event.get("mem_writes", []):
            assert sym in symbols


_HEADER_KEYS = {"type", "format", "tool", "program_sha256", "mode", "schedule"}
_EVENT_KEYS = {
    "type", "step", "thread", "pc", "label", "instr", "reg_writes", "mem_writes",
    "monitor", "tamper", "violation", "fault", "noop",
}


def test_trace_records_keep_the_documented_format(load_corpus, corpus_file, tmp_path):
    """The trace format, held by no class: the header's keys, the event
    keys, no empty values, and violations that are the trace's own
    violation records. A debugger session's record is its replay."""
    program = load_corpus("lock_regcmp.s")
    results = [
        run_scenario(load_scenario(corpus_file(name)), program)
        for name in ("normal3.scn", "random_round.scn", "regtamper_attack.scn", "regtamper_disarmed.scn")
    ]
    session = DebugSession(program, 3, ExecMode.GDB)
    for command in ["thread 0", "step 5", "thread 1", "step 2", "set $R7 += 1", "step",
                    "set $R7 = 0", "step", "set scheduler-locking off", "continue"]:
        session.handle(command)
    assert session.handle(f"export {tmp_path}/session.scn").startswith("session exported")
    results.append(run_scenario(load_scenario(tmp_path / "session.scn"), program))
    machine = init_machine(load_corpus("lock_no_ll_branch.s"), 3, ExecMode.HW)
    results.append(run_random(machine, seed=3))

    assert sum(len(res.violations) for res in results) >= 2
    for res in results:
        lines = [json.loads(line) for line in emit_trace(res).splitlines()]
        assert set(lines[0]) == _HEADER_KEYS
        assert lines[1:] == res.trace
        for event in res.trace:
            assert event.keys() <= _EVENT_KEYS
            assert all(value not in (None, [], "") for value in event.values())
        violation_records = [e for e in res.trace if "violation" in e]
        assert len(res.violations) == len(violation_records)
        assert all(v is e for v, e in zip(res.violations, violation_records))


@pytest.mark.parametrize(
    "body, reg_writes, r2",
    [
        ("    B loop\n", None, 0),
        # 2,048 ADDs alternate with 2,047 Bs, so the 4,096th instruction is an ADD
        ("    ADD R2, R2, #1\n    B loop\n", [["R2", 2047, 2048]], 2048),
    ],
)
def test_atomic_step_limit_fault_is_in_the_trace(body, reg_writes, r2):
    """A GDB step stuck in an exclusive range faults at the limit, and
    the event of the instruction that reached it names the fault and
    keeps that instruction's register write."""
    p = parse_program(".data x 0\n    LDR R1, =x\n    LDREX R2, [R1]\nloop:\n" + body
                      + "    STREX R3, R2, [R1]\n")
    m = init_machine(p, 1, ExecMode.GDB)
    res = run_schedule(m, ScheduleScript(entries=[(0, 2)], halt=True))
    assert len(res.trace) == 4097  # the LDR, then 4,096 instructions in one step
    assert [e for e in res.trace if "fault" in e] == [res.trace[-1]]
    event = res.trace[-1]
    assert event["fault"] == "atomic-step limit"
    assert event["monitor"] == ["x:v0", "open"]
    assert event.get("reg_writes") == reg_writes
    assert res.thread_statuses == [("faulted", "atomic-step limit")]
    assert m.threads[0].regs[2] == r2


# Two locks taken in turn: two LDREX..STREX ranges, which no corpus
# program has.
_TWO_LOCKS = """\
.data lockA 0
.data lockB 0
.data shared 0
.region critical critical_section unlock
.entry take_a

take_a:
    LDR R10, =lockA
    LDREX R8, [R10]
    CMP R8, #0
    BNE take_a
    MOV R9, #1
    STREX R2, R9, [R10]
    CMP R2, #0
    BNE take_a

take_b:
    LDR R11, =lockB
    LDREX R8, [R11]
    CMP R8, #0
    BNE take_b
    STREX R3, R9, [R11]
    CMP R3, #0
    BNE take_b

critical_section:
    LDR R12, =shared
    LDR R4, [R12]
    ADD R4, R4, #1
    STR R4, [R12]

unlock:
    MOV R5, #0
    STR R5, [R11]
    STR R5, [R10]
"""

# Runs that the four golden `lock_regcmp.s` scenarios never produce:
# (program, threads, mode, entries, tampers, clrex_on_switch, max_steps,
# random seed); the program is a corpus file name or `_TWO_LOCKS`. The
# sha256 of each trace was recorded on the code before trace events were
# built outside the machine (the two-lock run: before the trace encoder
# and the GDB stop table were prebuilt), so they pin its bytes.
_PINNED_RUNS = {
    "bus_error_fault": (
        "lock_basic.s", 2, ExecMode.HW, [(0, 12), (1, 4)],
        [TamperSpec(0, "critical_section+1", 10, ("set", 0))], False, 60, None,
    ),
    "hw_tamper_inside_exclusive_range": (
        "lock_regcmp.s", 2, ExecMode.HW, [(0, 9), (1, 4)],
        [TamperSpec(1, "retry+3", 7, ("set", 1))], False, 400, None,
    ),
    "flip_bit_tamper": (
        "lock_regcmp.s", 2, ExecMode.GDB, [(0, 11), (1, 2)],
        [TamperSpec(0, "critical_section+3", 4, ("flip_bit", 4))], False, 400, None,
    ),
    "plain_str_two_threads": (
        "unlocked_inc.s", 2, ExecMode.HW, [(0, 2), (1, 4), (0, 2)], None, False, 400, None,
    ),
    "clrex_on_switch": (
        "lock_basic.s", 2, ExecMode.HW, [(0, 2), (1, 3), (0, 30), (1, 8)], None, True, 400, None,
    ),
    "gdb_random_8t_seed_5": ("lock_regcmp.s", 8, ExecMode.GDB, None, None, False, 100_000, 5),
    "gdb_random_8t_seed_77": ("lock_regcmp.s", 8, ExecMode.GDB, None, None, False, 100_000, 77),
    "gdb_random_two_ranges_4t_seed_3": (_TWO_LOCKS, 4, ExecMode.GDB, None, None, False, 100_000, 3),
}

_PINNED_SHA256 = {
    "bus_error_fault": "d45ed0f519e2f5a63ca9da58ffbde3da3f1723d83990c23e15ab4fa281eb1b72",
    "clrex_on_switch": "a4f6842904d446712dd54efcb7bf3a4c6c8eb364f115608975ad2d998ca3b31d",
    "flip_bit_tamper": "f0e758da2a8c3333bd69b416328c0a07a660fb5b7027a49a479dcf4077a40587",
    "gdb_random_8t_seed_5": "ad53e6f0327968bec53db374608282c961188a1d83c8d4cc33ea19be38600930",
    "gdb_random_8t_seed_77": "fc08cdad23404faed40365ec3568d6d2fd6124e606da5697bd1e01235d16e251",
    "gdb_random_two_ranges_4t_seed_3": "25d29e28c84d6b38b30b3179871beff05a9c0a1779776f229caff7b8a51498ce",
    "hw_tamper_inside_exclusive_range": "4637af0c2239d19cea89bb18eec599c7cb59122d5f398f35f9761493846b463d",
    "plain_str_two_threads": "68bbda15312b53626eab0da717762fc75955fbfa24a7d75bcf63476b7d915a69",
}


@pytest.mark.parametrize("name", sorted(_PINNED_RUNS))
def test_trace_bytes_pinned(name, load_corpus):
    program, threads, mode, entries, tampers, clrex, max_steps, seed = _PINNED_RUNS[name]
    if program == _TWO_LOCKS:
        m = init_machine(parse_program(program), threads, mode)
        assert len(m.program.exclusive_ranges()) == 2
    else:
        m = init_machine(load_corpus(program), threads, mode)
    if seed is None:
        script = ScheduleScript(entries=entries, clrex_on_switch=clrex)
        res = run_schedule(m, script, tampers=tampers, max_steps=max_steps)
    else:
        res = run_random(m, seed=seed, max_steps=max_steps)
    assert hashlib.sha256(emit_trace(res)).hexdigest() == _PINNED_SHA256[name]


# Debugger sessions traced with `trace on`: (program, threads, mode,
# commands). "unreplayed_edit" edits thread 0 and never steps it again,
# so its export is refused and its trace carries no tamper note. The
# sha256 of each trace was recorded while a session still kept its own
# events, so they pin that a session's trace is byte for byte the one
# it wrote then.
_PINNED_SESSIONS = {
    "readme_attack": (
        "lock_regcmp.s", 3, ExecMode.GDB,
        ["thread 0", "step 5", "thread 1", "step 2", "set $R7 += 1", "step", "set $R7 = 0", "step",
         "set scheduler-locking off", "continue"],
    ),
    "unreplayed_edit": (
        "lock_regcmp.s", 2, ExecMode.GDB,
        ["thread 0", "step 2", "set $R7 = 3", "thread 1", "step 4"],
    ),
    "hw_breakpoints": (
        "lock_basic.s", 3, ExecMode.HW,
        ["break critical_section", "thread 2", "step 3", "set $R9 += 2", "continue", "set $R5 = 1",
         "step 2", "continue"],
    ),
}

_PINNED_SESSION_SHA256 = {
    "hw_breakpoints": "a651fc29ff8af7e10184d13f2d5cafba0ae2d07e6860e6bacfc1f8933f926e48",
    "readme_attack": "5760ac252876eb5f5010dd6995ea6c4cda4def48d00bea108c79cd5a5d638b65",
    "unreplayed_edit": "009fb72f015b73a0ec5c4ae6f59d9e2ce479ed2be84d63d524e52c87c4dc7fbe",
}


@pytest.mark.parametrize("name", sorted(_PINNED_SESSIONS))
def test_session_trace_bytes_pinned(name, load_corpus, tmp_path):
    program, threads, mode, commands = _PINNED_SESSIONS[name]
    session = DebugSession(load_corpus(program), threads, mode, program_name=program)
    session.handle(f"trace on {tmp_path}/session.jsonl")
    for command in commands:
        session.handle(command)
    assert session.handle("quit").startswith("trace written to ")
    data = (tmp_path / "session.jsonl").read_bytes()
    assert hashlib.sha256(data).hexdigest() == _PINNED_SESSION_SHA256[name]


# Trace encoder against `json.dumps` with the settings the trace format
# names. Text mixes arbitrary code points (lone surrogates included) with
# control characters and non-BMP ones, which ensure_ascii escapes.
_TEXT = st.text(
    st.one_of(
        st.characters(exclude_categories=()),
        st.sampled_from("\x00\x1f\x7f\"\\\u2028\U0001f600\U0010ffff"),
    )
)
_INTS = st.one_of(st.integers(), st.integers(-(2**70), 2**70), st.sampled_from([-(2**63), 2**64]))
_VALUES = st.one_of(
    _TEXT,
    _INTS,
    st.booleans(),
    st.lists(st.tuples(_TEXT, _INTS, _INTS).map(list), max_size=4),
)
_RECORDS = st.dictionaries(_TEXT, _VALUES, max_size=6)


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(record=_RECORDS)
@example(record={"reg_writes": [["R\U0001f600", -1, 2**64]], "noop": True, "\x00": "\x1f\ud800"})
def test_encoder_matches_json_dumps(record):
    want = json.dumps(record, sort_keys=True, separators=(",", ":"))
    assert trace._encode(record) == want
    assert trace._ENCODER.encode(record) == want


def test_fallback_encoder_gives_the_same_trace_bytes(load_corpus, corpus_file, monkeypatch):
    """Without the C encoder `_encode` is `_ENCODER.encode` on the
    pure-Python path; a corpus run's trace must not change."""
    res = attack_result(load_corpus, corpus_file)
    want = emit_trace(res)
    monkeypatch.setattr(json.encoder, "c_make_encoder", None)
    monkeypatch.setattr(trace, "_encode", trace._ENCODER.encode)
    assert emit_trace(res) == want
    random_run = run_random(init_machine(load_corpus("lock_regcmp.s"), 8, ExecMode.GDB), seed=5)
    assert hashlib.sha256(emit_trace(random_run)).hexdigest() == _PINNED_SHA256["gdb_random_8t_seed_5"]
