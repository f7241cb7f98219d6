from __future__ import annotations

import hashlib
import json

import pytest

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
    tamper_events = [e for e in res.trace if e.tamper is not None]
    assert len(tamper_events) == 2
    assert all(e.thread_id == 1 for e in tamper_events)
    assert "R7 += 1" in tamper_events[0].tamper
    assert "R7 = 0" in tamper_events[1].tamper
    violation_events = [e for e in res.trace if e.violation is not None]
    assert len(violation_events) == 1
    assert violation_events[0].violation == "mutual_exclusion"


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
        for sym, old, new in event.mem_writes:
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
    from spinsim.isa import parse_program

    p = parse_program(".data x 1\n    LDR R1, [R0]\n")
    m = init_machine(p, 1, ExecMode.HW)
    res = run_schedule(m, ScheduleScript(entries=[(0, 1)], halt=True))
    text = str(summarize(res))
    assert 'thread 0: faulted("bus error")' in text


def test_events_name_mapped_symbols(load_corpus, corpus_file):
    res = attack_result(load_corpus, corpus_file)
    symbols = {"lockVar", "accountBalance"}
    for event in res.trace:
        for sym, _, _ in event.mem_writes:
            assert sym in symbols


# Runs that the four golden `lock_regcmp.s` scenarios never produce:
# (program, threads, mode, entries, tampers, clrex_on_switch, max_steps,
# random seed). The sha256 of each trace was recorded on the code before
# trace events were built outside the machine, so they pin its bytes.
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
}

_PINNED_SHA256 = {
    "bus_error_fault": "d45ed0f519e2f5a63ca9da58ffbde3da3f1723d83990c23e15ab4fa281eb1b72",
    "clrex_on_switch": "a4f6842904d446712dd54efcb7bf3a4c6c8eb364f115608975ad2d998ca3b31d",
    "flip_bit_tamper": "f0e758da2a8c3333bd69b416328c0a07a660fb5b7027a49a479dcf4077a40587",
    "gdb_random_8t_seed_5": "ad53e6f0327968bec53db374608282c961188a1d83c8d4cc33ea19be38600930",
    "gdb_random_8t_seed_77": "fc08cdad23404faed40365ec3568d6d2fd6124e606da5697bd1e01235d16e251",
    "hw_tamper_inside_exclusive_range": "4637af0c2239d19cea89bb18eec599c7cb59122d5f398f35f9761493846b463d",
    "plain_str_two_threads": "68bbda15312b53626eab0da717762fc75955fbfa24a7d75bcf63476b7d915a69",
}


@pytest.mark.parametrize("name", sorted(_PINNED_RUNS))
def test_trace_bytes_pinned(name, load_corpus):
    program, threads, mode, entries, tampers, clrex, max_steps, seed = _PINNED_RUNS[name]
    m = init_machine(load_corpus(program), threads, mode)
    if seed is None:
        script = ScheduleScript(entries=entries, clrex_on_switch=clrex)
        res = run_schedule(m, script, tampers=tampers, max_steps=max_steps)
    else:
        res = run_random(m, seed=seed, max_steps=max_steps)
    assert hashlib.sha256(emit_trace(res)).hexdigest() == _PINNED_SHA256[name]
