"""Acceptance suite: one criterion per test, each printing a PASS/FAIL
line (run with `pytest tests/test_acceptance.py -v -s`). All tolerances
are exact."""

from __future__ import annotations

import time

from conftest import decode_events
from test_properties import monitor_soundness_sweep

from spinsim.isa import strictly_inside
from spinsim.machine import ExecMode, init_machine
from spinsim.scenario import load_scenario, run_scenario
from spinsim.sched import _Runner, explore, run_random, run_schedule, witness_script
from spinsim.trace import emit_trace


def _verdict(label: str):
    class _Ctx:
        def __enter__(self):
            return self

        def __exit__(self, exc_type, exc, tb):
            print(f"ACCEPTANCE {label}: {'FAIL' if exc_type else 'PASS'}")
            return False

    return _Ctx()


def _run_corpus_scenario(load_corpus, corpus_file, name):
    scenario = load_scenario(corpus_file(name))
    program = load_corpus(scenario.program)
    return scenario, run_scenario(scenario, program)


def test_acceptance_1_normal_run_value(load_corpus, corpus_file):
    """3 threads, +5 each from 100 -> exactly 115, over 50 random seeds
    and the scripted normal schedule."""
    with _verdict("1 normal-run value"):
        program = load_corpus("lock_regcmp.s")
        for seed in range(50):
            res = run_random(init_machine(program, 3, ExecMode.HW), seed=seed)
            assert res.final_memory["accountBalance"] == 115, f"seed {seed}"
            assert res.violations == []
        _, res = _run_corpus_scenario(load_corpus, corpus_file, "normal3.scn")
        assert res.final_memory["accountBalance"] == 115
        assert res.violations == []


def test_acceptance_2_attack_replay(load_corpus, corpus_file):
    """The shipped register-tamper attack ends at exactly 110 with
    exactly one mutual-exclusion violation."""
    with _verdict("2 attack replay"):
        _, res = _run_corpus_scenario(load_corpus, corpus_file, "regtamper_attack.scn")
        assert res.final_memory["accountBalance"] == 110
        assert len(res.violations) == 1
        assert decode_events(res.violations)[0]["violation"] == "mutual_exclusion"


def test_acceptance_3_monitor_soundness():
    """Conditional-store failure and success soundness against the
    independent oracle over 10,000 randomized 2-thread cases."""
    with _verdict("3 monitor soundness"):
        successes, failures = monitor_soundness_sweep(10_000)
        assert successes > 2_000
        assert failures > 2_000


def test_acceptance_4a_exhaustive_mutual_exclusion_checked_lock(load_corpus):
    """Exhaustive 2-thread exploration of the constant-compare lock:
    single final state 110, no violations, no truncation."""
    with _verdict("4a exhaustive mutual exclusion (checked lock)"):
        started = time.monotonic()
        report = explore(load_corpus("lock_basic.s"), 2)
        assert report.final_values("accountBalance") == {110}
        assert report.mutual_exclusion_violations == []
        assert report.truncated is False
        assert time.monotonic() - started < 30.0


def test_acceptance_4b_exhaustive_mutual_exclusion_no_ll_branch(load_corpus):
    """Same expectation for the no-LL-branch routine. Known to fail:
    because the routine never checks the loaded value, a second thread's
    conditional store succeeds while the lock is held (no store touches
    the word inside its link window), so enumeration reaches the lost
    update and the single-final-state expectation cannot hold under
    faithful LL/SC semantics. Kept as the requirement states."""
    with _verdict("4b exhaustive mutual exclusion (no-LL-branch lock)"):
        started = time.monotonic()
        report = explore(load_corpus("lock_no_ll_branch.s"), 2)
        assert time.monotonic() - started < 30.0
        assert report.truncated is False
        assert report.final_values("accountBalance") == {110}
        assert report.mutual_exclusion_violations == []


def test_acceptance_5_lost_update_witness(load_corpus):
    """The unlocked variant explores to {105, 110} and the 105 witness
    schedule replays to 105."""
    with _verdict("5 lost-update witness"):
        program = load_corpus("unlocked_inc.s")
        report = explore(program, 2)
        assert report.final_values("accountBalance") == {105, 110}
        assert report.truncated is False
        witness = next(
            path for state, path in report.witnesses.items()
            if dict(state)["accountBalance"] == 105
        )
        machine = init_machine(program, 2, ExecMode.HW)
        replay = run_schedule(machine, witness_script(witness))
        assert replay.final_memory["accountBalance"] == 105


def test_acceptance_6_gdb_stepping_cycle(load_corpus):
    """Stepping a loser while the lock is held cycles over exactly the
    3 stop points (address load, register zeroing, exclusive group) for
    10+ consecutive cycles, never stopping strictly inside the
    LDREX..STREX range."""
    with _verdict("6 gdb stepping cycle"):
        program = load_corpus("lock_regcmp.s")
        machine = init_machine(program, 2, ExecMode.GDB)
        runner = _Runner(machine)
        for _ in range(5):
            runner.dispatch(0)  # thread 0 acquires and parks in the region
        assert machine.memory_by_symbol()["lockVar"] == 1

        stops = []
        groups = []
        trace_start = len(runner.trace)
        for _ in range(30):  # 10 cycles of 3 stops
            before = len(runner.trace)
            runner.dispatch(1)
            stops.append(machine.threads[1].pc)
            groups.append([e["pc"] for e in decode_events(runner.trace[before:])])
            assert strictly_inside(program.exclusive_ranges(), machine.threads[1].pc) is None
        assert stops == [1, 2, 0] * 10
        # trace shows the exclusive group retiring atomically each cycle
        assert groups == [[0], [1], [2, 3, 4]] * 10
        assert all(not e.get("noop") for e in decode_events(runner.trace[trace_start:]))


def test_acceptance_7_lint_conformance(load_corpus, corpus_file):
    """Exact findings: clean lock 0, register-compare lock exactly 2
    REG_COMPARE, no-LL-branch lock exactly 1 MISSING_LL_BRANCH; all
    matching the frozen expectation files."""
    from spinsim.lint import lint, render_records

    with _verdict("7 lint conformance"):
        expected_rules = {
            "lock_basic.s": [],
            "lock_regcmp.s": ["REG_COMPARE", "REG_COMPARE"],
            "lock_no_ll_branch.s": ["MISSING_LL_BRANCH"],
        }
        for name, rules in expected_rules.items():
            findings = lint(load_corpus(name))
            assert [f.rule for f in findings] == rules, name
            frozen = corpus_file(name).with_suffix(".lint").read_text()
            assert render_records(findings) == frozen, name


def test_acceptance_8_determinism(load_corpus, corpus_file):
    """Every shipped scenario, run twice, yields byte-identical trace
    files."""
    with _verdict("8 determinism"):
        for name in (
            "normal3.scn",
            "regtamper_attack.scn",
            "regtamper_disarmed.scn",
            "random_round.scn",
        ):
            first = emit_trace(_run_corpus_scenario(load_corpus, corpus_file, name)[1])
            second = emit_trace(_run_corpus_scenario(load_corpus, corpus_file, name)[1])
            assert first == second, name
            assert len(first) > 0


def test_acceptance_9_tamper_ab(load_corpus, corpus_file):
    """The attack scenario with tampers stripped yields 115 and zero
    violations: the breakage is attributable solely to the register
    edits."""
    with _verdict("9 tamper A/B"):
        scenario = load_scenario(corpus_file("regtamper_attack.scn"))
        program = load_corpus(scenario.program)
        scenario.tampers = []
        res = run_scenario(scenario, program)
        assert res.final_memory["accountBalance"] == 115
        assert res.violations == []
        disarmed = load_scenario(corpus_file("regtamper_disarmed.scn"))
        res2 = run_scenario(disarmed, program)
        assert res2.final_memory == res.final_memory
