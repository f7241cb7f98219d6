"""Randomized property sweeps for the exclusive-monitor semantics.

The oracle here is an independent mini-interpreter over the same
instruction sequences: it tracks each thread's reservation as
(symbol, touched-since-link flag) and flips the flag whenever any store
commits to that symbol. It never looks at the engine's monitor or
version state, so agreement on every conditional-store outcome checks
the two sides against the definition directly:

    failure soundness  a store touched the granule in the link window,
                       or the monitor was cleared -> status 1, no write
    success soundness  untouched window with a live monitor -> status 0
                       and the store immediately visible
"""

from __future__ import annotations

import random

from spinsim.isa import Instruction, Program, strictly_inside
from spinsim.machine import RUNNABLE, ExecMode, init_machine, step
from spinsim.sched import splitmix64

SYMBOLS = ("A", "B")
ADDR_REGS = {"A": 10, "B": 11}


def random_ops(rng: random.Random) -> list[tuple]:
    """Straight-line exclusive-access soup shared by both threads."""
    ops: list[tuple] = [("LDR_ADDR", 10, "A"), ("LDR_ADDR", 11, "B")]
    for _ in range(rng.randint(8, 14)):
        roll = rng.random()
        sym = rng.choice(SYMBOLS)
        addr = ADDR_REGS[sym]
        if roll < 0.22:
            ops.append(("LDREX", rng.choice((1, 2, 3)), addr, sym))
        elif roll < 0.48:
            ops.append(("STREX", rng.choice((1, 2, 3)), rng.choice((4, 5)), addr, sym))
        elif roll < 0.62:
            ops.append(("STR", rng.choice((4, 5)), addr, sym))
        elif roll < 0.72:
            ops.append(("LDR_MEM", rng.choice((6, 7)), addr, sym))
        elif roll < 0.88:
            ops.append(("MOV", rng.choice((4, 5)), rng.randint(1, 9)))
        elif roll < 0.94:
            ops.append(("CLREX",))
        else:
            ops.append(("NOP",))
    return ops


def build_program(ops: list[tuple]) -> Program:
    instructions = []
    for op in ops:
        kind = op[0]
        if kind == "LDR_ADDR":
            operands = (("reg", op[1]), ("sym", op[2]))
        elif kind == "LDREX":
            operands = (("reg", op[1]), ("mem", op[2]))
        elif kind == "STREX":
            operands = (("reg", op[1]), ("reg", op[2]), ("mem", op[3]))
        elif kind == "STR":
            operands = (("reg", op[1]), ("mem", op[2]))
        elif kind == "LDR_MEM":
            operands = (("reg", op[1]), ("mem", op[2]))
        elif kind == "MOV":
            operands = (("reg", op[1]), ("imm", op[2]))
        else:
            operands = ()
        instructions.append(Instruction(kind, operands))
    return Program(
        instructions=instructions,
        labels={},
        data_words={sym: 0 for sym in SYMBOLS},
        regions=[],
    )


def machine_run(program: Program, rng: random.Random):
    """Run 2 threads under a random interleaving; return the pick order,
    every STREX status produced, and the final memory."""
    m = init_machine(program, 2, ExecMode.HW)
    picks: list[int] = []
    strex_results: list[tuple[int, int]] = []
    while True:
        runnable = m.runnable_threads()
        if not runnable:
            break
        tid = rng.choice(runnable)
        picks.append(tid)
        ins = program.instructions[m.threads[tid].pc]
        step(m, tid)
        if ins.opcode == "STREX":
            status_reg = ins.operands[0][1]
            strex_results.append((tid, m.threads[tid].regs[status_reg]))
    return picks, strex_results, m.memory_by_symbol()


def oracle_run(ops: list[tuple], picks: list[int]):
    """Replay the interleaving on the independent model."""
    regs = [[0] * 13 for _ in range(2)]
    mem = {sym: 0 for sym in SYMBOLS}
    monitor: list[tuple[str, bool] | None] = [None, None]
    ip = [0, 0]
    strex_results: list[tuple[int, int]] = []

    def commit_store(sym: str, value: int) -> None:
        mem[sym] = value
        for u in (0, 1):
            if monitor[u] is not None and monitor[u][0] == sym:
                monitor[u] = (sym, True)

    for tid in picks:
        op = ops[ip[tid]]
        ip[tid] += 1
        kind = op[0]
        if kind == "LDR_ADDR":
            regs[tid][op[1]] = op[2]  # symbolic address
        elif kind == "LDREX":
            regs[tid][op[1]] = mem[op[3]]
            monitor[tid] = (op[3], False)
        elif kind == "STREX":
            sym = op[4]
            ok = monitor[tid] == (sym, False)
            monitor[tid] = None
            if ok:
                commit_store(sym, regs[tid][op[2]])
                regs[tid][op[1]] = 0
            else:
                regs[tid][op[1]] = 1
            strex_results.append((tid, regs[tid][op[1]]))
        elif kind == "STR":
            commit_store(op[3], regs[tid][op[1]])
        elif kind == "LDR_MEM":
            regs[tid][op[1]] = mem[op[3]]
        elif kind == "MOV":
            regs[tid][op[1]] = op[2]
        elif kind == "CLREX":
            monitor[tid] = None
    return strex_results, mem


def monitor_soundness_sweep(cases: int, base_seed: int = 0):
    """Run `cases` randomized trials; returns (successes, failures)
    observed across all conditional stores. Raises on any divergence."""
    successes = failures = 0
    for case in range(cases):
        rng = random.Random(base_seed + case)
        ops = random_ops(rng)
        program = build_program(ops)
        picks, machine_strex, machine_mem = machine_run(program, rng)
        oracle_strex, oracle_mem = oracle_run(ops, picks)
        assert machine_strex == oracle_strex, (
            f"case {case}: conditional-store outcomes diverge\n"
            f"ops={ops}\npicks={picks}\n"
            f"machine={machine_strex}\noracle={oracle_strex}"
        )
        assert machine_mem == oracle_mem, (
            f"case {case}: final memory diverges: {machine_mem} vs {oracle_mem}"
        )
        successes += sum(1 for _, status in machine_strex if status == 0)
        failures += sum(1 for _, status in machine_strex if status == 1)
    return successes, failures


def test_monitor_soundness_small_sweep():
    """Quick 1,000-case sweep (the acceptance suite runs 10,000)."""
    successes, failures = monitor_soundness_sweep(1_000, base_seed=700_000)
    # both outcomes must actually be exercised, heavily
    assert successes > 300
    assert failures > 300


def test_gdb_stop_points_never_strictly_inside(load_corpus):
    """Random gdb-mode scheduling on every corpus lock: no stopped
    runnable thread ever rests strictly inside an exclusive range."""
    for name in ("lock_basic.s", "lock_regcmp.s", "lock_no_ll_branch.s", "lock_unlock.s"):
        program = load_corpus(name)
        ranges = program.exclusive_ranges()
        for seed in range(8):
            m = init_machine(program, 3, ExecMode.GDB)
            rng = splitmix64(seed)
            for _ in range(300):
                runnable = m.runnable_threads()
                if not runnable:
                    break
                step(m, runnable[next(rng) % len(runnable)])
                for t in m.threads:
                    if t.status == RUNNABLE:
                        assert strictly_inside(ranges, t.pc) is None, (name, seed, t.pc)


def test_lock_serializes_every_seed(load_corpus):
    """Tamper-free complete runs of N threads end at initial + N * 5."""
    from spinsim.sched import run_random

    program = load_corpus("lock_basic.s")
    for threads in (2, 4):
        for seed in range(10):
            m = init_machine(program, threads, ExecMode.HW)
            res = run_random(m, seed=seed)
            assert not res.truncated
            assert res.final_memory["accountBalance"] == 100 + 5 * threads
            assert res.violations == []
