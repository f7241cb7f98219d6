"""The benchmark's workloads: inputs, fixed job lists and output checks.

Each workload is a closed loop over a fixed list of jobs: a job starts
when the previous one ends. Building a workload object is the set-up the
benchmark times (parse programs, derive seeds, read expected outputs);
`run.py` imports spinsim inside that timed region, so nothing here
imports it at module level. Checks never run inside a job's timing.
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib
import io
import re
from dataclasses import dataclass
from pathlib import Path

MASK64 = 0xFFFFFFFFFFFFFFFF

SPINSIM_MODULES = ("isa", "machine", "sched", "tamper", "lint", "trace", "scenario", "cli", "debug")


def load_spinsim(root: Path):
    """Import spinsim from `root/src` and return its modules by short name.

    Refuses a spinsim found anywhere else, so the benchmark always
    measures the checkout it sits in.
    """
    import sys

    src = (root / "src").resolve()
    if not (src / "spinsim" / "__init__.py").is_file():
        raise SystemExit(f"error: no spinsim package under {src}")
    sys.path.insert(0, str(src))
    spinsim = importlib.import_module("spinsim")
    if not Path(spinsim.__file__).resolve().is_relative_to(src):
        raise SystemExit(f"error: imported spinsim from {spinsim.__file__}, not from {src}")
    mods = {name: importlib.import_module(f"spinsim.{name}") for name in SPINSIM_MODULES}
    mods["corpus"] = spinsim.corpus_dir()
    return type("Spinsim", (), mods)


def splitmix64(seed: int, count: int) -> list[int]:
    """First `count` SplitMix64 outputs for `seed`; the per-run seeds."""
    out = []
    state = seed & MASK64
    for _ in range(count):
        state = (state + 0x9E3779B97F4A7C15) & MASK64
        z = state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK64
        out.append(z ^ (z >> 31))
    return out


@dataclass
class Job:
    """One unit of the closed loop: `run()` does the work that is timed,
    `check(output)` returns the problems found in its output."""

    name: str
    run: object
    check: object


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


class Explore3t:
    """Exhaustive exploration at 3 and 4 threads with default bounds.

    Deterministic: the seed is not used.
    """

    name = "explore-3t"
    uses_seed = False
    tail_pct = 50.0
    CONFIGS = (
        ("lock_basic.s", 3),
        ("lock_regcmp.s", 3),
        ("lock_no_ll_branch.s", 3),
        ("unlocked_inc.s", 4),
    )

    def __init__(self, S, seed: int, expected: dict, out_dir: Path):
        self.S = S
        self.expected = expected[self.name]
        self.programs = {
            name: S.isa.parse_program((S.corpus / name).read_text(encoding="utf-8"))
            for name, _ in self.CONFIGS
        }

    def jobs(self) -> list[Job]:
        return [self._job(name, threads) for name, threads in self.CONFIGS]

    def _job(self, name: str, threads: int) -> Job:
        S, program = self.S, self.programs[name]
        key = f"{name}@{threads}"
        want = self.expected[key]

        def run():
            return S.sched.explore(program, threads)

        def check(report) -> list[str]:
            problems = []
            if report.truncated:
                problems.append(f"{key}: exploration truncated")
            finals = sorted(sorted(list(p) for p in state) for state in report.final_states)
            if finals != want["final_states"]:
                problems.append(f"{key}: final states {finals} != {want['final_states']}")
            if bool(report.mutual_exclusion_violations) != want["violations"]:
                problems.append(f"{key}: violations found = {not want['violations']}")
            for state in report.final_states:
                path = report.witnesses.get(state)
                if path is None:
                    problems.append(f"{key}: no witness for {state}")
                    continue
                machine = S.machine.init_machine(program, threads, S.machine.ExecMode.HW)
                replay = S.sched.run_schedule(machine, S.sched.witness_script(path))
                if replay.final_memory != dict(state):
                    problems.append(f"{key}: witness replays to {replay.final_memory}, not {dict(state)}")
            return problems

        return Job(key, run, check)

    def final_checks(self) -> list[str]:
        return []


class RandomTrace:
    """Seeded random runs of `lock_regcmp.s` at 8 threads in GDB mode, each
    followed by `emit_trace` to memory and `summarize`.

    The workload seed yields the per-run seeds through SplitMix64; spinsim
    receives only those.
    """

    name = "random-trace"
    uses_seed = True
    tail_pct = 90.0
    RUNS = 300
    THREADS = 8

    def __init__(self, S, seed: int, expected: dict, out_dir: Path):
        self.S = S
        self.expected = expected[self.name]
        self.program = S.isa.parse_program((S.corpus / "lock_regcmp.s").read_text(encoding="utf-8"))
        self.seeds = splitmix64(seed, self.RUNS)
        self.first_sha: dict[int, str] = {}   # run seed -> trace sha256 of its first run

    def jobs(self) -> list[Job]:
        return [self._job(s) for s in self.seeds]

    def _job(self, run_seed: int) -> Job:
        S, program = self.S, self.program
        want_memory = self.expected["final_memory"]

        def run():
            machine = S.machine.init_machine(program, self.THREADS, S.machine.ExecMode.GDB)
            result = S.sched.run_random(machine, run_seed)
            return S.trace.emit_trace(result), S.trace.summarize(result)

        def check(output) -> list[str]:
            data, report = output
            problems = []
            if report.final_memory != want_memory:
                problems.append(f"seed {run_seed}: final memory {report.final_memory} != {want_memory}")
            if report.violation_count != 0:
                problems.append(f"seed {run_seed}: {report.violation_count} violations")
            if report.truncated or any(s != ("exited", None) for s in report.thread_statuses):
                problems.append(f"seed {run_seed}: threads not all exited: {report.thread_statuses}")
            sha = _sha256(data)
            if self.first_sha.setdefault(run_seed, sha) != sha:
                problems.append(f"seed {run_seed}: trace bytes differ from its first run")
            return problems

        return Job(f"seed-{run_seed}", run, check)

    def final_checks(self) -> list[str]:
        """Re-run the first seed once more: the trace must be byte-identical."""
        job = self._job(self.seeds[0])
        return job.check(job.run())


class CliCorpus:
    """Rounds through `spinsim.cli.main` in-process, plus one scripted
    debugger session per round. Deterministic: the seed is not used.
    """

    name = "cli-corpus"
    uses_seed = False
    tail_pct = 90.0
    ROUNDS = 60
    SCENARIOS = ("normal3", "random_round", "regtamper_attack", "regtamper_disarmed")
    PROGRAMS = ("lock_basic", "lock_regcmp", "lock_no_ll_branch", "unlocked_inc", "lock_unlock")
    # The regtamper_attack.scn procedure typed into the debugger: thread 1
    # gets R7 += 1 at its LDREX and R7 = 0 before the status compare.
    DEBUG_SCRIPT = (
        "thread 0", "step 7", "thread 1", "step 2", "set $R7 += 1", "step 1",
        "set $R7 = 0", "step 9", "thread 0", "step 5", "continue", "quit",
    )

    def __init__(self, S, seed: int, expected: dict, out_dir: Path):
        self.S = S
        self.expected = expected[self.name]
        self.out_dir = out_dir
        corpus = S.corpus
        self.records = {p: (corpus / f"{p}.lint").read_text(encoding="utf-8") for p in self.PROGRAMS}
        self.round = (
            [self._run_job(scn) for scn in self.SCENARIOS]
            + [self._lint_job(p, fmt) for p in self.PROGRAMS for fmt in ("text", "records")]
            + [self._explore_job(), self._debug_job()]
        )

    def jobs(self) -> list[Job]:
        return self.round * self.ROUNDS

    def _main(self, argv: list[str]):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = self.S.cli.main(argv)
        return code, out.getvalue()

    def _run_job(self, scn: str) -> Job:
        corpus = self.S.corpus
        trace_path = self.out_dir / f"cli-{scn}.jsonl"
        argv = ["run", str(corpus / "lock_regcmp.s"), str(corpus / f"{scn}.scn"), "--trace", str(trace_path)]
        want = self.expected["run"][scn]

        def check(output) -> list[str]:
            code, text = output
            problems = []
            if code != want["exit"]:
                problems.append(f"run {scn}: exit {code} != {want['exit']}")
            for name, value in want["memory"].items():
                if f"{name} = {value}\n" not in text:
                    problems.append(f"run {scn}: output lacks '{name} = {value}'")
            if not trace_path.is_file():
                problems.append(f"run {scn}: no trace file written")
            elif _sha256(trace_path.read_bytes()) != want["trace_sha256"]:
                problems.append(f"run {scn}: trace file differs from the recorded one")
            # The next run then creates the file instead of truncating it,
            # which on ext4 forces a writeback inside the timed job.
            trace_path.unlink(missing_ok=True)
            return problems

        return Job(f"run {scn}", lambda: self._main(argv), check)

    def _lint_job(self, program: str, fmt: str) -> Job:
        argv = ["lint", str(self.S.corpus / f"{program}.s"), "--format", fmt]
        want = self.expected["lint"][program]

        def check(output) -> list[str]:
            code, text = output
            problems = []
            if code != want["exit"]:
                problems.append(f"lint {program}: exit {code} != {want['exit']}")
            if fmt == "records" and text != self.records[program]:
                problems.append(f"lint {program}: records differ from {program}.lint")
            if fmt == "text" and _sha256(text.encode()) != want["text_sha256"]:
                problems.append(f"lint {program}: text output differs from the recorded one")
            return problems

        return Job(f"lint {program} {fmt}", lambda: self._main(argv), check)

    def _explore_job(self) -> Job:
        argv = ["explore", str(self.S.corpus / "unlocked_inc.s"), "--threads", "2"]
        want = self.expected["explore"]

        def check(output) -> list[str]:
            code, text = output
            values = sorted(int(v) for v in re.findall(r"^  accountBalance = (\d+)$", text, re.M))
            problems = []
            if code != want["exit"]:
                problems.append(f"explore: exit {code} != {want['exit']}")
            if values != want["final_values"]:
                problems.append(f"explore: final values {values} != {want['final_values']}")
            return problems

        return Job("explore unlocked_inc.s", lambda: self._main(argv), check)

    def _debug_job(self) -> Job:
        S = self.S
        path = S.corpus / "lock_regcmp.s"
        want = self.expected["debug"]

        def run():
            program = S.isa.parse_program(path.read_text(encoding="utf-8"))
            session = S.debug.DebugSession(program, 3, S.machine.ExecMode.GDB, program_name=path.name)
            lines = iter(self.DEBUG_SCRIPT)
            output: list[str] = []
            S.debug.run_repl(session, input_fn=lambda prompt: next(lines), output=output.append)
            return session, output

        def check(output) -> list[str]:
            session, text = output
            problems = []
            memory = session.machine.memory_by_symbol()
            if memory != want["memory"]:
                problems.append(f"debug: final memory {memory} != {want['memory']}")
            if len(session.runner.violations) != want["violations"]:
                problems.append(f"debug: {len(session.runner.violations)} violations != {want['violations']}")
            if any(t.startswith(("refused", "unknown")) for t in text):
                problems.append("debug: a scripted command was rejected")
            return problems

        return Job("debug regtamper_attack", run, check)

    def final_checks(self) -> list[str]:
        return []


WORKLOADS = {w.name: w for w in (Explore3t, RandomTrace, CliCorpus)}
