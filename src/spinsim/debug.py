"""Interactive GDB-style debugger over a simulated machine.

Command names mirror GDB's, so a published attack procedure transcribes
one-to-one; `HELP` lists them, and a command given more arguments than
it takes is refused. A session records what a replay cannot work out,
its dispatches and `set` edits: `export` writes them as a scenario
(`_scenario`), and `trace on` writes that scenario's replay at quit, so
the session's `_Runner` builds no events. `set $R` is a tamper:
`location_for_pc` names its pc, `compile_tampers` checks it and
`apply_tampers` applies it. Its occurrence is one more than the runner's
arrival count at that pc, the count a replayed hook matches. A session
holds at most `DEFAULT_MAX_STEPS` dispatches, a scenario's replay
budget, and `export` refuses an edit while that count is below its
occurrence (the replay halts before that hook could fire), so an export
replays the session exactly.
"""

from __future__ import annotations

import re
from pathlib import Path

from .isa import Program
from .machine import RUNNABLE, ExecMode, init_machine
from .sched import DEFAULT_MAX_STEPS, _Runner, witness_script
from .scenario import Scenario, run_scenario, save_scenario
from .tamper import (
    TamperError,
    TamperSpec,
    apply_tampers,
    compile_tampers,
    location_for_pc,
    resolve_location,
)
from .trace import emit_trace, summarize

_SET_REG = re.compile(r"\$[Rr](\d+)\s*(\+=|=)\s*(-?\d+)$")

HELP = f"""commands:
  thread <n>            switch focus to thread n
  step [k]              step the focused thread k times (default 1); in gdb
                        mode a step never stops inside an LDREX..STREX range
  set $R<j> = <v>       set a register of the focused thread
  set $R<j> += <v>      adjust a register of the focused thread
                        (refused in gdb mode strictly inside an LDREX..STREX
                        range, where a debugger cannot stop, and at a pc no
                        label names, which export could not replay)
  set scheduler-locking step|off
                        with locking off, each step also advances the other
                        runnable threads one step
  info registers        show the focused thread's registers
  info threads          show every thread's position
  x <symbol>            show a data word
  break <label>         set a breakpoint at a label
  continue              run round-robin until a breakpoint or completion
  trace on <path>       write the session trace to <path> on quit
  export <path>         save the session as a scenario file (refused while
                        an edited thread has not stepped since the edit)
  quit
a session holds at most {DEFAULT_MAX_STEPS} dispatches, the most a scenario replays
"""

_BUDGET_EXHAUSTED = f"step budget exhausted: a session holds at most {DEFAULT_MAX_STEPS} dispatches"


class _OutOfBudget(Exception):
    """Raised by a dispatch the session's budget has no room for."""


class DebugSession:
    def __init__(
        self,
        program: Program,
        thread_count: int,
        mode: ExecMode = ExecMode.GDB,
        program_name: str | None = None,
    ):
        self.program = program
        self.program_name = program_name
        self.machine = init_machine(program, thread_count, mode)
        self.runner = _Runner(self.machine, events=False)
        self.focus = 0
        self.breakpoints: set[str] = set()
        self.scheduler_locking = "step"
        self.dispatch_log: list[int] = []
        self.recorded_tampers: list[TamperSpec] = []
        self.trace_path: Path | None = None
        self.done = False
        self._summary_shown = False

    # -- execution ---------------------------------------------------------

    def _dispatch(self, tid: int) -> None:
        if len(self.dispatch_log) >= DEFAULT_MAX_STEPS:
            raise _OutOfBudget
        self.runner.dispatch(tid)
        self.dispatch_log.append(tid)

    def _stop_line(self, tid: int) -> str:
        t = self.machine.threads[tid]
        if t.status != RUNNABLE:
            reason = f' ("{t.fault}")' if t.fault else ""
            return f"thread {tid}: {t.status}{reason}"
        loc = location_for_pc(self.program, t.pc)
        ins = self.program.instructions[t.pc].text()
        where = f" ({loc})" if loc else ""
        return f"thread {tid} stopped at pc {t.pc}{where}: {ins}"

    def _maybe_summary(self) -> str:
        if self.machine.finished() and not self._summary_shown:
            self._summary_shown = True
            return "all threads finished\n" + str(self.result_summary())
        return ""

    def result_summary(self):
        return summarize(self.runner.result(f"script:{witness_script(self.dispatch_log).digest()}"))

    def _scenario(self) -> Scenario:
        """The session as a scenario: its dispatches, then halt, and its edits."""
        return Scenario(
            threads=len(self.machine.threads),
            mode=self.machine.mode,
            schedule=witness_script(self.dispatch_log),
            program=self.program_name,
            tampers=list(self.recorded_tampers),
        )

    # -- commands ----------------------------------------------------------

    def handle(self, line: str) -> str:
        line = line.strip()
        if not line:
            return ""
        cmd, *args = line.split()
        try:
            if cmd == "thread" and len(args) == 1:
                return self._cmd_thread(args)
            if cmd == "step" and len(args) <= 1:
                return self._cmd_step(args)
            if cmd == "set":
                return self._cmd_set(line[len("set"):].strip())
            if cmd == "info" and len(args) <= 1:
                return self._cmd_info(args)
            if cmd == "x" and len(args) == 1:
                return self._cmd_examine(args)
            if cmd == "break" and len(args) == 1:
                return self._cmd_break(args)
            if cmd == "continue" and not args:
                return self._cmd_continue()
            if cmd == "trace":
                return self._cmd_trace(args)
            if cmd == "export" and len(args) == 1:
                return self._cmd_export(args)
            if cmd in ("quit", "q") and not args:
                return self._cmd_quit()
        except _OutOfBudget:
            return _BUDGET_EXHAUSTED
        except (IndexError, ValueError):
            pass
        return f"unknown or incomplete command: {line!r}\n" + HELP

    def _cmd_thread(self, args: list[str]) -> str:
        tid = int(args[0])
        if not 0 <= tid < len(self.machine.threads):
            return f"no thread {tid} (have 0..{len(self.machine.threads) - 1})"
        self.focus = tid
        return self._stop_line(tid)

    def _cmd_step(self, args: list[str]) -> str:
        count = int(args[0]) if args else 1
        if count < 1:
            return "step count must be >= 1"
        t = self.machine.threads[self.focus]
        if t.status != RUNNABLE:
            return self._stop_line(self.focus)
        for _ in range(count):
            self._dispatch(self.focus)
            if self.scheduler_locking == "off":
                for tid in self.machine.runnable_threads():
                    if tid != self.focus:
                        self._dispatch(tid)
            if self.machine.threads[self.focus].status != RUNNABLE:
                break
        out = self._stop_line(self.focus)
        extra = self._maybe_summary()
        return out + ("\n" + extra if extra else "")

    def _cmd_set(self, rest: str) -> str:
        if rest.startswith("scheduler-locking"):
            value = rest.split()[-1]
            if value not in ("step", "off"):
                return "scheduler-locking takes 'step' or 'off'"
            self.scheduler_locking = value
            return f"scheduler-locking {value}"
        m = _SET_REG.match(rest)
        if not m:
            return "usage: set $R<j> = <v> | set $R<j> += <v> | set scheduler-locking step|off"
        reg, op, value = int(m.group(1)), m.group(2), int(m.group(3))
        t = self.machine.threads[self.focus]
        if t.status != RUNNABLE:
            return f"cannot set registers: {self._stop_line(self.focus)}"
        location = location_for_pc(self.program, t.pc)
        if location is None:
            return f"refused: no label names pc {t.pc}, so export could not replay the edit"
        arrival = self.runner.arrivals.get((self.focus, t.pc), 0) + 1
        spec = TamperSpec(
            thread_id=self.focus,
            location=location,
            register=reg,
            action=("set" if op == "=" else "add", value),
            occurrence=arrival,
        )
        try:
            hooks = compile_tampers([spec], self.machine)
        except TamperError as e:
            return f"refused: {e}"
        apply_tampers(hooks, self.machine, self.focus, t.pc, arrival)
        self.recorded_tampers.append(spec)
        return f"R{reg} = {self.machine.threads[self.focus].regs[reg]} (was {t.regs[reg]})"

    def _cmd_info(self, args: list[str]) -> str:
        what = args[0] if args else ""
        if what == "registers":
            t = self.machine.threads[self.focus]
            lines = [f"R{i} = {v}" for i, v in enumerate(t.regs)]
            lines.append(f"Z = {int(t.z)}  N = {int(t.n)}")
            lines.append(self._stop_line(self.focus))
            return "\n".join(lines)
        if what == "threads":
            lines = []
            for tid, t in enumerate(self.machine.threads):
                marker = "*" if tid == self.focus else " "
                if t.status != RUNNABLE:
                    lines.append(f"{marker} {self._stop_line(tid)}")
                else:
                    loc = location_for_pc(self.program, t.pc) or "?"
                    ins = self.program.instructions[t.pc].text()
                    lines.append(f"{marker} thread {tid}: pc {t.pc} ({loc}) next: {ins}")
            return "\n".join(lines)
        return "usage: info registers | info threads"

    def _cmd_examine(self, args: list[str]) -> str:
        symbol = args[0]
        memory = self.machine.memory_by_symbol()
        if symbol not in memory:
            return f"no data word named {symbol!r}"
        return f"{symbol} = {memory[symbol]}"

    def _cmd_break(self, args: list[str]) -> str:
        label = args[0]
        if label not in self.program.labels:
            return f"no label {label!r}"
        self.breakpoints.add(label)
        return f"breakpoint at {label} (pc {self.program.labels[label]})"

    def _cmd_continue(self) -> str:
        bp_indices = {self.program.labels[name]: name for name in self.breakpoints}
        while runnable := self.machine.runnable_threads():
            for tid in runnable:
                self._dispatch(tid)
                t = self.machine.threads[tid]
                if t.status == RUNNABLE and t.pc in bp_indices:
                    self.focus = tid
                    return f"breakpoint {bp_indices[t.pc]}:\n" + self._stop_line(tid)
        return self._maybe_summary() or "all threads finished"

    def _cmd_trace(self, args: list[str]) -> str:
        if len(args) != 2 or args[0] != "on":
            return "usage: trace on <path>"
        self.trace_path = Path(args[1])
        return f"tracing to {self.trace_path} (written on quit)"

    def _cmd_quit(self) -> str:
        """Write the trace, if one was asked for, and end the session. A
        trace that cannot be written keeps the session, with tracing off."""
        out = ""
        if self.trace_path is not None:
            path, self.trace_path = self.trace_path, None
            try:
                emit_trace(run_scenario(self._scenario(), self.program), path)
            except OSError as e:
                return (
                    f"cannot write trace {path}: {e.strerror or e}; tracing is off "
                    "(trace on <path> to retry, quit to leave)"
                )
            out = f"trace written to {path}\n"
        self.done = True
        return out + str(self.result_summary())

    def _cmd_export(self, args: list[str]) -> str:
        path = Path(args[0])
        arrivals = self.runner.arrivals
        for spec in self.recorded_tampers:
            key = (spec.thread_id, resolve_location(spec.location, self.program))
            if arrivals.get(key, 0) < spec.occurrence:
                return (
                    f"refused: thread {spec.thread_id} has not stepped since set ${spec.describe_action()} "
                    f"at {spec.location}, so a replay would never make that edit"
                )
        scenario = self._scenario()
        if self.machine.finished():
            scenario.expect_memory = dict(self.machine.memory_by_symbol())
            scenario.expect_violations = len(self.runner.violations)
        try:
            save_scenario(scenario, path)
        except OSError as e:
            return f"cannot export to {path}: {e.strerror or e}"
        return f"session exported to {path}"


def run_repl(session: DebugSession, input_fn=None, output=print) -> None:
    if input_fn is None:
        input_fn = input
    output(f"spinsim debugger: {len(session.machine.threads)} thread(s), "
           f"mode {session.machine.mode.value}. Type 'quit' to leave.")
    output(session.handle("info threads"))
    while not session.done:
        try:
            line = input_fn("(sim) ")
        except EOFError:
            output(session.handle("quit"))
            break
        text = session.handle(line)
        if text:
            output(text)
