"""Command-line entry point.

    spinsim run <program.s> <scenario.scn> [--trace PATH]
    spinsim explore <program.s> --threads N [--max-steps M] [--max-states K]
    spinsim lint <program.s> [--format text|records]
    spinsim debug <program.s> [--threads N] [--mode gdb|hw]

Exit codes: 0 ok, 1 usage or parse error, 2 expectation mismatch or
violations found, 3 explorer truncation, 4 lint errors; a closed
standard output (`spinsim lint x.s | head -0`) also exits 1, silently.

The argument parser is built once per process and reused by every
`main` call. That is safe because the parser holds no per-call state:
`parse_args` makes a fresh namespace each time and subparsers copy their
results into it, the defaults (`func` included), `prog` and `--version`
are constants, and help width is read when help is formatted, not when
the parser is built.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
from pathlib import Path

from . import __version__
from .debug import DebugSession, run_repl
from .isa import AsmError, Program, parse_program
from .lint import lint, render_records, render_text
from .machine import MAX_THREADS, ExecMode
from .scenario import ScenarioError, check_expectations, load_scenario, run_scenario
from .sched import EXPLORE_MAX_STATES, EXPLORE_MAX_STEPS, explore
from .tamper import TamperError
from .trace import emit_trace, summarize

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_MISMATCH = 2
EXIT_TRUNCATED = 3
EXIT_LINT = 4


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _load_program(path: str) -> Program:
    p = Path(path)
    if not p.is_file():
        raise _UsageError(f"no such file: {path}")
    try:
        return parse_program(p.read_text(encoding="utf-8"))
    except OSError as e:
        raise _UsageError(f"cannot read {path}: {e.strerror or e}") from None
    except (AsmError, UnicodeDecodeError) as e:
        raise _UsageError(f"{path}: {e}") from None


def cmd_run(args) -> int:
    program = _load_program(args.program)
    scenario_path = Path(args.scenario)
    if not scenario_path.is_file():
        raise _UsageError(f"no such file: {args.scenario}")
    try:
        scenario = load_scenario(scenario_path)
    except ScenarioError as e:
        raise _UsageError(str(e)) from None
    # Basenames: the debugger's `export` writes the path as typed.
    if scenario.program is not None and Path(scenario.program).name != Path(args.program).name:
        raise _UsageError(
            f"{args.scenario}: scenario is for program {scenario.program!r}, not {args.program!r}"
        )
    try:
        result = run_scenario(scenario, program)
    except (TamperError, ValueError) as e:
        raise _UsageError(f"{args.scenario}: {e}") from None

    print(summarize(result))
    if args.trace:
        try:
            emit_trace(result, args.trace)
        except OSError as e:
            raise _UsageError(f"cannot write trace {args.trace}: {e.strerror or e}") from None
        print(f"trace written to {args.trace}")

    problems = check_expectations(scenario, result)
    if problems:
        for p in problems:
            print(f"expectation mismatch: {p}", file=sys.stderr)
        return EXIT_MISMATCH
    return EXIT_OK


def cmd_explore(args) -> int:
    for flag in ("threads", "max_steps", "max_states"):
        if getattr(args, flag) < 1:
            raise _UsageError(f"--{flag.replace('_', '-')} must be >= 1")
    if args.threads > MAX_THREADS:
        raise _UsageError(f"--threads must be <= {MAX_THREADS}")
    program = _load_program(args.program)
    report = explore(
        program,
        args.threads,
        max_steps=args.max_steps,
        max_states=args.max_states,
    )
    print(f"schedules explored: {report.schedules_explored}")
    print(f"distinct final states: {len(report.final_states)}")
    for memory in report.final_memories:
        rendered = ", ".join(f"{k} = {v}" for k, v in memory.items())
        print(f"  {rendered or '(no data words)'}")
    if report.faulted_terminal_states:
        print(f"terminal states with a faulted thread: {report.faulted_terminal_states}")
    print(f"mutual-exclusion violations: {len(report.mutual_exclusion_violations)}")
    if report.mutual_exclusion_violations:
        witness = report.mutual_exclusion_violations[0]
        print(f"  first witness schedule: {witness}")
    print(f"truncated: {report.truncated}")
    if report.truncated:
        return EXIT_TRUNCATED
    if report.mutual_exclusion_violations:
        return EXIT_MISMATCH
    return EXIT_OK


def cmd_lint(args) -> int:
    program = _load_program(args.program)
    findings = lint(program)
    if args.format == "records":
        sys.stdout.write(render_records(findings))
    else:
        sys.stdout.write(render_text(findings))
    if any(f.severity == "error" for f in findings):
        return EXIT_LINT
    return EXIT_OK


def cmd_debug(args) -> int:
    if args.threads < 1:
        raise _UsageError("--threads must be >= 1")
    if args.threads > MAX_THREADS:
        raise _UsageError(f"--threads must be <= {MAX_THREADS}")
    program = _load_program(args.program)
    session = DebugSession(program, args.threads, ExecMode(args.mode), program_name=args.program)
    run_repl(session)
    return EXIT_OK


@functools.cache
def build_parser() -> _Parser:
    parser = _Parser(prog="spinsim", description=__doc__.splitlines()[0])
    parser.add_argument("--version", action="version", version=f"spinsim {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run a scenario against a program")
    p_run.add_argument("program")
    p_run.add_argument("scenario")
    p_run.add_argument("--trace", metavar="PATH", help="write the event trace here")
    p_run.set_defaults(func=cmd_run)

    p_explore = sub.add_parser("explore", help="enumerate all interleavings")
    p_explore.add_argument("program")
    p_explore.add_argument("--threads", type=int, default=2)
    p_explore.add_argument("--max-steps", type=int, default=EXPLORE_MAX_STEPS)
    p_explore.add_argument("--max-states", type=int, default=EXPLORE_MAX_STATES)
    p_explore.set_defaults(func=cmd_explore)

    p_lint = sub.add_parser("lint", help="check a lock routine statically")
    p_lint.add_argument("program")
    p_lint.add_argument("--format", choices=("text", "records"), default="text")
    p_lint.set_defaults(func=cmd_lint)

    p_debug = sub.add_parser("debug", help="interactive debugger session")
    p_debug.add_argument("program")
    p_debug.add_argument("--threads", type=int, default=2)
    p_debug.add_argument("--mode", choices=[m.value for m in ExecMode], default="gdb")
    p_debug.set_defaults(func=cmd_debug)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        try:
            args = parser.parse_args(argv)
            code = args.func(args)
        except SystemExit as e:  # argparse --help/--version
            code = 0 if not e.code else EXIT_USAGE
        sys.stdout.flush()  # a closed pipe fails here, not at interpreter exit
        return code
    except BrokenPipeError:  # quiet the exit-time flush, as the `signal` docs advise
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_USAGE
    except _UsageError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
