"""spinsim: deterministic LL/SC spinlock simulator and analysis toolkit.

The package simulates multi-threaded lock programs written in a small
ARM-like assembly subset (LDREX/STREX exclusive accesses plus the usual
MOV/LDR/STR/CMP/ADD/branch vocabulary), drives them under scripted,
random, or exhaustive schedules, injects register tampering at chosen
program points, and statically lints lock routines for compare/branch
hygiene.
"""

from __future__ import annotations

from importlib import resources
from pathlib import Path

__version__ = "0.1.0"

from .isa import AsmError, Instruction, Program, parse_program, pretty_program
from .machine import (
    ExecMode,
    MachineState,
    StepOutcome,
    ThreadState,
    init_machine,
    step,
)
from .sched import (
    ExploreReport,
    RunResult,
    ScheduleScript,
    RandomSchedule,
    explore,
    run_random,
    run_schedule,
)
from .tamper import TamperError, TamperSpec, apply_tampers, compile_tampers
from .lint import Finding, lint
from .trace import emit_trace, summarize


def corpus_dir() -> Path:
    """Directory holding the shipped corpus programs and scenario files."""
    return Path(resources.files("spinsim") / "corpus")


def corpus_path(name: str) -> Path:
    """Path to a shipped corpus file, e.g. corpus_path("lock_basic.s")."""
    p = corpus_dir() / name
    if not p.exists():
        raise FileNotFoundError(f"no corpus file named {name!r}")
    return p
