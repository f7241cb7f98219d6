"""Scripted register tampering at named program points.

A tamper models an attacker editing a general register while a thread
is stopped: a debugger `set $Rn` at a stop point, or (in HW mode) a
hardware fault flipping bits at any instruction boundary. Hooks fire
immediately before the instruction at the hooked PC executes for the
hooked thread. Tampers touch registers only, never memory, PC, flags,
or monitors. `edit_register` is the one register edit, shared by the
hooks and the debugger's `set $R`.

In GDB mode a hook may not sit strictly inside an LDREX..STREX range
(the debugger cannot stop there); hooking the LDREX itself, the range
entry, is legal. HW mode has no such restriction, modeling the stronger
fault-injection attacker.
"""

from __future__ import annotations

import re
import reprlib
from dataclasses import dataclass

from .isa import Program
from .machine import MASK32, ExecMode, MachineState

EVERY = "every"

_LOCATION = re.compile(r"([A-Za-z_][A-Za-z0-9_]*)\s*([+-]\s*\d+)?$")


class TamperError(Exception):
    pass


@dataclass(frozen=True)
class TamperSpec:
    thread_id: int
    location: str                  # "label" or "label+offset"
    register: int                  # 0..12
    action: tuple[str, int]        # ("set", v) | ("add", d) | ("flip_bit", pos)
    occurrence: int | str = 1      # k-th arrival, or EVERY

    def describe_action(self) -> str:
        kind, value = self.action
        if kind == "set":
            return f"R{self.register} = {value}"
        if kind == "add":
            return f"R{self.register} += {value}"
        return f"R{self.register} flip_bit {value}"


@dataclass
class _Hook:
    spec: TamperSpec
    arrivals: int = 0


@dataclass
class CompiledTampers:
    hooks: dict[tuple[int, int], list[_Hook]]


def resolve_location(location: str, program: Program) -> int:
    m = _LOCATION.match(location.strip())
    if not m:
        raise TamperError(f"malformed location {location!r} (want label or label+offset)")
    label, offset_text = m.group(1), m.group(2)
    if label not in program.labels:
        raise TamperError(f"location {location!r} names unknown label {label!r}")
    pc = program.labels[label] + (int(offset_text.replace(" ", "")) if offset_text else 0)
    if not 0 <= pc < len(program.instructions):
        raise TamperError(f"location {location!r} resolves outside the program (pc {pc})")
    return pc


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _validate(spec: TamperSpec) -> None:
    if not _is_int(spec.register) or not 0 <= spec.register <= 12:
        raise TamperError(f"register R{spec.register} out of range R0..R12")
    kind, value = spec.action
    if kind not in ("set", "add", "flip_bit"):
        raise TamperError(f"unknown tamper action {kind!r}")
    if not _is_int(value):
        raise TamperError(f"tamper action value must be an integer, got {value!r}")
    if kind == "flip_bit" and not 0 <= value <= 31:
        raise TamperError(f"flip_bit position {value} out of range 0..31")
    if spec.occurrence != EVERY and (not _is_int(spec.occurrence) or spec.occurrence < 1):
        shown = reprlib.repr(spec.occurrence)  # bounded: a scenario passes any YAML scalar
        raise TamperError(f"occurrence must be >= 1 or 'every', got {shown}")


def compile_tampers(
    specs: list[TamperSpec],
    program: Program,
    mode: ExecMode,
) -> CompiledTampers:
    """Resolve tamper locations to PC indices and enforce the stop-point
    restriction: in GDB mode no hook may lie strictly inside an
    LDREX..STREX range (the error message names the range)."""
    hooks: dict[tuple[int, int], list[_Hook]] = {}
    for spec in specs:
        _validate(spec)
        pc = resolve_location(spec.location, program)
        inside = program.inside_range[pc] if mode is ExecMode.GDB else None
        if inside is not None:
            l, s = inside
            raise TamperError(
                f"tamper at {spec.location!r} (pc {pc}) lies strictly inside "
                f"the exclusive range [{l}, {s}]; in gdb mode only the range "
                f"entry (pc {l}) is a legal stop point"
            )
        hooks.setdefault((spec.thread_id, pc), []).append(_Hook(spec))
    return CompiledTampers(hooks=hooks)


def apply_tampers(
    compiled: CompiledTampers,
    machine: MachineState,
    thread_id: int,
    pc: int,
) -> list[str]:
    """Apply any hooks matching (thread, pc); called by the scheduler
    before the step that retires that instruction. Non-matching calls
    are no-ops. Edits replace the thread's record. Returns descriptions of
    the edits applied."""
    hook_list = compiled.hooks.get((thread_id, pc))
    if not hook_list:
        return []
    applied = []
    for hook in hook_list:
        hook.arrivals += 1
        spec = hook.spec
        if spec.occurrence != EVERY and hook.arrivals != spec.occurrence:
            continue
        old, new = edit_register(machine, spec)
        applied.append(f"{spec.describe_action()} ({old} -> {new})")
    return applied


def edit_register(machine: MachineState, spec: TamperSpec) -> tuple[int, int]:
    """Apply `spec`'s action to its thread now, replacing the thread's
    record; returns the register's old and new values."""
    t = machine.threads[spec.thread_id]
    kind, value = spec.action
    old = t.regs[spec.register]
    if kind == "set":
        new = value & MASK32
    elif kind == "add":
        new = (old + value) & MASK32
    else:
        new = old ^ (1 << value)
    regs = list(t.regs)
    regs[spec.register] = new
    machine.threads[spec.thread_id] = t._replace(regs=tuple(regs))
    return old, new
