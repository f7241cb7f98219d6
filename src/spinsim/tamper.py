"""Scripted register tampering at named program points.

A tamper models an attacker editing a general register while a thread
is stopped: a debugger `set $Rn` at a stop point, or (in HW mode) a
hardware fault flipping bits at any instruction boundary. Hooks fire
immediately before the instruction at the hooked PC executes for the
hooked thread. Tampers touch registers only, never memory, PC, flags,
or monitors. `compile_tampers` makes every check and returns the hooks
table; `apply_tampers`, the one register edit, for scenario hooks and
the debugger's `set $R` alike, fires the specs whose occurrence is the
arrival its caller counted (`sched._Runner.arrivals`) or `every`.
`resolve_location` reads the `label+offset` location format and
`location_for_pc` writes it.

In GDB mode a hook may not sit strictly inside an LDREX..STREX range
(the debugger cannot stop there); hooking the LDREX itself, the range
entry, is legal. HW mode has no such restriction, modeling the stronger
fault-injection attacker.
"""

from __future__ import annotations

import re
import reprlib
from dataclasses import dataclass

from .isa import REGISTER_COUNT, Program
from .machine import MASK32, ExecMode, MachineState

EVERY = "every"

_LOCATION = re.compile(r"([A-Za-z_][A-Za-z0-9_]*)\s*([+-]\s*\d+)?$")


class TamperError(Exception):
    pass


@dataclass(frozen=True)
class TamperSpec:
    thread_id: int
    location: str                  # "label" or "label+offset"
    register: int                  # 0..REGISTER_COUNT - 1
    action: tuple[str, int]        # ("set", v) | ("add", d) | ("flip_bit", pos)
    occurrence: int | str = 1      # k-th arrival, or EVERY

    def describe_action(self) -> str:
        kind, value = self.action
        if kind == "set":
            return f"R{self.register} = {value}"
        if kind == "add":
            return f"R{self.register} += {value}"
        return f"R{self.register} flip_bit {value}"


Hooks = dict[tuple[int, int], list[TamperSpec]]   # (thread, pc) -> specs, in order


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


def location_for_pc(program: Program, pc: int) -> str | None:
    """Express a pc as label+offset (nearest preceding label, else the
    first following one with a negative offset): the inverse of
    `resolve_location`. None when the program has no label at or after
    the pc's."""
    name = program.nearest_label(pc)
    if name is None:
        following = [(idx, n) for n, idx in program.labels.items() if idx > pc]
        if not following:
            return None
        name = min(following)[1]
    offset = pc - program.labels[name]
    if offset == 0:
        return name
    return f"{name}{offset:+d}"


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _validate(spec: TamperSpec, thread_count: int) -> None:
    if not 0 <= spec.thread_id < thread_count:  # it could never fire
        raise TamperError(
            f"tamper at {spec.location!r} names unknown thread {spec.thread_id} "
            f"(threads are 0..{thread_count - 1})"
        )
    if not _is_int(spec.register) or not 0 <= spec.register < REGISTER_COUNT:
        raise TamperError(f"register R{spec.register} out of range R0..R{REGISTER_COUNT - 1}")
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


def stop_point(location: str, program: Program, mode: ExecMode, what: str = "tamper") -> int:
    """The pc of `location`, for a `what` that fires when a thread stops
    there: an instruction's pc, and in GDB mode not strictly inside an
    LDREX..STREX range (the error message names the range)."""
    pc = resolve_location(location, program)
    inside = program.inside_range[pc] if mode is ExecMode.GDB else None
    if inside is not None:
        l, s = inside
        raise TamperError(
            f"{what} at {location!r} (pc {pc}) lies strictly inside "
            f"the exclusive range [{l}, {s}]; in gdb mode only the range "
            f"entry (pc {l}) is a legal stop point"
        )
    return pc


def compile_tampers(specs: list[TamperSpec], machine: MachineState) -> Hooks:
    """Check every spec against the machine's program, mode and thread
    count, and resolve its location to a stop point's PC index."""
    hooks: Hooks = {}
    for spec in specs:
        _validate(spec, len(machine.threads))
        pc = stop_point(spec.location, machine.program, machine.mode)
        hooks.setdefault((spec.thread_id, pc), []).append(spec)
    return hooks


def apply_tampers(
    hooks: Hooks,
    machine: MachineState,
    thread_id: int,
    pc: int,
    arrival: int,
) -> list[str]:
    """Apply the specs hooked at (thread, pc) whose occurrence is
    `arrival`, that thread's count of arrivals at `pc` including this
    one, or `every`; called before the step that retires that
    instruction. Each edit replaces the thread's record. Returns
    descriptions of the edits applied, in spec order."""
    applied = []
    for spec in hooks.get((thread_id, pc), ()):
        if spec.occurrence not in (arrival, EVERY):
            continue
        t = machine.threads[thread_id]
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
        machine.threads[thread_id] = t._replace(regs=tuple(regs))
        applied.append(f"{spec.describe_action()} ({old} -> {new})")
    return applied
