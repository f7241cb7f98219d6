"""Replayable event log and run summaries.

A trace is a line-delimited stream of JSON records: one header record
followed by one record per event. Identical runs produce byte-identical
streams, so traces diff cleanly and serve as replay fixtures.

Header fields:
    type="header", format=1, tool, program_sha256, mode, schedule
    (schedule is either "script:<sha256 of the schedule>" or
    "random:splitmix64:<seed>")

Event fields (empty ones are omitted):
    type="event", step, thread, pc, label, instr,
    reg_writes=[[reg, old, new], ...], mem_writes=[[symbol, old, new], ...],
    monitor=[old, new], tamper, violation, fault, noop

Each record is one line of `json.dumps(record, sort_keys=True,
separators=(",", ":"))`: ASCII-only, keys sorted. This module is the
format's one owner: the runner (`sched._Runner`) hands it each event's
values, `StepOutcome.executed` entries as `step` reports them, and
appends the line it renders, a `str`, to `RunResult.trace`;
`emit_trace` writes the header and joins them. As in NanoLog (Yang et
al., USENIX ATC 2018), `instruction_lines` renders the static part of
a pc's events (instr, label, pc and the written register) once, when a
runner with events on is made, and per event derives and formats only
its dynamic values; string escaping is the encoder's
`encode_basestring_ascii`. The encoder itself serves only the header and
the rare no-op and violation records. A debugger session keeps no
events: its trace is its export's replay.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from json.encoder import encode_basestring_ascii
from pathlib import Path

TRACE_FORMAT = 1

_ENCODER = json.JSONEncoder(sort_keys=True, separators=(",", ":"), check_circular=False)
_encode = _ENCODER.encode


def instruction_lines(program):
    """The renderer `line(entry, step, thread, tamper)` of `program`'s
    instruction events. `entry` is one `StepOutcome.executed` tuple,
    (record before, record after, memory before, memory after), from
    which it derives pc, fault, the register write (none when the
    instruction stays at its pc: a fault writes nothing, and the
    atomic-step limit faults a thread after its instruction retired),
    the memory writes and the monitor change; `tamper` is the note of
    the edits made before the instruction, or None."""
    quote = encode_basestring_ascii
    words = program.data_words
    addr_sym = program.addr_sym
    parts = []
    for pc, (label, instr) in enumerate(program.listing):
        rd = program.instructions[pc].dest()
        parts.append((
            '{"instr":' + quote(instr) + ("," if label is None else ',"label":' + quote(label) + ","),
            f'"pc":{pc},',
            rd, None if rd is None else f'"reg_writes":[["R{rd}",',
        ))

    def monitor(t) -> str:
        return "open" if t.monitor is None else f"{addr_sym[t.monitor[0]]}:v{t.monitor[1]}"

    def line(entry, step, thread, tamper) -> str:
        before, after, memory_before, memory_after = entry
        pc = before.pc
        head, pc_part, rd, reg_head = parts[pc]
        if after.fault is not None:
            head = '{"fault":' + quote(after.fault) + "," + head[1:]  # "fault" sorts before "instr"
        if memory_after is not memory_before:
            # A store bumps its word's version, so the list is never empty.
            head += '"mem_writes":[' + ",".join(
                f"[{quote(s)},{old[0]},{new[0]}]"
                for s, old, new in zip(words, memory_before, memory_after) if old != new
            ) + "],"
        if after.monitor != before.monitor:
            head += f'"monitor":[{quote(monitor(before))},{quote(monitor(after))}],'
        head += pc_part
        if reg_head is not None and after.pc != pc:
            head += f"{reg_head}{before.regs[rd]},{after.regs[rd]}]],"
        tamper = "" if tamper is None else f'"tamper":{quote(tamper)},'
        return f'{head}"step":{step},{tamper}"thread":{thread},"type":"event"}}'

    return line


def noop_line(program, step: int, thread: int, pc: int) -> str:
    """The line of a finished thread's dispatch, labelled as the
    program's listing labels `pc` (an exited thread's pc is past it)."""
    record = {"type": "event", "step": step, "thread": thread, "pc": pc, "noop": True}
    listing = program.listing
    if pc < len(listing) and listing[pc][0] is not None:
        record["label"] = listing[pc][0]
    return _encode(record)


def violation_line(thread: int, pc: int, region: str, step: int | None) -> str:
    """The line of a thread's entry into a crowded region; a run without
    events gives it no step."""
    record = {"type": "event", "thread": thread, "pc": pc, "label": region, "violation": "mutual_exclusion"}
    if step is not None:
        record["step"] = step
    return _encode(record)


def emit_trace(run_result, destination: str | Path | None = None) -> bytes:
    """Serialize a finished (or truncated) run to the trace stream,
    written to the path `destination` when one is given, and return the
    bytes."""
    from . import __version__

    header = {"type": "header", "format": TRACE_FORMAT, "tool": f"spinsim {__version__}"}
    header.update(run_result.header)
    data = "\n".join([_encode(header), *run_result.trace, ""]).encode("utf-8")
    if destination is not None:
        Path(destination).write_bytes(data)
    return data


@dataclass
class Report:
    final_memory: dict[str, int]
    thread_statuses: list[tuple[str, str | None]]
    violation_count: int
    steps: int
    truncated: bool = False

    def lines(self) -> list[str]:
        out = [f"{name} = {value}" for name, value in self.final_memory.items()]
        for tid, (status, reason) in enumerate(self.thread_statuses):
            shown = status if reason is None else f'{status}("{reason}")'
            out.append(f"thread {tid}: {shown}")
        out.append(f"violations: {self.violation_count}")
        out.append(f"steps: {self.steps}")
        if self.truncated:
            out.append("truncated: step budget exhausted")
        return out

    def __str__(self) -> str:
        return "\n".join(self.lines())


def summarize(run_result) -> Report:
    """One-line-per-symbol final values plus the violation verdict."""
    return Report(
        final_memory=dict(run_result.final_memory),
        thread_statuses=list(run_result.thread_statuses),
        violation_count=len(run_result.violations),
        steps=run_result.steps_taken,
        truncated=run_result.truncated,
    )
