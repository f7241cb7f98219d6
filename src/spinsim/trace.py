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

An event has no other form: the scheduler's runner (`sched._Runner`)
builds each one as this record, and `RunResult.trace` holds the records
that `emit_trace` writes.

Each record is one line of `json.dumps(record, sort_keys=True,
separators=(",", ":"))`: ASCII-only, keys sorted. One encoder with those
settings is built at import and serves every record, so emitting a
trace does not build an encoder per record; the bytes are the same.
Records are trees, so the encoder skips the circular-reference check.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from json.encoder import c_make_encoder, encode_basestring_ascii
from pathlib import Path

TRACE_FORMAT = 1

_ENCODER = json.JSONEncoder(sort_keys=True, separators=(",", ":"), check_circular=False)
if c_make_encoder is None:  # pragma: no cover - CPython builds ship the C encoder
    _encode = _ENCODER.encode
else:
    # Positional: markers (None: no circular check), default, string
    # encoder, indent, key and item separators, sort_keys, skipkeys,
    # allow_nan -- what `_ENCODER.iterencode` passes for a one-shot encode.
    _c_encode = c_make_encoder(
        None, _ENCODER.default, encode_basestring_ascii, None, ":", ",", True, False, True
    )

    def _encode(record: dict) -> str:
        return "".join(_c_encode(record, 0))


def emit_trace(run_result, destination=None) -> bytes:
    """Serialize a finished (or truncated) run to the trace stream.

    `destination` may be a path or a binary file object; either way the
    bytes are returned.
    """
    from . import __version__

    header = {"type": "header", "format": TRACE_FORMAT, "tool": f"spinsim {__version__}"}
    header.update(run_result.header)
    data = "\n".join([_encode(header), *map(_encode, run_result.trace), ""]).encode("utf-8")

    if destination is None:
        pass
    elif isinstance(destination, (str, Path)):
        Path(destination).write_bytes(data)
    else:
        destination.write(data)
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
