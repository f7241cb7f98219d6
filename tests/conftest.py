from __future__ import annotations

import json

import pytest

import spinsim
from spinsim import parse_program
from spinsim.machine import step


def step_machine(machine, thread_id: int):
    """Step thread `thread_id` of `machine` and write its new record and
    memory back, as the runner does; returns the `StepOutcome`."""
    outcome = step(machine.program, machine.threads[thread_id], machine.memory)
    if outcome.executed:
        _, machine.threads[thread_id], _, machine.memory = outcome.executed[0]
    return outcome


def decode_events(lines: list[str]) -> list[dict]:
    """The records of trace lines (`RunResult.trace`, `RunResult.violations`)."""
    return [json.loads(line) for line in lines]


@pytest.fixture(scope="session")
def load_corpus():
    """Parse a shipped corpus program by file name."""

    def load(name: str):
        return parse_program(spinsim.corpus_path(name).read_text(encoding="utf-8"))

    return load


@pytest.fixture(scope="session")
def corpus_file():
    def path(name: str):
        return spinsim.corpus_path(name)

    return path
