from __future__ import annotations

import re
import shlex
from pathlib import Path

import spinsim
from spinsim.cli import build_parser
from spinsim.debug import DebugSession
from spinsim.machine import ExecMode
from spinsim.scenario import check_expectations, load_scenario, run_scenario

README = Path(__file__).resolve().parents[1] / "README.md"


def _section(title: str) -> str:
    text = README.read_text(encoding="utf-8")
    return text.split(f"\n## {title}\n", 1)[1].split("\n## ", 1)[0]


def test_readme_library_use_block_runs():
    """The README's `python` block under "Library use" runs as shown, so
    the public names and the values it asserts stay current."""
    blocks = re.findall(r"^```python\n(.*?)^```$", _section("Library use"), re.M | re.S)
    assert len(blocks) == 1
    exec(compile(blocks[0], f"{README}:Library use", "exec"), {})


def test_readme_debugger_transcript_runs(tmp_path):
    """The `(sim)` lines under "Replaying the attack interactively", their
    `#` comments stripped and `export` pointed at a temporary path, do
    what the comments say, and the export replays to its expectations."""
    section = _section("Replaying the attack interactively")
    blocks = re.findall(r"^```\n(.*?)^```$", section, re.M | re.S)
    assert len(blocks) == 1
    command_line, *lines = blocks[0].splitlines()
    argv = shlex.split(command_line.removeprefix("$ "))
    assert argv[:2] == ["spinsim", "debug"]
    args = build_parser().parse_args(argv[1:])
    name = Path(args.program).name
    program = spinsim.parse_program(spinsim.corpus_path(name).read_text(encoding="utf-8"))
    session = DebugSession(program, args.threads, ExecMode(args.mode), program_name=name)

    replies = {}
    for line in lines:
        assert line.startswith("(sim) ")
        command = line.removeprefix("(sim) ").split("#")[0].strip()
        if command.startswith("export "):
            command = f"export {tmp_path / 'attack.scn'}"
        reply = replies[command] = session.handle(command)
        assert not reply.startswith(("refused", "unknown"))
        threads = session.machine.threads
        if command == "step 5":  # thread 0 takes the lock, parked at the critical section
            assert threads[0].pc == program.labels["critical_section"]
        if command == "step 2":  # loser stops at the LDREX
            assert program.instructions[threads[1].pc].opcode == "LDREX"
    assert session.done
    assert "accountBalance = 110" in replies["continue"]
    assert "violations: 1" in replies["continue"]

    scenario = load_scenario(tmp_path / "attack.scn")
    assert check_expectations(scenario, run_scenario(scenario, program)) == []
    assert scenario.expect_memory["accountBalance"] == 110
