"""Scenario files: self-contained, replayable run descriptions.

A scenario is a YAML document naming a program, a thread count, an
execution mode, optional memory overrides, a schedule (scripted entries
or a seeded random schedule), tamper specs, and optional expectations
that make the scenario self-checking:

    program: lock_regcmp.s        # `spinsim run` checks its program's file name
    threads: 3
    mode: gdb                     # gdb | hw
    overrides:
      accountBalance: 100
    schedule:
      entries: [[0, 7], [1, 12], [0, 5]]
      halt: false
      clrex_on_switch: false
    # or: schedule: {random: {seed: 7, max_steps: 100000}}
    tampers:
      - {thread: 1, at: retry+2, occurrence: 1, register: R7, action: add 1}
    expectations:
      memory: {accountBalance: 110}
      violations: 1

A field outside this layout, at any level, is an error, as is `random`
beside `entries`, `halt` or `clrex_on_switch`.

PyYAML is imported on the first `load_scenario` or `save_scenario`
call, not with this module, so commands that never read or write a
scenario (`lint`, `explore`, `debug` without `export`) do not pay for it.

`load_scenario` reads the text once and parses it with PyYAML's libyaml
loader (`yaml.CSafeLoader`, about eight times faster on a corpus
scenario) only when all three of these hold; otherwise it uses the
pure-Python `yaml.safe_load`:

- PyYAML was built with libyaml.
- The text is at most `_LIBYAML_MAX_CHARS` (8,192) characters. Nesting
  is no deeper than the text is long, and libyaml recurses on the C
  stack: it composes 16,384 levels, but crashes the process somewhere
  between 20,000 and 50,000.
- The text is printable ASCII and newlines, without tabs or any of
  `! & * ? | > % @` and the backtick. Outside that set the loaders
  disagree: libyaml accepts tabs, `?` and control characters where
  PyYAML rejects them, and reads a bare `!` tag as `''` where PyYAML
  gives None. Inside it, fuzzing found no text on which they differ.
  Every corpus scenario is inside it.

The libyaml path only ever returns a `Scenario`. When it fails in any
way, the text goes to `safe_load` as well, so the pure-Python loader
decides every verdict and writes every message.
"""

from __future__ import annotations

import re
import reprlib
from dataclasses import dataclass, field
from pathlib import Path

from .isa import WORD_LITERALS, WORD_VALUES, Program
from .machine import ExecMode, init_machine
from .sched import (
    DEFAULT_MAX_STEPS,
    RandomSchedule,
    RunResult,
    ScheduleScript,
    run_random,
    run_schedule,
)
from .tamper import TamperSpec


class ScenarioError(Exception):
    pass


_SHOWN = reprlib.Repr()
_SHOWN.maxlevel = 3
_SHOWN.maxstring = _SHOWN.maxother = 60


def _shown(value) -> str:
    """`value` as it appears in a `ScenarioError` message: a repr cut to
    three levels and a few items per level, so a deep or long value
    neither recurses nor makes the one-line message unbounded."""
    return _SHOWN.repr(value)


@dataclass
class Scenario:
    threads: int
    mode: ExecMode
    schedule: ScheduleScript | RandomSchedule
    program: str | None = None
    overrides: dict[str, int] = field(default_factory=dict)
    tampers: list[TamperSpec] = field(default_factory=list)
    expect_memory: dict[str, int] | None = None
    expect_violations: int | None = None


def _int(value, what: str) -> int:
    """An integer field: a YAML integer or a decimal string. Floats and
    booleans are rejected rather than truncated."""
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    if isinstance(value, str):
        try:
            return int(value, 10)
        except ValueError:
            pass
    raise ScenarioError(f"{what} must be an integer, got {_shown(value)}")


def _word(value, what: str, values: range) -> int:
    """An integer field that must lie in `values`."""
    n = _int(value, what)
    if n not in values:
        raise ScenarioError(f"{what} must be in {values[0]}..{values[-1]}, got {_shown(n)}")
    return n


def _bool(value, what: str) -> bool:
    """A flag: a YAML boolean only, so `"false"` or `"no"` in quotes is
    an error rather than true."""
    if isinstance(value, bool):
        return value
    raise ScenarioError(f"{what} must be true or false, got {_shown(value)}")


def _mapping(value, what: str) -> dict:
    if not isinstance(value, dict):
        raise ScenarioError(f"{what} must be a mapping, got {_shown(value)}")
    return value


def _fields(value, what: str, known: tuple[str, ...]) -> None:
    """Check that `value` is a mapping whose keys are all in `known`, so
    a misspelt field is an error rather than ignored."""
    for key in _mapping(value, what):
        if key not in known:
            raise ScenarioError(f"unknown {what} field {_shown(key)} (want {', '.join(known)})")


def _list(value, what: str) -> list:
    if not isinstance(value, list):
        raise ScenarioError(f"{what} must be a list, got {_shown(value)}")
    return value


def _text(value, what: str) -> str:
    """A name field. YAML reads `at: 12` as a number, so scalars are
    taken as their text; a list or mapping is an error."""
    if isinstance(value, (list, dict)):
        raise ScenarioError(f"{what} must be a name, got {_shown(value)}")
    return str(value)


def _parse_register(value) -> int:
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    m = isinstance(value, str) and re.match(r"[Rr](\d+)$", value.strip())
    if not m:
        raise ScenarioError(f"bad register {_shown(value)}")
    return int(m.group(1))


def _parse_action(value) -> tuple[str, int]:
    parts = value.split() if isinstance(value, str) else []
    if len(parts) != 2 or parts[0] not in ("set", "add", "flip_bit"):
        raise ScenarioError(
            f"bad tamper action {_shown(value)} (want 'set V', 'add V', or 'flip_bit P')"
        )
    try:
        return (parts[0], int(parts[1], 10))
    except ValueError:
        raise ScenarioError(f"bad tamper action value in {_shown(value)}") from None


def _parse_tamper(entry) -> TamperSpec:
    _fields(entry, "tamper entry", ("thread", "at", "register", "action", "occurrence"))
    try:
        thread = _int(entry["thread"], "tamper thread")
        location = _text(entry["at"], "tamper location")
        register = _parse_register(entry["register"])
        action = _parse_action(entry["action"])
    except KeyError as e:
        raise ScenarioError(f"tamper entry missing field {_shown(e.args[0])}") from None
    # `compile_tampers` checks the value when the scenario runs; a list
    # or mapping is refused here, so a deep one never reaches a message.
    occurrence = entry.get("occurrence", 1)
    if isinstance(occurrence, (list, dict)):
        raise ScenarioError(f"tamper occurrence must be a scalar, got {_shown(occurrence)}")
    return TamperSpec(thread, location, register, action, occurrence)


def _parse_schedule(raw) -> ScheduleScript | RandomSchedule:
    if not isinstance(raw, dict):
        raise ScenarioError("schedule must be a mapping with 'entries' or 'random'")
    if "random" in raw:
        _fields(raw, "random schedule", ("random",))
        rnd = raw["random"]
        if not isinstance(rnd, dict) or "seed" not in rnd:
            raise ScenarioError("random schedule needs a seed")
        _fields(rnd, "random", ("seed", "max_steps"))
        return RandomSchedule(
            seed=_int(rnd["seed"], "random seed"),
            max_steps=_int(rnd.get("max_steps", DEFAULT_MAX_STEPS), "random max_steps"),
        )
    if "entries" not in raw:
        raise ScenarioError("schedule must have 'entries' or 'random'")
    _fields(raw, "schedule", ("entries", "halt", "clrex_on_switch"))
    entries = []
    for item in _list(raw["entries"], "schedule entries"):
        if not isinstance(item, (list, tuple)) or len(item) != 2:
            raise ScenarioError(f"schedule entry must be [thread, steps], got {_shown(item)}")
        entries.append(
            (_int(item[0], "schedule entry thread"), _int(item[1], "schedule entry steps"))
        )
    return ScheduleScript(
        entries=entries,
        clrex_on_switch=_bool(raw.get("clrex_on_switch", False), "clrex_on_switch"),
        halt=_bool(raw.get("halt", False), "halt"),
    )


def parse_scenario(doc: dict) -> Scenario:
    if not isinstance(doc, dict):
        raise ScenarioError("scenario must be a YAML mapping")
    _fields(
        doc,
        "scenario",
        ("program", "threads", "mode", "overrides", "schedule", "tampers", "expectations"),
    )
    if "threads" not in doc:
        raise ScenarioError("scenario needs a thread count")
    threads = _int(doc["threads"], "threads")
    if threads < 1:
        raise ScenarioError("threads must be >= 1")
    mode_name = doc.get("mode", "hw")
    try:
        if not isinstance(mode_name, str):  # ExecMode(<deep list>) recurses in its message
            raise ValueError
        mode = ExecMode(mode_name)
    except ValueError:
        raise ScenarioError(f"bad mode {_shown(mode_name)} (want gdb or hw)") from None
    if "schedule" not in doc:
        raise ScenarioError("scenario needs a schedule")
    schedule = _parse_schedule(doc["schedule"])

    overrides = {}
    for name, value in _mapping(doc.get("overrides") or {}, "overrides").items():
        overrides[str(name)] = _word(value, f"override {_shown(name)}", WORD_LITERALS)
    tampers = [_parse_tamper(t) for t in _list(doc.get("tampers") or [], "tampers")]

    expect_memory = None
    expect_violations = None
    expectations = doc.get("expectations")
    if expectations is not None:
        _fields(expectations, "expectations", ("memory", "violations"))
        if "memory" in expectations:
            expect_memory = {
                str(k): _word(v, f"expected {_shown(k)}", WORD_VALUES)
                for k, v in _mapping(expectations["memory"], "expected memory").items()
            }
        if "violations" in expectations:
            expect_violations = _int(expectations["violations"], "expected violations")

    return Scenario(
        threads=threads,
        mode=mode,
        schedule=schedule,
        program=_text(doc["program"], "program") if "program" in doc else None,
        overrides=overrides,
        tampers=tampers,
        expect_memory=expect_memory,
        expect_violations=expect_violations,
    )


def _load_problem(e: Exception) -> str:
    """One line for a failed load: PyYAML's problem with its 1-based line
    and column when it marks one, else the error's first line."""
    mark = getattr(e, "problem_mark", None)
    if mark is not None and e.problem:
        return f"line {mark.line + 1}, column {mark.column + 1}: {e.problem}"
    return (str(e).splitlines() or [type(e).__name__])[0]


_LIBYAML_MAX_CHARS = 8192
# In ASCII text: a control character other than newline (tab included),
# or an indicator of a tag, anchor, alias, complex key, block scalar or
# directive, or a reserved one.
_NOT_PLAIN = re.compile(r"[\x00-\x09\x0b-\x1f\x7f!%&*>?@`|]")


def load_scenario(path: str | Path) -> Scenario:
    import yaml

    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as e:
        raise ScenarioError(f"cannot read {path}: {e.strerror or e}") from None
    except UnicodeDecodeError as e:
        raise ScenarioError(f"{path}: {e}") from None
    # PyYAML's constructors also raise ValueError (`2001-02-30`, `!!int x`),
    # KeyError (`!!bool maybe`) and RecursionError (deep nesting).
    failures = (yaml.YAMLError, ValueError, KeyError, RecursionError)
    fast = getattr(yaml, "CSafeLoader", None)
    if (
        fast is not None
        and len(text) <= _LIBYAML_MAX_CHARS
        and text.isascii()
        and _NOT_PLAIN.search(text) is None
    ):
        try:
            return parse_scenario(yaml.load(text, Loader=fast))
        except (*failures, ScenarioError):
            pass  # the pure-Python loader below gives the verdict and its message
    try:
        doc = yaml.safe_load(text)
    except failures as e:
        raise ScenarioError(f"{path}: {_load_problem(e)}") from None
    try:
        return parse_scenario(doc)
    except ScenarioError as e:
        raise ScenarioError(f"{path}: {e}") from None


def save_scenario(scenario: Scenario, path: str | Path) -> None:
    import yaml

    doc: dict = {}
    if scenario.program is not None:
        doc["program"] = scenario.program
    doc["threads"] = scenario.threads
    doc["mode"] = scenario.mode.value
    if scenario.overrides:
        doc["overrides"] = dict(scenario.overrides)
    if isinstance(scenario.schedule, RandomSchedule):
        doc["schedule"] = {
            "random": {"seed": scenario.schedule.seed, "max_steps": scenario.schedule.max_steps}
        }
    else:
        doc["schedule"] = {"entries": [list(e) for e in scenario.schedule.entries]}
        if scenario.schedule.halt:
            doc["schedule"]["halt"] = True
        if scenario.schedule.clrex_on_switch:
            doc["schedule"]["clrex_on_switch"] = True
    if scenario.tampers:
        doc["tampers"] = [
            {
                "thread": t.thread_id,
                "at": t.location,
                "occurrence": t.occurrence,
                "register": f"R{t.register}",
                "action": f"{t.action[0]} {t.action[1]}",
            }
            for t in scenario.tampers
        ]
    expectations = {}
    if scenario.expect_memory is not None:
        expectations["memory"] = dict(scenario.expect_memory)
    if scenario.expect_violations is not None:
        expectations["violations"] = scenario.expect_violations
    if expectations:
        doc["expectations"] = expectations
    Path(path).write_text(
        yaml.safe_dump(doc, sort_keys=False, default_flow_style=None), encoding="utf-8"
    )


def run_scenario(scenario: Scenario, program: Program) -> RunResult:
    """Execute a scenario against a parsed program. Expectations and
    overrides naming a data word the program does not declare are a
    ValueError, raised before anything runs."""
    for name in scenario.expect_memory or {}:
        if name not in program.data_words:
            raise ValueError(f"expectation names undeclared symbol {_shown(name)}")
    machine = init_machine(program, scenario.threads, scenario.mode, scenario.overrides)
    if isinstance(scenario.schedule, RandomSchedule):
        return run_random(
            machine,
            scenario.schedule.seed,
            scenario.schedule.max_steps,
            tampers=scenario.tampers or None,
        )
    return run_schedule(machine, scenario.schedule, tampers=scenario.tampers or None)


def check_expectations(scenario: Scenario, result: RunResult) -> list[str]:
    """Mismatch descriptions; empty means the run met the scenario's
    expectations (absent a violations expectation, zero is expected)."""
    problems = []
    for name, want in (scenario.expect_memory or {}).items():
        got = result.final_memory.get(name)
        if got != want:
            problems.append(f"expected {name} = {want}, got {got}")
    want_violations = scenario.expect_violations if scenario.expect_violations is not None else 0
    if len(result.violations) != want_violations:
        problems.append(
            f"expected {want_violations} violation(s), got {len(result.violations)}"
        )
    return problems
