from __future__ import annotations

import errno
import functools
import hashlib
import json
import os
import random
import reprlib
import subprocess
import sys
from pathlib import Path

import pytest
import yaml
from hypothesis import example, given, settings
from hypothesis import strategies as st

import spinsim
from spinsim.cli import build_parser, main
from spinsim.machine import MAX_THREADS, ExecMode
from spinsim.scenario import (
    _LIBYAML_MAX_CHARS,
    RandomSchedule,
    Scenario,
    ScenarioError,
    check_expectations,
    load_scenario,
    parse_scenario,
    run_scenario,
    save_scenario,
)
from spinsim.sched import ScheduleScript
from spinsim.tamper import TamperSpec

ALL_SCENARIOS = [
    "normal3.scn",
    "regtamper_attack.scn",
    "regtamper_disarmed.scn",
    "random_round.scn",
]


def test_load_shipped_scenarios(corpus_file):
    for name in ALL_SCENARIOS:
        sc = load_scenario(corpus_file(name))
        assert sc.threads == 3
        assert sc.program == "lock_regcmp.s"
        assert sc.expect_memory is not None


def test_scenario_save_load_round_trip(tmp_path):
    scenario = Scenario(
        threads=2,
        mode=ExecMode.GDB,
        schedule=ScheduleScript(entries=[(0, 3), (1, 2)], halt=True, clrex_on_switch=True),
        program="lock_regcmp.s",
        overrides={"accountBalance": 400},
        tampers=[TamperSpec(1, "retry+2", 7, ("add", 1), occurrence=2)],
        expect_memory={"accountBalance": 410},
        expect_violations=0,
    )
    path = tmp_path / "round.scn"
    save_scenario(scenario, path)
    loaded = load_scenario(path)
    assert loaded == scenario


def test_random_schedule_round_trip(tmp_path):
    scenario = Scenario(
        threads=3,
        mode=ExecMode.HW,
        schedule=RandomSchedule(seed=99, max_steps=1234),
        program="x.s",
    )
    save_scenario(scenario, tmp_path / "r.scn")
    assert load_scenario(tmp_path / "r.scn") == scenario


@pytest.mark.parametrize(
    "doc, pattern",
    [
        ({}, "thread count"),
        ({"threads": 0, "schedule": {"entries": []}}, ">= 1"),
        ({"threads": 1}, "needs a schedule"),
        ({"threads": 1, "schedule": {}}, "'entries' or 'random'"),
        ({"threads": 1, "schedule": {"entries": [[0]]}}, "thread, steps"),
        ({"threads": 1, "schedule": {"random": {}}}, "needs a seed"),
        ({"threads": 1, "schedule": {"entries": []}, "mode": "arm"}, "bad mode"),
        ({"threads": 1, "schedule": {"entries": []}, "bogus": 1}, "unknown scenario field"),
        (
            {"threads": 1, "schedule": {"entries": []}, "tampers": [{"thread": 0}]},
            "missing field",
        ),
        (
            {
                "threads": 1,
                "schedule": {"entries": []},
                "tampers": [
                    {"thread": 0, "at": "a", "register": "R1", "action": "zap 3"}
                ],
            },
            "bad tamper action",
        ),
        ("not a mapping", "YAML mapping"),
        ({"threads": [1], "schedule": {"entries": []}}, "threads must be an integer"),
        ({"threads": 1, "schedule": {"entries": []}, "overrides": 5}, "overrides must be a mapping"),
        (
            {"threads": 1, "schedule": {"entries": []}, "expectations": {"memory": 3}},
            "expected memory must be a mapping",
        ),
        ({"threads": 1, "schedule": {"entries": [[0, "x"]]}}, "steps must be an integer"),
        ({"threads": 2.9, "schedule": {"entries": []}}, "threads must be an integer"),
        ({"threads": 1, "schedule": {"entries": [[0, 1.5]]}}, "steps must be an integer"),
        ({"threads": 1, "schedule": {"random": {"seed": "abc"}}}, "seed must be an integer"),
        ({"threads": 1, "schedule": {"entries": 5}}, "entries must be a list"),
        ({"threads": 1, "schedule": {"entries": []}, "tampers": 5}, "tampers must be a list"),
        ({"threads": 1, "schedule": {"entries": [], "halt": "false"}}, "halt must be true or false"),
        (
            {"threads": 1, "schedule": {"entries": [], "clrex_on_switch": "no"}},
            "clrex_on_switch must be true or false",
        ),
        ({"threads": 1, "schedule": {"entries": [], "halt": 0}}, "halt must be true or false"),
        (
            {
                "threads": 1,
                "schedule": {"entries": []},
                "tampers": [{"thread": 0, "at": "a", "register": True, "action": "set 1"}],
            },
            "bad register True",
        ),
        (
            {
                "threads": 1,
                "schedule": {"entries": []},
                "tampers": [
                    {"thread": 0, "at": "a", "register": "R1", "action": "set 1", "occurrence": [1]}
                ],
            },
            "tamper occurrence must be a scalar",
        ),
        # misspelt fields in nested mappings
        ({"threads": 1, "schedule": {"entries": [], "hlat": True}}, "unknown schedule field 'hlat'"),
        (
            {
                "threads": 1,
                "schedule": {"entries": []},
                "tampers": [
                    {"thread": 0, "at": "a", "register": "R1", "action": "set 1", "ocurrence": 2}
                ],
            },
            "unknown tamper entry field 'ocurrence'",
        ),
        (
            {"threads": 1, "schedule": {"entries": []}, "expectations": {"violation": 7}},
            "unknown expectations field 'violation'",
        ),
        (
            {"threads": 1, "schedule": {"random": {"seed": 1, "max_step": 5}}},
            "unknown random field 'max_step'",
        ),
        # a random schedule takes none of the scripted schedule's fields
        (
            {"threads": 1, "schedule": {"random": {"seed": 1}, "entries": []}},
            "unknown random schedule field 'entries'",
        ),
        (
            {"threads": 1, "schedule": {"random": {"seed": 1}, "halt": True}},
            "unknown random schedule field 'halt'",
        ),
        (
            {"threads": 1, "schedule": {"random": {"seed": 1}, "clrex_on_switch": False}},
            "unknown random schedule field 'clrex_on_switch'",
        ),
        # values no 32-bit word holds: overrides take `.data`'s range,
        # expectations what a word can hold
        (
            {"threads": 1, "schedule": {"entries": []}, "overrides": {"x": 2**32 + 100}},
            r"override 'x' must be in -2147483648\.\.4294967295, got 4294967396",
        ),
        (
            {"threads": 1, "schedule": {"entries": []}, "overrides": {"x": -(2**31) - 1}},
            r"override 'x' must be in -2147483648\.\.4294967295, got -2147483649",
        ),
        (
            {
                "threads": 1,
                "schedule": {"entries": []},
                "expectations": {"memory": {"x": 2**32 + 105}},
            },
            r"expected 'x' must be in 0\.\.4294967295, got 4294967401",
        ),
        (
            {"threads": 1, "schedule": {"entries": []}, "expectations": {"memory": {"x": -1}}},
            r"expected 'x' must be in 0\.\.4294967295, got -1",
        ),
        # a run never has fewer than zero violations to match
        (
            {"threads": 1, "schedule": {"entries": []}, "expectations": {"violations": -1}},
            "expected violations must be >= 0, got -1",
        ),
    ],
)
def test_scenario_validation_errors(doc, pattern):
    with pytest.raises(ScenarioError, match=pattern):
        parse_scenario(doc)


_JUNK = st.recursive(
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats(allow_nan=False)
    | st.sampled_from(["gdb", "R13", "zap 1", "every", "3", "x.s", "entries", "seed"])
    | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=8,
)


def _or_junk(valid):
    """A well-formed value nine times in ten, so deep fields get reached,
    else junk."""
    return st.integers(0, 9).flatmap(lambda k: _JUNK if k == 5 else valid)


_TAMPERS = st.fixed_dictionaries(
    {
        "thread": _or_junk(st.integers(-1, 3)),
        "at": _or_junk(st.sampled_from(["retry+2", "lock"])),
        "register": _or_junk(st.sampled_from(["R7", "r12", 7, "R"])),
        "action": _or_junk(st.sampled_from(["set 1", "add -2", "flip_bit 40", "set x", "set"])),
    },
    optional={"occurrence": _or_junk(st.sampled_from([1, 3, 0, "every", True]))},
)
_FLAGS = {"halt": _or_junk(st.booleans()), "clrex_on_switch": _or_junk(st.booleans())}
_SCHEDULES = st.fixed_dictionaries(
    {"entries": _or_junk(st.lists(st.lists(_or_junk(st.integers(-1, 4)), min_size=1, max_size=3)))},
    optional=_FLAGS,
) | st.fixed_dictionaries(
    {"random": _or_junk(st.fixed_dictionaries({"seed": _or_junk(st.integers())}, optional={"max_steps": _JUNK}))},
    optional=_FLAGS,
)
_SCENARIO_DOCS = st.fixed_dictionaries(
    {"threads": _or_junk(st.integers(1, 4)), "schedule": _or_junk(_SCHEDULES)},
    optional={
        "program": _JUNK,
        "mode": _or_junk(st.sampled_from(["gdb", "hw", "arm"])),
        "overrides": _or_junk(st.dictionaries(st.sampled_from(["lockVar", 3]), _or_junk(st.integers()))),
        "tampers": _or_junk(st.lists(_or_junk(_TAMPERS), max_size=3)),
        "expectations": _or_junk(
            st.fixed_dictionaries(
                {},
                optional={
                    "memory": _or_junk(st.dictionaries(st.sampled_from(["lockVar", 3]), _JUNK)),
                    "violations": _JUNK,
                },
            )
        ),
    },
)


_DEEP = functools.reduce(lambda inner, _: [inner], range(2000), [])
_LONG = list(range(100_000))


class _Big(dict):
    """A document with a deep or long value. Hypothesis prints explicit
    examples, and its printer would recurse through a deep one."""

    def _repr_pretty_(self, printer, cycle):
        printer.text(reprlib.repr(dict(self)))


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(doc=_or_junk(_SCENARIO_DOCS))
@example(doc=_Big(threads=_DEEP, schedule={"entries": []}))
@example(doc=_Big(threads=_LONG, schedule={"entries": []}))
@example(doc=_Big(threads=1, mode=_DEEP, schedule={"entries": []}))
@example(doc=_Big(threads=1, schedule={"entries": [_DEEP]}))
@example(doc=_Big(threads=1, schedule={"entries": _LONG}))
@example(doc=_Big(threads=1, schedule={"entries": []}, program=_DEEP))
@example(
    doc=_Big(
        threads=1,
        schedule={"entries": []},
        tampers=[{"thread": 0, "at": _DEEP, "register": _DEEP, "action": _LONG}],
    )
)
@example(doc=_Big({"threads": 1, "schedule": {"entries": []}, 1: 2, "x" * 100_000: 3}))
def test_parse_scenario_raises_only_scenario_error(doc):
    """Any nested YAML-like value either parses or fails with a
    one-line ScenarioError of bounded length; no other exception
    escapes."""
    try:
        parse_scenario(doc)
    except ScenarioError as e:
        assert len(str(e)) < 400 and "\n" not in str(e)


def test_expectations_default_to_zero_violations(load_corpus, corpus_file):
    scenario = load_scenario(corpus_file("regtamper_attack.scn"))
    scenario.expect_violations = None  # only memory expectations remain
    result = run_scenario(scenario, load_corpus("lock_regcmp.s"))
    problems = check_expectations(scenario, result)
    assert any("violation" in p for p in problems)  # 1 observed vs 0 expected


# -- command line ----------------------------------------------------------


def test_cli_run_normal_and_attack(corpus_file, capsys):
    program = str(corpus_file("lock_regcmp.s"))
    assert main(["run", program, str(corpus_file("normal3.scn"))]) == 0
    out = capsys.readouterr().out
    assert "accountBalance = 115" in out
    assert "violations: 0" in out

    assert main(["run", program, str(corpus_file("regtamper_attack.scn"))]) == 0
    out = capsys.readouterr().out
    assert "accountBalance = 110" in out
    assert "violations: 1" in out


def test_cli_run_missing_files(corpus_file, capsys):
    program = str(corpus_file("lock_regcmp.s"))
    assert main(["run", program, "/nonexistent.scn"]) == 1
    assert main(["run", "/nonexistent.s", str(corpus_file("normal3.scn"))]) == 1
    assert main(["run"]) == 1  # missing arguments entirely


def test_cli_run_rejects_scenario_for_another_program(corpus_file, tmp_path, capsys):
    program = str(corpus_file("unlocked_inc.s"))
    assert main(["run", program, str(corpus_file("normal3.scn"))]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "'lock_regcmp.s'" in err
    assert err.count("\n") == 1

    # Only the file name is compared: `export` writes the path as typed.
    scenario = load_scenario(corpus_file("normal3.scn"))
    scenario.program = "some/dir/lock_regcmp.s"
    path = tmp_path / "typed_path.scn"
    save_scenario(scenario, path)
    assert main(["run", str(corpus_file("lock_regcmp.s")), str(path)]) == 0


def test_cli_run_expectation_mismatch(corpus_file, tmp_path, capsys):
    scenario = load_scenario(corpus_file("normal3.scn"))
    scenario.expect_memory = {"accountBalance": 999}
    path = tmp_path / "wrong.scn"
    save_scenario(scenario, path)
    assert main(["run", str(corpus_file("lock_regcmp.s")), str(path)]) == 2
    err = capsys.readouterr().err
    assert "expected accountBalance = 999" in err


def test_cli_run_parse_error_names_line(tmp_path, capsys):
    bad = tmp_path / "bad.s"
    bad.write_text("    MOV R1, #0\n    CMP R8\n")
    assert main(["run", str(bad), str(bad)]) == 1
    assert "line 2" in capsys.readouterr().err


_MALFORMED_SCENARIOS = [
    ("threads: [1]\nschedule: {entries: []}\n", "threads must be an integer"),
    # YAML syntax: PyYAML's problem with its 1-based line and column
    (
        "threads: [1\nschedule: {entries: [[0, 1]]}\n",
        "bad.scn: line 2, column 9: expected ',' or ']', but got ':'",
    ),
    # errors PyYAML raises outside YAMLError while constructing values
    ("threads: 1\nprogram: 2001-02-30\n", "day is out of range"),
    ("threads: !!bool maybe\n", "maybe"),
    ("threads: " + "[" * 1000 + "]" * 1000 + "\n", "recursion"),
    # the one field the reader passes on unjudged still refuses a list,
    # so libyaml's deeper nesting never reaches a Scenario
    (
        "threads: 1\nschedule: {entries: []}\ntampers:\n- {thread: 0, at: retry, register: R7,"
        " action: add 1, occurrence: " + "[" * 1000 + "]" * 1000 + "}\n",
        "recursion",
    ),
]


def test_cli_run_malformed_scenario_is_usage_error(corpus_file, tmp_path, capsys):
    bad = tmp_path / "bad.scn"
    for text, message in _MALFORMED_SCENARIOS:
        bad.write_text(text)
        assert main(["run", str(corpus_file("lock_regcmp.s")), str(bad)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err, text
        assert err.count("\n") == 1


def _load_outcome(path):
    try:
        return load_scenario(path)
    except ScenarioError as e:
        return str(e)


def _assert_loaders_agree(path, text):
    """`load_scenario` gives the same Scenario or the same error text as
    it does with PyYAML's pure-Python loader alone."""
    path.write_text(text, encoding="utf-8")
    got = _load_outcome(path)
    with pytest.MonkeyPatch.context() as mp:
        mp.delattr(yaml, "CSafeLoader", raising=False)
        want = _load_outcome(path)
    assert got == want, text


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(doc=_SCENARIO_DOCS, flow=st.booleans())
def test_dumped_scenarios_load_as_with_pure_python_loader(doc, flow, tmp_path_factory):
    text = yaml.safe_dump(doc, default_flow_style=flow, sort_keys=False)
    _assert_loaders_agree(tmp_path_factory.mktemp("dumped") / "s.scn", text)


# Characters libyaml and PyYAML's pure-Python loader read differently,
# and ones that only change structure.
_EDITS = "\t!&*?|>%@`'\"\x07\x85\ufeff[]{}:,-# \n0a~"


def test_corpus_mutations_load_as_with_pure_python_loader(tmp_path):
    corpus = [spinsim.corpus_path(name).read_text(encoding="utf-8") for name in ALL_SCENARIOS]
    texts = corpus + [text for text, _ in _MALFORMED_SCENARIOS]
    rng = random.Random(7)
    for _ in range(300):
        text = rng.choice(corpus)
        text = text[text.index("program:") :]  # past the comments, where edits matter
        for _ in range(rng.randint(1, 3)):
            at = rng.randrange(len(text) + 1)
            text = text[:at] + rng.choice(_EDITS) + text[at + rng.randint(0, 2) :]
        texts.append(text)
    for text in texts:
        _assert_loaders_agree(tmp_path / "s.scn", text)


@pytest.mark.skipif(not yaml.__with_libyaml__, reason="PyYAML built without libyaml")
def test_corpus_scenarios_load_without_pure_python_loader(corpus_file, monkeypatch):
    """Every corpus scenario takes the libyaml path: the speed of
    `spinsim run` on the corpus depends on it."""

    def refuse(*args, **kwargs):
        raise AssertionError("yaml.safe_load called")

    monkeypatch.setattr(yaml, "safe_load", refuse)
    for name in ALL_SCENARIOS:
        assert load_scenario(corpus_file(name)).program == "lock_regcmp.s"


def test_cli_run_rejects_expectation_on_undeclared_word(corpus_file, tmp_path, capsys):
    """An expectation on a data word the program does not declare is a
    usage error, like an override of one, not a mismatch."""
    scenario = load_scenario(corpus_file("normal3.scn"))
    scenario.expect_memory = {"noSuchWord": 1}
    path = tmp_path / "undeclared.scn"
    save_scenario(scenario, path)
    assert main(["run", str(corpus_file("lock_regcmp.s")), str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        f"error: {path}: expectation names undeclared symbol 'noSuchWord'\n"
    )


def test_cli_run_rejects_tamper_on_missing_thread(corpus_file, tmp_path, capsys):
    scenario = load_scenario(corpus_file("regtamper_attack.scn"))
    scenario.threads = 2
    scenario.schedule.entries = [(0, 1)]
    scenario.tampers = [TamperSpec(7, "retry+2", 7, ("add", 1))]
    path = tmp_path / "ghost.scn"
    save_scenario(scenario, path)
    assert main(["run", str(corpus_file("lock_regcmp.s")), str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "unknown thread 7" in err
    assert err.count("\n") == 1


@pytest.mark.parametrize("occurrence, shown", [("0", "0"), ("true", "True")])
def test_cli_run_rejects_bad_tamper_occurrence(occurrence, shown, corpus_file, tmp_path, capsys):
    """`compile_tampers` alone judges an occurrence's value."""
    path = tmp_path / "occurrence.scn"
    path.write_text(
        "program: lock_regcmp.s\nthreads: 1\nschedule: {entries: []}\ntampers:\n"
        f"  - {{thread: 0, at: retry, register: R7, action: add 1, occurrence: {occurrence}}}\n"
    )
    assert main(["run", str(corpus_file("lock_regcmp.s")), str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {path}: occurrence must be >= 1 or 'every', got {shown}\n"


def test_cli_run_writes_trace(corpus_file, tmp_path, capsys):
    trace_path = tmp_path / "out.trace"
    code = main(
        [
            "run",
            str(corpus_file("lock_regcmp.s")),
            str(corpus_file("regtamper_attack.scn")),
            "--trace",
            str(trace_path),
        ]
    )
    assert code == 0
    lines = trace_path.read_bytes().decode().splitlines()
    assert json.loads(lines[0])["type"] == "header"
    assert len(lines) > 30


def test_cli_run_unwritable_trace_is_usage_error(corpus_file, tmp_path, capsys):
    program = str(corpus_file("lock_regcmp.s"))
    scenario = str(corpus_file("normal3.scn"))
    for target in (tmp_path / "missing" / "t.jsonl", tmp_path):
        assert main(["run", program, scenario, "--trace", str(target)]) == 1
        captured = capsys.readouterr()
        assert "accountBalance = 115" in captured.out  # the summary came first
        assert captured.err.startswith(f"error: cannot write trace {target}: ")
        assert captured.err.count("\n") == 1


@pytest.mark.parametrize("command", ["run", "lint", "explore", "debug"])
def test_cli_non_utf8_program_is_usage_error(command, corpus_file, tmp_path, capsys):
    bad = tmp_path / "latin1.s"
    bad.write_bytes(b"; caf\xe9\n    NOP\n")
    argv = [command, str(bad)] + ([str(corpus_file("normal3.scn"))] if command == "run" else [])
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {bad}: ") and "utf-8" in err
    assert err.count("\n") == 1


@pytest.mark.parametrize(
    "argv, unreadable",
    [
        (["run", "lock_regcmp.s", "normal3.scn"], "lock_regcmp.s"),
        (["run", "lock_regcmp.s", "normal3.scn"], "normal3.scn"),
        (["lint", "lock_regcmp.s"], "lock_regcmp.s"),
        (["explore", "lock_regcmp.s"], "lock_regcmp.s"),
        (["debug", "lock_regcmp.s"], "lock_regcmp.s"),
    ],
)
def test_cli_unreadable_file_is_usage_error(argv, unreadable, corpus_file, monkeypatch, capsys):
    """A file that exists but cannot be read (`/proc/self/clear_refs`
    gives EINVAL) ends in one `error:` line."""
    target = corpus_file(unreadable)
    read_text = Path.read_text

    def fail_on_target(self, *args, **kwargs):
        if self == target:
            raise OSError(errno.EINVAL, "Invalid argument")
        return read_text(self, *args, **kwargs)

    monkeypatch.setattr(Path, "read_text", fail_on_target)
    assert main([argv[0]] + [str(corpus_file(name)) for name in argv[1:]]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: cannot read {target}: Invalid argument\n"


def test_cli_non_utf8_scenario_is_usage_error(corpus_file, tmp_path, capsys):
    bad = tmp_path / "latin1.scn"
    bad.write_bytes(b"# caf\xe9\nthreads: 1\nschedule: {entries: []}\n")
    with pytest.raises(ScenarioError, match="utf-8"):
        load_scenario(bad)
    assert main(["run", str(corpus_file("lock_regcmp.s")), str(bad)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {bad}: ") and "utf-8" in err
    assert err.count("\n") == 1


_BENCH_EXPECTED = Path(__file__).resolve().parents[1] / "perfbench" / "expected.json"


@pytest.mark.parametrize("scenario", ALL_SCENARIOS)
def test_cli_run_trace_matches_golden_record(scenario, corpus_file, tmp_path, capsys):
    """Traces stay byte-identical to the ones the benchmark recorded for
    the corpus scenarios (its `cli-corpus` workload checks the same)."""
    want = json.loads(_BENCH_EXPECTED.read_text(encoding="utf-8"))["cli-corpus"]["run"]
    want = want[scenario.removesuffix(".scn")]
    trace = tmp_path / "run.jsonl"
    argv = ["run", str(corpus_file("lock_regcmp.s")), str(corpus_file(scenario)), "--trace", str(trace)]
    assert main(argv) == want["exit"]
    capsys.readouterr()
    assert hashlib.sha256(trace.read_bytes()).hexdigest() == want["trace_sha256"]


@pytest.mark.parametrize(
    "name, threads, exit_code, stdout_sha256",
    [
        ("lock_basic.s", 2, 0, "8e530ad8944b601771b76550ffa6480ed308b03183ea192eafd5217c30557ddc"),
        ("lock_basic.s", 3, 0, "367c45abb6dabc60d6562fb94e97fba6d06ba5e38c5bc146197b342ce1988d9e"),
        ("lock_regcmp.s", 2, 0, "8e530ad8944b601771b76550ffa6480ed308b03183ea192eafd5217c30557ddc"),
        ("lock_regcmp.s", 3, 0, "367c45abb6dabc60d6562fb94e97fba6d06ba5e38c5bc146197b342ce1988d9e"),
        ("lock_no_ll_branch.s", 2, 2, "2707168a4dadd833b945e2a87ac1bee9ca980b27293748b5e19a00e268378401"),
        ("lock_no_ll_branch.s", 3, 2, "8aee0de51217d6708afa9e10cf18fbd1e0c7257e2a8aa3421f50a0f19e3b6212"),
        ("lock_unlock.s", 2, 0, "4604605b9fd0ef8d937e26b82eb8367beeb9d7dee8347cee022a79f73c283a93"),
        ("lock_unlock.s", 3, 0, "2f68ab6167d6ac81730d10e78d1f75d6523f01ef5b4ec58074fb75c7493d4e4f"),
        ("unlocked_inc.s", 2, 0, "29f16309f36c96ecd7c58231a4539ece5231eab9fd6f85837ce98ab2c5f18ac2"),
        ("unlocked_inc.s", 3, 0, "17a4b470890ec96492793c400df7a1ce05c9405f5cb0268f62de79c729d02268"),
    ],
)
def test_cli_explore_output_is_pinned(corpus_file, capsys, name, threads, exit_code, stdout_sha256):
    """`spinsim explore` prints the same report, first witness included,
    and exits the same on every corpus program at 2 and 3 threads. The
    first violation witness has the fewest steps that crowd a region."""
    assert main(["explore", str(corpus_file(name)), "--threads", str(threads)]) == exit_code
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == stdout_sha256
    if name == "lock_no_ll_branch.s":
        assert "  first witness schedule: [0, 0, 0, 0, 0, 0, 1, 1, 1, 1, 1, 1]\n" in out


def test_cli_explore_exit_codes(corpus_file, capsys):
    assert main(["explore", str(corpus_file("lock_basic.s")), "--threads", "2"]) == 0
    out = capsys.readouterr().out
    assert "accountBalance = 110" in out
    assert "violations: 0" in out

    assert main(["explore", str(corpus_file("unlocked_inc.s")), "--threads", "2"]) == 0
    out = capsys.readouterr().out
    assert "accountBalance = 105" in out and "accountBalance = 110" in out

    # bounds below 1 are usage errors, not an exploration truncated at once
    for flag, value in (("--threads", "0"), ("--max-states", "-1"), ("--max-states", "0"),
                        ("--max-steps", "0")):
        assert main(["explore", str(corpus_file("lock_basic.s")), flag, value]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {flag} must be >= 1\n"
    assert (
        main(
            [
                "explore",
                str(corpus_file("lock_basic.s")),
                "--threads",
                "2",
                "--max-steps",
                "4",
            ]
        )
        == 3
    )
    capsys.readouterr()
    # every state of lock_basic.s at 2 threads lies within 30 steps of the start
    argv = ["explore", str(corpus_file("lock_basic.s")), "--threads", "2", "--max-steps"]
    assert main(argv + ["29"]) == 3
    assert "truncated: True" in capsys.readouterr().out
    for max_steps in ("30", "60"):
        assert main(argv + [max_steps]) == 0
        assert "truncated: False" in capsys.readouterr().out


def test_cli_explore_counts_terminal_states_with_a_faulted_thread(tmp_path, capsys):
    """Every thread bus-faults on an unaligned load: the report says so,
    and the exit code stays that of a clean exploration."""
    source = tmp_path / "unaligned.s"
    source.write_text(".data x 0\n    LDR R1, =x\n    ADD R1, R1, #2\n    LDR R0, [R1]\n    NOP\n")
    assert main(["explore", str(source), "--threads", "2"]) == 0
    assert capsys.readouterr().out == (
        "schedules explored: 1\n"
        "distinct final states: 1\n"
        "  x = 0\n"
        "terminal states with a faulted thread: 1\n"
        "mutual-exclusion violations: 0\n"
        "truncated: False\n"
    )
    # No fault, no line: corpus output stays as it was.
    source.write_text(".data x 0\n    LDR R1, =x\n    LDR R0, [R1]\n    NOP\n")
    assert main(["explore", str(source), "--threads", "2"]) == 0
    assert "faulted" not in capsys.readouterr().out


def test_cli_explore_final_state_without_data_words(tmp_path, capsys):
    source = tmp_path / "nop.s"
    source.write_text("    NOP\n")
    assert main(["explore", str(source), "--threads", "2"]) == 0
    assert capsys.readouterr().out.splitlines()[1:3] == ["distinct final states: 1", "  (no data words)"]


def test_cli_explore_rejects_region_holding_the_entry(tmp_path, capsys):
    source = tmp_path / "entry_in.s"
    source.write_text(".region crit enter leave\nenter:\n    NOP\nleave:\n    NOP\n")
    assert main(["explore", str(source), "--threads", "2"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {source}: line 1: region 'crit' holds the entry pc 0\n"


def test_cli_lint_exit_codes(corpus_file, capsys):
    assert main(["lint", str(corpus_file("lock_basic.s"))]) == 0
    assert "no findings" in capsys.readouterr().out

    assert main(["lint", str(corpus_file("lock_regcmp.s"))]) == 4
    assert capsys.readouterr().out.count("REG_COMPARE") == 2

    # warning-only findings exit 0
    assert main(["lint", str(corpus_file("lock_no_ll_branch.s"))]) == 0
    assert "MISSING_LL_BRANCH" in capsys.readouterr().out


def test_cli_lint_records_format(corpus_file, capsys):
    assert main(["lint", str(corpus_file("lock_regcmp.s")), "--format", "records"]) == 4
    lines = capsys.readouterr().out.strip().splitlines()
    records = [json.loads(line) for line in lines]
    assert [r["rule"] for r in records] == ["REG_COMPARE", "REG_COMPARE"]


def test_cli_usage_errors(capsys):
    assert main([]) == 1
    assert main(["frobnicate"]) == 1
    assert main(["--version"]) == 0


def test_scenario_word_bounds_are_inclusive():
    doc = {
        "threads": 1,
        "schedule": {"entries": []},
        "overrides": {"a": -(2**31), "b": 2**32 - 1},
        "expectations": {"memory": {"a": 0, "b": 2**32 - 1}},
    }
    scenario = parse_scenario(doc)
    assert scenario.overrides == {"a": -(2**31), "b": 2**32 - 1}
    assert scenario.expect_memory == {"a": 0, "b": 2**32 - 1}


def test_cli_rejects_thread_counts_above_the_limit(corpus_file, tmp_path, capsys):
    """Every front end refuses a count above MAX_THREADS in one line, exit
    1, before a machine is built."""
    program = str(corpus_file("lock_basic.s"))
    for command in ("explore", "debug"):
        assert main([command, program, "--threads", str(10**18)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: --threads must be <= {MAX_THREADS}\n"
    path = tmp_path / "crowd.scn"
    path.write_text(f"threads: {10**18}\nschedule: {{entries: [[0, 1]]}}\n")
    assert main(["run", program, str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {path}: thread_count must be <= {MAX_THREADS}\n"


def test_cli_debug_session(corpus_file, capsys, monkeypatch):
    feed = iter(["thread 0", "step 3", "info registers", "x lockVar", "quit"])
    monkeypatch.setattr("builtins.input", lambda prompt="": next(feed))
    assert main(["debug", str(corpus_file("lock_regcmp.s")), "--threads", "2"]) == 0
    out = capsys.readouterr().out
    assert "spinsim debugger" in out
    assert "lockVar = 1" in out  # the stepped thread took the lock
    assert main(["debug", str(corpus_file("lock_regcmp.s")), "--threads", "0"]) == 1


def test_cli_cached_parser_carries_nothing_between_calls(corpus_file, capsys):
    program = str(corpus_file("lock_basic.s"))
    argvs = [
        [],
        ["frobnicate"],
        ["--version"],
        ["explore", program, "--threads", "0"],
        ["explore", program, "--threads", "abc"],
        ["explore", program, "--max-steps", "4", "--max-states", "7"],
        ["explore", program],
        ["lint", program, "--format", "records"],
        ["lint", program],
        ["run", str(corpus_file("lock_regcmp.s")), str(corpus_file("normal3.scn"))],
    ]

    def outcomes(order, fresh=False):
        seen = {}
        for i in order:
            if fresh:
                build_parser.cache_clear()
            code = main(argvs[i])
            captured = capsys.readouterr()
            seen[i] = (code, captured.out, captured.err)
        return seen

    forward = outcomes(range(len(argvs)))
    backward = outcomes(reversed(range(len(argvs))))
    assert forward == backward
    # and both match a parser built for each command alone
    assert forward == outcomes(range(len(argvs)), fresh=True)
    assert build_parser() is build_parser()


def _spinsim_env() -> dict[str, str]:
    """The environment with this checkout's package first on the path."""
    src = str(Path(spinsim.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    return env


def test_yaml_is_imported_only_by_scenario_io(corpus_file):
    code = (
        "import sys\n"
        "import spinsim, spinsim.cli, spinsim.debug\n"
        f"code = spinsim.cli.main(['lint', {str(corpus_file('lock_basic.s'))!r}])\n"
        "print(code, 'yaml' in sys.modules)\n"
    )
    done = subprocess.run(
        [sys.executable, "-c", code],
        env=_spinsim_env(),
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == "0 False"


def test_cli_run_deepest_yaml_for_libyaml_is_one_line_error(corpus_file, tmp_path):
    # The longest text `load_scenario` hands to libyaml, nested as deep
    # as that length allows; the pure-Python loader gives the verdict.
    depth = (_LIBYAML_MAX_CHARS - len("threads: \n")) // 2
    text = "threads: " + "[" * depth + "]" * depth + "\n"
    assert len(text) == _LIBYAML_MAX_CHARS
    deep = tmp_path / "cap.scn"
    deep.write_text(text)
    done = subprocess.run(
        [sys.executable, "-m", "spinsim", "run", str(corpus_file("lock_regcmp.s")), str(deep)],
        env=_spinsim_env(),
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert done.returncode == 1, done.stderr[-500:]
    assert done.stdout == ""
    assert done.stderr.startswith("error: ") and done.stderr.count("\n") == 1
    assert "recursion" in done.stderr


def test_cli_run_very_deep_yaml_is_one_line_error(corpus_file, tmp_path):
    # A C loader (libyaml) crashes the process on this input; the pure
    # Python one raises RecursionError, which `load_scenario` reports.
    deep = tmp_path / "deep.scn"
    deep.write_text("threads: " + "[" * 100_000 + "]" * 100_000 + "\n")
    done = subprocess.run(
        [sys.executable, "-m", "spinsim", "run", str(corpus_file("lock_regcmp.s")), str(deep)],
        env=_spinsim_env(),
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert done.returncode == 1, done.stderr[-500:]
    assert done.stdout == ""
    assert done.stderr.startswith("error: ") and done.stderr.count("\n") == 1


@pytest.mark.parametrize(
    "argv, unbuffered",
    [
        (["lint", "lock_regcmp.s", "--format", "records"], False),
        (["lint", "lock_regcmp.s", "--format", "records"], True),
        (["run", "lock_regcmp.s", "regtamper_attack.scn"], False),
        (["run", "lock_regcmp.s", "regtamper_attack.scn"], True),
        (["explore", "unlocked_inc.s", "--threads", "2"], False),
        (["explore", "unlocked_inc.s", "--threads", "2"], True),
        (["--version"], False),
    ],
)
def test_cli_closed_stdout_exits_1_without_traceback(argv, unbuffered, corpus_file):
    # The read end is closed before the child starts, so its first write
    # (unbuffered) or its final flush (buffered) always fails with EPIPE.
    env = _spinsim_env()
    env.pop("PYTHONUNBUFFERED", None)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        done = subprocess.run(
            [sys.executable, "-m", "spinsim"] + [str(corpus_file(a)) if "." in a else a for a in argv],
            env=env,
            stdout=write_end,
            stderr=subprocess.PIPE,
            text=True,
            timeout=60,
        )
    finally:
        os.close(write_end)
    assert done.returncode == 1
    assert done.stderr == ""
