from __future__ import annotations

import json
import re

import pytest

from spinsim import corpus_dir, corpus_path
from spinsim.isa import parse_program
from spinsim.lint import (
    MISSING_LL_BRANCH,
    MISSING_SC_BRANCH,
    ORPHAN_LDREX,
    ORPHAN_STREX,
    REG_COMPARE,
    lint,
    render_records,
    render_text,
)
from spinsim.sched import explore

# Edits of lock_basic.s that test the guard walk, each a list of (old, new)
# replacements.
LOCK_BASIC_EDITS = {
    "B past the LL guard": [
        ("    LDREX R8, [R10]\n", "    LDREX R8, [R10]\n    B take\n"),
        ("    MOV R9, #1\n", "take:\n    MOV R9, #1\n"),
    ],
    "CMP between the LL guard and its branch": [
        ("    CMP R8, #0\n", "    CMP R8, #0\n    CMP R5, #0\n"),
    ],
    "redefinition after the SC guard": [
        ("    CMP R2, #0\n", "    CMP R2, #0\n    MOV R2, #7\n"),
    ],
}

# Mutants that no rule flags yet `explore` finds violating, with the reason.
LINT_FALSE_NEGATIVES = {
    "lock_basic.s pc 4 delete: MOV R9, #1": (
        "the STREX stores R9 before anything writes it, a read before write "
        "that rules over fall-through chains cannot see"
    ),
}


def test_constant_compare_lock_is_clean(load_corpus):
    assert lint(load_corpus("lock_basic.s")) == []
    assert lint(load_corpus("lock_unlock.s")) == []


def test_register_compare_lock_two_findings(load_corpus):
    findings = lint(load_corpus("lock_regcmp.s"))
    assert [f.rule for f in findings] == [REG_COMPARE, REG_COMPARE]
    assert [f.pc for f in findings] == [3, 7]
    assert all(f.severity == "error" for f in findings)


def test_no_ll_branch_lock_one_warning(load_corpus):
    findings = lint(load_corpus("lock_no_ll_branch.s"))
    assert [f.rule for f in findings] == [MISSING_LL_BRANCH]
    assert findings[0].severity == "warning"
    assert findings[0].pc == 1  # the LDREX


@pytest.mark.parametrize("path", sorted(corpus_dir().glob("*.s")), ids=lambda p: p.name)
def test_findings_match_expectation_files(path):
    """Each shipped program has an expectation file beside it, and its
    findings match that file byte for byte."""
    expected = path.with_suffix(".lint")
    assert expected.is_file(), f"{path.name} has no {expected.name} beside it"
    program = parse_program(path.read_text(encoding="utf-8"))
    assert render_records(lint(program)) == expected.read_text(encoding="utf-8")


def _edited_lock_basic(edit: str) -> str:
    source = corpus_path("lock_basic.s").read_text(encoding="utf-8")
    for old, new in LOCK_BASIC_EDITS[edit]:
        assert source.count(old) == 1
        source = source.replace(old, new)
    return source


@pytest.mark.parametrize(
    "edit, expected",
    [
        # The guard is dead code: the walk follows the B past it.
        ("B past the LL guard", [(MISSING_LL_BRANCH, 1)]),
        # The BNE reads CMP R5, not the guard.
        ("CMP between the LL guard and its branch", [(MISSING_LL_BRANCH, 1)]),
        # The flags already hold the comparison when R2 is overwritten.
        ("redefinition after the SC guard", []),
    ],
)
def test_guard_walk_on_lock_basic_edits(edit, expected):
    findings = lint(parse_program(_edited_lock_basic(edit)))
    assert [(f.rule, f.pc) for f in findings] == expected


def test_guard_walk_follows_an_unconditional_branch():
    """The LDREX guard sits after the STREX, behind a `B` there and a `B`
    back: the walk reaches its branch without passing the STREX, and the
    explorer agrees that the lock holds."""
    program = parse_program(
        ".data lockVar 0\n"
        ".data accountBalance 100\n"
        ".region critical critical_section unlock\n"
        "retry:\n"
        "    LDR R10, =lockVar\n"
        "    LDREX R8, [R10]\n"
        "    B check\n"
        "back:\n"
        "    MOV R9, #1\n"
        "    STREX R2, R9, [R10]\n"
        "    CMP R2, #0\n"
        "    BNE retry\n"
        "    B critical_section\n"
        "check:\n"
        "    CMP R8, #0\n"
        "    BNE retry\n"
        "    B back\n"
        "critical_section:\n"
        "    LDR R10, =accountBalance\n"
        "    LDR R4, [R10]\n"
        "    ADD R4, R4, #5\n"
        "    STR R4, [R10]\n"
        "unlock:\n"
        "    MOV R5, #0\n"
        "    LDR R10, =lockVar\n"
        "    STR R5, [R10]\n"
    )
    assert lint(program) == []
    for threads, balance in ((2, 110), (3, 115)):
        report = explore(program, threads)
        assert not report.truncated and not report.mutual_exclusion_violations
        assert report.final_values("accountBalance") == {balance}


def _mutants(name: str):
    """Single-point mutants of a corpus program, as (label, source): delete
    an instruction, swap BNE/BEQ, add 1 to an immediate, turn LDREX into
    LDR, or turn STREX into STR plus MOV Rd, #0."""
    source = corpus_path(name).read_text(encoding="utf-8")
    lines = source.splitlines()
    for pc, ins in enumerate(parse_program(source).instructions):
        at = ins.source_line - 1
        line = lines[at]
        edits = {"delete": []}
        if ins.opcode in ("BNE", "BEQ"):
            edits["swap"] = [line.replace(ins.opcode, "BEQ" if ins.opcode == "BNE" else "BNE")]
        if any(kind == "imm" for kind, _ in ins.operands):
            edits["imm+1"] = [re.sub(r"#(-?\d+)", lambda m: f"#{int(m[1]) + 1}", line)]
        if ins.opcode == "LDREX":
            edits["to LDR"] = [line.replace("LDREX", "LDR")]
        if ins.opcode == "STREX":
            (_, rd), (_, rt), (_, rn) = ins.operands
            edits["to STR"] = [f"    STR R{rt}, [R{rn}]", f"    MOV R{rd}, #0"]
        for op, new in edits.items():
            yield f"{name} pc {pc} {op}: {ins.text()}", "\n".join(lines[:at] + new + lines[at + 1:]) + "\n"


def test_mutants_without_findings_do_not_violate():
    """Lint against the explorer: a mutant of the two constant and register
    compare locks that lint passes has no mutual-exclusion violation at 2
    threads, except the listed false negatives."""
    mutants = [*_mutants("lock_basic.s"), *_mutants("lock_regcmp.s")]
    assert len(mutants) == 48
    mutants += [
        (f"lock_basic.s {edit}", _edited_lock_basic(edit))
        for edit in ("B past the LL guard", "CMP between the LL guard and its branch")
    ]
    missed = set()
    for label, source in mutants:
        program = parse_program(source)
        report = explore(program, 2)
        assert not report.truncated, label
        if report.mutual_exclusion_violations and not lint(program):
            missed.add(label)
    assert missed == set(LINT_FALSE_NEGATIVES)


def test_adding_ll_check_removes_the_warning(load_corpus):
    """Monotonicity: inserting CMP <dest>, #0; BNE retry right after the
    LDREX removes MISSING_LL_BRANCH and introduces nothing."""
    text = parse_program(
        ".data lockVar 0\n"
        "retry:\n"
        "    LDR R10, =lockVar\n"
        "    LDREX R8, [R10]\n"
        "    CMP R8, #0\n"
        "    BNE retry\n"
        "    MOV R9, #1\n"
        "    STREX R2, R9, [R10]\n"
        "    CMP R2, #0\n"
        "    BNE retry\n"
    )
    without = parse_program(
        ".data lockVar 0\n"
        "retry:\n"
        "    LDR R10, =lockVar\n"
        "    LDREX R8, [R10]\n"
        "    MOV R9, #1\n"
        "    STREX R2, R9, [R10]\n"
        "    CMP R2, #0\n"
        "    BNE retry\n"
    )
    assert [f.rule for f in lint(without)] == [MISSING_LL_BRANCH]
    assert lint(text) == []


def test_missing_sc_branch_is_an_error():
    p = parse_program(
        ".data x 0\n"
        "retry:\n"
        "    LDR R10, =x\n"
        "    LDREX R8, [R10]\n"
        "    CMP R8, #0\n"
        "    BNE retry\n"
        "    MOV R9, #1\n"
        "    STREX R2, R9, [R10]\n"
        "    NOP\n"
    )
    findings = lint(p)
    assert [f.rule for f in findings] == [MISSING_SC_BRANCH]
    assert findings[0].severity == "error"
    assert p.instructions[findings[0].pc].opcode == "STREX"


def test_sc_compare_without_branch_still_flags():
    p = parse_program(
        ".data x 0\n"
        "    LDR R10, =x\n"
        "    LDREX R8, [R10]\n"
        "    CMP R8, #0\n"
        "    BNE out\n"
        "    MOV R9, #1\n"
        "    STREX R2, R9, [R10]\n"
        "    CMP R2, #0\n"
        "out:\n"
        "    NOP\n"
    )
    assert MISSING_SC_BRANCH in [f.rule for f in lint(p)]


def test_orphans():
    only_ll = parse_program(".data x 0\n    LDR R1, =x\n    LDREX R2, [R1]\n")
    assert [f.rule for f in lint(only_ll)] == [ORPHAN_LDREX]
    only_sc = parse_program(".data x 0\n    LDR R1, =x\n    STREX R2, R3, [R1]\n")
    rules = [f.rule for f in lint(only_sc)]
    assert ORPHAN_STREX in rules
    assert all(f.severity in ("warning", "error") for f in lint(only_sc))


def test_first_compare_rule_checks_only_the_guard():
    # The guard compares against an immediate; a later unrelated
    # register compare of the same register is not the guard.
    p = parse_program(
        ".data x 0\n"
        "retry:\n"
        "    LDR R10, =x\n"
        "    LDREX R8, [R10]\n"
        "    CMP R8, #0\n"
        "    BNE retry\n"
        "    MOV R9, #1\n"
        "    STREX R2, R9, [R10]\n"
        "    CMP R2, #0\n"
        "    BNE retry\n"
        "    CMP R8, R4\n"
        "    BEQ retry\n"
    )
    assert [f.rule for f in lint(p)] == []


def test_redefinition_ends_the_chain():
    # R8 is overwritten before any compare: no REG_COMPARE for the LDREX.
    p = parse_program(
        ".data x 0\n"
        "retry:\n"
        "    LDR R10, =x\n"
        "    LDREX R8, [R10]\n"
        "    MOV R8, #0\n"
        "    CMP R8, R4\n"
        "    BNE retry\n"
        "    MOV R9, #1\n"
        "    STREX R2, R9, [R10]\n"
        "    CMP R2, #0\n"
        "    BNE retry\n"
    )
    assert REG_COMPARE not in [f.rule for f in lint(p)]


def test_findings_sorted_by_pc(load_corpus):
    findings = lint(load_corpus("lock_regcmp.s"))
    assert findings == sorted(findings, key=lambda f: (f.pc, f.rule))


def test_render_formats(load_corpus):
    findings = lint(load_corpus("lock_regcmp.s"))
    text = render_text(findings)
    assert "REG_COMPARE" in text and "pc 3" in text
    records = render_records(findings).strip().splitlines()
    assert len(records) == 2
    parsed = [json.loads(line) for line in records]
    assert {r["rule"] for r in parsed} == {REG_COMPARE}
    assert {r["severity"] for r in parsed} == {"error"}
    assert render_text([]) == "no findings\n"
    assert render_records([]) == ""
