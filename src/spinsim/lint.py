"""Static checks for lock-routine hygiene.

Rules (analysis is syntactic over the listing with a simple
redefinition check; the routines this targets are tiny):

    REG_COMPARE (error)        the first CMP consuming an LDREX/STREX
                               destination compares it against a
                               register instead of an immediate; such a
                               register can be edited by a debugger or
                               fault attacker, an immediate cannot
    MISSING_LL_BRANCH (warn)   an LDREX whose loaded value is never
                               compared-and-branched before the paired
                               STREX
    MISSING_SC_BRANCH (error)  a STREX whose status register is never
                               compared-and-branched afterwards
    ORPHAN_LDREX (warn)        LDREX with no following STREX
    ORPHAN_STREX (warn)        STREX with no preceding LDREX

"Constant" means an immediate operand: comparing against a register
that happens to hold a constant still trips REG_COMPARE.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from .isa import Program

REG_COMPARE = "REG_COMPARE"
MISSING_LL_BRANCH = "MISSING_LL_BRANCH"
MISSING_SC_BRANCH = "MISSING_SC_BRANCH"
ORPHAN_LDREX = "ORPHAN_LDREX"
ORPHAN_STREX = "ORPHAN_STREX"

_SEVERITY = {
    REG_COMPARE: "error",
    MISSING_SC_BRANCH: "error",
    MISSING_LL_BRANCH: "warning",
    ORPHAN_LDREX: "warning",
    ORPHAN_STREX: "warning",
}

_CONDITIONAL_BRANCHES = ("BNE", "BEQ")


@dataclass(frozen=True)
class Finding:
    rule: str
    pc: int
    source_line: int
    message: str
    severity: str


def _first_compare_of(program: Program, start: int, reg: int) -> int | None:
    """Index of the first CMP whose left operand is `reg`, scanning the
    fall-through chain from `start`: stops at a redefinition of `reg`,
    an unconditional branch, or the end of the listing."""
    for i in range(start, len(program.instructions)):
        ins = program.instructions[i]
        if ins.opcode == "CMP" and ins.operands[0] == ("reg", reg):
            return i
        if ins.dest() == reg:
            return None
        if ins.opcode == "B":
            return None
    return None


def _compared_and_branched(program: Program, start: int, end: int, reg: int) -> bool:
    """True if `reg` is CMP'd within [start, end) and a conditional
    branch follows the compare before `end`."""
    for i in range(start, end):
        ins = program.instructions[i]
        if ins.opcode == "CMP" and ins.operands[0] == ("reg", reg):
            return any(
                program.instructions[j].opcode in _CONDITIONAL_BRANCHES
                for j in range(i + 1, end)
            )
        if ins.dest() == reg:
            return False
    return False


def _sc_branch_bound(program: Program, strex_index: int, reg: int) -> int:
    """How far past the STREX the status register stays meaningful:
    up to its redefinition, an unconditional branch, or the end."""
    for i in range(strex_index + 1, len(program.instructions)):
        ins = program.instructions[i]
        if ins.dest() == reg:
            return i
        if ins.opcode == "B":
            return i + 1
    return len(program.instructions)


def lint(program: Program) -> list[Finding]:
    """Check a parsed program against all rules; findings sorted by pc.
    An empty list means the routine conforms."""
    findings: list[Finding] = []
    instructions = program.instructions
    ranges = dict(program.exclusive_ranges())

    ldrex_indices = [i for i, ins in enumerate(instructions) if ins.opcode == "LDREX"]
    strex_indices = [i for i, ins in enumerate(instructions) if ins.opcode == "STREX"]

    for i in ldrex_indices:
        if i not in ranges:
            findings.append(
                Finding(
                    ORPHAN_LDREX,
                    i,
                    instructions[i].source_line,
                    "LDREX with no following STREX",
                    _SEVERITY[ORPHAN_LDREX],
                )
            )
    for s in strex_indices:
        if not any(i < s for i in ldrex_indices):
            findings.append(
                Finding(
                    ORPHAN_STREX,
                    s,
                    instructions[s].source_line,
                    "STREX with no preceding LDREX",
                    _SEVERITY[ORPHAN_STREX],
                )
            )

    for i in ldrex_indices + strex_indices:
        dest = instructions[i].dest()
        cmp_at = _first_compare_of(program, i + 1, dest)
        if cmp_at is not None and instructions[cmp_at].operands[1][0] == "reg":
            other = instructions[cmp_at].operands[1][1]
            findings.append(
                Finding(
                    REG_COMPARE,
                    cmp_at,
                    instructions[cmp_at].source_line,
                    f"{instructions[i].opcode} result R{dest} compared against "
                    f"register R{other} instead of a constant",
                    _SEVERITY[REG_COMPARE],
                )
            )

    for i, s in ranges.items():
        dest = instructions[i].dest()
        if not _compared_and_branched(program, i + 1, s, dest):
            findings.append(
                Finding(
                    MISSING_LL_BRANCH,
                    i,
                    instructions[i].source_line,
                    f"loaded value R{dest} is never compared-and-branched "
                    "before the paired STREX",
                    _SEVERITY[MISSING_LL_BRANCH],
                )
            )

    for s in strex_indices:
        status = instructions[s].dest()
        bound = _sc_branch_bound(program, s, status)
        if not _compared_and_branched(program, s + 1, bound, status):
            findings.append(
                Finding(
                    MISSING_SC_BRANCH,
                    s,
                    instructions[s].source_line,
                    f"STREX status R{status} is never compared-and-branched",
                    _SEVERITY[MISSING_SC_BRANCH],
                )
            )

    findings.sort(key=lambda f: (f.pc, f.rule))
    return findings


def render_text(findings: list[Finding]) -> str:
    if not findings:
        return "no findings\n"
    lines = [
        f"{f.severity}: {f.rule} at pc {f.pc} (line {f.source_line}): {f.message}"
        for f in findings
    ]
    return "\n".join(lines) + "\n"


def render_records(findings: list[Finding]) -> str:
    """Machine-readable form: one JSON object per finding per line."""
    lines = [
        json.dumps(
            {
                "rule": f.rule,
                "pc": f.pc,
                "line": f.source_line,
                "severity": f.severity,
                "message": f.message,
            },
            sort_keys=True,
        )
        for f in findings
    ]
    return "\n".join(lines) + ("\n" if lines else "")
