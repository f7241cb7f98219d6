"""Static checks for lock-routine hygiene.

Every rule reads one guard walk. For the register Rd that an LDREX or
STREX writes, the walk starts at the next pc, falls through and follows
each `B` to its label; it ends at a pc it has already walked or at the
end of the listing. The *guard* is the first `CMP Rd, ...` it reaches;
before the guard the walk also ends at a redefinition of Rd. The guard
is *branched* when the walk then reaches a BNE or BEQ before another
CMP; a later redefinition of Rd does not matter, the flags already hold
the comparison. The routines this targets are tiny.

    REG_COMPARE (error)        the guard of an LDREX/STREX destination
                               compares it against a register instead of
                               an immediate; such a register can be
                               edited by a debugger or fault attacker,
                               an immediate cannot
    MISSING_LL_BRANCH (warn)   an LDREX whose guard is not branched
                               before the walk passes the paired STREX
    MISSING_SC_BRANCH (error)  a STREX whose guard is not branched
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


def _guard(program: Program, start: int, reg: int) -> tuple[int | None, int | None, set[int]]:
    """The guard walk from `start` for `reg`: (pc of the guard, pc of the
    conditional branch that reads it, each None when there is none; the
    pcs walked)."""
    instructions = program.instructions
    guard, walked, i = None, set(), start
    while i < len(instructions) and i not in walked:
        walked.add(i)
        ins = instructions[i]
        if guard is None:
            if ins.opcode == "CMP" and ins.operands[0] == ("reg", reg):
                guard = i
            elif ins.dest() == reg:
                break
        elif ins.opcode in _CONDITIONAL_BRANCHES:
            return guard, i, walked
        elif ins.opcode == "CMP":
            break
        i = program.labels[ins.operands[0][1]] if ins.opcode == "B" else i + 1
    return guard, None, walked


def lint(program: Program) -> list[Finding]:
    """Check a parsed program against all rules; findings sorted by pc.
    An empty list means the routine conforms."""
    findings: list[Finding] = []
    instructions = program.instructions
    paired = dict(program.exclusive_ranges())

    def report(rule: str, pc: int, message: str) -> None:
        findings.append(Finding(rule, pc, instructions[pc].source_line, message, _SEVERITY[rule]))

    seen_ldrex = False
    for i, ins in enumerate(instructions):
        if ins.opcode not in ("LDREX", "STREX"):
            continue
        reg = ins.dest()
        guard, branch, walked = _guard(program, i + 1, reg)
        if guard is not None and instructions[guard].operands[1][0] == "reg":
            report(
                REG_COMPARE,
                guard,
                f"{ins.opcode} result R{reg} compared against "
                f"register R{instructions[guard].operands[1][1]} instead of a constant",
            )
        if ins.opcode == "LDREX":
            seen_ldrex = True
            if i not in paired:
                report(ORPHAN_LDREX, i, "LDREX with no following STREX")
            elif branch is None or paired[i] in walked:
                report(
                    MISSING_LL_BRANCH,
                    i,
                    f"loaded value R{reg} is never compared-and-branched before the paired STREX",
                )
            continue
        if not seen_ldrex:
            report(ORPHAN_STREX, i, "STREX with no preceding LDREX")
        if branch is None:
            report(MISSING_SC_BRANCH, i, f"STREX status R{reg} is never compared-and-branched")

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
