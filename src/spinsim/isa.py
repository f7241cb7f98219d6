"""Parser for the assembly subset understood by the simulator.

Accepted format (UTF-8 text, one instruction per line, `.s` by convention):

    // comment            @ also starts a comment
    .data lockVar 0       declare a 32-bit data word with initial value
    .region critical critical_section unlock
                          mark the PC range [start-label, end-label) with a name;
                          a region may not hold the entry pc
    .entry lock           optional entry label (default: first instruction)

    lock:                 labels end with ':' on their own line or prefix a line
    retry:
        LDR R10, =lockVar     load the address of a data word
        LDREX R8, [R10]       load-exclusive (sets the monitor)
        CMP R8, #0            compare register against register or immediate
        BNE retry             branch on Z clear (BEQ: Z set, B: always)
        MOV R9, #1
        STREX R2, R9, [R10]   store-conditional: status, value, address
        CMP R2, #0
        BNE retry
        ...
        STR R5, [R10]         plain store
        CLREX                 drop the monitor
        NOP

Registers are R0..R12. Immediates are decimal with optional sign,
written `#n`. Anything outside this vocabulary (other condition codes,
shifts, byte or halfword access) is a parse error, not silent
acceptance.

Operands are tagged pairs: ("reg", n), ("imm", v), ("sym", name),
("label", name). `LDR Rd, =sym` and `LDR Rd, [Rn]` are distinct opcodes
(LDR_ADDR / LDR_MEM) distinguished purely by operand syntax; both
pretty-print as LDR.
"""

from __future__ import annotations

import hashlib
import re
from dataclasses import dataclass, field
from functools import cached_property

REGISTER_COUNT = 13  # R0..R12
# What a data word holds, and what a literal for one may say: a signed or
# an unsigned reading of its 32 bits.
WORD_VALUES = range(2**32)
WORD_LITERALS = range(-(2**31), 2**32)
GRANULE_BYTES = 4
DATA_BASE = 0x1000

Operand = tuple[str, "int | str"]

# Opcodes whose first operand is a destination register.
_WRITES_FIRST_OPERAND = frozenset({"MOV", "LDR_ADDR", "LDR_MEM", "ADD", "LDREX", "STREX"})


class AsmError(Exception):
    """Parse failure; message always names the offending source line."""

    def __init__(self, line: int, message: str):
        super().__init__(f"line {line}: {message}")
        self.line = line


@dataclass(frozen=True)
class Instruction:
    opcode: str
    operands: tuple[Operand, ...]
    source_line: int = field(compare=False, default=0)

    def text(self) -> str:
        """Canonical assembly text, e.g. 'STREX R2, R9, [R10]'."""
        mnemonic = "LDR" if self.opcode in ("LDR_ADDR", "LDR_MEM") else self.opcode
        parts = []
        for kind, value in self.operands:
            if kind == "reg":
                parts.append(f"R{value}")
            elif kind == "imm":
                parts.append(f"#{value}")
            elif kind == "mem":
                parts.append(f"[R{value}]")
            elif kind == "sym":
                parts.append(f"={value}")
            else:  # label
                parts.append(str(value))
        return mnemonic if not parts else f"{mnemonic} " + ", ".join(parts)

    def dest(self) -> int | None:
        """The register this instruction writes (when it does not
        fault), or None."""
        return self.operands[0][1] if self.opcode in _WRITES_FIRST_OPERAND else None


@dataclass(frozen=True)
class Region:
    name: str
    start_label: str
    end_label: str
    start: int
    end: int


@dataclass
class Program:
    instructions: list[Instruction]
    labels: dict[str, int]            # insertion order == source order
    data_words: dict[str, int]        # insertion order == declaration order
    regions: list[Region]
    entry: int = 0
    entry_label: str | None = None

    def exclusive_ranges(self) -> list[tuple[int, int]]:
        """Static LDREX..STREX index pairs (each LDREX with its nearest
        following STREX). Unpaired exclusives are left out; lint flags them."""
        strex_at = [i for i, ins in enumerate(self.instructions) if ins.opcode == "STREX"]
        ranges = []
        for i, ins in enumerate(self.instructions):
            if ins.opcode != "LDREX":
                continue
            following = [s for s in strex_at if s > i]
            if following:
                ranges.append((i, following[0]))
        return ranges

    @cached_property
    def inside_range(self) -> tuple[tuple[int, int] | None, ...]:
        """The GDB stop table: `strictly_inside` over the exclusive
        ranges, for each pc 0..len(instructions)."""
        ranges = self.exclusive_ranges()
        return tuple(strictly_inside(ranges, pc) for pc in range(len(self.instructions) + 1))

    @cached_property
    def kernels(self) -> tuple:
        """The step kernel of each pc (`machine.build_kernels`), built on
        the first step and then shared by every caller."""
        from . import machine  # machine imports isa

        return machine.build_kernels(self)

    @cached_property
    def region_at(self) -> tuple[tuple[int, ...], ...]:
        """The indices of the regions that hold each pc
        0..len(instructions), ascending."""
        return tuple(
            tuple(i for i, r in enumerate(self.regions) if r.start <= pc < r.end)
            for pc in range(len(self.instructions) + 1)
        )

    @cached_property
    def sym_addr(self) -> dict[str, int]:
        """Link-time layout: the i-th declared data word is at DATA_BASE + 4i."""
        return {name: DATA_BASE + GRANULE_BYTES * i for i, name in enumerate(self.data_words)}

    @cached_property
    def word_index(self) -> dict[int, int]:
        """Address -> memory index; a miss is an unmapped or unaligned address."""
        return {addr: i for i, addr in enumerate(self.sym_addr.values())}

    @cached_property
    def addr_sym(self) -> dict[int, str]:
        """Address -> data symbol, the inverse of `sym_addr`."""
        return {addr: name for name, addr in self.sym_addr.items()}

    def nearest_label(self, index: int) -> str | None:
        """Closest label at or before `index` (latest-declared wins on ties)."""
        best = None
        best_idx = -1
        for name, idx in self.labels.items():
            if best_idx <= idx <= index:
                best, best_idx = name, idx
        return best

    @cached_property
    def listing(self) -> list[tuple[str | None, str]]:
        """Per pc: (nearest label, canonical text), built on first use."""
        return [(self.nearest_label(i), ins.text()) for i, ins in enumerate(self.instructions)]

    @cached_property
    def _sha256(self) -> str:
        return hashlib.sha256(pretty_program(self).encode("utf-8")).hexdigest()

    def sha256(self) -> str:
        """Digest of the canonical listing, computed on first use."""
        return self._sha256


def strictly_inside(ranges: list[tuple[int, int]], pc: int) -> tuple[int, int] | None:
    """The GDB stop-point rule: the range (l, s) of `ranges` with
    l < pc <= s, i.e. past the LDREX but not past the STREX, or None
    when a debugger may stop at `pc`. The LDREX index itself is a legal
    stop point."""
    for l, s in ranges:
        if l < pc <= s:
            return (l, s)
    return None


# Operand kinds per opcode. LDR is resolved to LDR_ADDR/LDR_MEM from the
# second operand's syntax.
_SIGNATURES: dict[str, tuple[str, ...]] = {
    "MOV": ("reg", "reg_or_imm"),
    "LDREX": ("reg", "mem"),
    "STREX": ("reg", "reg", "mem"),
    "STR": ("reg", "mem"),
    "CLREX": (),
    "CMP": ("reg", "reg_or_imm"),
    "ADD": ("reg", "reg", "reg_or_imm"),
    "B": ("label",),
    "BNE": ("label",),
    "BEQ": ("label",),
    "NOP": (),
}

_IDENT = re.compile(r"[A-Za-z_][A-Za-z0-9_]*$")
_REGISTER = re.compile(r"[Rr](\d+)$")
_IMMEDIATE = re.compile(r"#([+-]?\d+)$")
_MEMORY = re.compile(r"\[\s*([Rr]\d+)\s*\]$")
_INT32_MIN, _INT32_MAX = -(2**31), 2**31 - 1


def _strip_comment(line: str) -> str:
    for marker in ("//", "@"):
        pos = line.find(marker)
        if pos >= 0:
            line = line[:pos]
    return line.strip()


def _parse_register(tok: str, lineno: int) -> int:
    m = _REGISTER.match(tok)
    if not m:
        raise AsmError(lineno, f"expected register, got {tok!r}")
    n = int(m.group(1))
    if not 0 <= n < REGISTER_COUNT:
        raise AsmError(lineno, f"register R{n} out of range R0..R{REGISTER_COUNT - 1}")
    return n


def _parse_operand(kind: str, tok: str, lineno: int) -> Operand:
    if kind == "reg":
        return ("reg", _parse_register(tok, lineno))
    if kind == "mem":
        m = _MEMORY.match(tok)
        if not m:
            raise AsmError(lineno, f"expected [Rn] address operand, got {tok!r}")
        return ("mem", _parse_register(m.group(1), lineno))
    if kind == "reg_or_imm":
        m = _IMMEDIATE.match(tok)
        if m:
            value = int(m.group(1))
            if not _INT32_MIN <= value <= _INT32_MAX:
                raise AsmError(lineno, f"immediate {value} does not fit in 32 bits")
            return ("imm", value)
        return ("reg", _parse_register(tok, lineno))
    if kind == "label":
        if not _IDENT.match(tok):
            raise AsmError(lineno, f"expected label name, got {tok!r}")
        return ("label", tok)
    raise AssertionError(kind)


def _split_operands(rest: str) -> list[str]:
    rest = rest.strip()
    if not rest:
        return []
    return [tok.strip() for tok in rest.split(",")]


def parse_program(text: str) -> Program:
    """Parse assembly source into a validated, label-resolved Program.

    Raises AsmError (with the offending line number) on syntax errors,
    unknown opcodes, unresolved or duplicate labels/symbols, malformed
    directives, and regions that partially overlap or hold the entry pc.
    """
    instructions: list[Instruction] = []
    labels: dict[str, int] = {}
    data_words: dict[str, int] = {}
    region_decls: list[tuple[str, str, str, int]] = []
    entry_label: str | None = None
    entry_line = 0

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = _strip_comment(raw)
        if not line:
            continue

        if line.startswith("."):
            fields = line.split()
            directive = fields[0]
            if directive == ".data":
                if len(fields) != 3:
                    raise AsmError(lineno, ".data takes a symbol and an initial value")
                name, value_text = fields[1], fields[2]
                if not _IDENT.match(name):
                    raise AsmError(lineno, f"bad symbol name {name!r}")
                if name in data_words:
                    raise AsmError(lineno, f"duplicate symbol {name!r}")
                try:
                    value = int(value_text, 10)
                except ValueError:
                    raise AsmError(lineno, f"bad initial value {value_text!r}") from None
                if value not in WORD_LITERALS:
                    raise AsmError(lineno, f"initial value {value} does not fit in 32 bits")
                data_words[name] = value & 0xFFFFFFFF
            elif directive == ".region":
                if len(fields) != 4:
                    raise AsmError(lineno, ".region takes a name and two labels")
                name = fields[1]
                if any(name == r[0] for r in region_decls):
                    raise AsmError(lineno, f"duplicate region {name!r}")
                region_decls.append((name, fields[2], fields[3], lineno))
            elif directive == ".entry":
                if len(fields) != 2:
                    raise AsmError(lineno, ".entry takes one label")
                if entry_label is not None:
                    raise AsmError(lineno, "duplicate .entry directive")
                entry_label, entry_line = fields[1], lineno
            else:
                raise AsmError(lineno, f"unknown directive {directive!r}")
            continue

        # Peel off any 'name:' label prefixes, then an optional instruction.
        while True:
            m = re.match(r"([A-Za-z_][A-Za-z0-9_]*)\s*:\s*", line)
            if not m:
                break
            name = m.group(1)
            if name in labels:
                raise AsmError(lineno, f"duplicate label {name!r}")
            labels[name] = len(instructions)
            line = line[m.end():]
        if not line:
            continue

        fields = line.split(None, 1)
        mnemonic = fields[0].upper()
        rest = fields[1] if len(fields) > 1 else ""
        if mnemonic == "LDR":
            toks = _split_operands(rest)
            if len(toks) != 2:
                raise AsmError(lineno, "LDR takes a register and =symbol or [Rn]")
            rd = _parse_operand("reg", toks[0], lineno)
            if toks[1].startswith("="):
                sym = toks[1][1:].strip()
                if not _IDENT.match(sym):
                    raise AsmError(lineno, f"bad symbol reference {toks[1]!r}")
                instructions.append(Instruction("LDR_ADDR", (rd, ("sym", sym)), lineno))
            else:
                addr = _parse_operand("mem", toks[1], lineno)
                instructions.append(Instruction("LDR_MEM", (rd, addr), lineno))
            continue

        if mnemonic not in _SIGNATURES:
            raise AsmError(lineno, f"unknown opcode {fields[0]!r}")
        signature = _SIGNATURES[mnemonic]
        toks = _split_operands(rest)
        if len(toks) != len(signature):
            raise AsmError(
                lineno,
                f"{mnemonic} takes {len(signature)} operand(s), got {len(toks)}",
            )
        operands = tuple(_parse_operand(kind, tok, lineno) for kind, tok in zip(signature, toks))
        instructions.append(Instruction(mnemonic, operands, lineno))

    if not instructions:
        raise AsmError(1, "no instructions")

    # Resolve references now that every label index is known. Labels may
    # point one past the last instruction (a clean exit target).
    for ins in instructions:
        for kind, value in ins.operands:
            if kind == "label" and value not in labels:
                raise AsmError(ins.source_line, f"unresolved label {value!r}")
            if kind == "sym" and value not in data_words:
                raise AsmError(ins.source_line, f"unresolved symbol {value!r}")

    regions: list[Region] = []
    region_lines: dict[str, int] = {}
    for name, start_label, end_label, lineno in region_decls:
        if start_label not in labels:
            raise AsmError(lineno, f"unresolved region label {start_label!r}")
        if end_label not in labels:
            raise AsmError(lineno, f"unresolved region label {end_label!r}")
        start, end = labels[start_label], labels[end_label]
        if start > end:
            raise AsmError(lineno, f"region {name!r} starts after it ends")
        regions.append(Region(name, start_label, end_label, start, end))
        region_lines[name] = lineno
    for a in regions:
        for b in regions:
            if a is b:
                continue
            # Half-open ranges must nest or be disjoint.
            if a.start < b.start < a.end < b.end:
                raise AsmError(
                    region_lines[b.name],
                    f"regions {a.name!r} and {b.name!r} partially overlap",
                )

    entry = 0
    if entry_label is not None:
        if entry_label not in labels:
            raise AsmError(entry_line, f"unresolved entry label {entry_label!r}")
        entry = labels[entry_label]
        if entry >= len(instructions):
            raise AsmError(entry_line, f"entry label {entry_label!r} points past the program")
    for r in regions:  # threads would start inside: crowded at once, or guarding nothing
        if r.start <= entry < r.end:
            raise AsmError(region_lines[r.name], f"region {r.name!r} holds the entry pc {entry}")

    return Program(
        instructions=instructions,
        labels=labels,
        data_words=data_words,
        regions=regions,
        entry=entry,
        entry_label=entry_label,
    )


def pretty_program(program: Program) -> str:
    """Render a Program back to canonical source. Re-parsing the result
    yields an equal Program (source line numbers are not compared)."""
    out = []
    for name, value in program.data_words.items():
        out.append(f".data {name} {value}")
    for r in program.regions:
        out.append(f".region {r.name} {r.start_label} {r.end_label}")
    if program.entry_label is not None:
        out.append(f".entry {program.entry_label}")
    if out:
        out.append("")

    by_index: dict[int, list[str]] = {}
    for name, idx in program.labels.items():
        by_index.setdefault(idx, []).append(name)
    for i, ins in enumerate(program.instructions):
        for name in by_index.get(i, []):
            out.append(f"{name}:")
        out.append(f"    {ins.text()}")
    for name in by_index.get(len(program.instructions), []):
        out.append(f"{name}:")
    return "\n".join(out) + "\n"
