from __future__ import annotations

import hashlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spinsim.isa import AsmError, parse_program, pretty_program

CORPUS = [
    "lock_basic.s",
    "lock_regcmp.s",
    "lock_no_ll_branch.s",
    "unlocked_inc.s",
    "lock_unlock.s",
]


def test_bare_lock_routine_shape(load_corpus):
    """The acquire/release routine is 11 instructions under 4 labels."""
    p = load_corpus("lock_unlock.s")
    assert len(p.instructions) == 11
    assert set(p.labels) == {"lock", "retry", "critical_section", "unlock"}
    assert p.labels["lock"] == p.labels["retry"] == 0
    # empty critical section: both region labels land on the same index
    (region,) = p.regions
    assert region.start == region.end


def test_empty_source_is_an_error():
    with pytest.raises(AsmError, match="no instructions"):
        parse_program("")
    with pytest.raises(AsmError, match="no instructions"):
        parse_program("// only comments\n@ and more\n")


def test_missing_operand_names_line():
    with pytest.raises(AsmError, match="line 3"):
        parse_program("start:\n    MOV R1, #0\n    CMP R8\n")


@pytest.mark.parametrize("name", CORPUS)
def test_round_trip(load_corpus, name):
    p = load_corpus(name)
    assert parse_program(pretty_program(p)) == p


def test_parse_is_deterministic(corpus_file):
    text = corpus_file("lock_regcmp.s").read_text()
    assert parse_program(text) == parse_program(text)


def test_label_prefix_and_own_line_forms():
    p = parse_program("loop: MOV R0, #1\nexit:\n    B exit\n")
    assert p.labels == {"loop": 0, "exit": 1}


def test_label_may_point_past_the_last_instruction():
    p = parse_program("    B done\ndone:\n")
    assert p.labels["done"] == 1


def test_register_operand_forms():
    p = parse_program("    MOV R0, R12\n    ADD R1, R2, #-7\n    CMP R3, R4\n")
    assert p.instructions[0].operands == (("reg", 0), ("reg", 12))
    assert p.instructions[1].operands == (("reg", 1), ("reg", 2), ("imm", -7))


def test_ldr_forms_are_distinct_opcodes():
    p = parse_program(".data x 5\n    LDR R1, =x\n    LDR R2, [R1]\n")
    assert p.instructions[0].opcode == "LDR_ADDR"
    assert p.instructions[1].opcode == "LDR_MEM"
    assert pretty_program(p).count("LDR ") == 2


@pytest.mark.parametrize(
    "line, pattern",
    [
        ("LDRB R1, [R2]", "unknown opcode"),
        ("MOVNE R1, #0", "unknown opcode"),
        ("LSL R1, R2, #3", "unknown opcode"),
        ("BGT somewhere", "unknown opcode"),
        ("MOV R13, #0", "out of range"),
        ("MOV R1", "takes 2 operand"),
        ("STREX R2, R9", "takes 3 operand"),
        ("LDREX R8, R10", r"expected \[Rn\]"),
        ("B #4", "expected label"),
    ],
)
def test_unsupported_forms_fail_loudly(line, pattern):
    with pytest.raises(AsmError, match=pattern):
        parse_program(f"    {line}\n")


def test_unresolved_references():
    with pytest.raises(AsmError, match="unresolved label 'nowhere'"):
        parse_program("    B nowhere\n")
    with pytest.raises(AsmError, match="unresolved symbol 'ghost'"):
        parse_program("    LDR R1, =ghost\n")


def test_duplicate_label_and_symbol():
    with pytest.raises(AsmError, match="duplicate label"):
        parse_program("a:\n    NOP\na:\n    NOP\n")
    with pytest.raises(AsmError, match="duplicate symbol"):
        parse_program(".data x 1\n.data x 2\n    NOP\n")


def test_malformed_directives():
    with pytest.raises(AsmError, match=".data takes"):
        parse_program(".data x\n    NOP\n")
    with pytest.raises(AsmError, match="bad initial value"):
        parse_program(".data x ten\n    NOP\n")
    with pytest.raises(AsmError, match="unknown directive"):
        parse_program(".word x 1\n    NOP\n")
    with pytest.raises(AsmError, match="unresolved region label"):
        parse_program(".region r a b\n    NOP\n")


def test_region_rules():
    # start after end is rejected
    with pytest.raises(AsmError, match="starts after it ends"):
        parse_program(".region r b a\na:\n    NOP\nb:\n    NOP\n")
    # partial overlap is rejected, nesting is fine
    bad = (
        ".region one a c\n.region two b d\n"
        "a:\n    NOP\nb:\n    NOP\nc:\n    NOP\nd:\n    NOP\n"
    )
    with pytest.raises(AsmError, match="partially overlap"):
        parse_program(bad)
    nested = (
        ".region outer a d\n.region inner b c\n"
        "    NOP\na:\n    NOP\nb:\n    NOP\nc:\n    NOP\nd:\n    NOP\n"
    )
    assert parse_program(nested).region_at == ((), (0,), (0, 1), (0,), (), ())
    # a region may not hold the entry pc: threads would start inside it
    with pytest.raises(AsmError, match="line 1: region 'r' holds the entry pc 0"):
        parse_program(".region r a b\na:\n    NOP\nb:\n    NOP\n")
    with pytest.raises(AsmError, match="line 2: region 'r' holds the entry pc 1"):
        parse_program(".entry b\n.region r b c\n    NOP\nb:\n    NOP\nc:\n")
    # an empty region holds no pc, not even the entry
    assert parse_program(".region r a a\na:\n    NOP\n").region_at == ((), ())


def test_entry_directive():
    p = parse_program(".entry go\n    NOP\ngo:\n    NOP\n")
    assert p.entry == 1
    with pytest.raises(AsmError, match="unresolved entry label"):
        parse_program(".entry gone\n    NOP\n")


def test_program_sha256_is_the_pretty_listing_digest_computed_once(load_corpus):
    p = load_corpus("lock_regcmp.s")
    want = hashlib.sha256(pretty_program(p).encode("utf-8")).hexdigest()
    assert p.sha256() == want
    assert p.sha256() is p.sha256()
    assert parse_program(pretty_program(p)).sha256() == want


def test_exclusive_range_pairing(load_corpus):
    assert load_corpus("lock_regcmp.s").exclusive_ranges() == [(2, 6)]
    # orphan exclusives produce no range; lint reports them
    assert parse_program("    LDREX R1, [R2]\n").exclusive_ranges() == []
    assert parse_program("    STREX R1, R2, [R3]\n").exclusive_ranges() == []


def test_comments_and_case():
    p = parse_program("    mov r1, #2  // trailing\n    NOP @ other style\n")
    assert p.instructions[0].opcode == "MOV"
    assert len(p.instructions) == 2


_GOOD_LINES = st.sampled_from(
    [
        "LDR R10, =lockVar", "LDREX R8, [R10]", "CMP R8, #0", "BNE lock", "MOV R9, #1",
        "STREX R2, R9, [R10]", "STR R4, [R10]", "ADD R4, R4, #-5", "CLREX", "NOP", "B done",
        "BEQ lock", "lock:", "done:", "a: b: NOP", ".data lockVar 0", ".region r lock done",
        ".entry lock", "// note", "@ note",
    ]
)
_BAD_LINES = st.one_of(
    st.sampled_from(
        [
            "MOV R13, #1", "CMP R1, #4294967296", "LDR R1, [R1", "LDR R1, =", "BGT lock",
            "B nowhere", "STREX R2, R9", "lock:", ".data x -2147483649", ".data x", ".data 9 1",
            ".region r done lock", ".region s lock nowhere", ".entry done", ".entry nowhere",
            ".text", "9:",
        ]
    ),
    st.text(max_size=8),
)
# One line in ten is malformed, so well-formed programs with deep
# structure (labels, regions, entries) are generated too.
_SOURCES = st.lists(
    st.integers(0, 9).flatmap(lambda k: _BAD_LINES if k == 5 else _GOOD_LINES), max_size=12
).map("\n".join)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(source=_SOURCES)
def test_parse_program_raises_only_asm_error(source):
    """Token soup either parses, and then round-trips through the pretty
    printer, or fails with AsmError; no other exception escapes."""
    try:
        program = parse_program(source)
    except AsmError:
        return
    assert parse_program(pretty_program(program)) == program
