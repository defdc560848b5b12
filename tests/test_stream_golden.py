"""Stored µop streams and one executor trace, checked against ``tests/golden/streams/``.

The RunResult goldens (``tests/test_golden.py``) pin whole simulations, so a
change to µop generation shows there only as some shifted counter.  These
goldens pin the source itself, call by call:

* the µops the pipeline reads, through the
  :class:`~repro.pipeline.banks.StreamCursor` every core fetches from, for
  each attack kernel on thread 1, for ``idle`` on thread 0 (plus a
  ``variant2`` window over its burst-to-miss phase change, where the
  relocated conflict loads first appear) and for the synthetic ``gzip``
  and ``mcf`` on thread 0.  One line per ``next_uop`` call: the pc
  ``peek_pc`` reported before it, then the µop's seven static fields, or
  ``None`` once the program has halted.  For a
  :class:`~repro.workloads.program_source.ProgramSource` the last line
  holds its ``branches`` and ``mispredicts`` counts.
* an all-opcodes program stepped to halt on a bare
  :class:`~repro.isa.ArchExecutor`: every ``StepResult`` plus the final
  registers, memory and instruction count.

Regenerate (only when a change is meant to alter µop streams) with::

    PYTHONPATH=src python tests/test_stream_golden.py --write
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

from repro.config import scaled_config
from repro.isa import ArchExecutor, assemble
from repro.pipeline.banks import stream_cursor
from repro.workloads import ProgramSource, make_source

STREAMS = Path(__file__).resolve().parent / "golden" / "streams"

#: µops recorded per stream.
STREAM_LENGTH = 4096

#: ``label → (workload, thread, µops skipped before recording)``.
STREAM_CASES = {
    "variant1-t1": ("variant1", 1, 0),
    "variant2-t1": ("variant2", 1, 0),
    "variant3-t1": ("variant3", 1, 0),
    "idle-t0": ("idle", 0, 0),
    # 1675 burst iterations of 18 µops end near µop 30,150.
    "variant2-t1-from-28672": ("variant2", 1, 28_672),
    "gzip-t0": ("gzip", 0, 0),
    "mcf-t0": ("mcf", 0, 0),
}

#: Every opcode and operand form the ISA has, run straight through to halt.
ALL_OPCODES = """
        li    $1, 7
        li    $2, -3
        li    $20, 0x200
        li    $31, 99            # writes to the zero register are dropped
        addl  $31, $1, 1
        mov   $3, $1
        addl  $4, $1, $2
        addl  $5, $1, 100
        subl  $6, $1, $2
        subl  $7, $2, 5
        mull  $8, $1, $2
        mull  $9, $2, -4
        and   $10, $1, 6
        or    $11, $1, $2
        xor   $12, $1, $2
        sll   $13, $1, 65        # shift count masked to 1
        sll   $14, $2, $1
        srl   $15, $2, 60        # negative operand masked to 64 bits
        srl   $16, $1, 66
        cmplt $17, $2, $1
        cmplt $18, $1, $2
        cmplt $19, $1, 7
        li    $f1, 9
        li    $f2, -2
        addt  $f3, $f1, $f2
        subt  $f4, $f1, 4
        mult  $f5, $f1, $f2
        divt  $f6, $f1, $f2
        divt  $f7, $f1, $f0      # division by zero yields 0
        divt  $f8, $f1, 0
        nop
        stq   $1, 0x100
        stq   $2, 8($20)
        stq   $31, 16($20)
        stq   $f5, -8($20)
        ldq   $21, 0x100
        ldq   $22, 8($20)
        ldq   $23, 0x999         # never written: reads 0
        ldq   $31, 0x100
        ldq   $f9, -8($20)
        br    B1
        li    $25, 111
B1:     beq   $31, B2
        li    $25, 222
B2:     beq   $1, X
        bne   $1, B3
        li    $25, 333
B3:     bne   $31, X
        blt   $2, B4
        li    $25, 444
B4:     blt   $1, X
        bge   $1, B5
        li    $25, 555
B5:     bge   $2, X
        li    $26, 3
L:      subl  $26, $26, 1
        bne   $26, L
X:      halt
"""


def stream_lines(workload: str, thread: int, skip: int) -> list[str]:
    config = scaled_config(time_scale=8_000.0, quantum_cycles=8_000, seed=42)
    cursor = stream_cursor(
        thread, make_source(workload, thread, config.machine, config.thermal)
    )
    for _ in range(skip):
        cursor.next_uop()
    lines = []
    for _ in range(STREAM_LENGTH):
        peek = cursor.peek_pc()
        uop = cursor.next_uop()
        if uop is None:
            lines.append(f"{peek} None")
            continue
        srcs = ",".join(map(str, uop.srcs)) or "-"
        lines.append(
            f"{peek} {uop.pc} {uop.opclass} {uop.dest} {srcs} {uop.address} "
            f"{int(uop.taken)} {int(uop.mispredict)}"
        )
    source = cursor.stream.source
    if isinstance(source, ProgramSource):
        lines.append(
            f"branches {source.branches} mispredicts {source.mispredicts}"
        )
    return lines


def stream_text(label: str) -> str:
    return "\n".join(stream_lines(*STREAM_CASES[label])) + "\n"


def executor_text() -> str:
    executor = ArchExecutor(assemble(ALL_OPCODES, name="all-opcodes"))
    steps = []
    while not executor.halted:
        result = executor.step()
        steps.append([
            result.pc, result.instruction.opcode, result.address,
            result.taken, result.next_pc, result.halted,
        ])
    final = {
        "steps": steps,
        "registers": executor.registers,
        "memory": sorted(executor.memory.items()),
        "instructions_executed": executor.instructions_executed,
        "pc": executor.pc,
    }
    return json.dumps(final, indent=None, separators=(",", ":")) + "\n"


def golden_texts() -> dict[str, str]:
    texts = {f"{label}.txt": stream_text(label) for label in STREAM_CASES}
    texts["all-opcodes.json"] = executor_text()
    return texts


def test_golden_files_cover_the_cases():
    names = {f"{label}.txt" for label in STREAM_CASES} | {"all-opcodes.json"}
    assert {path.name for path in STREAMS.iterdir()} == names


@pytest.mark.parametrize("label", sorted(STREAM_CASES))
def test_program_source_stream_matches_golden(label):
    assert stream_text(label) == (STREAMS / f"{label}.txt").read_text()


def test_all_opcodes_program_matches_golden():
    assert executor_text() == (STREAMS / "all-opcodes.json").read_text()


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: PYTHONPATH=src python tests/test_stream_golden.py --write")
    STREAMS.mkdir(parents=True, exist_ok=True)
    for name, text in golden_texts().items():
        (STREAMS / name).write_text(text)
