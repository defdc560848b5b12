"""Adapter: run an assembled program as a pipeline row source.

Architectural semantics come from the op table that
:class:`~repro.isa.executor.ArchExecutor` decodes once per program
(execute-at-fetch): :meth:`ProgramSource.next_row` advances the executor by
one record and emits the row of that record's static fields, with no
per-µop re-interpretation of the instruction.  Branch timing comes from a
real tournament predictor, private to the source so its stream never
depends on the other thread's fetch order — the malicious kernels are
tight loops whose branches train to near-perfect prediction, matching the
paper (heat stroke owes nothing to mispredictions).

Address-space placement: each hardware context gets a disjoint 2³²-byte
region.  Offsets that are multiples of ``num_sets × line_bytes`` preserve
cache-set mappings for every (power-of-two) cache in the hierarchy, so the
Figure-2 kernel's same-set conflict addresses still collide after relocation.
"""

from __future__ import annotations

from ..branch import BranchPredictor
from ..isa.executor import HALT, SEQUENTIAL, ArchExecutor
from ..isa.program import Program
from ..pipeline.source import Row

#: Byte size of one encoded instruction (fixed-width ISA).
INSTRUCTION_BYTES = 4

#: Offset of the code region within a thread's address-space slice.  A
#: multiple of every cache's (num_sets × line_bytes), so set mappings of
#: data addresses are unchanged.
CODE_REGION_OFFSET = 1 << 30

THREAD_REGION_BYTES = 1 << 32


class ProgramSource:
    """Feed an assembled program into one SMT context."""

    def __init__(self, program: Program, thread_id: int) -> None:
        self.program = program
        self.thread_id = thread_id
        self.predictor = BranchPredictor(num_threads=1)
        base = thread_id * THREAD_REGION_BYTES
        self._code_base = base + CODE_REGION_OFFSET
        self._data_base = base
        self.executor = ArchExecutor(program)
        self.branches = 0
        self.mispredicts = 0

    def peek_pc(self) -> int:
        # A halt leaves the executor's pc on the halt instruction, so after
        # next_row refuses it this still reports its pc (the stream's
        # halt_peek_pc).
        return self._code_base + self.executor.pc * INSTRUCTION_BYTES

    def prefill(self, hierarchy) -> None:
        """Warm the instruction path with the (tiny) kernel code.

        Data addresses are deliberately not prefilled: the Figure-2 conflict
        set must miss, and that is a property of the addresses, not of a
        cold cache.
        """
        line = hierarchy.l1i.config.line_bytes
        code_bytes = len(self.program) * INSTRUCTION_BYTES
        for offset in range(0, code_bytes + line, line):
            address = self._code_base + offset
            hierarchy.l1i.fill(address)
            hierarchy.l2.fill(address)

    def next_row(self) -> Row | None:
        executor = self.executor
        if executor.halted:
            return None
        pc_bytes = self._code_base + executor.pc * INSTRUCTION_BYTES
        (kind, opclass, dest, srcs, _, _, _), value = executor.advance()
        if kind == SEQUENTIAL:
            address = -1 if value is None else self._data_base + value
            return (pc_bytes, opclass, dest, srcs, address, False, False)
        if kind == HALT:
            return None
        target_bytes = self._code_base + executor.pc * INSTRUCTION_BYTES
        correct = self.predictor.update(0, pc_bytes, value, target_bytes)
        self.branches += 1
        if not correct:
            self.mispredicts += 1
        return (pc_bytes, opclass, dest, srcs, -1, value, not correct)
