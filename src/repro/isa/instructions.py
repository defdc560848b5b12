"""Instruction definitions for the mini ISA.

The ISA is just large enough to express the paper's malicious kernels
(Figures 1 and 2) and small hand-written test programs: integer and
floating-point arithmetic, loads/stores, and branches.

Each opcode belongs to an :class:`OpClass`, which is what the timing model
cares about (which functional unit, which fixed latency, which shared
resources it touches).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field


class OpClass(enum.Enum):
    """Functional class of an instruction, as seen by the timing model."""

    IALU = "ialu"
    IMULT = "imult"
    FALU = "falu"
    FMULT = "fmult"
    LOAD = "load"
    STORE = "store"
    BRANCH = "branch"
    NOP = "nop"


#: Fixed execution latencies (cycles) per class.  Loads are resolved by the
#: cache hierarchy instead and this value is their minimum (address
#: generation) component.
EXEC_LATENCY = {
    OpClass.IALU: 1,
    OpClass.IMULT: 3,
    OpClass.FALU: 2,
    OpClass.FMULT: 4,
    OpClass.LOAD: 1,
    OpClass.STORE: 1,
    OpClass.BRANCH: 1,
    OpClass.NOP: 1,
}


#: Integer code per class: its declaration order, which is the numbering of
#: the pipeline's ``OP_*`` constants and tables (:mod:`repro.pipeline.uop`).
OPCLASS_CODE = {opclass: code for code, opclass in enumerate(OpClass)}


@dataclass(frozen=True)
class OpSpec:
    """Static description of one opcode."""

    mnemonic: str
    opclass: OpClass
    #: Number of register source operands the textual form takes.
    num_sources: int
    has_dest: bool
    is_conditional: bool = False


_OPS = [
    # Integer ALU (3-operand register or register-immediate forms).
    OpSpec("addl", OpClass.IALU, 2, True),
    OpSpec("subl", OpClass.IALU, 2, True),
    OpSpec("and", OpClass.IALU, 2, True),
    OpSpec("or", OpClass.IALU, 2, True),
    OpSpec("xor", OpClass.IALU, 2, True),
    OpSpec("sll", OpClass.IALU, 2, True),
    OpSpec("srl", OpClass.IALU, 2, True),
    OpSpec("cmplt", OpClass.IALU, 2, True),
    OpSpec("mov", OpClass.IALU, 1, True),
    OpSpec("li", OpClass.IALU, 0, True),
    # Integer multiply.
    OpSpec("mull", OpClass.IMULT, 2, True),
    # Floating point.
    OpSpec("addt", OpClass.FALU, 2, True),
    OpSpec("subt", OpClass.FALU, 2, True),
    OpSpec("mult", OpClass.FMULT, 2, True),
    OpSpec("divt", OpClass.FMULT, 2, True),
    # Memory.
    OpSpec("ldq", OpClass.LOAD, 1, True),
    OpSpec("stq", OpClass.STORE, 2, False),
    # Control.
    OpSpec("br", OpClass.BRANCH, 0, False),
    OpSpec("beq", OpClass.BRANCH, 1, False, is_conditional=True),
    OpSpec("bne", OpClass.BRANCH, 1, False, is_conditional=True),
    OpSpec("blt", OpClass.BRANCH, 1, False, is_conditional=True),
    OpSpec("bge", OpClass.BRANCH, 1, False, is_conditional=True),
    # Misc.
    OpSpec("nop", OpClass.NOP, 0, False),
    OpSpec("halt", OpClass.NOP, 0, False),
]

OPCODES: dict[str, OpSpec] = {spec.mnemonic: spec for spec in _OPS}


@dataclass(frozen=True)
class Instruction:
    """One decoded static instruction.

    ``dest`` and ``srcs`` hold internal register indices (see
    :mod:`repro.isa.registers`); ``None``/empty when absent.  For memory
    operations ``imm`` is the displacement and ``base`` the base register
    (``None`` means an absolute address in ``imm``).  For branches ``target``
    is the instruction index of the branch target after label resolution.
    """

    opcode: str
    dest: int | None = None
    srcs: tuple[int, ...] = field(default=())
    imm: int = 0
    base: int | None = None
    target: int | None = None
    label: str | None = None

    @property
    def spec(self) -> OpSpec:
        return OPCODES[self.opcode]

    @property
    def opclass(self) -> OpClass:
        return OPCODES[self.opcode].opclass

    def source_registers(self) -> tuple[int, ...]:
        """All register indices read by this instruction (incl. mem base)."""
        if self.base is not None:
            return self.srcs + (self.base,)
        return self.srcs

    def __str__(self) -> str:  # pragma: no cover - debugging aid
        from .registers import register_name

        spec = OPCODES[self.opcode]
        parts = [self.opcode]
        operands = []
        if self.dest is not None:
            operands.append(register_name(self.dest))
        operands.extend(register_name(s) for s in self.srcs)
        if self.opclass in (OpClass.LOAD, OpClass.STORE):
            if self.base is not None:
                operands.append(f"{self.imm}({register_name(self.base)})")
            else:
                operands.append(hex(self.imm))
        elif self.opclass is OpClass.BRANCH:
            operands.append(self.label or str(self.target))
        elif self.opcode == "li":
            operands.append(str(self.imm))
        elif spec.num_sources == 2 and len(self.srcs) == 1:
            # Register-immediate ALU form.
            operands.append(str(self.imm))
        if operands:
            parts.append(", ".join(operands))
        return " ".join(parts)
