"""Functional (architectural) executor for the mini ISA.

The pipeline model is *execute-at-fetch*: architectural semantics are resolved
in program order when an instruction is fetched, and the pipeline separately
models timing (dependences, latencies, structural hazards).  This is the
standard structure of trace-driven simulators and is exact for programs
without wrong-path side effects, which we do not model (mispredicted branches
gate fetch instead; see :mod:`repro.pipeline.fetch`).

A program is decoded once into a per-pc table of :class:`Op` records: the µop
static fields plus an evaluator specialised to the instruction.
:meth:`ArchExecutor.advance` runs one record; :meth:`~ArchExecutor.step` wraps
it in a :class:`StepResult` and ``ProgramSource.next_row`` emits a µop row
from it.  Evaluators take the registers and memory as arguments and close
over decode-time constants only, so no executor's table reaches another
executor's state.  A malformed instruction still fails only when executed.

Data memory is a sparse dictionary; uninitialized loads return zero.  Writes
to ``$31`` are dropped at decode time, so ``registers[31]`` stays zero.
"""

from __future__ import annotations

import operator
from collections.abc import Callable
from dataclasses import dataclass
from functools import partial
from typing import NamedTuple

from ..errors import ExecutionError
from .instructions import OPCLASS_CODE, Instruction, OpClass
from .program import Program
from .registers import TOTAL_REGS, ZERO_REG


@dataclass(frozen=True)
class StepResult:
    """Outcome of architecturally executing one instruction.

    ``address`` is the effective address for memory operations (else ``None``)
    and ``taken``/``next_pc`` describe control flow.  ``halted`` marks the
    ``halt`` instruction; the PC does not advance past it.
    """

    pc: int
    instruction: Instruction
    address: int | None
    taken: bool
    next_pc: int
    halted: bool = False


#: Record kinds.  A ``SEQUENTIAL`` evaluator returns a memory op's effective
#: address (else ``None``) and the pc moves on by one; a ``BRANCH`` evaluator
#: returns whether it is taken; ``HALT`` leaves the pc where it is.
SEQUENTIAL, BRANCH, HALT = range(3)

#: ALU semantics on (first source, second source or immediate).
_ALU = {
    "li": lambda a, b: b, "mov": lambda a, b: a,
    "addl": operator.add, "addt": operator.add,
    "subl": operator.sub, "subt": operator.sub,
    "mull": operator.mul, "mult": operator.mul,
    "divt": lambda a, b: a // b if b else 0,
    "and": operator.and_, "or": operator.or_, "xor": operator.xor,
    "sll": lambda a, b: a << (b & 63),
    "srl": lambda a, b: (a & ((1 << 64) - 1)) >> (b & 63),
    "cmplt": lambda a, b: 1 if a < b else 0,
}

#: Branch conditions on the source register (``br`` reads ``$31``).
_BRANCH_TEST = {
    "br": lambda value: True,
    "beq": operator.not_,
    "bne": operator.truth,
    "blt": lambda value: value < 0,
    "bge": lambda value: value >= 0,
}


class Op(NamedTuple):
    """One decoded instruction: the µop static fields, then how to run it."""

    kind: int
    opclass: int  #: ``OPCLASS_CODE`` of the instruction's class
    dest: int  #: destination register, or -1
    srcs: tuple[int, ...]  #: ``Instruction.source_registers()``
    evaluate: Callable[[list[int], dict[int, int]], int | bool | None]
    target: int | None
    instruction: Instruction


def _nothing(r: list[int], m: dict[int, int]) -> None:
    return None


def _raise(error: Exception, r: list[int], m: dict[int, int]) -> None:
    raise error


def _evaluator(name: str, pc: int, instruction: Instruction) -> tuple[int, Callable]:
    """``(kind, evaluator)``; raises what executing the instruction would."""
    opcode, opclass, srcs = instruction.opcode, instruction.opclass, instruction.srcs
    dest = None if instruction.dest == ZERO_REG else instruction.dest
    if opclass is OpClass.LOAD or opclass is OpClass.STORE:
        # An absolute address is a displacement from the zero register.
        base = ZERO_REG if instruction.base is None else instruction.base
        imm = instruction.imm
        if opclass is OpClass.STORE:
            data = srcs[0]

            def store(r: list[int], m: dict[int, int]) -> int:
                address = r[base] + imm
                m[address] = r[data]
                return address
            return SEQUENTIAL, store
        if dest is None:
            return SEQUENTIAL, lambda r, m: r[base] + imm

        def load(r: list[int], m: dict[int, int]) -> int:
            address = r[base] + imm
            r[dest] = m.get(address, 0)
            return address
        return SEQUENTIAL, load
    if opclass is OpClass.BRANCH:
        test = _BRANCH_TEST[opcode]
        source = ZERO_REG if opcode == "br" else srcs[0]
        if instruction.target is None:
            raise ExecutionError(f"{name}: unresolved branch at PC {pc}")
        return BRANCH, lambda r, m: test(r[source])
    if opclass is OpClass.NOP:
        return (HALT if opcode == "halt" else SEQUENTIAL), _nothing
    if opcode not in _ALU:
        raise ExecutionError(f"no semantics for opcode {opcode!r}")
    fn, a = _ALU[opcode], ZERO_REG if opcode == "li" else srcs[0]
    if len(srcs) > 1:
        b = srcs[1]

        def evaluate(r: list[int], m: dict[int, int]) -> None:
            r[dest] = fn(r[a], r[b])
    else:
        imm = instruction.imm

        def evaluate(r: list[int], m: dict[int, int]) -> None:
            r[dest] = fn(r[a], imm)
    return SEQUENTIAL, _nothing if dest is None else evaluate


def decode(program: Program) -> dict[int, Op]:
    """The program's op table, keyed by instruction index."""
    table = {}
    for pc, instruction in enumerate(program.instructions):
        try:
            kind, evaluate = _evaluator(program.name, pc, instruction)
            opclass = OPCLASS_CODE[instruction.opclass]
        except (ExecutionError, IndexError, KeyError) as error:
            kind, opclass, evaluate = SEQUENTIAL, -1, partial(_raise, error)
        dest = -1 if instruction.dest is None else instruction.dest
        table[pc] = Op(
            kind, opclass, dest, instruction.source_registers(), evaluate,
            instruction.target, instruction,
        )
    return table


class ArchExecutor:
    """Architectural state plus a step function for one thread."""

    def __init__(self, program: Program) -> None:
        self.program = program
        self.ops = decode(program)
        self.pc = program.entry
        self.registers = [0] * TOTAL_REGS
        self.memory: dict[int, int] = {}
        self.halted = False
        self.instructions_executed = 0

    def read_register(self, reg: int) -> int:
        return 0 if reg == ZERO_REG else self.registers[reg]

    def advance(self) -> tuple[Op, int | bool | None]:
        """Execute the instruction at the current PC and advance; return its
        record and what its evaluator returned (see the record kinds)."""
        if self.halted:
            raise ExecutionError(f"{self.program.name}: stepping a halted thread")
        pc = self.pc
        op = self.ops.get(pc)
        if op is None:
            raise ExecutionError(f"{self.program.name}: PC {pc} outside program")
        value = op.evaluate(self.registers, self.memory)
        self.instructions_executed += 1
        if op.kind == SEQUENTIAL:
            self.pc = pc + 1
        elif op.kind == BRANCH:
            self.pc = op.target if value else pc + 1
        else:
            self.halted = True
        return op, value

    def step(self) -> StepResult:
        """Execute the instruction at the current PC and advance."""
        pc = self.pc
        op, value = self.advance()
        if op.kind == BRANCH:
            return StepResult(pc, op.instruction, None, value, self.pc)
        return StepResult(pc, op.instruction, value, False, self.pc, self.halted)


__all__ = ["ArchExecutor", "Op", "StepResult", "decode"]
