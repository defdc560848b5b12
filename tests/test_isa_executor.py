"""Functional executor tests: semantics, control flow, memory, halting."""

import pytest

from repro.errors import ExecutionError
from repro.isa import ArchExecutor, Instruction, Program, assemble
from repro.isa.registers import ZERO_REG


def run_to_halt(source, max_steps=10_000):
    executor = ArchExecutor(assemble(source))
    steps = 0
    while not executor.halted and steps < max_steps:
        executor.step()
        steps += 1
    assert executor.halted, "program did not halt"
    return executor


class TestArithmetic:
    def test_add_chain(self):
        executor = run_to_halt("li $1, 5\nli $2, 7\naddl $3, $1, $2\nhalt")
        assert executor.registers[3] == 12

    def test_immediate_form(self):
        executor = run_to_halt("li $1, 5\naddl $2, $1, 10\nhalt")
        assert executor.registers[2] == 15

    @pytest.mark.parametrize(
        "op,a,b,expected",
        [
            ("subl", 9, 4, 5),
            ("mull", 6, 7, 42),
            ("and", 0b1100, 0b1010, 0b1000),
            ("or", 0b1100, 0b1010, 0b1110),
            ("xor", 0b1100, 0b1010, 0b0110),
            ("sll", 3, 2, 12),
            ("srl", 12, 2, 3),
            ("cmplt", 3, 5, 1),
            ("cmplt", 5, 3, 0),
        ],
    )
    def test_binary_ops(self, op, a, b, expected):
        executor = run_to_halt(f"li $1, {a}\nli $2, {b}\n{op} $3, $1, $2\nhalt")
        assert executor.registers[3] == expected

    def test_zero_register_reads_zero(self):
        executor = run_to_halt("li $31, 99\naddl $1, $31, 1\nhalt")
        assert executor.read_register(ZERO_REG) == 0
        assert executor.registers[1] == 1

    def test_mov_copies(self):
        executor = run_to_halt("li $1, 42\nmov $2, $1\nhalt")
        assert executor.registers[2] == 42


class TestControlFlow:
    def test_counted_loop(self):
        executor = run_to_halt(
            """
                li $1, 0
                li $2, 5
            loop:
                addl $1, $1, 1
                subl $2, $2, 1
                bne $2, loop
                halt
            """
        )
        assert executor.registers[1] == 5

    def test_beq_not_taken_falls_through(self):
        executor = run_to_halt("li $1, 1\nbeq $1, skip\nli $2, 7\nskip: halt")
        assert executor.registers[2] == 7

    def test_beq_taken_skips(self):
        executor = run_to_halt("li $1, 0\nbeq $1, skip\nli $2, 7\nskip: halt")
        assert executor.registers[2] == 0

    def test_blt_bge(self):
        executor = run_to_halt(
            "li $1, -3\nblt $1, neg\nli $2, 1\nhalt\nneg: li $2, 2\nhalt"
        )
        assert executor.registers[2] == 2

    def test_step_result_reports_taken_and_next_pc(self):
        executor = ArchExecutor(assemble("br target\nnop\ntarget: halt"))
        result = executor.step()
        assert result.taken is True
        assert result.next_pc == 2


class TestMemory:
    def test_store_then_load(self):
        executor = run_to_halt(
            "li $1, 123\nli $2, 0x100\nstq $1, 0($2)\nldq $3, 0($2)\nhalt"
        )
        assert executor.registers[3] == 123

    def test_uninitialized_load_returns_zero(self):
        executor = run_to_halt("ldq $1, 0x500\nhalt")
        assert executor.registers[1] == 0

    def test_effective_address_base_plus_displacement(self):
        executor = ArchExecutor(assemble("li $2, 0x100\nldq $1, 8($2)\nhalt"))
        executor.step()
        result = executor.step()
        assert result.address == 0x108

    def test_absolute_address(self):
        executor = ArchExecutor(assemble("ldq $1, 0x4000\nhalt"))
        assert executor.step().address == 0x4000


class TestHalting:
    def test_halt_sets_flag_and_freezes_pc(self):
        executor = ArchExecutor(assemble("halt"))
        result = executor.step()
        assert result.halted is True
        assert executor.halted is True

    def test_stepping_after_halt_raises(self):
        executor = ArchExecutor(assemble("halt"))
        executor.step()
        with pytest.raises(ExecutionError):
            executor.step()

    def test_pc_out_of_range_raises(self):
        executor = ArchExecutor(assemble("nop"))
        executor.step()
        with pytest.raises(ExecutionError):
            executor.step()

    def test_instruction_count(self):
        executor = run_to_halt("nop\nnop\nhalt")
        assert executor.instructions_executed == 3


class TestLazyErrors:
    """Decoding happens up front, but a bad instruction still fails only
    when it is executed."""

    def test_unresolved_branch_raises_when_executed(self):
        program = Program([Instruction("nop"), Instruction("br", label="nowhere")])
        executor = ArchExecutor(program)
        executor.step()
        with pytest.raises(ExecutionError, match="unresolved branch at PC 1"):
            executor.step()
        assert executor.pc == 1 and executor.instructions_executed == 1

    def test_unknown_opcode_raises_when_executed(self):
        executor = ArchExecutor(Program([Instruction("nop"), Instruction("bogus")]))
        executor.step()
        with pytest.raises(KeyError):
            executor.step()

    def test_program_source_raises_past_the_end(self):
        from repro.workloads.program_source import ProgramSource

        source = ProgramSource(assemble("nop"), 0)
        assert source.next_row() is not None
        with pytest.raises(ExecutionError, match="outside program"):
            source.next_row()
