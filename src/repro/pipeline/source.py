"""Interface between workloads and the pipeline front end.

A workload is a :class:`RowSource`: it emits *rows*, a µop's seven static
fields as a plain tuple in :class:`~repro.pipeline.uop.Uop` constructor
order.  The pipeline reads a :class:`UopSource` — always a
:class:`~repro.pipeline.banks.StreamCursor` over the source's rows, the
one place a row becomes a :class:`Uop`.
"""

from __future__ import annotations

from typing import Protocol, runtime_checkable

from .uop import Uop

#: ``(pc, opclass, dest, srcs, address, taken, mispredict)``.
Row = tuple[int, int, int, tuple[int, ...], int, bool, bool]


@runtime_checkable
class RowSource(Protocol):
    """A workload's static µop stream for one hardware context.

    ``peek_pc`` is the next instruction's byte address; ``next_row``
    consumes it and returns its row, or ``None`` at a halt, after which
    ``peek_pc`` keeps reporting the halt instruction's pc.  ``prefill``
    warms the caches with the source's resident working set.
    """

    def peek_pc(self) -> int: ...

    def next_row(self) -> Row | None: ...

    def prefill(self, hierarchy) -> None: ...


@runtime_checkable
class UopSource(Protocol):
    """A stream of decoded micro-ops for one hardware context.

    ``peek_pc`` must return the byte address of the next instruction *without*
    consuming it (fetch uses it to model I-cache timing before committing to
    the fetch), and ``next_uop`` consumes and returns the instruction, or
    ``None`` when the program has halted.
    """

    def peek_pc(self) -> int:
        """Byte address of the next instruction to be fetched."""
        ...

    def next_uop(self) -> Uop | None:
        """Consume and return the next micro-op (``None`` once halted)."""
        ...
