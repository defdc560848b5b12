"""Per-context state of the SMT pipeline."""

from __future__ import annotations

from collections import deque

from ..isa.registers import TOTAL_REGS
from .banks import StreamCursor
from .uop import Uop, fork_uop


class ThreadContext:
    """One hardware thread: front-end state, ROB, and run-state flags.

    ``source`` is the thread's :class:`~repro.pipeline.banks.StreamCursor`,
    the only way the pipeline reads µops.

    Run-state flags and what sets them:

    * ``sedated`` — selective sedation stops fetching from this thread
      (:mod:`repro.core.sedation`).
    * ``fetch_blocked_until`` — transient front-end stalls: I-cache miss
      refill or the post-misprediction redirect bubble.
    * ``mispredict_gate`` — a mispredicted branch in flight; fetch resumes
      (after the redirect penalty) when it resolves.
    * ``miss_block`` — an outstanding L2-missing load; the paper's
      squash-on-L2-miss optimization gates fetch and dispatch so the thread
      cannot clog the shared issue queue.
    * ``throttle_modulus`` — throttled sedation (an ablation of the paper's
      full fetch gate): when nonzero, the thread may fetch only on cycles
      divisible by the modulus.
    * ``paused`` — the workload itself has gone quiet: the intermittent
      attacker's off phase (:class:`repro.faults.injectors.AttackerGate`).
      Distinct from ``sedated`` so the defense's view (who did *it* gate)
      never conflates with the attacker's own duty cycling.
    """

    __slots__ = (
        "tid",
        "source",
        "fetch_queue",
        "rob",
        "writer_table",
        "icount",
        "sedated",
        "paused",
        "throttle_modulus",
        "fetch_blocked_until",
        "mispredict_gate",
        "miss_block",
        "halted",
        "fetched",
        "committed",
        "mem_ops_in_flight",
        "last_fetch_line",
        "cycles_normal",
        "cycles_cooling",
        "cycles_sedated",
    )

    def __init__(self, tid: int, source: StreamCursor) -> None:
        self.tid = tid
        self.source = source
        self.fetch_queue: deque[tuple[int, Uop]] = deque()
        self.rob: deque[Uop] = deque()
        self.writer_table: list[Uop | None] = [None] * TOTAL_REGS
        self.icount = 0
        self.sedated = False
        self.paused = False
        self.throttle_modulus = 0
        self.fetch_blocked_until = 0
        self.mispredict_gate: Uop | None = None
        self.miss_block: Uop | None = None
        self.halted = False
        self.fetched = 0
        self.committed = 0
        self.mem_ops_in_flight = 0
        self.last_fetch_line = -1
        self.cycles_normal = 0
        self.cycles_cooling = 0
        self.cycles_sedated = 0

    def fork(self, memo: dict[int, Uop]) -> "ThreadContext":
        """Mid-run clone for a pipeline fork (see :meth:`SMTCore.fork`).

        Every in-flight uop reachable from this context (fetch queue, ROB,
        writer table, gating pointers) is cloned through the shared
        ``memo`` so the forked pipeline preserves the original's object
        identities among its own twins.  The source is a stream cursor,
        which forks in O(1) at the same stream position.
        """
        clone = ThreadContext.__new__(ThreadContext)
        clone.tid = self.tid
        clone.source = self.source.fork()
        clone.fetch_queue = deque(
            (ready, fork_uop(uop, memo)) for ready, uop in self.fetch_queue
        )
        clone.rob = deque(fork_uop(uop, memo) for uop in self.rob)
        clone.writer_table = [
            None if uop is None else fork_uop(uop, memo)
            for uop in self.writer_table
        ]
        clone.icount = self.icount
        clone.sedated = self.sedated
        clone.paused = self.paused
        clone.throttle_modulus = self.throttle_modulus
        clone.fetch_blocked_until = self.fetch_blocked_until
        gate = self.mispredict_gate
        clone.mispredict_gate = None if gate is None else fork_uop(gate, memo)
        block = self.miss_block
        clone.miss_block = None if block is None else fork_uop(block, memo)
        clone.halted = self.halted
        clone.fetched = self.fetched
        clone.committed = self.committed
        clone.mem_ops_in_flight = self.mem_ops_in_flight
        clone.last_fetch_line = self.last_fetch_line
        clone.cycles_normal = self.cycles_normal
        clone.cycles_cooling = self.cycles_cooling
        clone.cycles_sedated = self.cycles_sedated
        return clone

    def ipc(self, cycles: int) -> float:
        """Committed instructions per cycle over ``cycles``."""
        if cycles <= 0:
            return 0.0
        return self.committed / cycles
