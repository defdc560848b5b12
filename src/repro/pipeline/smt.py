"""Cycle-level SMT out-of-order core.

The model follows the paper's SimpleScalar-derived SMT (Table 1): ICOUNT
fetch from up to two threads per cycle, a unified 128-entry issue window
(RUU) freed at commit, a 32-entry LSQ, 6-wide issue/commit, and the
squash-on-L2-miss optimization ("common in commercial SMT processors") that
keeps a thread with an outstanding L2 miss from clogging the shared window.

Approximations (all standard for trace-driven SMT models, and none touching
the phenomena the paper studies):

* **Execute-at-fetch** — architectural semantics resolve at fetch; the
  pipeline models timing only.  Mispredicted branches gate the thread's fetch
  until resolution plus a redirect penalty instead of simulating wrong-path
  instructions.
* **L2-miss gating** — the "squash" is modeled by gating fetch *and* dispatch
  of the missing thread the moment the miss is discovered (at dispatch), so
  at most one dispatch group of younger instructions occupies the window.
  This preserves exactly what the optimization is for: the shared RUU stays
  available to the other thread.
* **Stores** retire into a write buffer after address generation; their cache
  fills happen at dispatch.

Every structural access is counted per (thread, block) into cumulative
counters (:attr:`SMTCore.access_counts`); the power accountant and the
sedation usage monitor snapshot them at their own intervals.

:meth:`SMTCore.run_cycles` is the only pipeline loop: each cycle runs
complete → commit → issue → dispatch → fetch inline, over state held in
locals for the length of the call (:meth:`SMTCore.step` is
``run_cycles(1)``).  Counters nobody reads inside a cycle are bumped once
per group: rename and window writes once per thread's dispatch group, and
``icount``/``fetched`` once per fetch block.
"""

from __future__ import annotations

import copy

from ..blocks import (
    BPRED,
    DCACHE,
    FALU,
    FMULT,
    IALU,
    ICACHE,
    IMULT,
    INT_RF,
    FP_RF,
    L2,
    LSQ,
    NUM_BLOCKS,
    RENAME,
    WINDOW,
)
from ..config import MachineConfig
from ..errors import PipelineError
from ..isa.registers import FP_BASE, TOTAL_REGS
from ..memory import MemLevel, MemoryHierarchy
from .banks import StreamCursor
from .fetch import make_fetch_selector
from .thread import ThreadContext
from .uop import OP_BRANCH, OP_STORE, Uop, fork_uop

#: opclass -> functional-resource pool index
#: pools: 0=int ALUs (branches share), 1=int mult, 2=FP units, 3=mem ports,
#: 4=unlimited
_RESOURCE_OF = (0, 1, 2, 2, 3, 3, 0, 4)

#: opclass -> floorplan block heated by execution (or -1)
_EXEC_BLOCK_OF = (IALU, IMULT, FALU, FMULT, -1, -1, IALU, -1)

#: bound once: an enum member lookup costs more than a module global
_L1 = MemLevel.L1
_MEMORY = MemLevel.MEMORY

#: architectural register -> register-file block it is read from or written to
_RF_OF = tuple(FP_RF if reg >= FP_BASE else INT_RF for reg in range(TOTAL_REGS))


class SMTCore:
    """The SMT pipeline: complete, commit, issue, dispatch, fetch per cycle."""

    def __init__(
        self,
        config: MachineConfig,
        sources: list[StreamCursor],
        hierarchy: MemoryHierarchy | None = None,
    ) -> None:
        if len(sources) != config.num_threads:
            raise PipelineError(
                f"need {config.num_threads} uop sources, got {len(sources)}"
            )
        self.config = config
        self.hierarchy = hierarchy or MemoryHierarchy(config)
        self.threads = [ThreadContext(i, src) for i, src in enumerate(sources)]
        self.cycle = 0
        self.window_used = 0
        self.lsq_used = 0
        self.ready: list[Uop] = []
        self._wheel: dict[int, list[Uop]] = {}
        self._select = make_fetch_selector(config.fetch_policy)
        #: cumulative per-thread per-block access counts
        self.access_counts = [[0] * NUM_BLOCKS for _ in range(config.num_threads)]
        #: cycles fast-forwarded because the core was provably idle
        self.perf_idle_skipped = 0
        #: cycles skipped wholesale via :meth:`skip_cycles` (global stalls)
        self.perf_stall_skipped = 0
        #: optional telemetry session; None keeps the hot loop branch-free
        #: beyond a single ``is not None`` test per idle skip
        self.telemetry = None

    # -- forking (cohort splits) --------------------------------------------

    def fork(self) -> "SMTCore":
        """Mid-run structured clone for lock-step cohort splitting.

        Behaviorally equivalent to ``copy.deepcopy(self)`` — the forked
        core continues byte-identically — but it walks only live pipeline
        state: the in-flight uop graph (a few hundred objects) is cloned
        through one identity-preserving memo, caches copy their tag lists,
        and immutable structure (config, shared uop-stream columns) is
        shared.  Each thread's stream cursor forks in O(1).

        Telemetry sessions are intentionally not forkable: batchable specs
        never carry telemetry, and silently sharing a sink between sibling
        pipelines would interleave their event streams.
        """
        if self.telemetry is not None:
            raise PipelineError("cannot fork a core with telemetry attached")
        clone = SMTCore.__new__(SMTCore)
        clone.config = self.config
        clone.hierarchy = self.hierarchy.fork()
        memo: dict[int, Uop] = {}
        clone.threads = [thread.fork(memo) for thread in self.threads]
        clone.cycle = self.cycle
        clone.window_used = self.window_used
        clone.lsq_used = self.lsq_used
        clone.ready = [fork_uop(uop, memo) for uop in self.ready]
        clone._wheel = {
            when: [fork_uop(uop, memo) for uop in uops]
            for when, uops in self._wheel.items()
        }
        # Selectors may be stateful (round-robin rotation); deepcopy keeps
        # each side's rotation independent (plain functions copy to
        # themselves).
        clone._select = copy.deepcopy(self._select)
        clone.access_counts = [list(counts) for counts in self.access_counts]
        clone.perf_idle_skipped = self.perf_idle_skipped
        clone.perf_stall_skipped = self.perf_stall_skipped
        clone.telemetry = None
        return clone

    # -- external control (DTM hooks) ---------------------------------------

    def set_sedated(self, tid: int, sedated: bool) -> None:
        """Sedate (stop fetching) or release one thread."""
        self.threads[tid].sedated = sedated

    def set_throttled(self, tid: int, modulus: int) -> None:
        """Throttle one thread's fetch to 1-in-``modulus`` cycles (0 = off)."""
        if modulus < 0:
            raise PipelineError("throttle modulus must be >= 0")
        self.threads[tid].throttle_modulus = modulus

    def set_paused(self, tid: int, paused: bool) -> None:
        """Pause (the workload goes quiet) or resume one thread's fetch.

        Used by the intermittent-attacker gate (:mod:`repro.faults`): unlike
        :meth:`set_sedated` this models the *workload's own* off phase, so
        the sedation controller's per-thread state is untouched.
        """
        self.threads[tid].paused = paused

    def sedated_threads(self) -> list[int]:
        return [t.tid for t in self.threads if t.sedated]

    def all_halted(self) -> bool:
        return all(t.halted for t in self.threads)

    # -- main loop -----------------------------------------------------------

    def step(self) -> None:
        """Advance the pipeline by one cycle."""
        self.run_cycles(1)

    def run_cycles(self, n: int) -> None:
        """Run ``n`` cycles, fast-forwarding provably idle stretches.

        The state every stage touches is read into locals on entry and
        written back on exit; sources' methods are looked up per fetch block.
        When the ready list is empty the core may be unable to do *any* work
        for a while (every thread halted, sedated, miss-gated, or waiting on
        a refill); :meth:`_idle_until` detects that and jumps the clock to
        the next cycle at which anything can happen.  The skip is exact —
        stepping through those cycles would not have changed any state —
        so statistics are byte-identical with and without it.
        """
        if n <= 0:
            return
        config = self.config
        threads = self.threads
        num_threads = len(threads)
        access_counts = self.access_counts
        wheel = self._wheel
        access_instruction = self.hierarchy.access_instruction
        access_data = self.hierarchy.access_data
        window_cap = config.ruu_size // num_threads if config.ruu_partitioned else config.ruu_size
        fu_limits = (config.int_alus, config.int_mults, config.fp_alus, config.mem_ports, 1 << 30)
        issue_width = config.issue_width
        commit_width = config.commit_width
        fetch_width = config.fetch_width
        fetch_threads = config.fetch_threads_per_cycle
        decode_latency = config.decode_latency
        max_queue = config.fetch_queue_size
        line_bytes = config.l1i.line_bytes
        ruu_size = config.ruu_size
        lsq_size = config.lsq_size
        squash_on_l2_miss = config.squash_on_l2_miss
        redirect = 1 + config.branch_mispredict_penalty
        resource_of = _RESOURCE_OF
        exec_block_of = _EXEC_BLOCK_OF
        rf_of = _RF_OF
        cycle = self.cycle
        target = cycle + n
        ready = self.ready
        window_used = self.window_used
        lsq_used = self.lsq_used
        try:
            while cycle < target:
                if not ready:
                    resume = self._idle_until(cycle, target)
                    if resume > cycle:
                        self.perf_idle_skipped += resume - cycle
                        if self.telemetry is not None:
                            self.telemetry.idle_skip(cycle, resume - cycle)
                        cycle = resume
                        continue

                # Complete: results write back and wake their consumers.
                finishing = wheel.pop(cycle, None)
                if finishing:
                    for uop in finishing:
                        uop.done = True
                        dest = uop.dest
                        if dest >= 0:
                            access_counts[uop.thread][rf_of[dest]] += 1
                        consumers = uop.consumers
                        if consumers:
                            # A consumer is dispatched and unissued until
                            # its last producer completes.
                            for consumer in consumers:
                                consumer.deps -= 1
                                if not consumer.deps:
                                    ready.append(consumer)
                            uop.consumers = None
                        # Only a load can be a miss block and only a
                        # mispredicted branch a fetch gate.
                        if uop.is_mem or uop.mispredict:
                            thread = threads[uop.thread]
                            if thread.miss_block is uop:
                                thread.miss_block = None
                            if thread.mispredict_gate is uop:
                                thread.mispredict_gate = None
                                resume = cycle + redirect
                                if resume > thread.fetch_blocked_until:
                                    thread.fetch_blocked_until = resume

                # Commit: one ROB head per thread per pass, thread 0 first.
                budget = commit_width
                while budget > 0:
                    progressed = False
                    for thread in threads:
                        rob = thread.rob
                        if rob and rob[0].done:
                            uop = rob.popleft()
                            thread.icount -= 1
                            thread.committed += 1
                            if uop.is_mem:
                                lsq_used -= 1
                                thread.mem_ops_in_flight -= 1
                            budget -= 1
                            progressed = True
                            if budget == 0:
                                break
                    if not progressed:
                        break
                window_used -= commit_width - budget

                # Issue: oldest-ready first, bounded by width and FU pools.
                if ready:
                    budget = issue_width
                    fu_left = list(fu_limits)
                    leftover: list[Uop] = []
                    for uop in ready:
                        opclass = uop.opclass
                        resource = resource_of[opclass]
                        if not fu_left[resource]:
                            leftover.append(uop)
                            continue
                        fu_left[resource] -= 1
                        budget -= 1
                        counts = access_counts[uop.thread]
                        for src in uop.srcs:
                            counts[rf_of[src]] += 1
                        counts[WINDOW] += 1
                        exec_block = exec_block_of[opclass]
                        if exec_block >= 0:
                            counts[exec_block] += 1
                        if uop.is_mem:
                            counts[LSQ] += 1
                        when = cycle + uop.latency
                        bucket = wheel.get(when)
                        if bucket is None:
                            wheel[when] = [uop]
                        else:
                            bucket.append(uop)
                        if not budget:
                            # Visited so far: the skipped plus a full width.
                            leftover.extend(ready[len(leftover) + issue_width :])
                            break
                    ready = leftover

                # Dispatch: rename into the window, round-robin by cycle.
                budget = issue_width
                offset = cycle % num_threads
                for i in range(num_threads):
                    thread = threads[(i + offset) % num_threads]
                    queue = thread.fetch_queue
                    if not queue or thread.miss_block is not None:
                        continue
                    rob = thread.rob
                    writer_table = thread.writer_table
                    counts = access_counts[thread.tid]
                    # Each dispatch takes one slot of the width, the queue,
                    # the shared window and this thread's window share.
                    room = min(
                        budget, len(queue), ruu_size - window_used, window_cap - len(rob)
                    )
                    dispatched = 0
                    while dispatched < room:
                        ready_cycle, uop = queue[0]
                        if ready_cycle > cycle:
                            break
                        is_mem = uop.is_mem
                        if is_mem and lsq_used >= lsq_size:
                            break
                        queue.popleft()
                        deps = 0
                        for src in uop.srcs:
                            producer = writer_table[src]
                            if producer is not None and not producer.done:
                                if producer.consumers is None:
                                    producer.consumers = [uop]
                                else:
                                    producer.consumers.append(uop)
                                deps += 1
                        if uop.dest >= 0:
                            writer_table[uop.dest] = uop
                        if is_mem:
                            lsq_used += 1
                            thread.mem_ops_in_flight += 1
                            counts[LSQ] += 1
                            counts[DCACHE] += 1
                            is_store = uop.opclass == OP_STORE
                            result = access_data(uop.address, is_store)
                            if result.level is not _L1:
                                counts[L2] += 1
                            if is_store:
                                uop.latency = 1
                            else:
                                uop.latency = result.latency
                                if squash_on_l2_miss and result.level is _MEMORY:
                                    thread.miss_block = uop
                        rob.append(uop)
                        uop.deps = deps
                        if not deps:
                            ready.append(uop)
                        dispatched += 1
                        if is_mem and thread.miss_block is not None:
                            break
                    if dispatched:
                        counts[RENAME] += dispatched
                        counts[WINDOW] += dispatched
                        window_used += dispatched
                        budget -= dispatched
                        if not budget:
                            break

                # Fetch: ICOUNT2.N priority.  The first selected thread (the
                # lowest icount under ICOUNT) may take the whole width, which
                # lets a high-IPC thread monopolize fetch (the paper's
                # variant1 side effect).  _idle_until mirrors this test.
                runnable = []
                for thread in threads:
                    if (
                        thread.halted
                        or thread.sedated
                        or thread.paused
                        or thread.miss_block is not None
                        or thread.mispredict_gate is not None
                        or cycle < thread.fetch_blocked_until
                        or len(thread.fetch_queue) >= max_queue
                    ):
                        continue
                    modulus = thread.throttle_modulus
                    if modulus and cycle % modulus:
                        continue
                    runnable.append(thread)
                if runnable:
                    budget = fetch_width
                    decode_ready = cycle + decode_latency
                    for thread in self._select(runnable, fetch_threads):
                        if budget <= 0:
                            break
                        # A fetch block ends at a taken branch, a mispredicted
                        # branch, an I-cache miss, or queue/budget exhaustion.
                        counts = access_counts[thread.tid]
                        counts[ICACHE] += 1
                        source = thread.source
                        peek_pc = source.peek_pc
                        next_uop = source.next_uop
                        queue = thread.fetch_queue
                        limit = min(budget, max_queue - len(queue))
                        last_line = thread.last_fetch_line
                        fetched = 0
                        while fetched < limit:
                            pc = peek_pc()
                            if pc < 0:
                                thread.halted = True
                                break
                            line = pc // line_bytes
                            if line != last_line:
                                last_line = line
                                result = access_instruction(pc)
                                if result.level is not _L1:
                                    counts[L2] += 1
                                    thread.fetch_blocked_until = cycle + result.latency
                                    break
                            uop = next_uop()
                            if uop is None:
                                thread.halted = True
                                break
                            queue.append((decode_ready, uop))
                            fetched += 1
                            if uop.opclass == OP_BRANCH:
                                counts[BPRED] += 1
                                if uop.mispredict:
                                    thread.mispredict_gate = uop
                                    break
                            if uop.taken:
                                break
                        thread.last_fetch_line = last_line
                        if fetched:
                            thread.icount += fetched
                            thread.fetched += fetched
                            budget -= fetched
                cycle += 1
        finally:
            self.cycle = cycle
            self.ready = ready
            self.window_used = window_used
            self.lsq_used = lsq_used

    def _idle_until(self, cycle: int, limit: int) -> int:
        """Earliest cycle (≤ ``limit``) at which the pipeline could do work.

        Returns ``cycle`` itself whenever work *may* happen now — the check
        is conservative, so anything not provably idle steps normally.  Only
        called with an empty ready list.  The bound never passes a
        completion-wheel event, a fetch-unblock cycle, a decode-ready fetch
        queue head, or a throttled thread's next eligible cycle; between
        ``cycle`` and the bound, :meth:`step` would be a pure no-op.
        """
        bound = limit
        for thread in self.threads:
            rob = thread.rob
            if rob and rob[0].done:
                return cycle  # a commit would retire work this cycle
            if thread.fetch_queue and thread.miss_block is None:
                head_ready = thread.fetch_queue[0][0]
                if head_ready <= cycle:
                    return cycle  # dispatch may make progress now
                if head_ready < bound:
                    bound = head_ready
            if (
                thread.halted
                or thread.sedated
                or thread.paused
                or thread.miss_block is not None
                or thread.mispredict_gate is not None
            ):
                continue
            blocked_until = thread.fetch_blocked_until
            if blocked_until > cycle:
                if blocked_until < bound:
                    bound = blocked_until
                continue
            modulus = thread.throttle_modulus
            if not modulus:
                return cycle  # thread is fetchable right now
            remainder = cycle % modulus
            if remainder == 0:
                return cycle
            eligible = cycle + modulus - remainder
            if eligible < bound:
                bound = eligible
        # The wheel scan is O(in-flight span), so it runs only after every
        # cheap per-thread check has failed to prove the core busy.
        wheel = self._wheel
        if wheel:
            upcoming = min(wheel)
            if upcoming <= cycle:
                return cycle
            if upcoming < bound:
                bound = upcoming
        return bound

    def skip_cycles(self, n: int) -> None:
        """Advance the clock without pipeline activity (global stall).

        In-flight operations do not progress during a global stall — the
        whole core is clock-gated, which is what stop-and-go means.  The
        completion wheel is shifted wholesale.
        """
        if n <= 0:
            return
        if self._wheel:
            self._wheel = {when + n: uops for when, uops in self._wheel.items()}
        self.cycle += n
        self.perf_stall_skipped += n

    # -- introspection --------------------------------------------------------

    def total_committed(self) -> int:
        return sum(t.committed for t in self.threads)

    def thread_ipc(self, tid: int) -> float:
        return self.threads[tid].ipc(self.cycle)
