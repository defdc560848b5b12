"""Columnar µop streams: generate a source's rows once, replay them per pipeline.

Every pipeline reads its threads' µops through a :class:`StreamCursor`.
Workload sources have no pipeline feedback: ``build_pipeline`` guarantees a
thread's µop stream is a pure function of (workload, context id, seed,
machine, thermal time base).  A scalar run gives each thread its own
stream; the lock-step batch engine exploits the purity twice over — lanes
sharing a trajectory share one pipeline, and *pipelines* sharing a
trajectory (the root cohort and every cohort split off it, or sibling
trajectory groups that reuse a workload/seed pair) share one **generated
stream** (:class:`StreamBank`: one stream per distinct
``(workload, thread, seed)`` triple, so a workload appearing in many mixes
is generated once per seed, not once per mix).

:class:`SharedStream` wraps a :class:`~repro.pipeline.source.RowSource` and
keeps its rows (static-field tuples in :class:`~repro.pipeline.uop.Uop`
constructor order) from the first time any reader reaches that index.
:class:`StreamCursor` is the pipeline-facing
:class:`~repro.pipeline.source.UopSource` over a shared stream: it builds a
fresh :class:`Uop` per row and pipeline (scheduling fields are mutable, so
µops are never shared), forks in O(1) at a cohort split, and registers
itself so the stream can trim rows every live reader has passed — memory
stays proportional to the *spread* between the slowest and fastest
cursor, not to trajectory length.

The replay is byte-exact by construction: generation runs the source
itself (same RNG draws, same branch-predictor updates, same executor
steps, in the same order), and the cursor reproduces the source's
``peek_pc`` — including the peek-at-halt case: the cursor reports the
halt instruction's pc from ``peek_pc`` until ``next_uop`` has returned
``None`` at it, and -1 after (the core I-cache-accesses that pc;
dropping it would skew access counts).
"""

from __future__ import annotations

from ..workloads.registry import make_source
from .uop import Uop

#: Rows generated per refill; amortizes the ensure() call overhead without
#: running far ahead of the slowest pipeline.
_CHUNK = 512

#: Keep at least this many dead rows before compacting, so trims are O(1)
#: amortized instead of O(rows) per call.
_TRIM_SLACK = 1024


class SharedStream:
    """One workload trajectory, generated lazily and shared by cursors.

    ``rows[i - base]`` holds µop ``i``'s row: its static fields as a tuple
    in ``Uop.__init__`` positional order (minus the thread id, which the
    cursor supplies).  ``halted_at`` is the stream length once the source
    halts; ``halt_peek_pc`` is the halt instruction's pc, which ``peek_pc``
    reports at that index until a ``next_uop`` has refused it.
    """

    __slots__ = (
        "source",
        "rows",
        "base",
        "halted_at",
        "halt_peek_pc",
        "cursors",
        "generated",
    )

    def __init__(self, source) -> None:
        self.source = source
        self.rows: list[tuple] = []
        self.base = 0
        self.halted_at: int | None = None
        self.halt_peek_pc = -1
        self.cursors: list[StreamCursor] = []
        self.generated = 0

    def ensure(self, index: int) -> None:
        """Generate rows until ``index`` exists or the source halts.

        Each refill first trims behind the live cursors, so a stream read
        by one cursor (every scalar run's) holds fewer than
        ``_CHUNK + _TRIM_SLACK`` rows.
        """
        while self.halted_at is None and self.base + len(self.rows) <= index:
            self.trim()
            self._generate(_CHUNK)

    def _generate(self, count: int) -> None:
        next_row = self.source.next_row
        rows = self.rows
        append = rows.append
        start = len(rows)
        for _ in range(count):
            row = next_row()
            if row is None:
                self.halted_at = self.base + len(rows)
                self.halt_peek_pc = self.source.peek_pc()
                break
            append(row)
        self.generated += len(rows) - start

    def trim(self) -> None:
        """Drop rows every registered cursor has already consumed."""
        cursors = self.cursors
        if cursors:
            low = min(cursor.index for cursor in cursors)
        elif self.halted_at is not None:
            low = self.base + len(self.rows)
        else:
            return
        dead = low - self.base
        if dead >= _TRIM_SLACK or (dead > 0 and not cursors):
            del self.rows[:dead]
            self.base = low


class StreamCursor:
    """A pipeline-facing view over a :class:`SharedStream`.

    Satisfies the :class:`~repro.pipeline.source.UopSource` protocol
    structurally (it is a Protocol, not a base class).

    Each pipeline (a scalar run's, a root cohort or a split-off child)
    owns its cursors; ``fork`` hands a child cohort an O(1) continuation at
    the same stream position.  ``__dict__`` stays among the slots so a
    profiler can wrap ``peek_pc``/``next_uop`` on one instance.
    """

    __slots__ = ("stream", "thread_id", "index", "halt_consumed", "__dict__")

    def __init__(
        self,
        stream: SharedStream,
        thread_id: int,
        index: int = 0,
        halt_consumed: bool = False,
    ):
        self.stream = stream
        self.thread_id = thread_id
        self.index = index
        #: the cursor peeks the halt instruction's pc only until its own
        #: ``next_uop`` has refused it; afterwards it peeks -1 (halted).
        self.halt_consumed = halt_consumed
        stream.cursors.append(self)

    def peek_pc(self) -> int:
        stream = self.stream
        rows = stream.rows
        offset = self.index - stream.base
        if offset < len(rows):
            return rows[offset][0]
        if self._at_halt():
            return -1 if self.halt_consumed else stream.halt_peek_pc
        return rows[self.index - stream.base][0]

    def next_uop(self) -> Uop | None:
        stream = self.stream
        rows = stream.rows
        index = self.index
        offset = index - stream.base
        if offset >= len(rows):
            if self._at_halt():
                self.halt_consumed = True
                return None
            offset = index - stream.base
        self.index = index + 1
        return Uop(self.thread_id, *rows[offset])

    def _at_halt(self) -> bool:
        """Generate up to this cursor's row; True if the stream halts first.

        The slow path of ``peek_pc``/``next_uop``: once a stream has halted
        it never grows, so testing for a buffered row first is exact.
        """
        stream = self.stream
        stream.ensure(self.index)
        return stream.halted_at is not None and self.index >= stream.halted_at

    def prefill(self, hierarchy) -> None:
        """Warm the caches exactly as the wrapped source would.

        Prefill only reads the source's static program/profile data, so
        delegating to the shared source is safe to repeat once per root
        pipeline; forked pipelines inherit warm caches and never re-call.
        """
        self.stream.source.prefill(hierarchy)

    def fork(self) -> "StreamCursor":
        return StreamCursor(
            self.stream, self.thread_id, self.index, self.halt_consumed
        )

    def release(self) -> None:
        """Unregister from the stream so trimming can pass this position."""
        try:
            self.stream.cursors.remove(self)
        except ValueError:
            pass


def stream_cursor(thread_id: int, source) -> StreamCursor:
    """Thread ``thread_id``'s cursor at the start of a new stream over ``source``."""
    return StreamCursor(SharedStream(source), thread_id)


class StreamBank:
    """Shared µop streams for one lock-step batch call.

    Keyed by ``(workload, thread id, seed)`` — the full set of inputs that
    (for a fixed machine and thermal time base, both batch-fingerprinted)
    determine a source's output.  Sources are built through
    :func:`~repro.workloads.registry.make_source`, as a scalar run builds
    them, so generation replays the exact crc32-salted RNG streams and
    executor steps of a scalar run.
    """

    def __init__(self, machine, thermal) -> None:
        self.machine = machine
        self.thermal = thermal
        self._streams: dict[tuple[str, int, int], SharedStream] = {}

    def cursor(self, name: str, tid: int, seed: int) -> StreamCursor:
        """A fresh cursor at position 0 of the ``(name, tid, seed)`` stream."""
        key = (name, tid, seed)
        stream = self._streams.get(key)
        if stream is None:
            stream = SharedStream(
                make_source(name, tid, self.machine, self.thermal, seed=seed)
            )
            self._streams[key] = stream
        return StreamCursor(stream, tid)

    def trim(self) -> None:
        """Compact every stream behind its slowest live cursor."""
        for stream in self._streams.values():
            stream.trim()

    @property
    def stream_count(self) -> int:
        return len(self._streams)

    @property
    def rows_generated(self) -> int:
        return sum(stream.generated for stream in self._streams.values())


def release_cursors(core) -> None:
    """Unregister a finished pipeline's cursors so its streams can trim."""
    for thread in core.threads:
        thread.source.release()
