"""Dynamic micro-op: the unit flowing through the SMT pipeline.

Workload sources allocate one :class:`Uop` per fetched instruction and fill
in the *static* fields; the pipeline fills the *scheduling* fields.  Opcode
classes are small integers (not enums) because this is the simulator's hottest
data structure.
"""

from __future__ import annotations

# Opclass codes (order matters: indexes into latency/FU tables).  They follow
# the ISA's ``OpClass`` declaration order (``repro.isa.instructions.OPCLASS_CODE``).
OP_IALU = 0
OP_IMULT = 1
OP_FALU = 2
OP_FMULT = 3
OP_LOAD = 4
OP_STORE = 5
OP_BRANCH = 6
OP_NOP = 7

NUM_OPCLASSES = 8

OPCLASS_NAMES = ("ialu", "imult", "falu", "fmult", "load", "store", "branch", "nop")

#: Default execution latency per opclass (loads are overridden by the cache).
OPCLASS_LATENCY = (1, 3, 2, 4, 1, 1, 1, 1)


class Uop:
    """One dynamic instruction.

    Static fields (set by the workload source):

    * ``thread`` — hardware context id.
    * ``pc`` — byte address of the instruction (used for I-cache timing).
    * ``opclass`` — one of the ``OP_*`` codes.
    * ``dest`` — destination architectural register (internal index) or -1.
    * ``srcs`` — tuple of source architectural registers.
    * ``address`` — effective byte address for loads/stores, else -1.
    * ``taken`` — for branches, whether the branch is taken (ends the fetch
      block).
    * ``mispredict`` — for branches, whether the front end mispredicts it
      (gates fetch until resolution).

    Scheduling fields (owned by the pipeline): ``deps``, ``consumers``,
    ``latency``, ``done``.
    """

    __slots__ = (
        "thread",
        "pc",
        "opclass",
        "dest",
        "srcs",
        "address",
        "taken",
        "mispredict",
        "latency",
        "deps",
        "consumers",
        "done",
        "is_mem",
    )

    def __init__(
        self,
        thread: int,
        pc: int,
        opclass: int,
        dest: int = -1,
        srcs: tuple[int, ...] = (),
        address: int = -1,
        taken: bool = False,
        mispredict: bool = False,
    ) -> None:
        self.thread = thread
        self.pc = pc
        self.opclass = opclass
        self.dest = dest
        self.srcs = srcs
        self.address = address
        self.taken = taken
        self.mispredict = mispredict
        self.latency = OPCLASS_LATENCY[opclass]
        self.deps = 0
        self.consumers: list[Uop] | None = None
        self.done = False
        self.is_mem = opclass == OP_LOAD or opclass == OP_STORE

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Uop(t{self.thread} {OPCLASS_NAMES[self.opclass]} "
            f"pc={self.pc:#x} dest={self.dest} srcs={self.srcs})"
        )


def fork_uop(uop: Uop, memo: dict[int, Uop]) -> Uop:
    """Clone one in-flight uop for a pipeline fork, preserving identity.

    The pipeline's wakeup graph is cyclic in the object sense (producers
    list consumers; threads point back at gating uops), and correctness of
    the forked pipeline depends on *identity*, not just equality — e.g.
    ``thread.miss_block is uop`` on completion.  ``memo`` (keyed by
    ``id(uop)``) therefore maps every original to exactly one twin, and the
    twin is registered *before* consumers are recursed so shared consumers
    and self-referential paths resolve to the same object, like
    ``copy.deepcopy`` — but touching only the thirteen slot fields.
    """
    key = id(uop)
    twin = memo.get(key)
    if twin is not None:
        return twin
    twin = Uop.__new__(Uop)
    memo[key] = twin
    twin.thread = uop.thread
    twin.pc = uop.pc
    twin.opclass = uop.opclass
    twin.dest = uop.dest
    twin.srcs = uop.srcs
    twin.address = uop.address
    twin.taken = uop.taken
    twin.mispredict = uop.mispredict
    twin.latency = uop.latency
    twin.deps = uop.deps
    consumers = uop.consumers
    if consumers is None:
        twin.consumers = None
    else:
        twin.consumers = [fork_uop(consumer, memo) for consumer in consumers]
    twin.done = uop.done
    twin.is_mem = uop.is_mem
    return twin
