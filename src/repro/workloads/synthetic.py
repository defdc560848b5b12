"""Synthetic instruction-stream generator driven by a SPEC profile.

The generator produces a statistically faithful uop stream: instruction-class
mix, register dependences with profiled distances, profiled branch behavior,
and a three-region data footprint (hot/warm/cold) that the *real* cache
hierarchy turns into the profile's hit/miss behavior.  Branch mispredictions
are sampled from the profiled rate (a real predictor would be a random-number
oracle against synthetic control flow); program-backed workloads use the real
predictor instead.

Determinism: each source owns a ``random.Random`` seeded from (seed, thread),
so runs are exactly reproducible.
"""

from __future__ import annotations

import random
import zlib
from math import log as _log

from ..isa.registers import FP_BASE
from ..pipeline.uop import (
    OP_BRANCH,
    OP_FALU,
    OP_FMULT,
    OP_IALU,
    OP_IMULT,
    OP_LOAD,
    OP_NOP,
    OP_STORE,
)
from ..pipeline.source import Row
from .profiles import SpecProfile
from .program_source import THREAD_REGION_BYTES

_LINE = 64

#: Region offsets within a thread's address-space slice (all multiples of
#: every cache's num_sets × line_bytes, preserving set mappings).
_HOT_OFFSET = 0
_WARM_OFFSET = 1 << 28
_COLD_OFFSET = 1 << 29
_CODE_OFFSET = 1 << 30

#: Integer/FP destination registers cycled through by the generator (kept
#: clear of the "far" always-ready source registers below).
_NUM_DESTS = 24
_FAR_INT_REGS = (25, 26, 27, 28, 29, 30)
_FAR_FP_REGS = tuple(FP_BASE + r for r in (25, 26, 27, 28, 29, 30))

_RING_SIZE = 32


class SyntheticSource:
    """Row stream for one synthetic benchmark on one hardware context."""

    def __init__(
        self, profile: SpecProfile, thread_id: int, seed: int = 42
    ) -> None:
        self.profile = profile
        self.thread_id = thread_id
        # crc32, not hash(): builtin str hashing is salted per process, which
        # would make the same (profile, seed, thread) produce different
        # streams in different interpreter runs — fatal for the on-disk
        # result cache and for comparing serial against worker-pool runs.
        name_hash = zlib.crc32(profile.name.encode())
        self._rng = random.Random((seed << 8) ^ thread_id ^ name_hash)
        # Hot-loop bindings: next_row runs once per generated instruction, so
        # the RNG methods and the profile fields it draws against are bound
        # once here.  The *sequence* of RNG calls is unchanged — streams stay
        # byte-identical with the unoptimized generator.
        self._random = self._rng.random
        self._randrange = self._rng.randrange
        self._dep_fraction = profile.dep_fraction
        self._taken_rate = profile.taken_rate
        self._mispredict_rate = profile.mispredict_rate
        self._is_fp = profile.is_fp
        # Cumulative class thresholds, most frequent first for a short scan.
        classes = [
            (profile.ialu, OP_IALU),
            (profile.load, OP_LOAD),
            (profile.branch, OP_BRANCH),
            (profile.store, OP_STORE),
            (profile.falu, OP_FALU),
            (profile.fmult, OP_FMULT),
            (profile.imult, OP_IMULT),
        ]
        classes.sort(key=lambda item: -item[0])
        thresholds: list[tuple[float, int]] = []
        cumulative = 0.0
        for fraction, code in classes:
            if fraction <= 0.0:
                continue
            cumulative += fraction
            thresholds.append((cumulative, code))
        self._thresholds = tuple(thresholds)

        base = thread_id * THREAD_REGION_BYTES
        self._code_base = base + _CODE_OFFSET
        self._code_words = max(64, (profile.code_kb * 1024) // 4)
        self._pc = self._code_base
        # Loop-structured control flow: taken branches jump back to the
        # current loop head; after a sampled trip count the loop either
        # drifts forward (sequential code) or, rarely, jumps far (a call
        # into a distant region).  This is what keeps real programs
        # I-cache-resident; uniform random branch targets would thrash.
        self._loop_base = self._pc
        self._loop_trip = 8
        self._taken_count = 0
        self._far_jump_prob = 0.02
        self._hot_base = base + _HOT_OFFSET
        self._hot_lines = max(4, (profile.hot_kb * 1024) // _LINE)
        self._warm_base = base + _WARM_OFFSET
        self._warm_lines = max(8, (profile.warm_kb * 1024) // _LINE)
        self._cold_next = base + _COLD_OFFSET

        self._int_ring = [_FAR_INT_REGS[0]] * _RING_SIZE
        self._fp_ring = [_FAR_FP_REGS[0]] * _RING_SIZE
        self._ring_pos = 0
        self._dest_counter = 0
        # Producer distances are 1 + Exp(mean - 1): real dependence chains
        # are dominated by short (often serial) distances with a tail.
        self._base_lambda = max(1e-3, profile.dep_distance_mean - 1.0)
        self._dep_lambda = self._base_lambda
        # Burst phases: dependences relax, ILP and access rates rise.
        if profile.burst_distance_mean > 1.0:
            self._burst_lambda = profile.burst_distance_mean - 1.0
        else:
            self._burst_lambda = self._base_lambda * 3.0 + 2.0
        self._burst_left = 0
        if profile.burst_every_instrs > 0:
            self._next_burst = max(
                1, int(self._rng.expovariate(1.0 / profile.burst_every_instrs))
            )
        else:
            self._next_burst = -1
        self.generated = 0

    # -- RowSource protocol -----------------------------------------------------

    def peek_pc(self) -> int:
        return self._pc

    def next_row(self) -> Row:
        random_draw = self._random
        if self._next_burst >= 0:
            self._advance_phase()
        draw = random_draw()
        opclass = OP_NOP
        for cumulative, code in self._thresholds:
            if draw < cumulative:
                opclass = code
                break

        pc = self._pc
        taken = False
        mispredict = False
        dest = -1
        srcs: tuple[int, ...]
        address = -1

        if opclass == OP_IALU or opclass == OP_IMULT:
            srcs = (self._pick_src(False), self._pick_src(False))
            dest = self._next_dest(False)
            self._pc = pc + 4
        elif opclass == OP_FALU or opclass == OP_FMULT:
            srcs = (self._pick_src(True), self._pick_src(True))
            dest = self._next_dest(True)
            self._pc = pc + 4
        elif opclass == OP_LOAD:
            # The base register follows the same dependence model as ALU
            # sources: address computations sit on the chains (pointer
            # chasing), which is what makes loads latency-critical.
            srcs = (self._pick_src(False),)
            dest = self._next_dest(self._is_fp and random_draw() < 0.7)
            address = self._pick_address()
            self._pc = pc + 4
        elif opclass == OP_STORE:
            srcs = (
                self._pick_src(self._is_fp and random_draw() < 0.5),
                self._pick_src(False),
            )
            address = self._pick_address()
            self._pc = pc + 4
        elif opclass == OP_BRANCH:
            srcs = (self._pick_src(False),)
            taken = random_draw() < self._taken_rate
            mispredict = random_draw() < self._mispredict_rate
            if taken:
                self._taken_count += 1
                if self._taken_count >= self._loop_trip:
                    self._taken_count = 0
                    self._new_loop(pc)
                self._pc = self._loop_base
            else:
                self._pc = pc + 4
        else:  # NOP
            srcs = ()
            self._pc = pc + 4

        self.generated += 1
        return (pc, opclass, dest, srcs, address, taken, mispredict)

    # -- internals ------------------------------------------------------------

    def _advance_phase(self) -> None:
        """Track burst-phase entry/exit (counted in generated instructions)."""
        if self._burst_left > 0:
            self._burst_left -= 1
            if self._burst_left == 0:
                self._dep_lambda = self._base_lambda
                self._next_burst = self.generated + max(
                    1,
                    int(self._rng.expovariate(1.0 / self.profile.burst_every_instrs)),
                )
        elif self.generated >= self._next_burst:
            self._burst_left = self.profile.burst_len_instrs
            self._dep_lambda = self._burst_lambda

    def _new_loop(self, pc: int) -> None:
        """Finish the current loop episode: drift forward or jump far."""
        if self._random() < self._far_jump_prob:
            self._loop_base = self._code_base + 4 * self._randrange(self._code_words)
        else:
            next_pc = pc + 4
            limit = self._code_base + 4 * self._code_words
            self._loop_base = next_pc if next_pc < limit else self._code_base
        # Inlined expovariate(1/24) — same float sequence, bit-exact.
        self._loop_trip = 1 + int(-_log(1.0 - self._random()) / (1.0 / 24.0))

    def prefill(self, hierarchy) -> None:
        """Warm the caches with this thread's resident working set.

        Stands in for the warmup the paper gets for free from 500 M-cycle
        runs: the hot data set enters L1D+L2, the warm set enters L2, and
        the code footprint enters L1I (up to a fair share) and L2.
        """
        for index in range(self._hot_lines):
            address = self._hot_base + index * _LINE
            hierarchy.l1d.fill(address)
            hierarchy.l2.fill(address)
        for index in range(self._warm_lines):
            hierarchy.l2.fill(self._warm_base + index * _LINE)
        l1i_share_lines = hierarchy.l1i.config.size_bytes // (2 * _LINE)
        code_lines = (self._code_words * 4) // _LINE
        for index in range(code_lines):
            address = self._code_base + index * _LINE
            if index < l1i_share_lines:
                hierarchy.l1i.fill(address)
            hierarchy.l2.fill(address)

    def _next_dest(self, fp: bool) -> int:
        index = self._dest_counter
        self._dest_counter = index + 1 if index + 1 < _NUM_DESTS else 0
        reg = (FP_BASE + index) if fp else index
        pos = self._ring_pos
        self._ring_pos = pos + 1 if pos + 1 < _RING_SIZE else 0
        if fp:
            self._fp_ring[pos] = reg
            self._int_ring[pos] = self._int_ring[pos - 1]
        else:
            self._int_ring[pos] = reg
            self._fp_ring[pos] = self._fp_ring[pos - 1]
        return reg

    def _pick_src(self, fp: bool) -> int:
        if self._random() < self._dep_fraction:
            # Inlined random.expovariate(1.0 / dep_lambda) — identical float
            # operation sequence, so the drawn values are bit-exact.
            distance = 1 + int(
                -_log(1.0 - self._random()) / (1.0 / self._dep_lambda)
            )
            if distance >= _RING_SIZE:
                distance = _RING_SIZE - 1
            ring = self._fp_ring if fp else self._int_ring
            return ring[(self._ring_pos - distance) & (_RING_SIZE - 1)]
        far = _FAR_FP_REGS if fp else _FAR_INT_REGS
        return far[self._randrange(len(far))]

    def _pick_address(self) -> int:
        profile = self.profile
        draw = self._random()
        if draw < profile.p_cold:
            address = self._cold_next
            self._cold_next = address + _LINE
            return address
        if draw < profile.p_cold + profile.p_warm:
            return self._warm_base + _LINE * self._randrange(self._warm_lines)
        return self._hot_base + _LINE * self._randrange(self._hot_lines)
