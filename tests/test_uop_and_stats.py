"""Lightweight unit tests: Uop tables, ThreadStats math, summaries."""

import pytest

from repro.blocks import INT_RF
from repro.pipeline import uop as uop_module
from repro.pipeline.uop import (
    NUM_OPCLASSES,
    OP_BRANCH,
    OP_LOAD,
    OP_STORE,
    OPCLASS_LATENCY,
    OPCLASS_NAMES,
    Uop,
)
from repro.isa.instructions import OPCLASS_CODE, OpClass
from repro.sim.stats import RunResult, ThreadStats


class TestUopTables:
    def test_tables_cover_every_opclass(self):
        assert len(OPCLASS_NAMES) == NUM_OPCLASSES
        assert len(OPCLASS_LATENCY) == NUM_OPCLASSES

    def test_isa_enum_maps_onto_codes(self):
        for opclass in OpClass:
            code = OPCLASS_CODE[opclass]
            assert getattr(uop_module, f"OP_{opclass.name}") == code
            assert OPCLASS_NAMES[code] == opclass.value

    def test_mem_flag(self):
        load = Uop(0, 0x100, OP_LOAD, dest=3, srcs=(5,), address=0x2000)
        store = Uop(0, 0x104, OP_STORE, srcs=(3, 5), address=0x2000)
        branch = Uop(0, 0x108, OP_BRANCH, srcs=(3,), taken=True)
        assert load.is_mem and store.is_mem
        assert not branch.is_mem

    def test_slots_prevent_arbitrary_attributes(self):
        uop = Uop(0, 0, OP_LOAD)
        with pytest.raises(AttributeError):
            uop.bogus = 1

    def test_default_latency_from_table(self):
        uop = Uop(0, 0, OP_BRANCH)
        assert uop.latency == OPCLASS_LATENCY[OP_BRANCH]

    def test_repr_mentions_opclass(self):
        assert "load" in repr(Uop(1, 0x40, OP_LOAD))


def make_stats(**overrides):
    base = {
        "thread": 0,
        "workload": "gzip",
        "committed": 500,
        "fetched": 520,
        "cycles": 1000,
        "cycles_normal": 700,
        "cycles_cooling": 200,
        "cycles_sedated": 100,
        "access_counts": tuple([42] + [0] * 12),
    }
    base.update(overrides)
    return ThreadStats(**base)


class TestThreadStats:
    def test_ipc(self):
        assert make_stats().ipc == pytest.approx(0.5)

    def test_fractions_sum_to_one(self):
        stats = make_stats()
        total = (
            stats.normal_fraction
            + stats.cooling_fraction
            + stats.sedated_fraction
        )
        assert total == pytest.approx(1.0)

    def test_access_rate_defaults_to_int_rf(self):
        stats = make_stats()
        assert stats.access_rate() == pytest.approx(42 / 1000)
        assert stats.access_rate(INT_RF) == stats.access_rate()

    def test_zero_cycles_safe(self):
        stats = make_stats(cycles=0, cycles_normal=0, cycles_cooling=0,
                           cycles_sedated=0)
        assert stats.ipc == 0.0
        assert stats.access_rate() == 0.0


class TestRunResult:
    def _result(self):
        threads = (make_stats(), make_stats(thread=1, workload="variant2"))
        return RunResult(
            workloads=("gzip", "variant2"),
            policy="sedation",
            cycles=1000,
            threads=threads,
            emergencies=3,
            emergencies_per_block=tuple([3] + [0] * 12),
            peak_temperature_k=358.2,
            sedations=5,
            safety_net_engagements=1,
            stall_engagements=2,
        )

    def test_summary_includes_key_numbers(self):
        text = self._result().summary()
        assert "sedation" in text
        assert "emergencies=3" in text
        assert "int_rf:3" in text
        assert "variant2" in text

    def test_total_ipc(self):
        assert self._result().total_ipc == pytest.approx(1.0)

    def test_thread_accessor(self):
        result = self._result()
        assert result.thread(1).workload == "variant2"
        assert result.ipc_of(0) == pytest.approx(0.5)
