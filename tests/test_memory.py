"""Cache, replacement-policy, and hierarchy tests."""

import pytest

from repro.config import CacheConfig, MachineConfig
from repro.errors import ConfigError
from repro.memory import (
    Cache,
    FIFOPolicy,
    LRUPolicy,
    MemLevel,
    MemoryHierarchy,
    RandomPolicy,
    make_policy,
)

SMALL = CacheConfig(1024, 2, 64, 1, name="small")  # 8 sets, 2-way


class TestCacheMapping:
    def test_line_and_set_and_tag(self):
        cache = Cache(SMALL)
        address = 3 * 8 * 64 + 5 * 64 + 17  # tag 3, set 5, offset 17
        assert cache.set_index(address) == 5
        assert cache.tag(address) == 3

    def test_same_line_same_set(self):
        cache = Cache(SMALL)
        assert cache.set_index(0x100) == cache.set_index(0x100 + 63 - (0x100 % 64))

    def test_addresses_mapping_to_set_collide(self):
        cache = Cache(SMALL)
        addresses = cache.addresses_mapping_to_set(3, 9)
        assert len(set(addresses)) == 9
        for address in addresses:
            assert cache.set_index(address) == 3


class TestCacheBehavior:
    def test_miss_then_hit(self):
        cache = Cache(SMALL)
        assert cache.access(0x40) is False
        assert cache.access(0x40) is True
        assert (cache.hits, cache.misses) == (1, 1)

    def test_contains_has_no_side_effects(self):
        cache = Cache(SMALL)
        assert cache.contains(0x40) is False
        assert cache.misses == 0
        cache.fill(0x40)
        assert cache.contains(0x40) is True

    def test_eviction_at_capacity(self):
        cache = Cache(SMALL)
        a, b, c = cache.addresses_mapping_to_set(0, 3)
        cache.access(a)
        cache.access(b)
        cache.access(c)  # evicts a under LRU
        assert cache.contains(a) is False
        assert cache.contains(b) and cache.contains(c)

    def test_lru_recency_protects_reused_line(self):
        cache = Cache(SMALL)
        a, b, c = cache.addresses_mapping_to_set(0, 3)
        cache.access(a)
        cache.access(b)
        cache.access(a)  # a most recent
        cache.access(c)  # evicts b
        assert cache.contains(a) is True
        assert cache.contains(b) is False

    def test_conflict_set_thrash_misses_every_time(self):
        """Nine addresses on one 8-way set: the paper's Figure-2 mechanism."""
        config = CacheConfig(8 * 64 * 4, 8, 64, 1)  # 4 sets, 8-way
        cache = Cache(config)
        addresses = cache.addresses_mapping_to_set(1, 9)
        for _ in range(3):
            for address in addresses:
                assert cache.access(address) is False

    def test_eight_addresses_on_8way_set_all_hit_after_warmup(self):
        config = CacheConfig(8 * 64 * 4, 8, 64, 1)
        cache = Cache(config)
        addresses = cache.addresses_mapping_to_set(1, 8)
        for address in addresses:
            cache.access(address)
        for address in addresses:
            assert cache.access(address) is True

    def test_flush_empties_cache(self):
        cache = Cache(SMALL)
        cache.access(0x40)
        cache.flush()
        assert cache.occupancy == 0
        assert cache.access(0x40) is False

    def test_fill_is_idempotent(self):
        cache = Cache(SMALL)
        cache.fill(0x40)
        assert cache.fill(0x40) is None
        assert cache.occupancy == 1

    def test_reset_stats(self):
        cache = Cache(SMALL)
        cache.access(0x40)
        cache.reset_stats()
        assert (cache.hits, cache.misses) == (0, 0)


class TestReplacementPolicies:
    def test_fifo_ignores_recency(self):
        cache = Cache(SMALL, policy=FIFOPolicy())
        a, b, c = cache.addresses_mapping_to_set(0, 3)
        cache.access(a)
        cache.access(b)
        cache.access(a)  # reuse does not protect a under FIFO
        cache.access(c)  # evicts a (first in)
        assert cache.contains(a) is False
        assert cache.contains(b) is True

    def test_random_policy_is_seedable(self):
        def victim_sequence(seed):
            cache = Cache(SMALL, policy=RandomPolicy(seed))
            addresses = cache.addresses_mapping_to_set(0, 8)
            survivors = []
            for address in addresses:
                cache.access(address)
            for address in addresses:
                survivors.append(cache.contains(address))
            return survivors

        assert victim_sequence(7) == victim_sequence(7)

    def test_factory(self):
        assert isinstance(make_policy("lru"), LRUPolicy)
        assert isinstance(make_policy("fifo"), FIFOPolicy)
        assert isinstance(make_policy("random"), RandomPolicy)
        with pytest.raises(ConfigError):
            make_policy("belady")


class TestHierarchy:
    def test_data_access_levels_and_latencies(self):
        machine = MachineConfig()
        hierarchy = MemoryHierarchy(machine)
        first = hierarchy.access_data(0x1000)
        assert first.level is MemLevel.MEMORY
        assert first.latency == 2 + 12 + 300
        second = hierarchy.access_data(0x1000)
        assert second.level is MemLevel.L1
        assert second.latency == 2

    def test_l2_hit_after_l1_eviction(self):
        machine = MachineConfig()
        hierarchy = MemoryHierarchy(machine)
        hierarchy.access_data(0x1000)
        # Evict 0x1000 from the 4-way L1 set with 4 conflicting lines.
        span = machine.l1d.num_sets * machine.l1d.line_bytes
        for tag in range(1, 5):
            hierarchy.access_data(0x1000 + tag * span)
        result = hierarchy.access_data(0x1000)
        assert result.level is MemLevel.L2
        assert result.latency == 2 + 12

    def test_instruction_path_uses_l1i(self):
        hierarchy = MemoryHierarchy(MachineConfig())
        hierarchy.access_instruction(0x2000)
        assert hierarchy.access_instruction(0x2000).level is MemLevel.L1
        # Data accesses to the same address do not touch the L1I.
        assert hierarchy.access_data(0x2000).level is MemLevel.L2

    def test_results_are_shared_per_level(self):
        hierarchy = MemoryHierarchy(MachineConfig())
        miss = hierarchy.access_data(0x9000)
        assert hierarchy.access_data(0xA000) is miss
        assert hierarchy.access_data(0x9000) is hierarchy.access_data(0xA000)
        clone = hierarchy.fork()
        assert clone.access_data(0x9000) is hierarchy.access_data(0x9000)
        assert clone.access_instruction(0xB000).latency == 2 + 12 + 300

    def test_is_l2_miss_flag(self):
        hierarchy = MemoryHierarchy(MachineConfig())
        assert hierarchy.access_data(0x9000).is_l2_miss is True
        assert hierarchy.access_data(0x9000).is_l2_miss is False

    def test_access_counters_drain(self):
        hierarchy = MemoryHierarchy(MachineConfig())
        hierarchy.access_data(0x100)
        hierarchy.access_instruction(0x200)
        counts = hierarchy.drain_access_counts()
        assert counts["dcache"] == 1
        assert counts["icache"] == 1
        assert counts["l2"] == 2
        assert hierarchy.drain_access_counts()["dcache"] == 0

    def test_flush_all(self):
        hierarchy = MemoryHierarchy(MachineConfig())
        hierarchy.access_data(0x100)
        hierarchy.flush_all()
        assert hierarchy.access_data(0x100).level is MemLevel.MEMORY
