"""Workload tests: profiles, synthetic generator, malicious kernels, registry."""

import dataclasses

import pytest

from repro.blocks import INT_RF
from repro.config import MachineConfig, ThermalConfig
from repro.errors import WorkloadError
from repro.memory import Cache
from repro.pipeline.banks import stream_cursor
from repro.pipeline.uop import OP_BRANCH, OP_LOAD, OP_STORE
from repro.workloads import (
    CONFLICT_WAYS,
    HOT_BENCHMARKS,
    MALICIOUS_VARIANTS,
    SPEC_PROFILES,
    SyntheticSource,
    build_variant,
    build_variant1,
    build_variant2,
    build_variant3,
    conflict_addresses,
    get_profile,
    is_malicious,
    make_source,
    workload_names,
)
from repro.workloads.program_source import ProgramSource, THREAD_REGION_BYTES

MACHINE = MachineConfig()
THERMAL = ThermalConfig()


def cursor(source):
    """The pipeline's view of ``source``: µops built from its rows."""
    return stream_cursor(source.thread_id, source)


class TestProfiles:
    def test_roster_is_complete(self):
        assert len(SPEC_PROFILES) == 22
        for name in HOT_BENCHMARKS:
            assert name in SPEC_PROFILES

    def test_mix_fractions_are_valid(self):
        for profile in SPEC_PROFILES.values():
            total = (
                profile.ialu + profile.imult + profile.falu + profile.fmult
                + profile.load + profile.store + profile.branch
            )
            assert 0 < total <= 1.0 + 1e-9, profile.name

    def test_get_profile_unknown(self):
        with pytest.raises(WorkloadError):
            get_profile("quake3")

    def test_invalid_mix_rejected(self):
        base = get_profile("gzip")
        with pytest.raises(WorkloadError):
            dataclasses.replace(base, load=0.9)

    def test_fp_profiles_marked(self):
        assert get_profile("swim").is_fp is True
        assert get_profile("gcc").is_fp is False

    def test_hot_benchmarks_have_bursts(self):
        for name in HOT_BENCHMARKS:
            assert get_profile(name).burst_every_instrs > 0


class TestSyntheticSource:
    def test_deterministic_given_seed(self):
        a = SyntheticSource(get_profile("gzip"), 0, seed=7)
        b = SyntheticSource(get_profile("gzip"), 0, seed=7)
        for _ in range(200):
            assert a.next_row() == b.next_row()

    def test_different_seeds_differ(self):
        a = cursor(SyntheticSource(get_profile("gzip"), 0, seed=7))
        b = cursor(SyntheticSource(get_profile("gzip"), 0, seed=8))
        streams_equal = all(
            a.next_uop().opclass == b.next_uop().opclass for _ in range(100)
        )
        assert not streams_equal

    def test_mix_statistics_match_profile(self):
        profile = get_profile("gcc")
        source = cursor(SyntheticSource(profile, 0, seed=1))
        counts = {OP_LOAD: 0, OP_STORE: 0, OP_BRANCH: 0}
        n = 20_000
        for _ in range(n):
            uop = source.next_uop()
            if uop.opclass in counts:
                counts[uop.opclass] += 1
        assert counts[OP_LOAD] / n == pytest.approx(profile.load, abs=0.02)
        assert counts[OP_STORE] / n == pytest.approx(profile.store, abs=0.02)
        assert counts[OP_BRANCH] / n == pytest.approx(profile.branch, abs=0.02)

    def test_addresses_stay_in_thread_region(self):
        source = cursor(SyntheticSource(get_profile("mcf"), thread_id=1, seed=3))
        for _ in range(5000):
            uop = source.next_uop()
            if uop.address >= 0:
                assert (
                    THREAD_REGION_BYTES
                    <= uop.address
                    < 2 * THREAD_REGION_BYTES
                )

    def test_pcs_stay_in_code_footprint(self):
        profile = get_profile("gzip")
        source = SyntheticSource(profile, 0, seed=3)
        limit = source._code_base + profile.code_kb * 1024
        for _ in range(5000):
            assert source._code_base <= source.peek_pc() <= limit + 4096
            source.next_row()

    def test_taken_branches_mostly_jump_backward_to_loop_head(self):
        """Loop-structured control flow: the overwhelming majority of taken
        branches return to the loop head; rare far jumps (new code regions)
        are allowed by design."""
        source = cursor(SyntheticSource(get_profile("gzip"), 0, seed=5))
        backward = forward = 0
        for _ in range(4000):
            pc = source.peek_pc()
            uop = source.next_uop()
            if uop.opclass == OP_BRANCH and uop.taken:
                if source.peek_pc() <= pc + 4:
                    backward += 1
                else:
                    forward += 1
        assert backward > 0
        assert forward <= 0.1 * (backward + forward)

    def test_prefill_warms_hot_set(self):
        from repro.memory import MemoryHierarchy

        hierarchy = MemoryHierarchy(MACHINE)
        source = SyntheticSource(get_profile("gzip"), 0, seed=1)
        source.prefill(hierarchy)
        assert hierarchy.l1d.occupancy > 0
        assert hierarchy.l2.occupancy > hierarchy.l1d.occupancy


class TestMaliciousKernels:
    def test_variant1_is_the_figure1_kernel(self):
        program = build_variant1(MACHINE, block_size=4)
        listing = program.listing()
        assert listing.count("addl") == 4
        assert "br L1" in listing

    def test_conflict_addresses_all_map_to_one_l2_set(self):
        addresses = conflict_addresses(MACHINE)
        assert len(addresses) == CONFLICT_WAYS == MACHINE.l2.assoc + 1
        l2 = Cache(MACHINE.l2)
        sets = {l2.set_index(a) for a in addresses}
        assert len(sets) == 1
        tags = {l2.tag(a) for a in addresses}
        assert len(tags) == CONFLICT_WAYS

    def test_conflict_addresses_also_collide_in_l1d(self):
        addresses = conflict_addresses(MACHINE)
        l1 = Cache(MACHINE.l1d)
        assert len({l1.set_index(a) for a in addresses}) == 1

    def test_variant2_has_two_phases(self):
        program = build_variant2(MACHINE, THERMAL)
        listing = program.listing()
        assert "P1:" in listing and "P2:" in listing
        assert listing.count("ldq") == CONFLICT_WAYS

    def test_variant2_phase_sizes_scale_with_time_scale(self):
        # At very low time scales the burst is sized by real time (more
        # cycles per ms); at high scales the indivisible miss-loop quantum
        # dominates and the burst is sized against it instead.
        slow = build_variant2(MACHINE, ThermalConfig(time_scale=200.0))
        fast = build_variant2(MACHINE, ThermalConfig(time_scale=4000.0))
        # Lower time scale -> more cycles per ms -> more burst iterations.
        def burst_iters(program):
            return program.at(program.label_address("start")).imm

        assert burst_iters(slow) > burst_iters(fast)

    def test_variant3_uses_dependent_chains(self):
        program = build_variant3(MACHINE, THERMAL)
        listing = program.listing()
        assert "addl $1, $1, $25" in listing

    def test_variant3_miss_phase_longer_than_variant2(self):
        v2 = build_variant2(MACHINE, THERMAL)
        v3 = build_variant3(MACHINE, THERMAL)

        def miss_iters(program):
            index = program.label_address("P2") - 1
            return program.at(index).imm

        # variant3 hides behind a lower average rate: relatively more
        # miss-phase iterations per burst iteration.
        def ratio(program):
            start = program.at(program.label_address("start")).imm
            return miss_iters(program) / start

        assert ratio(v3) > ratio(v2)

    def test_build_variant_dispatch(self):
        for name in MALICIOUS_VARIANTS:
            assert len(build_variant(name, MACHINE, THERMAL)) > 0
        with pytest.raises(WorkloadError):
            build_variant("variant9", MACHINE, THERMAL)

    def test_kernels_execute_forever(self):
        from repro.isa import ArchExecutor

        program = build_variant2(MACHINE, THERMAL)
        executor = ArchExecutor(program)
        for _ in range(10_000):
            executor.step()
        assert not executor.halted


class TestProgramSource:
    def test_loop_branches_train_to_near_perfect_prediction(self):
        source = ProgramSource(build_variant1(MACHINE), 0)
        for _ in range(20_000):
            source.next_row()
        assert source.mispredicts / source.branches < 0.05

    def test_thread_relocation_preserves_conflict_sets(self):
        """Relocating a kernel to thread 1's region must not change which L2
        set its conflict loads hit."""
        l2 = Cache(MACHINE.l2)
        source = cursor(ProgramSource(build_variant2(MACHINE, THERMAL), thread_id=1))
        load_sets = set()
        for _ in range(50_000):
            uop = source.next_uop()
            if uop.opclass == OP_LOAD:
                load_sets.add(l2.set_index(uop.address))
        assert len(load_sets) == 1

    def test_peek_pc_matches_next_uop(self):
        source = ProgramSource(build_variant1(MACHINE), 0)
        for _ in range(100):
            pc = source.peek_pc()
            assert source.next_row()[0] == pc

    def test_halted_program_yields_none(self):
        from repro.isa import assemble

        source = ProgramSource(assemble("nop\nhalt"), 0)
        assert source.next_row() is not None
        halt_pc = source.peek_pc()
        assert source.next_row() is None
        assert source.peek_pc() == halt_pc
        assert source.next_row() is None


class TestRegistry:
    def test_names_cover_spec_and_variants(self):
        names = workload_names()
        assert "gzip" in names and "variant2" in names
        assert len(names) == len(SPEC_PROFILES) + len(MALICIOUS_VARIANTS)

    def test_is_malicious(self):
        assert is_malicious("variant1") is True
        assert is_malicious("gzip") is False

    def test_make_source_types(self):
        synthetic = make_source("gzip", 0, MACHINE, THERMAL)
        program = make_source("variant2", 1, MACHINE, THERMAL)
        assert isinstance(synthetic, SyntheticSource)
        assert isinstance(program, ProgramSource)

    def test_make_source_unknown(self):
        with pytest.raises(WorkloadError):
            make_source("doom", 0, MACHINE, THERMAL)


class TestFpFlood:
    """Generality: the attack and defense are not integer-RF-specific."""

    def test_fp_flood_registered(self):
        assert "fp_flood" in MALICIOUS_VARIANTS
        assert is_malicious("fp_flood")

    def test_fp_flood_targets_fp_register_file(self):
        from repro.workloads import build_fp_flood

        program = build_fp_flood(MACHINE, block_size=8)
        listing = program.listing()
        assert "addt $f" in listing
        assert "addl" not in listing

    def test_fp_flood_heats_fp_rf_and_is_sedated(self):
        from repro.blocks import FP_RF
        from repro.config import scaled_config
        from repro.sim import Simulator

        config = scaled_config(time_scale=8000.0, quantum_cycles=20_000)
        sim = Simulator(
            config.with_policy("sedation"), workloads=["gcc", "fp_flood"]
        )
        result = sim.run()
        counts = sim.reports.sedation_counts_by_thread()
        assert counts.get(1, 0) >= 1
        assert counts.get(0, 0) == 0
        # The sedations happened at the FP register file.
        sedations = sim.reports.sedations()
        assert all(event.block == FP_RF for event in sedations)
