"""SMT core tests: timing, structural limits, SMT behaviors, gating."""

import dataclasses

import pytest

from repro.blocks import BPRED, DCACHE, INT_RF, WINDOW
from repro.config import MachineConfig
from repro.errors import PipelineError
from repro.isa import assemble
from repro.pipeline import SMTCore
from repro.pipeline.banks import stream_cursor
from repro.pipeline.fetch import icount_select, make_fetch_selector
from repro.pipeline.thread import ThreadContext
from repro.workloads.malicious import conflict_addresses
from repro.workloads.program_source import ProgramSource


def core_for(sources, **machine_kwargs):
    machine = MachineConfig(**machine_kwargs)
    return SMTCore(machine, sources)


def program_core(*sources_text, **machine_kwargs):
    texts = list(sources_text)
    machine_kwargs.setdefault("num_threads", len(texts))
    sources = [
        stream_cursor(i, ProgramSource(assemble(text, name=f"p{i}"), i))
        for i, text in enumerate(texts)
    ]
    core = core_for(sources, **machine_kwargs)
    for source in sources:
        source.prefill(core.hierarchy)
    return core


IDLE = "halt"


class TestBasicExecution:
    def test_serial_chain_ipc_is_about_one(self):
        chain = "L:\n" + "addl $1, $1, $25\n" * 16 + "br L"
        core = program_core(chain, IDLE)
        core.run_cycles(2000)
        assert 0.7 < core.thread_ipc(0) <= 1.1

    def test_independent_adds_saturate_alus(self):
        """4 int ALUs shared with the loop branch: IPC close to 4 solo."""
        body = "\n".join(f"addl ${1 + i % 16}, $25, $26" for i in range(48))
        core = program_core(f"L:\n{body}\nbr L", IDLE)
        core.run_cycles(2000)
        assert core.thread_ipc(0) > 3.0

    def test_halted_program_stops_fetching(self):
        core = program_core("nop\nnop\nhalt", IDLE)
        core.run_cycles(100)
        assert core.threads[0].committed == 2
        assert core.threads[0].halted is True
        assert core.all_halted() is True

    def test_commit_is_in_order_per_thread(self):
        """A slow first instruction holds back later (faster) ones."""
        source = "mull $1, $25, $26\naddl $2, $25, $26\nhalt"
        core = program_core(source, IDLE)
        # After decode(2) + issue + mult latency(3), both commit together;
        # the add alone would have committed earlier.
        committed_at = {}
        for _ in range(30):
            before = core.threads[0].committed
            core.step()
            if core.threads[0].committed != before:
                committed_at[core.threads[0].committed] = core.cycle
        assert committed_at  # both eventually commit
        assert core.threads[0].committed == 2

    def test_mispredict_gates_fetch(self):
        """An always-mispredicted alternating branch slows the front end."""
        loop = "L:\n" + "addl $1, $25, $26\n" * 2 + "br L"
        baseline = program_core(loop, IDLE)
        baseline.run_cycles(1000)
        # Force mispredicts by monkeypatching the predictor to always miss.
        core = program_core(loop, IDLE)
        core.threads[0].source.stream.source.predictor.update = (
            lambda thread, pc, taken, target: False
        )
        core.run_cycles(1000)
        assert core.thread_ipc(0) < baseline.thread_ipc(0) * 0.75


class TestStructuralLimits:
    def test_window_occupancy_bounded_by_ruu_size(self):
        chain = "L:\n" + "addl $1, $1, $25\n" * 32 + "br L"
        core = program_core(chain, IDLE, ruu_size=16)
        peak = 0
        for _ in range(500):
            core.step()
            peak = max(peak, core.window_used)
        assert peak <= 16

    def test_lsq_occupancy_bounded(self):
        loads = "L:\n" + "ldq $4, 0x100\n" * 16 + "br L"
        core = program_core(loads, IDLE, lsq_size=4)
        peak = 0
        for _ in range(500):
            core.step()
            peak = max(peak, core.lsq_used)
        assert peak <= 4

    def test_mem_ports_limit_load_throughput(self):
        loads = "L:\n" + "\n".join(f"ldq ${4 + i % 8}, {0x100 + 64 * (i % 4)}" for i in range(16)) + "\nbr L"
        narrow = program_core(loads, IDLE, mem_ports=1)
        narrow.run_cycles(1500)
        wide = program_core(loads, IDLE, mem_ports=2)
        wide.run_cycles(1500)
        assert narrow.thread_ipc(0) < wide.thread_ipc(0)

    def test_issue_width_caps_total_throughput(self):
        body = "\n".join(f"addl ${1 + i % 16}, $25, $26" for i in range(48))
        program = f"L:\n{body}\nbr L"
        narrow = program_core(program, program, issue_width=2, int_alus=8)
        narrow.run_cycles(1500)
        assert narrow.total_committed() <= 2 * 1500 * 1.05


class TestSquashOnL2Miss:
    def test_l2_missing_thread_does_not_clog_window(self):
        """The paper's optimization: a miss-blocked thread leaves the shared
        window to its co-runner."""
        addresses = conflict_addresses(MachineConfig())
        misses = "L:\n" + "\n".join(f"ldq $4, {a:#x}" for a in addresses) + "\nbr L"
        adds = "L:\n" + "addl $1, $25, $26\n" * 16 + "br L"
        core = program_core(misses, adds)
        core.run_cycles(3000)
        # The ALU thread should run essentially unimpeded.
        assert core.thread_ipc(1) > 3.0

    def test_without_squash_victim_suffers_more(self):
        addresses = conflict_addresses(MachineConfig())
        misses = "L:\n" + "\n".join(f"ldq ${4 + i}, {a:#x}" for i, a in enumerate(addresses)) + "\nbr L"
        adds = "L:\n" + "addl $1, $25, $26\n" * 16 + "br L"
        with_squash = program_core(misses, adds, squash_on_l2_miss=True)
        with_squash.run_cycles(3000)
        without = program_core(misses, adds, squash_on_l2_miss=False)
        without.run_cycles(3000)
        assert without.thread_ipc(1) <= with_squash.thread_ipc(1)

    def test_miss_block_set_and_cleared(self):
        source = "ldq $4, 0x90000\nhalt"
        core = program_core(source, IDLE)
        saw_block = False
        for _ in range(400):
            core.step()
            if core.threads[0].miss_block is not None:
                saw_block = True
        assert saw_block
        assert core.threads[0].miss_block is None
        assert core.threads[0].committed == 1


class TestSedationGating:
    def test_sedated_thread_stops_fetching(self):
        adds = "L:\n" + "addl $1, $25, $26\n" * 8 + "br L"
        core = program_core(adds, adds)
        core.run_cycles(200)
        fetched_before = core.threads[0].fetched
        core.set_sedated(0, True)
        core.run_cycles(200)
        # In-flight instructions drain, but no new fetches happen.
        assert core.threads[0].fetched - fetched_before <= 16
        assert core.sedated_threads() == [0]

    def test_release_resumes_fetching(self):
        adds = "L:\n" + "addl $1, $25, $26\n" * 8 + "br L"
        core = program_core(adds, adds)
        core.set_sedated(0, True)
        core.run_cycles(200)
        core.set_sedated(0, False)
        before = core.threads[0].fetched
        core.run_cycles(200)
        assert core.threads[0].fetched > before

    def test_other_thread_speeds_up_during_sedation(self):
        adds = "L:\n" + "addl $1, $25, $26\n" * 16 + "br L"
        shared = program_core(adds, adds)
        shared.run_cycles(1000)
        shared_ipc = shared.thread_ipc(1)
        sedated = program_core(adds, adds)
        sedated.set_sedated(0, True)
        sedated.run_cycles(1000)
        assert sedated.thread_ipc(1) > shared_ipc * 1.3


class TestAccessCounting:
    def test_rf_counts_reflect_reads_and_writes(self):
        """Each addl reads two int registers and writes one."""
        adds = "L:\n" + "addl $1, $25, $26\n" * 16 + "br L"
        core = program_core(adds, IDLE)
        core.run_cycles(1000)
        committed = core.threads[0].committed
        rf = core.access_counts[0][INT_RF]
        per_instr = rf / committed
        assert 2.3 < per_instr < 3.1  # ~3 per addl, diluted by branches

    def test_branch_instructions_touch_bpred(self):
        core = program_core("L: br L", IDLE)
        core.run_cycles(200)
        assert core.access_counts[0][BPRED] > 0

    def test_memory_ops_touch_dcache(self):
        core = program_core("L: ldq $4, 0x100\nbr L", IDLE)
        core.run_cycles(200)
        assert core.access_counts[0][DCACHE] > 0

    def test_window_counts_cover_dispatch_and_issue(self):
        core = program_core("L: addl $1, $25, $26\nbr L", IDLE)
        core.run_cycles(500)
        assert core.access_counts[0][WINDOW] >= 2 * core.threads[0].committed * 0.9


class TestSkipCycles:
    def test_skip_cycles_advances_clock_without_commits(self):
        adds = "L:\n" + "addl $1, $25, $26\n" * 8 + "br L"
        core = program_core(adds, IDLE)
        core.run_cycles(100)
        committed = core.threads[0].committed
        core.skip_cycles(500)
        assert core.cycle >= 600
        assert core.threads[0].committed == committed

    def test_in_flight_work_resumes_after_skip(self):
        core = program_core("mull $1, $25, $26\nhalt", IDLE)
        core.run_cycles(4)
        core.skip_cycles(100)
        core.run_cycles(50)
        assert core.threads[0].committed == 1

    def test_skip_zero_is_noop(self):
        core = program_core(IDLE, IDLE)
        core.skip_cycles(0)
        assert core.cycle == 0


class TestFetchPolicies:
    def test_icount_selects_lowest_counts(self):
        threads = [ThreadContext(i, None) for i in range(4)]
        for thread, count in zip(threads, (9, 2, 7, 4), strict=True):
            thread.icount = count
        chosen = icount_select(threads, 2)
        assert sorted(t.tid for t in chosen) == [1, 3]

    def test_icount_returns_all_when_few_runnable(self):
        threads = [ThreadContext(0, None)]
        assert icount_select(threads, 2) == threads

    def test_icount_order_is_a_stable_sort(self):
        for counts in [(3, 3), (5, 1), (1, 5), (4, 4, 2), (2, 7, 2, 1)]:
            threads = [ThreadContext(i, None) for i in range(len(counts))]
            for thread, count in zip(threads, counts, strict=True):
                thread.icount = count
            expected = sorted(threads, key=lambda t: t.icount)
            for limit in range(len(counts) + 1):
                assert icount_select(threads, limit) == expected[:limit]

    def test_round_robin_rotates(self):
        selector = make_fetch_selector("round_robin")
        threads = [ThreadContext(i, None) for i in range(3)]
        first = selector(threads, 1)[0].tid
        second = selector(threads, 1)[0].tid
        assert first != second

    def test_icount_favors_fast_thread_for_fetch_share(self):
        """The paper: a high-IPC thread gets a larger share under ICOUNT."""
        fast = "L:\n" + "addl $1, $25, $26\n" * 16 + "br L"
        slow = "L:\n" + "mull $1, $1, $26\n" * 16 + "br L"
        core = program_core(fast, slow)
        core.run_cycles(2000)
        assert core.threads[0].fetched > core.threads[1].fetched


class TestConstruction:
    def test_source_count_must_match_threads(self):
        source = ProgramSource(assemble(IDLE), 0)
        with pytest.raises(PipelineError):
            SMTCore(MachineConfig(num_threads=2), [source])

    def test_four_thread_smt_runs(self):
        adds = "L:\n" + "addl $1, $25, $26\n" * 8 + "br L"
        core = program_core(adds, adds, adds, adds, num_threads=4)
        core.run_cycles(500)
        assert all(t.committed > 0 for t in core.threads)


class TestPartitionedWindow:
    def test_partition_caps_each_thread(self):
        flood = "L:\n" + "\n".join(
            f"addl ${1 + i % 16}, $25, $26" for i in range(48)
        ) + "\nbr L"
        core = program_core(flood, flood, ruu_size=32, ruu_partitioned=True)
        for _ in range(500):
            core.step()
            for thread in core.threads:
                assert len(thread.rob) <= 16

    def test_shared_window_allows_asymmetry(self):
        flood = "L:\n" + "\n".join(
            f"addl ${1 + i % 16}, $25, $26" for i in range(48)
        ) + "\nbr L"
        slow = "L:\n" + "mull $1, $1, $26\n" * 4 + "br L"
        core = program_core(flood, slow, ruu_size=32, ruu_partitioned=False)
        peak = 0
        for _ in range(500):
            core.step()
            peak = max(peak, len(core.threads[0].rob))
        assert peak > 16  # the flood may exceed its "share" when unpartitioned
