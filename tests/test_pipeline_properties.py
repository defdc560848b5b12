"""Property-based pipeline invariants over randomized workloads."""

import dataclasses

from hypothesis import given, settings, strategies as st

from repro.config import MachineConfig
from repro.pipeline import SMTCore
from repro.pipeline.banks import stream_cursor
from repro.workloads.profiles import get_profile
from repro.workloads.synthetic import SyntheticSource


def random_profile_source(draw_seed, tid, load, branch, dep, dist):
    base = get_profile("gcc")
    profile = dataclasses.replace(
        base,
        ialu=max(0.0, 1.0 - load - branch - 0.1),
        load=load,
        store=0.05,
        branch=branch,
        imult=0.0,
        dep_fraction=dep,
        dep_distance_mean=dist,
    )
    return stream_cursor(tid, SyntheticSource(profile, tid, seed=draw_seed))


profile_params = st.tuples(
    st.integers(0, 2**16),
    st.floats(0.05, 0.35),
    st.floats(0.03, 0.25),
    st.floats(0.1, 1.0),
    st.floats(1.0, 10.0),
)


@given(profile_params, profile_params)
@settings(max_examples=15, deadline=None)
def test_pipeline_invariants_hold_for_random_workloads(p0, p1):
    sources = [
        random_profile_source(p0[0], 0, p0[1], p0[2], p0[3], p0[4]),
        random_profile_source(p1[0], 1, p1[1], p1[2], p1[3], p1[4]),
    ]
    machine = MachineConfig()
    core = SMTCore(machine, sources)
    for source in sources:
        source.prefill(core.hierarchy)

    for _ in range(40):
        core.run_cycles(25)
        # Structural occupancy invariants.
        assert 0 <= core.window_used <= machine.ruu_size
        assert 0 <= core.lsq_used <= machine.lsq_size
        for thread in core.threads:
            # A thread never commits more than it fetched.
            assert thread.committed <= thread.fetched
            # icount equals instructions in flight.
            assert thread.icount == len(thread.fetch_queue) + len(thread.rob)
            assert thread.icount >= 0

    # Window occupancy equals the sum of ROB residents.
    assert core.window_used == sum(len(t.rob) for t in core.threads)
    # Forward progress: at least one thread committed something.
    assert core.total_committed() > 0


@given(st.integers(0, 2**16))
@settings(max_examples=10, deadline=None)
def test_sedated_thread_commits_stop_quickly(seed):
    sources = [
        stream_cursor(0, SyntheticSource(get_profile("gzip"), 0, seed=seed)),
        stream_cursor(1, SyntheticSource(get_profile("eon"), 1, seed=seed + 1)),
    ]
    core = SMTCore(MachineConfig(), sources)
    for source in sources:
        source.prefill(core.hierarchy)
    core.run_cycles(500)
    core.set_sedated(0, True)
    core.run_cycles(600)  # drain
    committed = core.threads[0].committed
    core.run_cycles(500)
    assert core.threads[0].committed == committed


@given(st.integers(0, 2**16), st.integers(1, 400))
@settings(max_examples=10, deadline=None)
def test_skip_cycles_preserves_all_in_flight_work(seed, skip):
    sources = [
        stream_cursor(0, SyntheticSource(get_profile("gcc"), 0, seed=seed)),
        stream_cursor(1, SyntheticSource(get_profile("swim"), 1, seed=seed + 1)),
    ]
    reference = SMTCore(MachineConfig(), sources)
    for source in sources:
        source.prefill(reference.hierarchy)
    reference.run_cycles(300)
    in_flight = sum(t.icount for t in reference.threads)
    reference.skip_cycles(skip)
    # Nothing lost, nothing committed during the stall.
    assert sum(t.icount for t in reference.threads) == in_flight
    reference.run_cycles(2000)
    # The pipeline drains normally afterwards (no stuck uops).
    assert reference.total_committed() > 0


def core_state(core):
    """Everything a missed write-back of ``run_cycles``' locals would skew."""
    return (
        core.cycle,
        [list(counts) for counts in core.access_counts],
        core.window_used,
        core.lsq_used,
        len(core.ready),
        sorted(core._wheel),
        [
            (t.committed, t.fetched, t.icount, t.last_fetch_line)
            for t in core.threads
        ],
    )


#: One chunk of the split run: ``("run", n)`` is one ``run_cycles(n)`` call,
#: ``("step", n)`` is ``n`` calls of ``step()``.
chunk = st.tuples(st.sampled_from(["run", "run", "step"]), st.integers(1, 60))

#: What happens at a chunk boundary (both cores, same cycle).
boundary = st.one_of(
    st.none(),
    st.none(),
    st.tuples(st.just("sedate"), st.integers(0, 1), st.booleans()),
    st.tuples(st.just("skip"), st.integers(1, 200)),
)


@given(
    st.sampled_from(["gzip", "mcf", "swim", "eon", "variant1", "variant2"]),
    st.sampled_from(["gcc", "art", "variant3", "idle"]),
    st.integers(0, 2**16),
    st.lists(st.tuples(chunk, boundary), min_size=2, max_size=25),
    st.integers(0, 24),
)
@settings(max_examples=20, deadline=None)
def test_run_cycles_is_chunk_invariant(first, second, seed, plan, fork_at):
    """Any split of a run into run_cycles/step calls gives the same core.

    The split core also forks at one boundary and carries on with the
    clone.  The reference runs each stretch between boundary actions as
    one ``run_cycles`` call and applies the same actions at the same
    cycles.
    """
    from repro.config import scaled_config
    from repro.sim.simulator import build_pipeline

    config = scaled_config(time_scale=20_000.0, seed=seed)
    split = build_pipeline(config, [first, second])
    reference = build_pipeline(config, [first, second])
    pending = 0
    for index, ((kind, n), action) in enumerate(plan):
        if kind == "run":
            split.run_cycles(n)
        else:
            for _ in range(n):
                split.step()
        pending += n
        if index == fork_at:
            split = split.fork()
        if action is None:
            continue
        reference.run_cycles(pending)
        pending = 0
        assert core_state(split) == core_state(reference)
        if action[0] == "sedate":
            split.set_sedated(action[1], action[2])
            reference.set_sedated(action[1], action[2])
        else:
            split.skip_cycles(action[1])
            reference.skip_cycles(action[1])
    reference.run_cycles(pending)
    assert core_state(split) == core_state(reference)
