"""Free-node index oracle.

The scheduler and the gang pick nodes from the cluster's free-node
index (a healthy mask next to the swap-remove list the fault injector
samples from) and count free nodes without scanning the fleet.  That
is only sound while a handful of invariants hold, so these tests wrap
every callback an engine runs and check them, against full scans,
after each event:

* ``first_available`` lists exactly what ``available_nodes`` lists;
* the swap-remove view holds exactly the healthy set;
* the scheduler's busy mask equals the keys of its node -> job map,
  every busy node is healthy (so ``num_available() - busy`` is the
  free count), and no node belongs to two running jobs;
* a running gang holds exactly ``num_nodes`` healthy members.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import CheckpointPolicy, ClusterSimulator, WorkloadConfig
from repro.trace import (
    ReplaySimulator,
    TraceRecorder,
    compare_traces,
    read_trace,
)
from repro.train import TrainingJobConfig

from tests.trace.conftest import GOLDEN_DIR


def check_free_node_index(sim) -> None:
    """Assert the index invariants on a simulator between events."""
    cluster = sim.cluster
    healthy = cluster.available_nodes()
    healthy_set = set(healthy)
    assert cluster.first_available(cluster.num_nodes) == healthy
    sampled = [
        cluster.available_at(i) for i in range(cluster.num_available())
    ]
    assert len(sampled) == len(healthy)
    assert set(sampled) == healthy_set

    scheduler = sim.scheduler
    if scheduler is not None:
        node_to_job = scheduler._node_to_job
        assert np.flatnonzero(scheduler._busy).tolist() == sorted(
            node_to_job
        )
        assert node_to_job.keys() <= healthy_set
        held = {}
        for job_id, entry in scheduler._running.items():
            for node in entry.nodes:
                assert node not in held, (node, held[node], job_id)
                held[node] = job_id
        assert held == node_to_job
        free = [node for node in healthy if node not in node_to_job]
        assert cluster.first_available(
            cluster.num_nodes, scheduler._busy
        ) == free
        assert cluster.num_available() - len(node_to_job) == len(free)

    gang = sim.training
    if gang is not None and gang.running:
        assert len(gang.members) == gang._config.num_nodes
        assert gang.members <= healthy_set


def audit_every_event(sim) -> list[int]:
    """Check the index after every event ``sim``'s engine runs.

    Wraps each callback as it is scheduled, so call this before
    running the simulator.  Returns a one-element list counting the
    checks made.
    """
    engine = sim.engine
    checks = [0]
    schedule_at = engine.schedule_at
    schedule_in = engine.schedule_in

    def audited(callback):
        def run() -> None:
            callback()
            check_free_node_index(sim)
            checks[0] += 1

        return run

    engine.schedule_at = lambda time, callback: schedule_at(
        time, audited(callback)
    )
    engine.schedule_in = lambda delay, callback: schedule_in(
        delay, audited(callback)
    )
    return checks


@pytest.mark.parametrize("name", ["t3_workload", "a100_train"])
def test_golden_replay_keeps_the_index(name):
    trace, _ = read_trace(GOLDEN_DIR / f"{name}.jsonl")
    sim = ReplaySimulator(trace)
    checks = audit_every_event(sim)
    recorder = TraceRecorder.attach(sim)
    report = sim.run()
    replayed = recorder.finalize(report, trace.horizon_hours)
    assert compare_traces(trace, replayed) is None
    assert checks[0] == sim.engine.processed > 0


@settings(max_examples=3, deadline=None)
@given(seed=st.integers(0, 2**31 - 1))
def test_workload_runs_keep_the_index(seed):
    sim = ClusterSimulator(
        "tsubame3",
        seed=seed,
        intensity=4.0,
        workload=WorkloadConfig(),
        checkpoint_policy=CheckpointPolicy(2.0, 0.1),
        keep_injected_log=False,
    )
    checks = audit_every_event(sim)
    report = sim.run(500.0)
    assert checks[0] == sim.engine.processed
    assert report.scheduler.jobs_completed > 0


@settings(max_examples=3, deadline=None)
@given(seed=st.integers(0, 2**31 - 1))
def test_gang_runs_keep_the_index(seed):
    sim = ClusterSimulator(
        "a100",
        seed=seed,
        checkpoint_policy=CheckpointPolicy(2.0, 0.25),
        train=TrainingJobConfig(num_nodes=512),
        keep_injected_log=False,
    )
    checks = audit_every_event(sim)
    report = sim.run(720.0)
    assert checks[0] == sim.engine.processed
    assert report.train.restarts > 0
