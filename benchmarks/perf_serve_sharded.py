#!/usr/bin/env python3
"""Sharded-serving benchmark: router + N shard processes vs one process.

Stands up the single-process baseline and the sharded deployment
(:class:`repro.serve.RouterApp` fronting N spawned shard workers) on
real sockets, drives both with the same keep-alive client pool, and
reports:

* **aggregate cached throughput** — concurrent clients against a warm
  analysis endpoint, single process vs routed fleet;
* **cross-shard byte identity** — the same request sent directly to
  every shard's private port must return byte-identical payloads
  (shards are shared-nothing replicas of the same datasets and the
  JSON encoding is canonical);
* **jobs roundtrip** — submit a priority job through the router, poll
  it to ``done``, and verify a subsequent synchronous ``/simulate``
  with the same parameters is a byte-identical cache hit.

Honest-numbers convention: the >= 4x aggregate speedup is only
*asserted* when the host can physically deliver it
(``harness.can_show_speedup(4)`` and at least 4 shards); smaller
hosts still run everything and record the measured speedup with
``speedup_asserted: false``.

Writes ``BENCH_serve_sharded.json`` at the repo root.

Run::

    PYTHONPATH=src python benchmarks/perf_serve_sharded.py

Environment knobs (CI smoke uses small values):
``REPRO_BENCH_SERVE_SHARDS`` (fleet size),
``REPRO_BENCH_SERVE_CLIENTS`` (concurrent clients),
``REPRO_BENCH_SERVE_REQUESTS`` (requests per client per phase).
"""

from __future__ import annotations

import http.client
import json
import threading
import time

import harness
from repro.serve import (
    DatasetRegistry,
    ReproApp,
    RouterApp,
    run_in_thread,
    run_router_in_thread,
)
from repro.serve.http import json_body

BENCH_SEED = 42
DATASET_SPECS = (
    f"t2=synth:tsubame2:{BENCH_SEED}",
    f"t3=synth:tsubame3:{BENCH_SEED}",
)
WARM_PATHS = ("/analyze/t2/breakdown", "/analyze/t3/metrics")
DEFAULT_CLIENTS = 8
DEFAULT_REQUESTS_PER_CLIENT = 50
SPEEDUP_FLOOR = 4.0


def _get(port: int, path: str) -> tuple[int, bytes]:
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=120)
    try:
        conn.request("GET", path)
        response = conn.getresponse()
        return response.status, response.read()
    finally:
        conn.close()


def _post(port: int, path: str, payload: dict) -> tuple[int, bytes]:
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=120)
    try:
        conn.request(
            "POST",
            path,
            json_body(payload),
            {"Content-Type": "application/json"},
        )
        response = conn.getresponse()
        return response.status, response.read()
    finally:
        conn.close()


def _bench_sustained(
    port: int, clients: int, requests_per_client: int
) -> dict:
    """Keep-alive clients hammering warm cached analysis endpoints."""
    for path in WARM_PATHS:
        status, _ = _get(port, path)
        assert status == 200, f"warmup {path} failed: {status}"
    barrier = threading.Barrier(clients)
    lock = threading.Lock()
    latencies: list[float] = []

    def worker(worker_index: int) -> None:
        # Each client reuses ONE keep-alive connection; alternating
        # paths exercises both shards of a 2-shard fleet.
        conn = http.client.HTTPConnection(
            "127.0.0.1", port, timeout=120
        )
        local: list[float] = []
        barrier.wait()
        try:
            for i in range(requests_per_client):
                path = WARM_PATHS[(worker_index + i) % len(WARM_PATHS)]
                start = time.perf_counter()
                conn.request("GET", path)
                response = conn.getresponse()
                response.read()
                local.append(time.perf_counter() - start)
                assert response.status == 200
        finally:
            conn.close()
        with lock:
            latencies.extend(local)

    threads = [
        threading.Thread(target=worker, args=(index,))
        for index in range(clients)
    ]
    start = time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    wall_s = time.perf_counter() - start
    total = clients * requests_per_client
    latencies.sort()
    return {
        "clients": clients,
        "requests_per_client": requests_per_client,
        "total_requests": total,
        "wall_s": wall_s,
        "requests_per_s": total / wall_s if wall_s else 0.0,
        "p50_ms": latencies[len(latencies) // 2] * 1e3,
        "p99_ms": latencies[int(len(latencies) * 0.99) - 1] * 1e3,
    }


def _check_cross_shard_identity(router: RouterApp) -> dict:
    """The same request against every shard's private port must
    return byte-identical payloads."""
    checked = []
    for path in WARM_PATHS:
        bodies = set()
        for index in sorted(router._shards):
            port = router._shards[index].port
            status, body = _get(port, path)
            assert status == 200, f"shard {index} {path}: {status}"
            bodies.add(body)
        assert len(bodies) == 1, f"shards diverged on {path}"
        checked.append(path)
    return {"paths": checked, "byte_identical": True}


def _bench_jobs(port: int) -> dict:
    """Priority job through the router: submit, poll, cache check."""
    payload = {
        "machine": "tsubame2",
        "replications": 3,
        "horizon_hours": 120.0,
        "seed": 2024,
    }
    submitted = dict(payload)
    submitted["priority"] = 5
    start = time.perf_counter()
    status, body = _post(port, "/jobs", submitted)
    assert status == 202, f"job submit failed: {status} {body!r}"
    job = json.loads(body)["job"]
    deadline = time.monotonic() + 120.0
    while time.monotonic() < deadline:
        status, body = _get(port, f"/jobs/{job['id']}")
        assert status == 200, f"job poll failed: {status}"
        record = json.loads(body)
        if record["job"]["status"] in ("done", "failed", "cancelled"):
            break
        time.sleep(0.05)
    wall_s = time.perf_counter() - start
    final = record["job"]["status"]
    assert final == "done", f"job finished {final}: {record}"
    # The job populated the result cache; the synchronous endpoint
    # must now hit it with the byte-identical payload.
    status, sync_body = _post(port, "/simulate", payload)
    assert status == 200
    identical = json.loads(sync_body) == record["result"]
    return {
        "job_id": job["id"],
        "status": final,
        "wall_s": wall_s,
        "sync_simulate_matches_job_result": identical,
    }


def run_benchmark() -> dict:
    default_shards = 4 if harness.can_show_speedup(4) else 2
    shards = max(
        1, harness.env_int("REPRO_BENCH_SERVE_SHARDS", default_shards)
    )
    clients = harness.env_int("REPRO_BENCH_SERVE_CLIENTS", DEFAULT_CLIENTS)
    requests_per_client = harness.env_int(
        "REPRO_BENCH_SERVE_REQUESTS", DEFAULT_REQUESTS_PER_CLIENT
    )

    # Baseline: the current single-process server.
    registry = DatasetRegistry()
    registry.synthesize("t2", "tsubame2", seed=BENCH_SEED)
    registry.synthesize("t3", "tsubame3", seed=BENCH_SEED)
    single_app = ReproApp(
        registry,
        workers=1,
        cache_size=1024,
        cache_ttl_seconds=None,
        max_inflight=32,
        max_queue=256,
    )
    with run_in_thread(single_app) as handle:
        single = _bench_sustained(
            handle.port, clients, requests_per_client
        )

    # Sharded: router + N worker processes, same datasets, same load.
    router = RouterApp(
        shards,
        DATASET_SPECS,
        workers=1,
        cache_size=1024,
        cache_ttl_seconds=None,
        max_inflight=32,
        max_queue=256,
    )
    with run_router_in_thread(router) as handle:
        sharded = _bench_sustained(
            handle.port, clients, requests_per_client
        )
        identity = _check_cross_shard_identity(router)
        jobs = _bench_jobs(handle.port)

    speedup = (
        sharded["requests_per_s"] / single["requests_per_s"]
        if single["requests_per_s"]
        else 0.0
    )
    # A 1-core host cannot parallelize anything; asserting 4x there
    # would only prove the benchmark lies.  Record honest numbers and
    # assert only where the hardware can deliver.
    speedup_asserted = harness.can_show_speedup(4) and shards >= 4
    if speedup_asserted:
        assert speedup >= SPEEDUP_FLOOR, (
            f"aggregate speedup {speedup:.2f}x < {SPEEDUP_FLOOR}x "
            f"with {shards} shards"
        )
    return {
        "seed": BENCH_SEED,
        "shards": shards,
        "single_process": single,
        "sharded": sharded,
        "speedup": speedup,
        "speedup_floor": SPEEDUP_FLOOR,
        "speedup_asserted": speedup_asserted,
        "cross_shard_identity": identity,
        "jobs": jobs,
    }


def summary_lines(results: dict) -> list[str]:
    single = results["single_process"]
    sharded = results["sharded"]
    cores = results["meta"]["available_cpus"]
    asserted = (
        "asserted" if results["speedup_asserted"]
        else f"not asserted on {cores} core(s)"
    )
    identity = results["cross_shard_identity"]
    jobs = results["jobs"]
    return [
        f"single process: {single['total_requests']} cached requests "
        f"= {single['requests_per_s']:,.0f} req/s "
        f"(p99 {single['p99_ms']:.2f} ms)",
        f"router + {results['shards']} shards: "
        f"{sharded['total_requests']} cached requests "
        f"= {sharded['requests_per_s']:,.0f} req/s "
        f"(p99 {sharded['p99_ms']:.2f} ms)",
        f"aggregate speedup: {results['speedup']:.2f}x ({asserted})",
        f"cross-shard byte identity: "
        f"{len(identity['paths'])} endpoints identical",
        f"jobs roundtrip: {jobs['status']} in {jobs['wall_s']:.2f} s "
        f"(sync /simulate matches: "
        f"{jobs['sync_simulate_matches_job_result']})",
    ]


if __name__ == "__main__":
    harness.main("serve_sharded", run_benchmark, summary_lines)
