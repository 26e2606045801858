"""Service farm load benchmark — writes ``BENCH_service.json``.

Drives a live farm (real worker processes, real HTTP server, real stdlib
clients) with hundreds of concurrent small-grid submissions from 16 client
threads, in two phases over the *same* job population:

* **cold** — every spec is new: each job queues, is dispatched to a warm
  worker, simulates, and streams back;
* **warm** — the identical specs are resubmitted: every cell is answered
  from the shared content-addressed result cache at submit time, without
  touching a worker (per-job hit rate must be exactly 1.0).

Recorded per phase: p50/p99 submit-to-final-state latency as observed by the
clients (the full HTTP → queue → worker → stream round trip) and sustained
jobs/s.  The headline ratio ``warm_p50_speedup`` is what the result cache
buys a repeat submission end-to-end; the bench asserts it (≥5x full mode,
≥3x under ``--benchmark-disable`` smoke, where the tiny population makes the
ratio noisier).  One cold job is also checked bit-identical against
``run_campaign`` on the same spec — load must not change results.
"""

import json
import os
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

from conftest import record_history, write_bench

from repro.campaign import ScenarioSweep, run_campaign, sweep_grid
from repro.service import ServiceClient, SimulationFarm, serve_farm_in_thread

_BENCH_PATH = Path(__file__).resolve().parent.parent / "BENCH_service.json"
_WORKERS = max(2, min(4, os.cpu_count() or 1))
_CLIENT_THREADS = 16
#: 2 geometric scenarios x 4 repeats: a small grid, but one that actually
#: simulates a few thousand bus cycles — so the cold phase measures real
#: submit→simulate→stream round trips, not just HTTP overhead.
_CELLS_PER_JOB = 8


def _specs(count):
    """``count`` distinct small grids (the seed varies the cell digests,
    so no cold job can accidentally hit another job's cache entries)."""
    return [
        sweep_grid(
            ScenarioSweep(mode="geometric", count=2, base=(16, 8, 16), max_size=512),
            implementations=("splice_plb",),
            seeds=(seed,),
            repeats=4,
            name=f"bench-svc-{seed}",
        )
        for seed in range(count)
    ]


def _drive(client, specs):
    """Submit every spec from a 16-thread client pool; per-job latency is
    submit-to-terminal-state as the client experiences it."""

    def one(spec):
        start = time.perf_counter()
        final = client.submit_and_wait(spec, timeout=300)
        return final, time.perf_counter() - start

    start = time.perf_counter()
    with ThreadPoolExecutor(max_workers=_CLIENT_THREADS) as pool:
        outcomes = list(pool.map(one, specs))
    wall = time.perf_counter() - start
    finals = [final for final, _ in outcomes]
    latencies = sorted(latency for _, latency in outcomes)
    assert all(final["state"] == "done" for final in finals)

    def pct(fraction):
        return latencies[int(fraction * (len(latencies) - 1))]

    summary = {
        "jobs": len(specs),
        "wall_s": round(wall, 4),
        "jobs_per_s": round(len(specs) / wall, 2) if wall > 0 else None,
        "p50_s": round(pct(0.50), 5),
        "p99_s": round(pct(0.99), 5),
        "max_s": round(latencies[-1], 5),
    }
    return finals, summary


def test_service_cold_vs_warm_latency_under_load(benchmark, once, request):
    smoke = bool(request.config.getoption("benchmark_disable", False))
    job_count = 24 if smoke else 192
    specs = _specs(job_count)

    with SimulationFarm(workers=_WORKERS, name="bench-farm") as farm:
        server, _thread = serve_farm_in_thread(farm)
        try:
            client = ServiceClient(
                "http://127.0.0.1:%d" % server.server_address[1], timeout=300
            )
            cold_finals, cold = _drive(client, specs)

            # Load must not change results: one served job, bit-identical
            # to the batch runner on the same spec.
            batch = run_campaign(specs[0])
            served = client.result(cold_finals[0]["id"])
            assert served["cells"] == batch.payload()

            warm_finals, warm = once(benchmark, _drive, client, specs)
            stats = client.stats()
        finally:
            server.shutdown()
            server.server_close()

    # Warm phase = pure cache reads: every job fully cached, no worker cells.
    assert all(
        final["cells_cached"] == final["cells_total"] for final in warm_finals
    )
    warm["hit_rate"] = 1.0
    assert stats["cells"]["cells_executed"] == job_count * _CELLS_PER_JOB

    speedup = round(cold["p50_s"] / warm["p50_s"], 2) if warm["p50_s"] > 0 else None
    record = {
        "host_cpus": os.cpu_count() or 1,
        "workers": _WORKERS,
        "client_threads": _CLIENT_THREADS,
        "cells_per_job": _CELLS_PER_JOB,
        "mode": "smoke" if smoke else "full",
        "cold": cold,
        "warm": warm,
        "warm_p50_speedup": speedup,
        "farm": {
            "cells": stats["cells"],
            "utilization_lifetime": round(stats["utilization_lifetime"], 4),
            "cache_entries": stats["cache_entries"],
            "shard_size": stats["shard_size"],
        },
    }
    write_bench(_BENCH_PATH, record)
    print(f"\nBENCH_service.json: {json.dumps(record, indent=2)}")
    record_history(
        "service",
        {
            "cold_p50_s": cold["p50_s"],
            "cold_jobs_per_s": cold["jobs_per_s"],
            "warm_p50_s": warm["p50_s"],
            "warm_jobs_per_s": warm["jobs_per_s"],
            "warm_p50_speedup": speedup,
            "hit_rate": warm["hit_rate"],
        },
    )

    # The cache short-circuit is architectural, not a tuning artifact: a
    # warm submission does no simulation at all, so even on a noisy host the
    # end-to-end median must be several times faster than cold.
    assert speedup is not None and speedup >= (3.0 if smoke else 5.0), record


def test_journal_overhead_on_warm_path(benchmark, once, request, tmp_path):
    """Durability must be close to free on the fast path.

    With ``--state-dir`` a fully-cached submission still writes two fsync'd
    journal records (``submitted`` + ``finished``) before the client sees a
    terminal state.  This drives the identical warm (100%-cached) population
    through two farms sharing one result-cache directory — one ephemeral,
    one journalled — and gates the journalled warm p50 at no worse than
    15% over the ephemeral one (plus a 10 ms absolute floor so sub-ms
    medians on fast hosts don't turn disk-latency noise into failures).
    """
    smoke = bool(request.config.getoption("benchmark_disable", False))
    job_count = 12 if smoke else 96
    specs = _specs(job_count)
    cache_dir = tmp_path / "cache"

    def warm_phase(state_dir=None):
        farm = SimulationFarm(
            workers=_WORKERS,
            cache=cache_dir,
            name="bench-journal",
            state_dir=state_dir,
        )
        with farm:
            server, _thread = serve_farm_in_thread(farm)
            try:
                client = ServiceClient(
                    "http://127.0.0.1:%d" % server.server_address[1], timeout=300
                )
                finals, summary = _drive(client, specs)
                stats = client.stats()
            finally:
                server.shutdown()
                server.server_close()
        return finals, summary, stats

    # Prime the shared cache once (cold); both measured phases below are
    # then pure cache reads, so the only difference between them is the
    # write-ahead journal.
    warm_phase()

    plain_finals, plain, _ = warm_phase()
    journal_finals, journalled, journal_stats = once(
        benchmark, warm_phase, tmp_path / "state"
    )

    for finals in (plain_finals, journal_finals):
        assert all(f["cells_cached"] == f["cells_total"] for f in finals)
    # Two records per fully-cached job: "submitted" then "finished".
    assert journal_stats["journal_records"] >= 2 * job_count
    assert journal_stats["durable"] is True

    overhead_pct = (
        round((journalled["p50_s"] / plain["p50_s"] - 1.0) * 100, 2)
        if plain["p50_s"] > 0 else None
    )
    record = {
        "mode": "smoke" if smoke else "full",
        "jobs": job_count,
        "no_journal_warm": plain,
        "journal_warm": journalled,
        "journal_records": journal_stats["journal_records"],
        "overhead_pct": overhead_pct,
    }
    merged = json.loads(_BENCH_PATH.read_text()) if _BENCH_PATH.exists() else {}
    merged["journal_overhead"] = record
    write_bench(_BENCH_PATH, merged)
    print(f"\njournal_overhead: {json.dumps(record, indent=2)}")
    record_history(
        "service-journal",
        {
            "warm_p50_s": plain["p50_s"],
            "journal_warm_p50_s": journalled["p50_s"],
            "overhead_pct": overhead_pct,
        },
    )

    # The durability gate: journalling a warm submission may cost at most
    # 15% of the ephemeral warm median (10 ms absolute slack for hosts
    # where the warm median itself is sub-millisecond).
    assert journalled["p50_s"] <= plain["p50_s"] * 1.15 + 0.010, record
