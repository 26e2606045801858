"""Service chaos benchmark — writes ``BENCH_chaos.json``.

Drives a live farm with concurrent real-simulation jobs while a killer
thread SIGKILLs a busy worker at a fixed cadence (``SimulationFarm.
kill_worker``, the same injectable hook the service smoke tests use).  The
dispatcher's crash policy — respawn the dead worker, retry the in-flight
shard once, record structured ``worker_crash`` errors only if the retry
dies too — is what keeps the farm available, and this bench measures it
under sustained load instead of a single staged kill:

* every submitted job must reach a terminal state (the farm never wedges),
* jobs whose shards were only killed once complete ``done`` and
  **bit-identical** to ``run_campaign`` on the same spec,
* any failed job may carry only ``worker_crash`` error records.

Recorded: jobs/s under chaos, kills injected, workers respawned, shards
retried, and the done/failed split.  The headline ``availability`` is the
fraction of jobs that completed despite the kills; the bench asserts the
farm processed every job to a terminal state and that at least one kill
actually landed (otherwise it measured nothing).
"""

import json
import os
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

from conftest import record_history, write_bench

from repro.campaign import ScenarioSweep, run_campaign, sweep_grid
from repro.service import DONE, FAILED, SimulationFarm

_BENCH_PATH = Path(__file__).resolve().parent.parent / "BENCH_chaos.json"
_WORKERS = max(2, min(4, os.cpu_count() or 1))
#: Recovery window after each kill before hunting for the next busy worker.
_KILL_COOLDOWN_S = 0.1


def _specs(count):
    """``count`` distinct real-simulation grids (seeds keep digests apart)."""
    return [
        sweep_grid(
            ScenarioSweep(mode="geometric", count=2, base=(16, 8, 16), max_size=512),
            implementations=("splice_plb",),
            seeds=(1000 + seed,),
            repeats=2,
            name=f"bench-chaos-{seed}",
        )
        for seed in range(count)
    ]


def _run_chaos(farm, specs, max_kills):
    """Submit every spec concurrently while a killer thread SIGKILLs busy
    workers (kills are triggered by observed busyness, not a fixed clock, so
    even a fast smoke population takes real mid-shard hits)."""
    stop = threading.Event()
    kills = []

    def killer():
        while not stop.is_set() and len(kills) < max_kills:
            if farm.stats()["workers_busy"] > 0:
                killed = farm.kill_worker()  # busy-preferred SIGKILL
                if killed is not None:
                    kills.append(killed)
                    stop.wait(_KILL_COOLDOWN_S)
                    continue
            stop.wait(0.005)

    thread = threading.Thread(target=killer, name="chaos-killer", daemon=True)
    thread.start()
    start = time.perf_counter()
    try:
        with ThreadPoolExecutor(max_workers=8) as pool:
            jobs = list(pool.map(farm.submit, specs))
        states = [job.wait(timeout=300) for job in jobs]
    finally:
        stop.set()
        thread.join(timeout=5)
    wall = time.perf_counter() - start
    return jobs, states, kills, wall


def test_farm_stays_available_under_worker_kills(benchmark, once, request):
    smoke = bool(request.config.getoption("benchmark_disable", False))
    job_count = 6 if smoke else 24
    max_kills = 2 if smoke else 8
    specs = _specs(job_count)

    with SimulationFarm(workers=_WORKERS, shard_size=1, name="chaos-farm") as farm:
        jobs, states, kills, wall = once(benchmark, _run_chaos, farm, specs, max_kills)
        counters = dict(farm.counters)
        # The farm must still be fully available once the chaos stops.
        aftermath = farm.submit(specs[0])
        assert aftermath.wait(timeout=120) == DONE

    # Availability: every job terminal, nothing wedged or lost.
    assert all(state in (DONE, FAILED) for state in states), states
    done = [job for job, state in zip(jobs, states) if state == DONE]
    failed = [job for job, state in zip(jobs, states) if state == FAILED]

    # Completed jobs are bit-identical to the batch runner on the same spec:
    # a kill + shard retry may cost time but never changes a result.
    for job in done:
        spec = next(spec for spec in specs if spec.name == job.spec.name)
        assert job.result().payload() == run_campaign(spec).payload(), job.spec.name
    # A job may fail only via the structured double-crash path.
    for job in failed:
        assert job.errors, job.id
        assert all(error.kind == "worker_crash" for error in job.errors.values())

    availability = len(done) / len(jobs)
    record = {
        "host_cpus": os.cpu_count() or 1,
        "workers": _WORKERS,
        "mode": "smoke" if smoke else "full",
        "jobs": len(jobs),
        "done": len(done),
        "failed": len(failed),
        "availability": round(availability, 4),
        "wall_s": round(wall, 4),
        "jobs_per_s": round(len(jobs) / wall, 2) if wall > 0 else None,
        "kills_injected": len(kills),
        "workers_respawned": counters.get("workers_respawned", 0),
        "shards_retried": counters.get("shards_retried", 0),
        "cells_executed": counters.get("cells_executed", 0),
    }
    write_bench(_BENCH_PATH, record)
    print(f"\nBENCH_chaos.json: {json.dumps(record, indent=2)}")
    record_history(
        "chaos",
        {
            "availability": record["availability"],
            "jobs_per_s": record["jobs_per_s"],
            "kills_injected": record["kills_injected"],
            "workers_respawned": record["workers_respawned"],
            "shards_retried": record["shards_retried"],
        },
    )

    # The bench is meaningless if no kill landed; busy-triggered kills over
    # real simulation work guarantee at least one.
    assert kills, "chaos thread never killed a worker"
    assert counters.get("workers_respawned", 0) >= len(kills)
