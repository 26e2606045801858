"""Campaign subsystem benchmark — writes ``BENCH_campaign.json``.

Runs a ≥32-cell grid three ways (serial, sharded, warm-cache) and records
machine-readable numbers so the performance trajectory is tracked across
PRs:

* ``serial_cycles_per_s`` — simulated bus cycles per wall-clock second,
* ``parallel_speedup`` — serial / sharded wall-clock on the same grid
  (bounded by the host's core count, which is recorded as ``host_cpus``;
  on a single-CPU host the sharded timing is *skipped entirely* — process
  sharding cannot speed anything up there, so running it would only burn
  benchmark time to produce a misleading number — and the record carries
  ``"sharded": "skipped(host_cpus=1)"`` with a ``null`` speedup),
* ``cache_hit_rate`` — fraction of cells a warm re-run skipped (must be 1.0).

The JSON lands next to this file's repository root as ``BENCH_campaign.json``.
"""

import json
import os
import time
from pathlib import Path

from conftest import record_history, write_bench

from repro.campaign import (
    ScenarioSweep,
    SerialExecutor,
    ShardedExecutor,
    run_campaign,
    sweep_grid,
)

_BENCH_PATH = Path(__file__).resolve().parent.parent / "BENCH_campaign.json"
_WORKERS = max(2, min(4, os.cpu_count() or 1))


def _grid():
    # 4 implementations x 4 geometric scenarios x 2 seeds = 32 cells.
    return sweep_grid(
        ScenarioSweep(mode="geometric", count=4, base=(8, 4, 8), max_size=128),
        implementations=("splice_plb", "splice_plb_dma", "splice_fcb", "splice_opb"),
        seeds=(0, 1),
        name="bench-grid",
    )


def test_campaign_serial_vs_sharded_vs_cached(benchmark, once, tmp_path):
    spec = _grid()
    host_cpus = os.cpu_count() or 1

    start = time.perf_counter()
    serial = run_campaign(spec, executor=SerialExecutor())
    serial_s = time.perf_counter() - start

    # On a single-CPU host, process sharding cannot win — previously the
    # sharded grid still ran (doubling the benchmark's wall-clock), lost,
    # and the field was nulled anyway.  Skip the timing outright and say so.
    if host_cpus >= 2:
        start = time.perf_counter()
        sharded = run_campaign(spec, executor=ShardedExecutor(workers=_WORKERS))
        sharded_s = time.perf_counter() - start
        assert sharded.payload() == serial.payload()
        sharded_field = round(sharded_s, 4)
        speedup = round(serial_s / sharded_s, 3) if sharded_s > 0 else None
    else:
        sharded_field = f"skipped(host_cpus={host_cpus})"
        speedup = None

    cache_dir = tmp_path / "cache"
    run_campaign(spec, cache=cache_dir)
    warm = once(benchmark, run_campaign, spec, cache=cache_dir)

    assert warm.payload() == serial.payload()
    assert warm.cache_hit_rate == 1.0

    simulated = serial.meta["simulated_cycles"]
    record = {
        "grid": {
            "name": spec.name,
            "cells": spec.cell_count,
            "implementations": list(spec.implementations),
            "scenarios": len(spec.scenarios),
            "seeds": list(spec.seeds),
        },
        "host_cpus": host_cpus,
        "workers": _WORKERS,
        "serial_elapsed_s": round(serial_s, 4),
        "sharded_elapsed_s": sharded_field,
        "parallel_speedup": speedup,
        "serial_cycles_per_s": round(simulated / serial_s, 1) if serial_s > 0 else None,
        "simulated_cycles": simulated,
        "cache_hit_rate": warm.cache_hit_rate,
        "warm_elapsed_s": round(warm.meta["elapsed_s"], 4),
    }
    write_bench(_BENCH_PATH, record)
    print(f"\nBENCH_campaign.json: {json.dumps(record, indent=2)}")
    record_history(
        "campaign",
        {
            "serial_cycles_per_s": record["serial_cycles_per_s"],
            "parallel_speedup": record["parallel_speedup"],
            "sharded": record["sharded_elapsed_s"],
            "cache_hit_rate": record["cache_hit_rate"],
        },
    )

    # The recorded speedup is tracked across PRs rather than hard-asserted
    # here: benchmark wall-clock on shared CI runners is too noisy to gate
    # on.  The >= 2x @ 4 workers requirement lives in
    # tests/test_campaign.py::test_sharded_speedup_at_4_workers (gated on
    # host core count).
    if record["parallel_speedup"] is not None:
        assert record["parallel_speedup"] > 0
