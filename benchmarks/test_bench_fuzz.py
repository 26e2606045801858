"""Fuzz-throughput benchmark — writes ``BENCH_fuzz.json``.

Measures what a fuzzing budget actually buys: cases per second through the
full differential oracle (three kernels built, driven, traced, and compared
per case) for a fixed-seed session, plus the corpus replay rate.  The
session seed is pinned and expected to be counterexample-free — a nonzero
count here is a real kernel bug (or a strategy regression) surfacing in the
perf lane, and fails the bench loudly rather than being averaged away.

Smoke mode (``--benchmark-disable``) runs a small budget as a gate check;
full mode runs the budget the headline number is quoted from.
"""

import json
import os
import time
from pathlib import Path

from conftest import record_history, write_bench

from repro.fuzz.corpus import corpus_files, replay_case
from repro.fuzz.session import run_session

_BENCH_PATH = Path(__file__).resolve().parent.parent / "BENCH_fuzz.json"
_CORPUS_DIR = Path(__file__).resolve().parent.parent / "tests" / "corpus"

_SEED = 7
_FULL_BUDGET = 120
_SMOKE_BUDGET = 15


def test_bench_fuzz_throughput(benchmark, once, request):
    smoke = bool(request.config.getoption("benchmark_disable", False))
    budget = _SMOKE_BUDGET if smoke else _FULL_BUDGET

    report = once(
        benchmark,
        lambda: run_session(budget, _SEED, corpus_dir=None),
    )
    assert report.executed == budget
    assert not report.counterexamples, [
        ce.describe() for ce in report.counterexamples
    ]

    replayed = 0
    for path in corpus_files(_CORPUS_DIR):
        assert replay_case(path).ok, path.name
        replayed += 1

    record = {
        "host_cpus": os.cpu_count() or 1,
        "mode": "smoke" if smoke else "full",
        "seed": _SEED,
        "budget": budget,
        "cases_executed": report.executed,
        "rounds": report.rounds,
        "counterexamples": len(report.counterexamples),
        "session_s": round(report.duration_s, 3),
        "cases_per_s": round(report.cases_per_second, 2),
        "corpus_cases_replayed": replayed,
    }
    write_bench(_BENCH_PATH, record)
    print(f"\nBENCH_fuzz.json: {json.dumps(record, indent=2)}")
    record_history(
        "fuzz",
        {
            "cases_per_s": record["cases_per_s"],
            "counterexamples": record["counterexamples"],
            "budget": budget,
            "corpus_cases_replayed": replayed,
        },
    )


_FARM_SEED_START = 7
_FARM_SESSIONS = 4
_FARM_FULL_BUDGET = 40
_FARM_SMOKE_BUDGET = 8
_FARM_WORKERS = max(2, min(4, os.cpu_count() or 1))


def test_bench_fuzz_farm_throughput(benchmark, once, request, tmp_path):
    """Fuzzing as a service workload: a pinned seed range sharded across
    warm farm workers, one deterministic session per seed.

    The headline is aggregate differential-oracle cases/s across the farm —
    what ``splice fuzz submit`` buys over a single in-process session.  The
    seed range is pinned and expected counterexample-free (a finding here is
    a real bug surfacing in the perf lane), and the farm must also append
    the job's coverage trajectory to its history file — that record is the
    durable fuzz-coverage time series the service maintains.
    """
    from repro.service import DONE, FuzzJobSpec, SimulationFarm

    smoke = bool(request.config.getoption("benchmark_disable", False))
    budget = _FARM_SMOKE_BUDGET if smoke else _FARM_FULL_BUDGET
    spec = FuzzJobSpec(
        seed_start=_FARM_SEED_START,
        sessions=_FARM_SESSIONS,
        budget=budget,
        name="bench-fuzz-farm",
    )
    history = tmp_path / "history.jsonl"

    def drive():
        with SimulationFarm(
            workers=_FARM_WORKERS, name="bench-fuzz-farm", history_path=history
        ) as farm:
            job = farm.submit_fuzz(spec)
            assert job.wait(timeout=600) == DONE
            return job.fuzz_result(), farm.stats()

    start = time.perf_counter()
    result, stats = once(benchmark, drive)
    wall = time.perf_counter() - start

    assert result["executed"] == _FARM_SESSIONS * budget
    assert not result["counterexamples"], result["counterexamples"]
    assert result["coverage"], "a pinned fuzz run must cover at least one cell"
    # The farm's own durable trajectory record for this job.
    trajectory = [json.loads(line) for line in history.read_text().splitlines()]
    assert any(
        rec["headline"]["seed_start"] == _FARM_SEED_START
        and rec["headline"]["sessions"] == _FARM_SESSIONS
        and rec["headline"]["coverage_cells"] == len(result["coverage"])
        for rec in trajectory
    ), trajectory

    record = {
        "host_cpus": os.cpu_count() or 1,
        "workers": _FARM_WORKERS,
        "mode": "smoke" if smoke else "full",
        "seed_start": _FARM_SEED_START,
        "sessions": _FARM_SESSIONS,
        "budget": budget,
        "cases_executed": result["executed"],
        "coverage_cells": len(result["coverage"]),
        "counterexamples": len(result["counterexamples"]),
        "wall_s": round(wall, 3),
        "farm_cases_per_s": round(result["executed"] / wall, 2) if wall > 0 else None,
        "sessions_executed": stats["cells"]["sessions_executed"],
    }
    merged = json.loads(_BENCH_PATH.read_text()) if _BENCH_PATH.exists() else {}
    if "seed" in merged:  # single-session record from the test above
        merged = {"session": merged}
    merged["farm"] = record
    write_bench(_BENCH_PATH, merged)
    print(f"\nBENCH_fuzz.json[farm]: {json.dumps(record, indent=2)}")
    record_history(
        "fuzz-farm",
        {
            "farm_cases_per_s": record["farm_cases_per_s"],
            "coverage_cells": record["coverage_cells"],
            "counterexamples": record["counterexamples"],
            "sessions": _FARM_SESSIONS,
            "budget": budget,
        },
    )
