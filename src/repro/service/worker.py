"""Warm worker processes: runners stay resident across jobs.

This is what separates the farm from ``splice campaign run``'s throwaway
``ProcessPoolExecutor``: a worker process lives for the whole service
lifetime, keeps every runner it has ever built in an in-process dictionary
keyed by ``(label, kernel)``, and points the compiled kernel at the shared
:class:`~repro.rtl.compile.CompiledProgramCache` directory — so after the
first job touches an implementation, every later job pays neither spec
parsing, nor elaboration, nor codegen for it.

Protocol (all messages are small picklable tuples):

* parent → worker (per-worker task queue):
  ``("shard", job_id, shard_id, [CampaignCell, ...])`` for campaign shards,
  ``("fuzz", job_id, shard_id, params)`` for one deterministic fuzz session
  (params: seed/budget/profile/with_faults/timeout_s), or ``None`` to stop.
* worker → parent (shared result queue; index 1 is always the worker id, so
  the dispatcher can track per-worker liveness generically):
  ``("ready", worker_id, stats)`` once warm-up/preload is done,
  ``("heartbeat", worker_id)`` at shard start and (throttled) per fuzz case
  — the stuck-worker watchdog's liveness signal,
  ``("cell", worker_id, job_id, shard_id, cell_key, (result, cycles, txns))``
  per finished cell (this is what per-cell progress streaming is fed from),
  ``("cell_error", worker_id, job_id, shard_id, cell_key, message)`` when a
  single cell raises (the worker survives; job-level fault isolation),
  ``("shard_done", worker_id, job_id, shard_id, stats)`` at the boundary,
  ``("finding", worker_id, job_id, shard_id, counterexample_dict)`` per
  shrunk fuzz counterexample, as it is found (streamed to clients and
  appended to the server-side corpus),
  ``("fuzz_done", worker_id, job_id, shard_id, payload, duration_s, stats)``
  when a fuzz session completes (payload is the deterministic session
  record: executed/rounds/coverage/counterexamples),
  ``("fuzz_error", worker_id, job_id, shard_id, seed, message)`` when the
  session machinery itself raises (e.g. Hypothesis missing in a minimal
  environment) — the job records a structured error, the worker survives.

A worker that dies (OOM, segfault, ``os._exit``) simply stops sending; the
dispatcher notices the dead process, respawns a fresh worker, and retries
the in-flight shard once before recording structured per-cell errors —
mirroring :class:`~repro.campaign.executor.ShardedExecutor`'s crash policy.
A worker that *hangs* stops heartbeating instead: the dispatcher's watchdog
SIGKILLs it and the same respawn/retry path runs, ending in ``worker_stuck``
errors if the retry hangs too.
"""

from __future__ import annotations

import multiprocessing
import os
import queue
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.rtl.compile import PROGRAM_CACHE_ENV

#: Minimum seconds between fuzz-case heartbeats (campaign shards heartbeat
#: implicitly through per-cell messages; fuzz sessions run many cases per
#: second, so their liveness signal is throttled to one message per second).
FUZZ_HEARTBEAT_EVERY_S = 1.0

#: Seconds an idle worker waits for a task before checking that its server
#: is still alive.
ORPHAN_CHECK_S = 1.0


def _parse_preload(entry) -> Tuple[str, str]:
    """``"label"`` / ``"label:kernel"`` / ``(label, kernel)`` → pair."""
    from repro.rtl import DEFAULT_KERNEL

    if isinstance(entry, str):
        label, _, kernel = entry.partition(":")
        return (label, kernel or DEFAULT_KERNEL)
    label, kernel = entry
    return (str(label), str(kernel))


def worker_main(
    worker_id: int,
    task_queue,
    result_queue,
    program_cache_dir: Optional[str],
    preload: Sequence,
) -> None:
    """Worker process entry point (module-level, so it pickles under spawn)."""
    from repro.devices.registry import build_runner

    server_pid = os.getppid()

    if program_cache_dir:
        # Reaches every CompiledSimulator this process ever builds; the
        # content-addressed program cache makes re-elaboration of a known
        # topology a disk read instead of a recompile.
        os.environ[PROGRAM_CACHE_ENV] = str(program_cache_dir)

    runners: Dict[Tuple[str, str], object] = {}
    applied_faults: Dict[Tuple[str, str], Optional[str]] = {}
    stats = {
        "worker": worker_id,
        "pid": os.getpid(),
        "builds": 0,
        "preloaded": 0,
        "cells": 0,
        "shards": 0,
        "cell_errors": 0,
        "sessions": 0,
        "fuzz_errors": 0,
    }

    def get_runner(label: str, kernel: str):
        key = (label, kernel)
        runner = runners.get(key)
        if runner is None:
            runner = runners[key] = build_runner(label, kernel=kernel)
            applied_faults[key] = None
            stats["builds"] += 1
        return runner

    for entry in preload:
        label, kernel = _parse_preload(entry)
        try:
            get_runner(label, kernel)
            stats["preloaded"] += 1
        except Exception:
            # A bad preload label must not take the worker down before it
            # served a single job; the label will fail per-cell if actually
            # used, with a proper error record.
            pass

    result_queue.put(("ready", worker_id, dict(stats, resident=len(runners))))

    while True:
        try:
            message = task_queue.get(timeout=ORPHAN_CHECK_S)
        except queue.Empty:
            # Nothing wakes a blocked get() when the server dies without
            # sending the shutdown sentinel (SIGKILL): the worker holds the
            # queue's write end itself.  An idle worker whose parent changed
            # was orphaned, and exits.
            if os.getppid() != server_pid:
                break
            continue
        if message is None:
            break
        if message[0] == "fuzz":
            _, job_id, shard_id, params = message
            result_queue.put(("heartbeat", worker_id))
            _run_fuzz_session(worker_id, job_id, shard_id, params,
                              result_queue, stats, resident=len(runners))
            continue
        _, job_id, shard_id, cells = message
        # Shard-start heartbeat: per-cell messages cover liveness from the
        # first completion onward; this covers the first cell's runtime.
        result_queue.put(("heartbeat", worker_id))
        for cell in cells:
            faults = getattr(cell, "faults", None)
            runner_key = (cell.label, cell.kernel)
            try:
                runner = get_runner(cell.label, cell.kernel)
                apply_faults = getattr(runner, "apply_faults", None)
                if faults is not None and apply_faults is None:
                    raise TypeError(
                        f"faults_unsupported: runner {cell.label!r} cannot "
                        f"inject fault schedule {faults!r}"
                    )
                if apply_faults is not None and applied_faults[runner_key] != faults:
                    apply_faults(faults)
                    applied_faults[runner_key] = faults
                outcome_raw = runner.run_scenario(cell.generate_inputs())
                outcome = (
                    int(outcome_raw["result"]) & 0xFFFFFFFF,
                    int(outcome_raw["cycles"]),
                    int(outcome_raw.get("transactions", 0)),
                )
            except Exception as exc:  # noqa: BLE001 — isolate the cell, keep serving
                if faults is not None:
                    # The faulted system may be wedged mid-handshake; evict
                    # the resident runner so the next cell rebuilds fresh.
                    runners.pop(runner_key, None)
                    applied_faults.pop(runner_key, None)
                stats["cell_errors"] += 1
                result_queue.put((
                    "cell_error", worker_id, job_id, shard_id, cell.key,
                    f"{type(exc).__name__}: {exc}",
                ))
                continue
            stats["cells"] += 1
            result_queue.put(("cell", worker_id, job_id, shard_id, cell.key, outcome))
        stats["shards"] += 1
        result_queue.put(("shard_done", worker_id, job_id, shard_id,
                          dict(stats, resident=len(runners))))


def _run_fuzz_session(
    worker_id: int,
    job_id: str,
    shard_id: int,
    params: Dict[str, object],
    result_queue,
    stats: Dict[str, object],
    *,
    resident: int,
) -> None:
    """Execute one deterministic fuzz session and report it.

    Imports the fuzz stack lazily: a farm that only ever serves campaign
    jobs never touches Hypothesis, and a worker in an environment without
    it degrades to a structured ``fuzz_error`` instead of dying.
    """
    seed = int(params["seed"])
    try:
        from repro.fuzz.session import run_session

        last_beat = [time.perf_counter()]

        def on_case(case, verdict) -> None:
            now = time.perf_counter()
            if now - last_beat[0] >= FUZZ_HEARTBEAT_EVERY_S:
                last_beat[0] = now
                result_queue.put(("heartbeat", worker_id))

        def on_finding(counterexample) -> None:
            result_queue.put(("finding", worker_id, job_id, shard_id,
                              counterexample.describe()))

        report = run_session(
            int(params["budget"]),
            seed,
            profile=str(params.get("profile", "quick")),
            with_faults=bool(params.get("with_faults", False)),
            timeout_s=float(params.get("timeout_s", 10.0)),
            corpus_dir=None,  # the farm owns the server-side corpus
            on_case=on_case,
            on_finding=on_finding,
        )
    except Exception as exc:  # noqa: BLE001 — isolate the session, keep serving
        stats["fuzz_errors"] += 1
        result_queue.put(("fuzz_error", worker_id, job_id, shard_id, seed,
                          f"{type(exc).__name__}: {exc}"))
        return
    stats["sessions"] += 1
    payload = {
        "seed": seed,
        "budget": report.budget,
        "profile": report.profile,
        "with_faults": report.with_faults,
        "executed": report.executed,
        "rounds": report.rounds,
        "coverage": list(report.coverage),
        "counterexamples": [ce.describe() for ce in report.counterexamples],
        "exit_code": report.exit_code,
    }
    result_queue.put(("fuzz_done", worker_id, job_id, shard_id, payload,
                      round(report.duration_s, 3), dict(stats, resident=resident)))


@dataclass
class WorkerHandle:
    """Parent-side view of one worker process."""

    worker_id: int
    process: multiprocessing.Process
    task_queue: object
    #: Shard currently dispatched to this worker, or None when idle.
    busy: Optional[object] = None
    ready: bool = False
    #: Last stats dict the worker reported (ready/shard_done messages).
    stats: Dict[str, object] = field(default_factory=dict)
    #: Cumulative seconds this handle has had a shard in flight.
    busy_s: float = 0.0
    dispatched: int = 0
    respawns: int = 0
    #: perf_counter of the last message received from this worker — the
    #: stuck-worker watchdog compares it against the dispatch instant.
    last_message_at: Optional[float] = None
    #: Set by the watchdog just before SIGKILL, so the respawn path can
    #: attribute the death to heartbeat silence (``worker_stuck``) rather
    #: than a crash (``worker_crash``).
    stuck_kill: bool = False

    @property
    def alive(self) -> bool:
        return self.process.is_alive()

    def snapshot(self) -> dict:
        record = {
            "worker": self.worker_id,
            "alive": self.alive,
            "ready": self.ready,
            "busy": self.busy is not None,
            "dispatched_shards": self.dispatched,
            "busy_s": round(self.busy_s, 6),
            "respawns": self.respawns,
        }
        for key in ("pid", "builds", "preloaded", "cells", "shards",
                    "cell_errors", "sessions", "fuzz_errors", "resident"):
            if key in self.stats:
                record[key] = self.stats[key]
        return record


def spawn_worker(
    context,
    worker_id: int,
    result_queue,
    program_cache_dir: Optional[str],
    preload: Sequence,
) -> WorkerHandle:
    """Start one worker process with its own task queue."""
    task_queue = context.Queue()
    process = context.Process(
        target=worker_main,
        args=(worker_id, task_queue, result_queue,
              str(program_cache_dir) if program_cache_dir else None,
              tuple(preload)),
        daemon=True,
        name=f"splice-farm-worker-{worker_id}",
    )
    process.start()
    return WorkerHandle(worker_id=worker_id, process=process, task_queue=task_queue)
