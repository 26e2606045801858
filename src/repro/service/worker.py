"""Warm worker processes: runners stay resident across jobs.

This is what separates the farm from ``splice campaign run``'s throwaway
``ProcessPoolExecutor``: a worker process lives for the whole service
lifetime, keeps every runner it has ever built in one caller-held
dictionary keyed by ``(label, kernel)`` (the ``runners`` argument of
:func:`~repro.campaign.executor.execute_cells`), and points the compiled
kernel at the shared :class:`~repro.rtl.compile.CompiledProgramCache`
directory — so after the first job touches an implementation, every later
job pays neither spec parsing, nor elaboration, nor codegen for it.

Protocol (all messages are small picklable tuples):

* parent → worker (per-worker task queue): ``(kind_name, job_id, shard_id,
  task)``, which the worker hands to that :class:`~repro.service.kinds.JobKind`
  to run (``task`` is what the kind's ``task()`` built: campaign cells, or a
  fuzz spec and seed), or ``None`` to stop.
* worker → parent, on the worker's own result pipe (only the worker holds
  its write end, so its death reads as end-of-file and a worker killed
  mid-send cannot wedge the others); index 1 is always the worker id:
  ``("ready", worker_id, stats)`` once warm-up/preload is done;
  ``("heartbeat", worker_id, ...)`` at shard start and (throttled) per fuzz
  case, the stuck-worker watchdog's liveness signal;
  ``("unit", worker_id, job_id, shard_id, key, value, fields)`` per
  finished unit (a cell's ``(result, cycles, transactions)``, a session's
  deterministic payload; ``fields`` are extra event fields, such as a
  session's ``duration_s``);
  ``("unit_error", worker_id, job_id, shard_id, key, CellError)`` per unit
  that could not finish (the worker serves on);
  ``("finding", worker_id, job_id, shard_id, counterexample_dict)`` per
  shrunk fuzz counterexample, as it is found;
  ``("shard_done", worker_id, job_id, shard_id, stats)`` at the boundary.

A worker that dies (OOM, segfault, ``os._exit``) simply stops sending; the
dispatcher notices the dead process, respawns a fresh worker, and retries
the shard's unreported units once before recording structured errors —
mirroring :class:`~repro.campaign.executor.ShardedExecutor`'s crash policy.
A worker that *hangs* stops heartbeating instead: the dispatcher's watchdog
SIGKILLs it and the same respawn/retry path runs, ending in ``worker_stuck``
errors if the retry hangs too.
"""

from __future__ import annotations

import multiprocessing
import os
import queue
from dataclasses import dataclass, field
from typing import Dict, Optional, Sequence, Tuple

from repro.rtl.compile import PROGRAM_CACHE_ENV

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
    results,
    program_cache_dir: Optional[str],
    preload: Sequence,
) -> None:
    """Worker process entry point (module-level, so it pickles under spawn)."""
    from repro.devices.registry import build_runner
    from repro.service.kinds import KINDS

    server_pid = os.getppid()

    if program_cache_dir:
        # Reaches every CompiledSimulator this process ever builds; the
        # content-addressed program cache makes re-elaboration of a known
        # topology a disk read instead of a recompile.
        os.environ[PROGRAM_CACHE_ENV] = str(program_cache_dir)

    runners: Dict[Tuple[str, str], tuple] = {}
    stats = {"worker": worker_id, "pid": os.getpid()}
    stats.update(dict.fromkeys(("builds", "preloaded", "shards"), 0))
    stats.update(dict.fromkeys(
        (key for kind in KINDS.values() for key in kind.worker_stats), 0))

    for entry in preload:
        label, kernel = _parse_preload(entry)
        try:
            runners[(label, kernel)] = (build_runner(label, kernel=kernel), None)
        except Exception:
            # A bad preload label must not take the worker down before it
            # served a single job; the label will fail per-cell if actually
            # used, with a proper error record.
            continue
        stats["builds"] += 1
        stats["preloaded"] += 1

    results.send(("ready", worker_id, dict(stats, resident=len(runners))))

    try:
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
            kind_name, job_id, shard_id, task = message
            kind = KINDS[kind_name]
            counted = dict(zip(("unit", "unit_error"), kind.worker_stats))

            def send(tag: str, *payload) -> None:
                if tag in counted:
                    stats[counted[tag]] += 1
                results.send((tag, worker_id, job_id, shard_id, *payload))

            # Shard-start heartbeat: per-unit messages cover liveness from the
            # first completion onward; this covers the first unit's runtime.
            send("heartbeat")
            kind.execute(task, send, runners, stats)
            stats["shards"] += 1
            send("shard_done", dict(stats, resident=len(runners)))
    except BrokenPipeError:
        pass  # the server is gone: nobody reads what this worker reports


@dataclass
class WorkerHandle:
    """Parent-side view of one worker process."""

    worker_id: int
    process: multiprocessing.Process
    task_queue: object
    #: Read end of the worker's result pipe.
    results: object
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
        record.update(self.stats)  # pid, builds, per-kind unit counts, ...
        return record


def spawn_worker(
    context,
    worker_id: int,
    program_cache_dir: Optional[str],
    preload: Sequence,
) -> WorkerHandle:
    """Start one worker process with its own task queue and result pipe."""
    task_queue = context.Queue()
    results, writer = context.Pipe(duplex=False)
    process = context.Process(
        target=worker_main,
        args=(worker_id, task_queue, writer,
              str(program_cache_dir) if program_cache_dir else None,
              tuple(preload)),
        daemon=True,
        name=f"splice-farm-worker-{worker_id}",
    )
    process.start()
    writer.close()  # the worker now holds the only write end
    return WorkerHandle(worker_id=worker_id, process=process,
                        task_queue=task_queue, results=results)
