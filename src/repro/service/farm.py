"""The simulation farm: warm workers + priority queue + shared result cache.

:class:`SimulationFarm` is the long-lived core the HTTP API and the CLI
front ends drive.  One farm owns:

* a pool of persistent worker processes (:mod:`repro.service.worker`) that
  keep built runners and compiled programs resident across jobs,
* a :class:`~repro.service.jobs.JobQueue` ordering jobs by priority with
  FIFO fairness within a priority,
* a shared content-addressed :class:`~repro.campaign.cache.ResultCache` in
  front of the queue — cells whose digest is already cached are answered at
  submit time without touching a worker, so a repeat submission of an
  identical spec is a pure cache read (hit rate 1.0, no queueing),
* optionally, a **state directory** holding a durable
  :class:`~repro.service.journal.JobJournal` (plus the persistent cache and
  the fuzz corpus): every job transition is journaled write-ahead, so a
  SIGKILL of the server loses nothing — on restart the farm replays the
  journal, re-enqueues every non-terminal job at its original priority, and
  resumes each from its completed work (campaign cells answered from the
  cache, fuzz sessions restored from the journal), bit-identical to an
  uninterrupted run, and
* a single dispatcher thread that pumps worker results, persists fresh
  outcomes into the cache, enforces per-job timeouts, watches for
  heartbeat-silent (stuck) workers, respawns dead workers (retrying their
  in-flight shard once, then failing those cells with structured error
  records), and feeds idle workers the next shard.

Every job kind shares all of that machinery without the farm branching on
kind: each :class:`~repro.service.kinds.JobKind` expands its spec into
units, answers what it can at admit time, and shapes its events, journal
records and result.  Campaign grids shard cells; fuzz jobs shard
deterministic ``(seed, budget)`` sessions, with findings streamed as they
land and auto-appended to the server-side corpus.  Backpressure is a
bounded count of active jobs — saturated submissions raise
:class:`FarmSaturated`, which the HTTP layer maps to ``503`` +
``Retry-After``.

Everything observable — job state, per-cell progress, worker stats — is
mutated under one condition lock and published through job event logs, so
any number of watchers (HTTP streamers, ``Job.wait``) follow along without
polling the workers.
"""

from __future__ import annotations

import multiprocessing
import os
import shutil
import tempfile
import threading
import time
from multiprocessing.connection import wait
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Union

from repro.campaign.cache import ResultCache
from repro.campaign.executor import CellError
from repro.service.jobs import (
    CANCELLED,
    DONE,
    FAILED,
    QUEUED,
    RUNNING,
    TIMEOUT,
    Job,
    JobQueue,
    Shard,
)
from repro.service.kinds import FUZZ, KINDS, kind_of
from repro.service.journal import (
    JOURNAL_FILENAME,
    JobJournal,
    JournaledJob,
    append_jsonl,
    replay_journal,
)
from repro.service.worker import spawn_worker

#: Default number of cells per dispatched shard.  Small enough that
#: cancellation latency (one shard boundary) stays low and several workers
#: share one medium grid; large enough that the per-shard queue round trip
#: amortises.
DEFAULT_SHARD_SIZE = 4

#: Default stuck-worker watchdog threshold.  Distinct from the per-job
#: timeout: this bounds *silence* (no message from a busy worker), not total
#: job runtime.  Generous by default — cells and fuzz cases report at least
#: every second or two in practice, so minutes of silence means wedged.
DEFAULT_STUCK_TIMEOUT_S = 300.0

#: Retry-After seconds suggested to clients bounced by backpressure.
DEFAULT_RETRY_AFTER_S = 1.0

#: Seconds the dispatcher waits for a worker message before it re-checks
#: timeouts, stuck and dead workers anyway.
POLL_INTERVAL_S = 0.02


class FarmSaturated(RuntimeError):
    """Submission rejected by backpressure (active-job bound reached).

    Carries ``retry_after_s`` so the HTTP layer can answer ``503`` with a
    concrete ``Retry-After`` header instead of a bare error.
    """

    def __init__(self, message: str, retry_after_s: float = DEFAULT_RETRY_AFTER_S):
        super().__init__(message)
        self.retry_after_s = retry_after_s


def resolve_workers(workers: int) -> int:
    """``0`` (the ``--workers auto`` spelling) → ``os.cpu_count()``.

    The same rule :func:`repro.campaign.executor.make_executor` applies, so
    "auto" means the identical thing on the batch and service paths.
    """
    if workers < 0:
        raise ValueError(f"workers must be >= 0 (0 = auto), got {workers}")
    return workers if workers > 0 else (os.cpu_count() or 1)


class SimulationFarm:
    """A long-lived pool of warm simulation workers behind a job queue."""

    def __init__(
        self,
        workers: int = 0,
        *,
        cache: Union[ResultCache, Path, str, None] = None,
        preload: Sequence = (),
        shard_size: int = DEFAULT_SHARD_SIZE,
        name: str = "splice-farm",
        state_dir: Union[Path, str, None] = None,
        queue_limit: Optional[int] = None,
        stuck_timeout_s: Optional[float] = DEFAULT_STUCK_TIMEOUT_S,
        corpus_dir: Union[Path, str, None] = None,
        history_path: Union[Path, str, None] = None,
    ) -> None:
        self.name = name
        self.worker_count = resolve_workers(workers)
        self.shard_size = max(1, shard_size)
        self.preload = tuple(preload)
        self.queue_limit = queue_limit
        self.stuck_timeout_s = stuck_timeout_s

        # Durability: with a state dir, the journal (and, unless overridden,
        # the result cache and fuzz corpus) live inside it, so a restart on
        # the same directory sees everything a previous incarnation did.
        self.state_dir: Optional[Path] = None
        self._journal: Optional[JobJournal] = None
        if state_dir is not None:
            self.state_dir = Path(state_dir)
            self.state_dir.mkdir(parents=True, exist_ok=True)
            self._journal = JobJournal(self.state_dir / JOURNAL_FILENAME)
            if cache is None:
                cache = self.state_dir / "cache"
            if corpus_dir is None:
                corpus_dir = self.state_dir / "corpus"
        self.corpus_dir = None if corpus_dir is None else Path(corpus_dir)
        self.history_path = None if history_path is None else Path(history_path)

        # Without an explicit cache directory the farm still runs one — an
        # ephemeral per-instance directory — because the cache is what makes
        # serving cheap: repeat submissions short-circuit, and the compiled
        # program cache under it is what keeps workers warm across respawns.
        self._ephemeral_cache_dir: Optional[str] = None
        if cache is None:
            self._ephemeral_cache_dir = tempfile.mkdtemp(prefix="splice-farm-cache-")
            cache = ResultCache(self._ephemeral_cache_dir)
        elif isinstance(cache, (str, Path)):
            cache = ResultCache(cache)
        self.cache = cache

        self._cond = threading.Condition()
        self._jobs: Dict[str, Job] = {}
        self._queue = JobQueue()
        self._workers: List[WorkerHandle] = []
        self._idempotency: Dict[str, str] = {}
        self._job_seq = 0
        self._running = False
        self._draining = False
        self._started_at: Optional[float] = None
        self._ctx = multiprocessing.get_context()
        self._wake_r = self._wake_w = None
        self._dispatcher: Optional[threading.Thread] = None
        self.counters = dict.fromkeys((
            counter for kind in KINDS.values()
            for counter in (kind.total_counter, kind.answered_counter,
                            kind.executed_counter, kind.failed_counter)
        ), 0)
        self.counters.update(dict.fromkeys((
            "cells_discarded", "findings", "workers_respawned",
            "workers_stuck_killed", "shards_dispatched", "shards_retried",
            "jobs_recovered", "jobs_rejected",
        ), 0))

    @property
    def lock(self) -> threading.Condition:
        """The farm-wide condition lock; hold it to read job state coherently."""
        return self._cond

    @property
    def running(self) -> bool:
        return self._running

    # -- lifecycle ---------------------------------------------------------------

    def start(self) -> "SimulationFarm":
        if self._running:
            return self
        # Submitters wake the dispatcher through a self-pipe; it never
        # blocks them (a full pipe already means a wake is pending).
        self._wake_r, self._wake_w = os.pipe()
        os.set_blocking(self._wake_w, False)
        self._workers = [
            spawn_worker(self._ctx, worker_id, self.cache.program_cache_dir,
                         self.preload)
            for worker_id in range(self.worker_count)
        ]
        self._running = True
        self._started_at = time.perf_counter()
        self._dispatcher = threading.Thread(
            target=self._dispatch_loop, name=f"{self.name}-dispatcher", daemon=True
        )
        self._dispatcher.start()
        if self._journal is not None:
            self._recover()
        return self

    def stop(self) -> None:
        if not self._running:
            return
        with self._cond:
            self._running = False
            # Unblock every waiter/streamer: whatever was still pending is
            # cancelled, terminally, before the machinery goes away.  These
            # forced cancellations are deliberately NOT journaled: on a
            # durable farm, "stopped while jobs were pending" is exactly the
            # state a restart on the same --state-dir must resume from.
            for job in self._jobs.values():
                if not job.is_terminal:
                    job.pending_shards.clear()
                    job.enter_state(CANCELLED, reason="farm stopped")
        self._wake()
        self._dispatcher.join(timeout=10)
        for handle in self._workers:
            try:
                handle.task_queue.put(None)
            except (ValueError, OSError):
                pass
        for handle in self._workers:
            handle.process.join(timeout=5)
            if handle.process.is_alive():
                handle.process.terminate()
                handle.process.join(timeout=2)
            handle.task_queue.close()
            handle.task_queue.cancel_join_thread()
            handle.results.close()
        os.close(self._wake_r)
        os.close(self._wake_w)
        if self._journal is not None:
            self._journal.close()
        if self._ephemeral_cache_dir is not None:
            shutil.rmtree(self._ephemeral_cache_dir, ignore_errors=True)

    def __enter__(self) -> "SimulationFarm":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()

    # -- submission / control ----------------------------------------------------

    def submit(
        self,
        spec,
        *,
        priority: int = 0,
        timeout_s: Optional[float] = None,
        idempotency_key: Optional[str] = None,
    ) -> Job:
        """Queue a job; returns the live :class:`Job`.

        ``spec`` is a spec object of any kind, or a campaign spec's
        ``describe()`` mapping.  Units the kind can answer at admit (cached
        cells) are satisfied here, synchronously — a fully-cached
        submission completes without ever touching the queue or a worker.
        A repeated ``idempotency_key`` returns the original job instead of
        enqueuing a duplicate (the key is journaled, so the dedupe survives
        a server restart for every job that does).
        """
        self._check_accepting()
        kind = kind_of(spec)
        spec = kind.coerce(spec)
        answered = kind.answer(spec, self.cache, {})
        with self._cond:
            existing = self._idempotent(idempotency_key)
            if existing is not None:
                return existing
            self._check_saturation()
            self._job_seq += 1
            job = Job(
                f"j{self._job_seq:06d}", spec,
                priority=priority, timeout_s=timeout_s, cond=self._cond,
            )
            self._register_key(job, idempotency_key)
            self._journal_append(
                "submitted", job=job.id, kind=kind.name, priority=priority,
                timeout_s=timeout_s, idempotency_key=idempotency_key,
                **{kind.spec_key: spec.describe()},
            )
            self._admit(job, *answered)
        self._journal_sync()
        self._wake()
        return job

    def submit_fuzz(self, spec, **options) -> Job:
        """Queue a fuzz job (a :class:`~repro.service.kinds.FuzzJobSpec` or
        its mapping): one deterministic session per seed in the range."""
        return self.submit(FUZZ.coerce(spec), **options)

    def _check_accepting(self) -> None:
        if not self._running:
            raise RuntimeError("farm is not running (call start() first)")
        if self._draining:
            raise RuntimeError("farm is draining and not accepting new jobs")

    def _idempotent(self, key: Optional[str]) -> Optional[Job]:
        """Lock held: the already-submitted job for ``key``, if any."""
        if key is None:
            return None
        job_id = self._idempotency.get(key)
        return None if job_id is None else self._jobs.get(job_id)

    def _register_key(self, job: Job, key: Optional[str]) -> None:
        if key is not None:
            job.idempotency_key = key
            self._idempotency[key] = job.id

    def _check_saturation(self) -> None:
        """Lock held: enforce the bounded active-job depth."""
        if self.queue_limit is None:
            return
        active = sum(1 for j in self._jobs.values() if not j.is_terminal)
        if active >= self.queue_limit:
            self.counters["jobs_rejected"] += 1
            raise FarmSaturated(
                f"farm saturated: {active} active jobs (limit {self.queue_limit})"
            )

    def _journal_append(self, type_: str, **fields) -> None:
        # Buffered write only — the farm lock is held at every call site,
        # and an fsync under it would serialise the whole farm behind disk
        # latency.  Callers invoke _journal_sync() (group commit) after
        # releasing the lock, before the transition is acknowledged.
        if self._journal is not None:
            self._journal.write(type_, **fields)

    def _journal_sync(self) -> None:
        if self._journal is not None:
            self._journal.sync()

    def _journal_terminal(self, job: Job) -> None:
        """Record a terminal transition durably (and the kind's trajectory)."""
        self._journal_append("finished", job=job.id, state=job.state)
        if job.state != DONE or self.history_path is None:
            return
        try:
            record = job.kind.history_record(job)
            if record is not None:
                append_jsonl(self.history_path, record)
        except Exception:
            # The trajectory file is observability, never worth failing
            # a finished job over (e.g. read-only checkout).
            pass

    def _admit(self, job: Job, cached: dict, fresh: dict) -> None:
        """Lock held: register, take the units answered at admit, shard the rest."""
        kind = job.kind
        self._jobs[job.id] = job
        job.cached, job.fresh = cached, fresh
        answered = len(cached) + len(fresh)
        self.counters[kind.total_counter] += len(job.cells)
        self.counters[kind.answered_counter] += answered
        extra = {"recovered": True} if job.recovered else {}
        job.emit(
            "submitted",
            name=job.spec.name,
            kind=kind.name,
            priority=job.priority,
            timeout_s=job.timeout_s,
            **kind.submitted_fields(job),
            **extra,
        )
        if cached:
            job.emit("cached", cells=len(cached))
        pending = sorted(key for key in job.by_key
                         if key not in cached and key not in fresh)
        if not pending:
            job.enter_state(DONE, **{kind.answered_field: answered})
            self._journal_terminal(job)
            return
        size = kind.shard_size(self.shard_size)
        for shard_id, start in enumerate(range(0, len(pending), size)):
            units = [job.by_key[key] for key in pending[start:start + size]]
            job.pending_shards.append(Shard(job.id, shard_id, units))
        self._queue.push(job)

    # -- recovery ----------------------------------------------------------------

    def _recover(self) -> None:
        """Replay the journal: re-enqueue every non-terminal job.

        Each job is re-admitted through its kind's ``answer``: campaign
        cells a previous incarnation completed were persisted to the shared
        result cache before their ``shard_done`` record, and fuzz sessions
        are restored from the journaled session payloads — so only the
        remainder is re-sharded.  Job ids, priorities and idempotency keys
        are preserved; the journal is compacted so repeated crash/restart
        cycles do not grow it.
        """
        replay = replay_journal(self._journal.path)
        self._job_seq = max(self._job_seq, replay.seq)
        live = replay.live_jobs()
        self._journal.compact(replay.compaction_records())
        for record in live:
            try:
                self._readmit(record)
                self.counters["jobs_recovered"] += 1
            except Exception:
                # A job whose spec no longer parses (code changed across
                # the restart) must not prevent the farm from serving; its
                # cells were never promised beyond the journal.
                continue
        if live:
            self._wake()

    def _readmit(self, record: JournaledJob) -> None:
        kind = KINDS[record.kind]
        spec = kind.coerce(record.payload)
        answered = kind.answer(spec, self.cache, record.restored)
        with self._cond:
            job = Job(record.job_id, spec,
                      priority=record.priority, timeout_s=record.timeout_s,
                      cond=self._cond)
            job.recovered = True
            self._register_key(job, record.idempotency_key)
            self._admit(job, *answered)

    # -- control -----------------------------------------------------------------

    def get(self, job_id: str) -> Optional[Job]:
        return self._jobs.get(job_id)

    def job_for_key(self, idempotency_key: str) -> Optional[Job]:
        """The job a previous submission with this key created, if any."""
        with self._cond:
            return self._idempotent(idempotency_key)

    def jobs(self) -> List[Job]:
        return list(self._jobs.values())

    def cancel(self, job_id: str) -> bool:
        """Cancel a job.  Queued jobs drop instantly; a running job stops at
        the next shard boundary (its in-flight shard results are discarded).
        Returns False if the job is unknown or already terminal."""
        with self._cond:
            job = self._jobs.get(job_id)
            if job is None or job.is_terminal:
                return False
            job.pending_shards.clear()
            self._journal_append("cancelled", job=job.id)
            job.enter_state(CANCELLED, shards_in_flight=len(job.in_flight))
        self._journal_sync()
        return True

    def drain(self, timeout_s: Optional[float] = None) -> dict:
        """Graceful shutdown, phase one: stop accepting, let work finish.

        New submissions are rejected immediately (the HTTP layer maps the
        ``RuntimeError`` to a 503), but every already-accepted job keeps
        dispatching and running to completion.  Blocks until all jobs are
        terminal or ``timeout_s`` elapses; jobs still unfinished at the
        deadline are cancelled with a terminal ``drain timeout`` event so no
        watcher is left hanging.  Call :meth:`stop` afterwards to tear the
        workers down.
        """
        deadline = None if timeout_s is None else time.perf_counter() + timeout_s
        with self._cond:
            self._draining = True

            def active() -> List[Job]:
                return [j for j in self._jobs.values() if not j.is_terminal]

            while active() and self._running:
                remaining = (None if deadline is None
                             else deadline - time.perf_counter())
                if remaining is not None and remaining <= 0:
                    break
                # Job state changes notify the shared condition, so this
                # wakes at every cell/shard/terminal event; the cap only
                # bounds staleness if a notification is missed.
                self._cond.wait(timeout=0.1 if remaining is None else min(0.1, remaining))
            leftovers = active()
            for job in leftovers:
                job.pending_shards.clear()
                job.enter_state(CANCELLED, reason="drain timeout",
                                cells_done=job.cells_done)
            return {
                "drained": not leftovers,
                "cancelled": [job.id for job in leftovers],
            }

    def kill_worker(self, worker_id: Optional[int] = None) -> Optional[int]:
        """Chaos hook: SIGKILL one worker process (a busy one if any).

        Returns the killed worker id, or ``None`` if no live worker matched.
        The dispatcher's normal crash policy takes over from there: the dead
        worker is respawned, its in-flight shard is retried once, and a
        second death yields structured ``worker_crash`` cell errors — the
        exact path real OOM kills and segfaults exercise, made injectable
        for the chaos bench and the service smoke tests.
        """
        with self._cond:
            candidates = [w for w in self._workers if w.process.is_alive()]
            if worker_id is not None:
                candidates = [w for w in candidates if w.worker_id == worker_id]
            if not candidates:
                return None
            busy = [w for w in candidates if w.busy is not None]
            target = (busy or candidates)[0]
            target.process.kill()
            return target.worker_id

    # -- dispatcher --------------------------------------------------------------

    def _wake(self) -> None:
        """Interrupt the dispatcher's wait (new work, or stop)."""
        try:
            os.write(self._wake_w, b"!")
        except BlockingIOError:
            pass

    def _dispatch_loop(self) -> None:
        while True:
            channels = {handle.results: handle for handle in self._workers}
            try:
                ready = wait([self._wake_r, *channels], timeout=POLL_INTERVAL_S)
            except (OSError, ValueError):
                return
            messages = []
            for channel in ready:
                if channel == self._wake_r:
                    os.read(self._wake_r, 4096)
                    continue
                try:
                    while channel.poll():
                        messages.append(channel.recv())
                except (EOFError, OSError):
                    # The worker is gone: reap it, so _check_workers respawns
                    # it this round rather than the loop spinning on EOF.
                    channels[channel].process.join(timeout=1.0)
            with self._cond:
                if not self._running:
                    return
                for message in messages:
                    self._handle(message)
                self._check_timeouts()
                self._check_stuck()
                self._check_workers()
                self._dispatch_ready()
            self._journal_sync()

    def _handle(self, message) -> None:
        tag = message[0]
        # Every worker→parent message carries the worker id at index 1;
        # any message is proof of life for the stuck-worker watchdog.
        handle = self._workers[message[1]]
        handle.last_message_at = time.perf_counter()
        if tag == "ready":
            handle.ready, handle.stats = True, message[2]
            return
        if tag == "heartbeat":
            return
        _, worker_id, job_id, shard_id, *body = message
        job = self._jobs.get(job_id)
        if tag == "shard_done":
            handle.stats = body[0]
            shard, handle.busy = handle.busy, None
            if shard is not None and shard.dispatched_at is not None:
                handle.busy_s += time.perf_counter() - shard.dispatched_at
            if job is not None:
                job.in_flight.pop(shard_id, None)
                if not job.is_terminal:
                    self._maybe_finalize(job)
            return
        if job is None or job.is_terminal:
            if tag != "finding":
                self.counters["cells_discarded"] += 1
            return
        if tag == "finding":
            self._finding(job, worker_id, shard_id, body[0])
            return
        kind = job.kind
        if tag == "unit":
            key, value, note = body
            job.fresh[key] = value
            self.counters[kind.executed_counter] += 1
            kind.persist(self.cache, job, key, value)
            event = kind.unit_event
            fields = dict(kind.unit_fields(job, key, value), **note)
        else:  # "unit_error": the worker isolated a unit that raised
            key, error = body
            job.errors[key] = error
            self.counters[kind.failed_counter] += 1
            event = kind.error_event
            fields = dict(kind.describe_unit(job, key), error=error.message)
        job.emit(event, **fields, worker=worker_id, done=job.cells_done,
                 total=len(job.cells))
        self._journal_shard(job, job.in_flight.get(shard_id))

    def _unaccounted(self, job: Job, shard: Shard) -> list:
        """The shard's units with neither a result nor an error yet."""
        key = job.kind.key
        return [unit for unit in shard.units
                if key(unit) not in job.fresh and key(unit) not in job.errors]

    def _journal_shard(self, job: Job, shard: Optional[Shard]) -> None:
        """Lock held: journal ``shard_done`` once every unit of the shard is
        accounted for — in the same lock hold as its last unit, so whoever
        sees that unit in ``job.fresh`` finds the record written too."""
        if self._journal is None or shard is None or self._unaccounted(job, shard):
            return
        payload = job.kind.journal_payload(job, shard)
        if payload is not None:
            self._journal_append("shard_done", job=job.id, shard=shard.shard_id,
                                 **payload)

    def _finding(self, job: Job, worker_id: int, shard_id: int, record) -> None:
        """Stream one counterexample and append it to the server-side corpus."""
        self.counters["findings"] += 1
        verdict = record.get("verdict", {}) if isinstance(record, dict) else {}
        job.emit(
            "finding",
            kind=record.get("kind"),
            token=record.get("token"),
            kernel=verdict.get("kernel"),
            detail=verdict.get("detail"),
            worker=worker_id,
            shard=shard_id,
        )
        if self.corpus_dir is None or not isinstance(record, dict):
            return
        try:
            from repro.fuzz.corpus import Counterexample, save_case

            save_case(Counterexample.from_dict(record), self.corpus_dir)
        except Exception:
            # Corpus growth is best-effort; a malformed record or full disk
            # must not take the dispatcher down.
            pass

    def _maybe_finalize(self, job: Job) -> None:
        """Lock held: finish the job once every cell is accounted for."""
        if job.pending_shards or job.in_flight:
            return
        if job.cells_done < len(job.cells):
            return
        if job.errors:
            job.enter_state(FAILED, cells_failed=len(job.errors))
        else:
            job.enter_state(DONE, cells_executed=len(job.fresh),
                            cells_cached=len(job.cached))
        self._journal_terminal(job)

    def _check_timeouts(self) -> None:
        now = time.perf_counter()
        for job in self._jobs.values():
            if job.is_terminal:
                continue
            deadline = job.deadline
            if deadline is not None and now >= deadline:
                job.pending_shards.clear()
                job.enter_state(TIMEOUT, timeout_s=job.timeout_s,
                                cells_done=job.cells_done)
                self._journal_terminal(job)

    def _check_stuck(self) -> None:
        """SIGKILL busy workers that have gone heartbeat-silent.

        Distinct from the per-job timeout: a stuck worker (wedged simulation,
        deadlocked native call) stops *messaging* while its job's clock may
        have plenty left.  The kill feeds the normal dead-worker path below
        — respawn, one retry — but the death is attributed, so a shard whose
        retry also goes silent fails with ``worker_stuck`` errors rather
        than ``worker_crash``.
        """
        if self.stuck_timeout_s is None:
            return
        now = time.perf_counter()
        for handle in self._workers:
            shard = handle.busy
            if shard is None or handle.stuck_kill or not handle.process.is_alive():
                continue
            marks = [t for t in (shard.dispatched_at, handle.last_message_at)
                     if t is not None]
            if not marks or now - max(marks) <= self.stuck_timeout_s:
                continue
            handle.stuck_kill = True
            self.counters["workers_stuck_killed"] += 1
            job = self._jobs.get(shard.job_id)
            if job is not None and not job.is_terminal:
                job.emit("worker_stuck", worker=handle.worker_id,
                         shard=shard.shard_id,
                         silent_s=round(now - max(marks), 3))
            handle.process.kill()

    def _check_workers(self) -> None:
        for index, handle in enumerate(self._workers):
            if handle.process.is_alive():
                continue
            shard = handle.busy
            stuck = handle.stuck_kill
            self.counters["workers_respawned"] += 1
            handle.task_queue.close()
            handle.task_queue.cancel_join_thread()
            handle.results.close()
            replacement = spawn_worker(
                self._ctx, handle.worker_id, self.cache.program_cache_dir,
                self.preload,
            )
            replacement.respawns = handle.respawns + 1
            replacement.busy_s = handle.busy_s
            replacement.dispatched = handle.dispatched
            self._workers[index] = replacement
            if shard is None:
                continue
            job = self._jobs.get(shard.job_id)
            if job is None:
                continue
            job.in_flight.pop(shard.shard_id, None)
            if job.is_terminal:
                continue
            # Units the dead worker already reported are kept; only the
            # rest is retried (or failed).
            shard.units = self._unaccounted(job, shard)
            if shard.units and shard.attempts <= 1:
                # One retry on the fresh worker — same policy as the batch
                # ShardedExecutor.
                self.counters["shards_retried"] += 1
                job.pending_shards.appendleft(shard)
                self._queue.push(job)
                job.emit("shard_retry", shard=shard.shard_id,
                         worker=handle.worker_id, stuck=stuck)
                continue
            if shard.units:
                cause = "worker_stuck" if stuck else "worker_crash"
                detail = ("went heartbeat-silent running" if stuck
                          else "died running")
                error = CellError(
                    kind=cause,
                    message=(
                        f"worker {handle.worker_id} {detail} shard "
                        f"{shard.shard_id} and the retry "
                        f"{'went silent' if stuck else 'died'} too"
                    ),
                )
                for unit in shard.units:
                    job.errors[job.kind.key(unit)] = error
                self.counters[job.kind.failed_counter] += len(shard.units)
                job.emit("shard_failed", shard=shard.shard_id,
                         worker=handle.worker_id, cells_failed=len(shard.units),
                         cause=cause)
            self._maybe_finalize(job)

    def _dispatch_ready(self) -> None:
        while True:
            handle = next(
                (w for w in self._workers if w.busy is None and w.process.is_alive()),
                None,
            )
            if handle is None:
                return
            job = self._queue.pop()
            if job is None:
                return
            shard = job.pending_shards.popleft()
            if job.pending_shards:
                self._queue.push(job)
            if job.state == QUEUED:
                job.enter_state(RUNNING)
            shard.attempts += 1
            shard.worker_id = handle.worker_id
            shard.dispatched_at = time.perf_counter()
            job.in_flight[shard.shard_id] = shard
            handle.busy = shard
            handle.dispatched += 1
            self.counters["shards_dispatched"] += 1
            self._journal_append("shard_dispatched", job=job.id,
                                 shard=shard.shard_id,
                                 worker=handle.worker_id,
                                 attempt=shard.attempts)
            handle.task_queue.put((job.kind.name, job.id, shard.shard_id,
                                   job.kind.task(job, shard.units)))

    # -- observation -------------------------------------------------------------

    def stats(self) -> dict:
        """Queue depth, per-worker stats, utilization, cache hit rate."""
        with self._cond:
            worker_records = [w.snapshot() for w in self._workers]
            busy = sum(1 for w in self._workers if w.busy is not None)
            states = {state: 0 for state in
                      (QUEUED, RUNNING, DONE, FAILED, CANCELLED, TIMEOUT)}
            kinds = {name: 0 for name in KINDS}
            active = 0
            for job in self._jobs.values():
                states[job.state] = states.get(job.state, 0) + 1
                kinds[job.kind.name] += 1
                if not job.is_terminal:
                    active += 1
            uptime = (time.perf_counter() - self._started_at
                      if self._started_at is not None else 0.0)
            total = self.counters["cells_total"]
            cached = self.counters["cells_cached"]
            busy_area = sum(w.busy_s for w in self._workers)
            return {
                "name": self.name,
                "running": self._running,
                "draining": self._draining,
                "uptime_s": round(uptime, 6),
                "worker_count": len(self._workers),
                "workers_busy": busy,
                "utilization": (busy / len(self._workers)) if self._workers else 0.0,
                "utilization_lifetime": (
                    busy_area / (uptime * len(self._workers))
                    if uptime > 0 and self._workers else 0.0
                ),
                "workers": worker_records,
                "queue_depth": states[QUEUED],
                "active_jobs": active,
                "queue_limit": self.queue_limit,
                "saturated": (self.queue_limit is not None
                              and active >= self.queue_limit),
                "jobs": dict(states, submitted=self._job_seq),
                "job_kinds": kinds,
                "cells": dict(self.counters),
                "cache_hit_rate": (cached / total) if total else None,
                "cache_entries": len(self.cache),
                "shard_size": self.shard_size,
                "stuck_timeout_s": self.stuck_timeout_s,
                "durable": self._journal is not None,
                "state_dir": (None if self.state_dir is None
                              else str(self.state_dir)),
                "journal_records": (0 if self._journal is None
                                    else self._journal.records_written),
            }
