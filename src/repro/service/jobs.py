"""Jobs and the priority job queue.

A :class:`Job` is one submitted spec on its way through the farm: its
:class:`~repro.service.kinds.JobKind` (inferred from the spec type) expands
it into units and answers what it can at admit time, the rest goes out as a
sequence of :class:`Shard` dispatches to warm workers, and the kind
aggregates the result — for campaigns a
:class:`~repro.campaign.result.CampaignResult` bit-identical to what
``splice campaign run`` produces for the same spec.

Jobs are passive data plus an event log; all mutation happens under the
farm's single condition lock (submission threads, HTTP handler threads and
the dispatcher all share it), and every observable change appends an event
and notifies the condition — that one mechanism drives ``wait()``, the
streaming ``/jobs/<id>/events`` endpoint and the CLI progress display.

:class:`JobQueue` orders runnable jobs by priority (higher number runs
sooner) and FIFO within a priority (by submission sequence number).  It is
*not* itself thread-safe: it is only touched under the farm lock.
"""

from __future__ import annotations

import heapq
import itertools
import threading
import time
from collections import deque
from dataclasses import dataclass
from typing import Deque, Dict, Iterator, List, Optional, Tuple

from repro.campaign.executor import CellOutcome
from repro.campaign.result import CampaignResult
from repro.service.kinds import CAMPAIGN, FUZZ, JobKind, kind_of

#: Job lifecycle states.  ``queued → running → done`` is the happy path;
#: ``failed`` means every cell is accounted for but some carry error records
#: (worker died twice); ``cancelled`` and ``timeout`` are terminal the moment
#: they are entered — in-flight shards keep running to their boundary in the
#: worker, and their late results are discarded.
QUEUED = "queued"
RUNNING = "running"
DONE = "done"
FAILED = "failed"
CANCELLED = "cancelled"
TIMEOUT = "timeout"

TERMINAL_STATES = frozenset({DONE, FAILED, CANCELLED, TIMEOUT})


@dataclass
class Shard:
    """A contiguous batch of one job's units, dispatched to one worker.

    The shard is the farm's unit of scheduling *and* of cancellation: a
    worker runs a shard to completion, so cancelling a running job takes
    effect at the next shard boundary.  ``attempts`` counts dispatches — a
    shard whose worker died is retried exactly once on a fresh worker, with
    only the units the dead worker had not reported.
    """

    job_id: str
    shard_id: int
    units: list
    attempts: int = 0
    worker_id: Optional[int] = None
    dispatched_at: Optional[float] = None


class Job:
    """One submitted spec and everything that happens to it."""

    def __init__(
        self,
        job_id: str,
        spec,
        *,
        priority: int = 0,
        timeout_s: Optional[float] = None,
        cond: Optional[threading.Condition] = None,
    ) -> None:
        self.id = job_id
        self.spec = spec
        self.kind: JobKind = kind_of(spec)
        self.priority = priority
        self.timeout_s = timeout_s
        self.cond = cond or threading.Condition()
        #: True when this Job object was rebuilt from the journal after a
        #: server restart rather than submitted by a client this lifetime.
        self.recovered = False
        self.idempotency_key: Optional[str] = None

        self.state = QUEUED
        self.submitted_wall = time.time()
        self.submitted = time.perf_counter()
        self.started: Optional[float] = None
        self.finished: Optional[float] = None

        #: The job's units in canonical (deterministic) order; result
        #: aggregation walks this list so the served payload row order is
        #: identical to the batch runner's.  Campaign jobs: the grid's cells,
        #: keyed by ``cell.key``.  Fuzz jobs: the seeds, keyed by themselves.
        self.cells: list = self.kind.expand(spec)
        self.by_key: Dict = {self.kind.key(unit): unit for unit in self.cells}
        self.cached: Dict[tuple, CellOutcome] = {}
        self.fresh: Dict = {}
        self.errors: Dict = {}

        self.pending_shards: Deque[Shard] = deque()
        self.in_flight: Dict[int, Shard] = {}
        self.events: List[dict] = []
        #: FIFO position within this job's priority class; assigned by the
        #: :class:`JobQueue` at first push and stable across re-pushes.
        self.queue_seq: Optional[int] = None

    # -- derived ----------------------------------------------------------------

    @property
    def deadline(self) -> Optional[float]:
        """perf_counter instant after which the job times out (from submit)."""
        if self.timeout_s is None:
            return None
        return self.submitted + self.timeout_s

    @property
    def cells_done(self) -> int:
        return len(self.cached) + len(self.fresh) + len(self.errors)

    @property
    def is_terminal(self) -> bool:
        return self.state in TERMINAL_STATES

    @property
    def elapsed_s(self) -> float:
        end = self.finished if self.finished is not None else time.perf_counter()
        return end - self.submitted

    # -- events (callers hold self.cond) ----------------------------------------

    def emit(self, event: str, **payload) -> dict:
        """Append an event and wake every waiter/streamer.  Lock held."""
        record = {"event": event, "job": self.id, "t": round(self.elapsed_s, 6)}
        record.update(payload)
        self.events.append(record)
        self.cond.notify_all()
        return record

    def enter_state(self, state: str, **payload) -> None:
        """Transition and emit the matching state event.  Lock held."""
        self.state = state
        if state == RUNNING and self.started is None:
            self.started = time.perf_counter()
        if state in TERMINAL_STATES:
            self.finished = time.perf_counter()
        self.emit("state", state=state, **payload)

    # -- observation -------------------------------------------------------------

    def snapshot(self) -> dict:
        """JSON-friendly status record.  Lock held."""
        return {
            "id": self.id,
            "name": self.spec.name,
            "kind": self.kind.name,
            "recovered": self.recovered,
            "state": self.state,
            "priority": self.priority,
            "timeout_s": self.timeout_s,
            "submitted_wall": self.submitted_wall,
            "elapsed_s": round(self.elapsed_s, 6),
            "cells_total": len(self.cells),
            "cells_cached": len(self.cached),
            "cells_executed": len(self.fresh),
            "cells_failed": len(self.errors),
            "cells_done": self.cells_done,
            "shards_pending": len(self.pending_shards),
            "shards_in_flight": len(self.in_flight),
            "events": len(self.events),
            "spec_fingerprint": self.spec.fingerprint(),
        }

    def wait(self, timeout: Optional[float] = None) -> str:
        """Block until the job reaches a terminal state; returns the state."""
        deadline = None if timeout is None else time.monotonic() + timeout
        with self.cond:
            while not self.is_terminal:
                remaining = None if deadline is None else deadline - time.monotonic()
                if remaining is not None and remaining <= 0:
                    break
                self.cond.wait(remaining if remaining is not None else 0.5)
            return self.state

    def iter_events(self, start: int = 0) -> Iterator[dict]:
        """Yield events from ``start`` onward, blocking for new ones, until
        the job is terminal and every event has been delivered.

        This powers the NDJSON streaming endpoint: each handler thread runs
        its own iterator over the shared event list (events are append-only,
        so no copying is needed) and parks on the condition between bursts.
        """
        index = start
        while True:
            with self.cond:
                while index >= len(self.events) and not self.is_terminal:
                    self.cond.wait(0.5)
                batch = self.events[index:]
                index += len(batch)
                terminal = self.is_terminal and index >= len(self.events)
            for event in batch:
                yield event
            if terminal:
                return

    # -- aggregation -------------------------------------------------------------

    def result_payload(self) -> dict:
        """The job's result as a JSON payload, whatever its kind."""
        return self.kind.aggregate(self._complete(self.kind))

    def result(self) -> CampaignResult:
        """A campaign job's :class:`CampaignResult`, batch-identical."""
        return CAMPAIGN.result(self._complete(CAMPAIGN))

    def fuzz_result(self) -> dict:
        """A fuzz job's deterministic aggregate (see
        :class:`~repro.service.kinds.FuzzKind`)."""
        return FUZZ.aggregate(self._complete(FUZZ))

    def _complete(self, kind: JobKind) -> "Job":
        """This job, if it is of ``kind`` and done or failed (cancelled and
        timed-out jobs have holes: they raise, not fabricate a result)."""
        if self.kind is not kind:
            raise ValueError(f"job {self.id} is a {self.kind.name} job; "
                             "use result_payload()")
        if self.state not in (DONE, FAILED):
            raise ValueError(
                f"job {self.id} is {self.state}; results exist only for "
                "done/failed jobs"
            )
        return self


class JobQueue:
    """Priority order over dispatchable jobs: higher ``priority`` first,
    FIFO within a priority.

    FIFO position is the *submission* sequence number, assigned at first
    push and kept for the job's lifetime — so a job whose shards are being
    dispatched one at a time (it is re-pushed while it still has pending
    shards) does not lose its place to a later submission of the same
    priority.

    Cancellation is lazy: a cancelled job's entries stay in the heap and
    are skipped at pop time, so dropping a queued job is O(1) — it just
    flips state.  Duplicate entries from re-pushes are likewise skipped
    once the job has nothing left to dispatch.  Not thread-safe; callers
    hold the farm lock.
    """

    def __init__(self) -> None:
        self._heap: List[Tuple[int, int, Job]] = []
        self._seq = itertools.count()

    def push(self, job: Job) -> None:
        seq = getattr(job, "queue_seq", None)
        if seq is None:
            seq = job.queue_seq = next(self._seq)
        heapq.heappush(self._heap, (-job.priority, seq, job))

    def pop(self) -> Optional[Job]:
        """The next dispatchable job (has pending shards, not terminal)."""
        while self._heap:
            _, _, job = heapq.heappop(self._heap)
            if not job.is_terminal and job.pending_shards:
                return job
        return None

    def peek(self) -> Optional[Job]:
        while self._heap:
            job = self._heap[0][2]
            if not job.is_terminal and job.pending_shards:
                return job
            heapq.heappop(self._heap)
        return None

    def __len__(self) -> int:
        """Number of distinct dispatchable jobs currently in the heap."""
        return len({
            id(job) for _, _, job in self._heap
            if not job.is_terminal and job.pending_shards
        })
