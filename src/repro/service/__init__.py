"""Campaign-as-a-service: a long-lived simulation farm.

Where :mod:`repro.campaign` is strictly batch — every ``splice campaign
run`` re-imports, re-elaborates and re-compiles, and a multi-worker run
starts a farm for its one job and stops it again — this package keeps the
farm warm and puts a queue and an HTTP API in front of it:

* :class:`~repro.service.farm.SimulationFarm` — persistent worker processes
  holding built runners and compiled programs resident across jobs, a
  priority job queue (FIFO within a priority, cancellation, per-job
  timeouts), and the shared content-addressed result cache in front of it
  all, so repeat submissions short-circuit without touching a worker.
* :func:`~repro.service.api.serve_farm` — the stdlib HTTP/JSON API:
  ``POST /jobs``, ``GET /jobs/<id>``, streaming NDJSON
  ``GET /jobs/<id>/events``, ``DELETE /jobs/<id>``, ``GET /stats``.
* :class:`~repro.service.client.ServiceClient` — the matching stdlib
  client, used by ``splice submit``.

Results served through the API are bit-identical to ``splice campaign run``
on the same spec: jobs expand the identical cell grid, cells execute through
the same registry-built runners, and aggregation shares the batch runner's
:func:`~repro.campaign.result.cell_result` path.

With ``--state-dir`` the farm is additionally *durable*: every job
transition is recorded write-ahead in a
:class:`~repro.service.journal.JobJournal`, so a hard kill of the server
loses nothing — a restart on the same directory replays the journal,
re-enqueues every non-terminal job, and resumes each from its completed
work (campaign cells from the result cache, fuzz sessions from the
journal), bit-identical to an uninterrupted run.  Fuzz jobs
(:class:`~repro.service.kinds.FuzzJobSpec`) are a first-class workload:
seed ranges shard across the warm workers, findings stream back live and
land in the server-side corpus.  What one workload does differently from
another lives in one :class:`~repro.service.kinds.JobKind` per workload;
the rest of the package never branches on kind.
"""

from repro.campaign.executor import resolve_workers
from repro.service.api import build_handler, serve_farm, serve_farm_in_thread
from repro.service.client import ServiceClient, ServiceError
from repro.service.farm import (
    DEFAULT_SHARD_SIZE,
    DEFAULT_STUCK_TIMEOUT_S,
    FarmSaturated,
    SimulationFarm,
)
from repro.service.jobs import (
    CANCELLED,
    DONE,
    FAILED,
    QUEUED,
    RUNNING,
    TERMINAL_STATES,
    TIMEOUT,
    Job,
    JobQueue,
    Shard,
)
from repro.service.journal import (
    JOURNAL_FILENAME,
    JobJournal,
    JournalReplay,
    append_jsonl,
    replay_journal,
)
from repro.service.kinds import CAMPAIGN, FUZZ, KINDS, FuzzJobSpec, JobKind, kind_of

__all__ = [
    "SimulationFarm",
    "FarmSaturated",
    "DEFAULT_SHARD_SIZE",
    "DEFAULT_STUCK_TIMEOUT_S",
    "resolve_workers",
    "serve_farm",
    "serve_farm_in_thread",
    "build_handler",
    "ServiceClient",
    "ServiceError",
    "Job",
    "JobQueue",
    "Shard",
    "FuzzJobSpec",
    "JobKind",
    "KINDS",
    "kind_of",
    "CAMPAIGN",
    "FUZZ",
    "QUEUED",
    "RUNNING",
    "DONE",
    "FAILED",
    "CANCELLED",
    "TIMEOUT",
    "TERMINAL_STATES",
    "JobJournal",
    "JournalReplay",
    "JOURNAL_FILENAME",
    "append_jsonl",
    "replay_journal",
]
