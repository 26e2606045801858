"""Job kinds: everything one workload does differently from another.

The farm, the workers, the journal and the HTTP API move *units* — campaign
cells, fuzz seeds — through one queue, one shard machinery, one worker
protocol and one journal, and never branch on what a unit is.  Each
workload is one :class:`JobKind`, which owns the five decisions listed on
the class.  :data:`KINDS` looks kinds up by the name the journal and the
worker protocol carry; :func:`kind_of` infers a kind from a spec object.
"""

from __future__ import annotations

import hashlib
import json
import time
from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Tuple

from repro.campaign.cache import cell_digest
from repro.campaign.executor import CellError, execute_cells
from repro.campaign.result import CampaignResult, cell_result
from repro.campaign.spec import CampaignSpec

#: Minimum seconds between fuzz-case heartbeats (campaign shards heartbeat
#: implicitly through per-cell messages; fuzz sessions run many cases per
#: second, so their liveness signal is throttled to one message per second).
FUZZ_HEARTBEAT_EVERY_S = 1.0


@dataclass(frozen=True)
class FuzzJobSpec:
    """A continuous-fuzzing workload: a contiguous seed range, one
    deterministic ``(seed, budget)`` session per seed.

    Each session is exactly what ``splice fuzz run --seed S --budget B``
    executes (see :func:`repro.fuzz.session.run_session`), so a fuzz job's
    aggregate — executed counts, coverage cells, shrunk counterexamples —
    is a pure function of this spec and reproduces bit-identically across
    runs, restarts and worker placements.
    """

    seed_start: int
    sessions: int
    budget: int
    profile: str = "quick"
    with_faults: bool = False
    case_timeout_s: float = 10.0
    name: str = "fuzz"

    def __post_init__(self) -> None:
        if self.sessions < 1:
            raise ValueError(f"fuzz job needs >= 1 session, got {self.sessions}")
        if self.budget < 1:
            raise ValueError(f"fuzz budget must be >= 1, got {self.budget}")
        if self.case_timeout_s <= 0:
            raise ValueError(
                f"case_timeout_s must be positive, got {self.case_timeout_s}"
            )

    def seeds(self) -> List[int]:
        return list(range(self.seed_start, self.seed_start + self.sessions))

    def describe(self) -> Dict[str, object]:
        return {
            "name": self.name,
            "seed_start": self.seed_start,
            "sessions": self.sessions,
            "budget": self.budget,
            "profile": self.profile,
            "with_faults": self.with_faults,
            "case_timeout_s": self.case_timeout_s,
        }

    def fingerprint(self) -> str:
        text = json.dumps(self.describe(), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(text.encode()).hexdigest()[:16]

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "FuzzJobSpec":
        return cls(
            seed_start=int(data["seed_start"]),
            sessions=int(data["sessions"]),
            budget=int(data["budget"]),
            profile=str(data.get("profile", "quick")),
            with_faults=bool(data.get("with_faults", False)),
            case_timeout_s=float(data.get("case_timeout_s", 10.0)),
            name=str(data.get("name", "fuzz")),
        )


class JobKind:
    """One workload the farm serves.

    Subclasses set the attributes below and implement the hooks of five
    decisions:

    * **expand** — ``expand(spec)`` → the units in canonical (result row)
      order, and ``key(unit)`` → a unit's key;
    * **admit and resume** — ``answer(spec, cache, restored)`` →
      ``(cached, fresh)`` maps, by key, of the units answered at admit
      (campaign: result cache hits; fuzz: :meth:`restore` of the journal),
      called outside the farm lock; the rest go out in shards of
      :meth:`shard_size` units;
    * **execute** — ``task(job, units)`` → the picklable payload a worker
      needs, and ``execute(task, send, runners, stats)`` → the worker-side
      run of one shard, reporting ``unit``/``unit_error`` per unit and
      ``finding``/``heartbeat`` notes through ``send(tag, ...)``;
    * **journal** — :attr:`spec_key`, and ``journal_payload(job, shard)`` →
      the ``shard_done`` record's fields once every unit of the shard is
      accounted for (``None``: no record);
    * **aggregate** — ``submitted_fields(job)``, ``describe_unit(job,
      key)`` and ``unit_fields(job, key, value)`` → event fields, and
      ``aggregate(job)`` → the result payload.
    """

    #: Kind name: the journal's and the status snapshot's ``kind`` field.
    name: str
    spec_type: type
    #: Key of the spec payload in a ``POST /jobs`` body and in the
    #: journal's ``submitted`` record.
    spec_key: str
    #: A field every payload of this kind carries (``POST /jobs`` check).
    marker: str
    #: Event names for a finished unit and for a unit that failed.
    unit_event: str
    error_event: str
    #: Farm counters: units submitted, answered at admit, executed, failed.
    total_counter: str
    answered_counter: str
    executed_counter: str
    failed_counter: str
    #: Field of the ``done`` state event of a job answered entirely at admit.
    answered_field: str
    #: Worker stats keys counting finished and failed units.
    worker_stats: Tuple[str, str]

    def coerce(self, spec):
        """A spec object of this kind, from itself or its ``describe()`` dict."""
        if isinstance(spec, self.spec_type):
            return spec
        return self.spec_type.from_dict(dict(spec))

    def restore(self, shard_records: List[dict]) -> dict:
        """Unit results only the journal holds, from ``shard_done`` records."""
        return {}

    def shard_size(self, farm_shard_size: int) -> int:
        return farm_shard_size

    def persist(self, cache, job, key, value) -> None:
        """Dispatcher side, per finished unit: make it durable (or not)."""

    def history_record(self, job) -> Optional[dict]:
        """Trajectory record appended for a ``done`` job, if any."""
        return None


class CampaignKind(JobKind):
    """Campaign grids: units are cells, answered from the result cache."""

    name = "campaign"
    spec_type = CampaignSpec
    spec_key = "spec"
    marker = "implementations"
    unit_event = "cell"
    error_event = "cell_error"
    total_counter = "cells_total"
    answered_counter = "cells_cached"
    executed_counter = "cells_executed"
    failed_counter = "cells_failed"
    answered_field = "cells_cached"
    worker_stats = ("cells", "cell_errors")

    def expand(self, spec) -> list:
        return spec.cells()

    def key(self, cell):
        return cell.key

    def answer(self, spec, cache, restored):
        cached = {}
        for cell in spec.cells():
            outcome = cache.get(cell)
            if outcome is not None:
                cached[cell.key] = outcome
        return cached, {}

    def submitted_fields(self, job) -> dict:
        return {"cells_total": len(job.cells), "cells_cached": len(job.cached)}

    def task(self, job, cells):
        return cells

    def execute(self, cells, send, runners, stats) -> None:
        for cell in cells:
            absent = (cell.label, cell.kernel) not in runners
            try:
                (value,) = execute_cells([cell], runners=runners).values()
                built = absent
            except Exception as exc:  # noqa: BLE001 — isolate the cell, keep serving
                # Batch propagates a clean cell's raise; a served job records
                # it and the worker serves on.
                value = CellError("cell_exception", f"{type(exc).__name__}: {exc}")
                built = absent and (cell.label, cell.kernel) in runners
            stats["builds"] += built
            if isinstance(value, CellError):
                send("unit_error", cell.key, value)
            else:
                send("unit", cell.key, value, {})

    def persist(self, cache, job, key, value) -> None:
        cache.put(job.by_key[key], value)

    def journal_payload(self, job, shard) -> Optional[dict]:
        # Digests only: the outcomes already sit in the shared ResultCache,
        # so recovery answers these cells from there; cell_digest is
        # memoised from the admit-time cache lookup.
        return {"cells": [cell_digest(cell) for cell in shard.units]}

    def describe_unit(self, job, key) -> dict:
        cell = job.by_key[key]
        fields = {"label": cell.label, "scenario": cell.scenario.number,
                  "seed": cell.seed, "repeat": cell.repeat}
        if cell.faults is not None:
            fields["faults"] = cell.faults
        return fields

    def unit_fields(self, job, key, value) -> dict:
        return dict(self.describe_unit(job, key), kernel=job.by_key[key].kernel,
                    result=value[0], cycles=value[1], transactions=value[2])

    def aggregate(self, job) -> dict:
        return self.result(job).to_dict()

    def result(self, job) -> CampaignResult:
        """A :class:`CampaignResult` whose cells are bit-identical to the
        batch runner's on the same spec."""
        results = []
        for cell in job.cells:
            key = cell.key
            outcome = job.errors.get(key) or job.cached.get(key) or job.fresh[key]
            results.append(cell_result(cell, outcome, cached=key in job.cached))
        elapsed = (job.finished or time.perf_counter()) - job.submitted
        total_cycles = sum(r.cycles for r in results if not r.cached and r.error is None)
        return CampaignResult(
            spec=job.spec,
            cells=results,
            meta={
                "executor": "farm",
                "job_id": job.id,
                "priority": job.priority,
                "elapsed_s": round(elapsed, 6),
                "cells_total": len(job.cells),
                "cells_cached": len(job.cached),
                "cells_executed": len(job.fresh),
                "cells_failed": len(job.errors),
                "simulated_cycles": total_cycles,
                "spec_fingerprint": job.spec.fingerprint(),
            },
        )


class FuzzKind(JobKind):
    """Fuzz jobs: units are seeds, one deterministic session per shard,
    resumed from the journal (its only durable copy of a session)."""

    name = "fuzz"
    spec_type = FuzzJobSpec
    spec_key = "fuzz"
    marker = "seed_start"
    unit_event = "session"
    error_event = "session_error"
    total_counter = "sessions_total"
    answered_counter = "sessions_recovered"
    executed_counter = "sessions_executed"
    failed_counter = "sessions_failed"
    answered_field = "sessions"
    worker_stats = ("sessions", "fuzz_errors")

    def expand(self, spec) -> list:
        return spec.seeds()

    def key(self, seed):
        return seed

    def answer(self, spec, cache, restored):
        return {}, {seed: restored[seed] for seed in spec.seeds() if seed in restored}

    def restore(self, shard_records):
        return {int(record["seed"]): record["session"] for record in shard_records
                if isinstance(record.get("session"), dict) and "seed" in record}

    def shard_size(self, farm_shard_size: int) -> int:
        return 1  # one session per shard spreads a seed range over every worker

    def submitted_fields(self, job) -> dict:
        spec = job.spec
        return {"seed_start": spec.seed_start, "sessions": spec.sessions,
                "budget": spec.budget, "profile": spec.profile,
                "with_faults": spec.with_faults, "sessions_done": len(job.fresh)}

    def task(self, job, seeds):
        return job.spec, seeds[0]

    def execute(self, task, send, runners, stats) -> None:
        """One session; the fuzz stack is imported here, lazily, so a farm
        serving only campaigns never imports Hypothesis, and a worker
        without it reports a ``fuzz_error`` instead of dying."""
        spec, seed = task
        last_beat = [time.perf_counter()]

        def on_case(case, verdict) -> None:
            now = time.perf_counter()
            if now - last_beat[0] >= FUZZ_HEARTBEAT_EVERY_S:
                last_beat[0] = now
                send("heartbeat")

        try:
            from repro.fuzz.session import run_session

            report = run_session(
                spec.budget, seed, profile=spec.profile,
                with_faults=spec.with_faults, timeout_s=spec.case_timeout_s,
                corpus_dir=None,  # the farm owns the server-side corpus
                on_case=on_case,
                on_finding=lambda ce: send("finding", ce.describe()),
            )
        except Exception as exc:  # noqa: BLE001 — isolate the session, keep serving
            error = CellError("fuzz_error", f"{type(exc).__name__}: {exc}")
            send("unit_error", seed, error)
            return
        send("unit", seed, {
            "seed": seed,
            "budget": report.budget,
            "profile": report.profile,
            "with_faults": report.with_faults,
            "executed": report.executed,
            "rounds": report.rounds,
            "coverage": list(report.coverage),
            "counterexamples": [ce.describe() for ce in report.counterexamples],
            "exit_code": report.exit_code,
        }, {"duration_s": round(report.duration_s, 3)})

    def journal_payload(self, job, shard) -> Optional[dict]:
        (seed,) = shard.units
        if seed not in job.fresh:
            return None
        return {"seed": seed, "session": job.fresh[seed]}

    def describe_unit(self, job, seed) -> dict:
        return {"seed": seed}

    def unit_fields(self, job, seed, payload) -> dict:
        return {"seed": seed, "executed": payload["executed"],
                "rounds": payload["rounds"],
                "findings": len(payload["counterexamples"]),
                "coverage": len(payload["coverage"])}

    def aggregate(self, job) -> dict:
        """Everything outside ``meta`` is a pure function of the spec:
        session rows in seed order, the union of per-session coverage cells,
        and counterexamples deduplicated by ``(kind, token)`` — so two runs
        of the same spec (or one interrupted by a server kill and resumed)
        compare bit-identical on ``sessions``/``coverage``/``counterexamples``."""
        sessions = []
        coverage: set = set()
        findings: Dict[Tuple[str, str], dict] = {}
        errors: Dict[str, str] = {}
        for seed in job.cells:
            if seed in job.errors:
                errors[str(seed)] = job.errors[seed].describe()
                continue
            payload = job.fresh[seed]
            sessions.append(payload)
            coverage.update(payload.get("coverage", ()))
            for ce in payload.get("counterexamples", ()):
                findings[(str(ce.get("kind")), str(ce.get("token")))] = ce
        return {
            "kind": self.name,
            "fuzz": job.spec.describe(),
            "sessions": sessions,
            "executed": sum(int(s.get("executed", 0)) for s in sessions),
            "coverage": sorted(coverage),
            "counterexamples": [findings[key] for key in sorted(findings)],
            "errors": errors,
            "meta": {
                "executor": "farm",
                "job_id": job.id,
                "priority": job.priority,
                "recovered": job.recovered,
                "elapsed_s": round(job.elapsed_s, 6),
                "sessions_total": len(job.cells),
                "sessions_failed": len(errors),
                "spec_fingerprint": job.spec.fingerprint(),
            },
        }

    def history_record(self, job) -> Optional[dict]:
        payload, spec = self.aggregate(job), job.spec
        return {
            "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
            "bench": "fuzz_farm",
            "mode": "service",
            "headline": {
                "job": job.id,
                "seed_start": spec.seed_start,
                "sessions": spec.sessions,
                "budget": spec.budget,
                "profile": spec.profile,
                "with_faults": spec.with_faults,
                "executed": payload["executed"],
                "findings": len(payload["counterexamples"]),
                "coverage_cells": len(payload["coverage"]),
                "coverage": payload["coverage"],
            },
        }


CAMPAIGN = CampaignKind()
FUZZ = FuzzKind()

#: Every kind, by name.
KINDS: Dict[str, JobKind] = {kind.name: kind for kind in (CAMPAIGN, FUZZ)}


def kind_of(spec) -> JobKind:
    """The kind of a spec object; a bare mapping is a campaign spec."""
    for kind in KINDS.values():
        if isinstance(spec, kind.spec_type):
            return kind
    return CAMPAIGN


def job_request(body: Mapping) -> Optional[Tuple[JobKind, dict]]:
    """The kind and spec payload a ``POST /jobs`` body carries, or ``None``.

    A payload sits under its kind's ``spec_key``; a bare body is a campaign
    spec.  Either way it must carry its kind's ``marker`` field.
    """
    kind = next((k for k in KINDS.values() if body.get(k.spec_key) is not None), CAMPAIGN)
    payload = body.get(kind.spec_key, body)
    if not isinstance(payload, dict) or kind.marker not in payload:
        return None
    return kind, payload
