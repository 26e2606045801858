"""In-process probes for the layers a client cannot see, and the layer table.

Each probe calls one layer's public function on the workload's own inputs,
inside a span; nothing in ``src/`` is instrumented.  Probes run after the
workload's server has stopped, so they never compete with it for the CPU.
:func:`layer_table` turns the spans (from the client loop and the probes)
plus the farm's public counters into the per-layer metrics.  A layer that is
not on a workload's path reports 0.
"""

from __future__ import annotations

import json
import time
from pathlib import Path
from typing import Dict, List, Optional, Sequence

from spans import median, metric

from repro.campaign import CampaignSpec, ResultCache, cell_digest
from repro.core.engine import Splice
from repro.devices import interpolator
from repro.devices.registry import build_runner
from repro.service import Job, JobJournal, SimulationFarm
from repro.service.jobs import DONE

#: Spec source of each Splice-generated label (parse/generate probes).
SPEC_SOURCES = {
    "splice_plb": interpolator.INTERPOLATOR_SPEC_PLB,
    "splice_plb_dma": interpolator.INTERPOLATOR_SPEC_PLB_DMA,
    "splice_fcb": interpolator.INTERPOLATOR_SPEC_FCB,
    "splice_opb": interpolator.INTERPOLATOR_SPEC_OPB,
    "splice_apb": interpolator.INTERPOLATOR_SPEC_APB,
}


def simulator_of(runner):
    return runner.system.simulator


def probe_farm_submit(tracer, specs: Sequence[dict], cache_dir: Path,
                      state_dir: Path) -> None:
    """``SimulationFarm.submit`` on the workload's specs, on a journalled
    one-worker farm: admission without HTTP."""
    with SimulationFarm(workers=1, cache=cache_dir, state_dir=state_dir,
                        name="bench-probe") as farm:
        for spec in specs:
            with tracer.span("farm.submit"):
                farm.submit(spec)


def probe_cache(tracer, specs: Sequence[dict], cache_dir: Path,
                outcomes: Dict[tuple, tuple], put_dir: Path) -> None:
    """``cell_digest`` then ``ResultCache.get`` per cell, as admission does
    them (cells expanded from the spec dict the way the server expands a
    request), then ``ResultCache.put`` of the cells' ``outcomes`` into
    ``put_dir``."""
    cache, target = ResultCache(cache_dir), ResultCache(put_dir)
    for body in specs:
        for cell in CampaignSpec.from_dict(body).cells():
            with tracer.span("cache.digest"):
                cell_digest(cell)
            with tracer.span("cache.get"):
                cache.get(cell)
    for body in specs:
        for cell in CampaignSpec.from_dict(body).cells():
            if cell.key in outcomes:
                with tracer.span("cache.put"):
                    target.put(cell, outcomes[cell.key])


def probe_journal(tracer, journal: Path, probe_path: Path, limit: int) -> None:
    """Re-append the server's own journal records (its record shapes) to a
    fresh fsync'd :class:`JobJournal`, one span per ``append``."""
    records = []
    with open(journal, encoding="utf-8") as fh:
        for line in fh:
            record = json.loads(line)
            if "type" in record:
                records.append(record)
            if len(records) >= limit:
                break
    probe = JobJournal(probe_path, fsync=True)
    try:
        for record in records:
            fields = {k: v for k, v in record.items() if k not in ("type", "wall")}
            with tracer.span("journal.append", record=record["type"]):
                probe.append(record["type"], **fields)
    finally:
        probe.close()


def probe_aggregate_campaign(tracer, spec_body: dict, outcomes: Dict[tuple, tuple],
                             *, repeats: int) -> None:
    """``Job.result_payload`` over a finished campaign job's executed outcomes."""
    spec = CampaignSpec.from_dict(spec_body)
    for _ in range(repeats):
        job = Job("j-probe", spec)
        for cell in job.cells:
            job.fresh[cell.key] = outcomes[cell.key]
        with job.cond:
            job.enter_state(DONE)
            with tracer.span("aggregate"):
                job.result_payload()


def timed_runner(tracer, runner, parent_of):
    """Wrap ``runner.run_scenario`` in a ``kernel.run`` span carrying the
    executed and leaped cycles it advanced (from ``SimulatorStats``)."""
    run = runner.run_scenario
    stats = simulator_of(runner).stats

    def run_scenario(sets):
        executed, leaped = stats.executed_cycles, stats.leaped_cycles
        start = time.perf_counter()
        outcome = run(sets)
        tracer.add("kernel.run", start, time.perf_counter(), parent=parent_of(),
                   executed=stats.executed_cycles - executed,
                   leaped=stats.leaped_cycles - leaped)
        return outcome

    runner.run_scenario = run_scenario
    return runner


def probe_kernel(tracer, label: str, kernel: str,
                 jobs: Sequence[Sequence]) -> None:
    """``run_scenario`` per cell of each job on one resident runner, as a
    warm worker runs a shard (the build is set-up and is not timed)."""
    parent = [None]
    runner = timed_runner(tracer, build_runner(label, kernel=kernel),
                          lambda: parent[0])
    for cells in jobs:
        parent[0] = tracer.new_id()
        for cell in cells:
            runner.run_scenario(cell.generate_inputs())


def probe_build_phases(tracer, labels: Sequence[str], repeats: int) -> None:
    """``Splice.parse``, ``Splice.generate`` and ``build_runner`` on the event
    and compiled kernels, per label; the phase costs are their differences."""
    for _ in range(repeats):
        for label in labels:
            source = SPEC_SOURCES[label]
            with tracer.span("build.parse", label=label):
                Splice().parse(source)
            with tracer.span("build.generate", label=label):
                Splice().generate(source)
            with tracer.span("build.event", label=label):
                build_runner(label, kernel="event")
            with tracer.span("build.compiled", label=label):
                build_runner(label, kernel="compiled")


def probe_fuzz_cases(tracer, seed: int, budget: int) -> int:
    """``run_case`` (all three kernels, reference included) on the cases a
    seeded session generates.  Returns the session's counterexamples plus
    the cases whose timed re-run did not pass."""
    from repro.fuzz import run_case, run_session

    cases = []
    report = run_session(budget, seed,
                         on_case=lambda case, verdict: cases.append(case))
    failing = len(report.counterexamples)
    for case in cases:
        with tracer.span("fuzz.case"):
            failing += not run_case(case).ok
    return failing


def _per_parent_sums_ms(tracer, name: str) -> List[float]:
    sums: Dict[int, float] = {}
    for span in tracer.named(name):
        if span["parent"] is not None:
            sums[span["parent"]] = sums.get(span["parent"], 0.0) + (
                span["end"] - span["start"]) * 1e3
    return list(sums.values())


def farm_counters(before: dict, after: dict) -> Dict[str, float]:
    """What the farm did between two ``/stats`` snapshots."""
    cells = {k: after["cells"][k] - before["cells"].get(k, 0) for k in after["cells"]}
    builds = (sum(w.get("builds", 0) for w in after["workers"])
              - sum(w.get("builds", 0) for w in before["workers"]))
    return {
        "looked_up": cells["cells_total"],
        "cached": cells["cells_cached"],
        "shards": cells["shards_dispatched"],
        "builds": builds,
        "journal_records": after["journal_records"] - before["journal_records"],
        "utilization": after["utilization_lifetime"],
    }


def layer_table(tracer, *, jobs: int, overhead_frac: float,
                attempted: int, failed: int, wall: Dict[str, dict],
                farm: Optional[Dict[str, float]] = None,
                fuzz_counterexamples: int = 0) -> Dict[str, dict]:
    """Every per-layer metric, from the spans and the farm's counters.

    ``farm`` is :func:`farm_counters` summed over the traced loops of a
    served workload (``None`` for batch); ``jobs`` is the number of jobs
    (or batch campaigns) completed in those loops.  ``wall`` holds the
    wall-clock job figures of the untraced loops, reported as they are.
    """
    p50 = tracer.p50_ms
    per_job = (lambda n: n / jobs) if jobs else (lambda n: 0.0)

    requests = sum(tracer.count(n) for n in ("http.post", "http.events", "http.status"))
    farm = farm or {"looked_up": 0, "cached": 0, "shards": 0, "builds": 0,
                    "journal_records": 0, "utilization": 0.0}
    hit_ratio = farm["cached"] / farm["looked_up"] if farm["looked_up"] else 0.0
    shards, builds = farm["shards"], farm["builds"]
    journal_records, utilization = farm["journal_records"], farm["utilization"]

    # Build: spans from inside the timed batch campaigns, plus phase probes.
    build_spans = list(tracer.named("build.runner"))
    hits = sum(s.get("program_cache_hits", 0) for s in build_spans)
    lookups = hits + sum(s.get("program_cache_misses", 0) for s in build_spans)
    parse, generate = p50("build.parse"), p50("build.generate")
    event, compiled = p50("build.event"), p50("build.compiled")

    kernel_spans = list(tracer.named("kernel.run"))
    executed = sum(s["executed"] for s in kernel_spans)
    leaped = sum(s["leaped"] for s in kernel_spans)
    kernel_s = sum(s["end"] - s["start"] for s in kernel_spans)
    # Kernel cycle counts are per job: per served job for the in-process
    # replay of served jobs' cells, per campaign for batch.
    kernel_jobs = max(1, len({s["parent"] for s in kernel_spans}))

    job_p50 = median([(s["end"] - s["start"]) * 1e3
                      for s in tracer.named("job") if s.get("ok")])
    worker_cell = p50("worker.cell")
    kernel_cell = p50("kernel.run")
    if tracer.count("http.post"):
        blocking = p50("http.post") + p50("http.events") + p50("http.status")
        ipc = worker_cell - kernel_cell if worker_cell else 0.0
    else:
        blocking = (median(_per_parent_sums_ms(tracer, "build.runner"))
                    + median(_per_parent_sums_ms(tracer, "kernel.run"))
                    + p50("aggregate"))
        ipc = 0.0

    return {
        **wall,
        "http.post_ms_p50": metric(p50("http.post"), "ms"),
        "http.events_ms_p50": metric(p50("http.events"), "ms"),
        "http.status_ms_p50": metric(p50("http.status"), "ms"),
        "http.result_ms_p50": metric(p50("http.result"), "ms"),
        "http.requests_per_job": metric(per_job(requests), "count"),
        "farm.submit_ms_p50": metric(p50("farm.submit"), "ms"),
        "cache.digest_ms_per_cell": metric(p50("cache.digest"), "ms"),
        "cache.get_ms_per_cell": metric(p50("cache.get"), "ms"),
        "cache.put_ms_per_cell": metric(p50("cache.put"), "ms"),
        "cache.hit_ratio": metric(hit_ratio, "ratio"),
        "farm.queue_wait_ms_p50": metric(p50("farm.queue_wait"), "ms"),
        "farm.utilization": metric(utilization, "ratio"),
        "farm.shards_per_job": metric(per_job(shards), "count"),
        "worker.cell_ms_p50": metric(worker_cell, "ms"),
        "worker.ipc_ms_per_cell": metric(ipc, "ms"),
        "worker.builds_per_job": metric(per_job(builds), "count"),
        "build.ms_p50": metric(p50("build.runner"), "ms"),
        "build.parse_ms": metric(parse, "ms"),
        "build.generate_ms": metric(generate - parse if generate else 0.0, "ms"),
        "build.elaborate_ms": metric(event - generate if event else 0.0, "ms"),
        "build.codegen_ms": metric(compiled - event if compiled else 0.0, "ms"),
        "build.runners_per_campaign": metric(
            per_job(len(build_spans)) if build_spans else per_job(builds), "count"),
        "build.program_cache_hit_ratio": metric(hits / lookups if lookups else 0.0, "ratio"),
        "kernel.run_ms_per_cell_p50": metric(kernel_cell, "ms"),
        "kernel.executed_cycles_per_s": metric(executed / kernel_s if kernel_s else 0.0, "1/s"),
        "kernel.executed_cycles": metric(executed / kernel_jobs, "count"),
        "kernel.leaped_cycles": metric(leaped / kernel_jobs, "count"),
        "aggregate.ms_per_job": metric(p50("aggregate"), "ms"),
        "journal.records_per_job": metric(per_job(journal_records), "count"),
        "journal.append_ms_p50": metric(p50("journal.append"), "ms"),
        "fuzz.case_ms_p50": metric(p50("fuzz.case"), "ms"),
        "fuzz.counterexamples": metric(fuzz_counterexamples, "count"),
        "unattributed_ms": metric(job_p50 - blocking, "ms"),
        "trace.overhead_frac": metric(overhead_frac, "ratio"),
        "failed_frac": metric(failed / attempted if attempted else 0.0, "ratio"),
    }
