#!/usr/bin/env python3
"""The repository benchmark: served jobs and batch campaigns, end to end.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload serve-cold --seed 1 --seconds 50 --trace 0

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs the workload
in untraced and traced chunks and prints the per-layer table instead.  The
gated cost of a job is the CPU time the workload's processes spend on it,
which another tenant's load on a shared host does not inflate the way it
inflates wall-clock latency; the wall-clock figures are in the table.  The last
line of standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  Every output check runs on every run; a failed
check makes ``correct`` false and the exit code 1.  See
``perfbench/README.md`` for the workloads, the metrics and the layer map.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import resource
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import golden
from inputs import (CHECKED_JOBS, base_of, batch_spec, cold_spec, geometric_spec,
                    totals_of)
from spans import Tracer, median, metric, percentile

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
#: Scratch space inside the checkout: per-run state (removed at exit) and
#: span dumps (kept).
WORK = ROOT / ".perfbench-work"

WORKLOADS = ("serve-cold", "batch-sweep")
CLIENTS = 2          # closed-loop client threads (= nproc on the reference host)
WORKERS = 2          # splice serve --workers
SETUP_REPEATS = 5    # set-ups per run; setup_s is their median
JOB_TIMEOUT_S = 60.0
FUZZ_PROBE_BUDGET = 8  # cases of the traced batch run's fuzz-layer probe

_PRIME_SNIPPET = """
from repro.campaign import run_campaign
from repro.campaign.presets import SPLICE_IMPLEMENTATIONS
from repro.campaign.spec import CampaignSpec
from repro.evaluation.scenarios import SCENARIOS
run_campaign(CampaignSpec(implementations=SPLICE_IMPLEMENTATIONS,
                          scenarios=SCENARIOS, seeds=(0,), kernel="compiled"))
"""


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="measured duration of the timed loop")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


class Bench:
    """One run: its arguments, scratch directory and check results."""

    def __init__(self, args, run_dir: Path) -> None:
        self.workload = args.workload
        self.seed = args.seed
        self.seconds = args.seconds
        self.trace = bool(args.trace)
        self.run_dir = run_dir
        self.failures = []
        self.attempted = 0
        self.failed = 0
        self.notes = []
        self.setup_samples = []
        #: Printed above the result line but not part of it (not gated).
        self.info = {}
        self.base = base_of(args.seed)

    def check(self, ok: bool, message: str) -> None:
        if not ok:
            self.failures.append(message)

    def stop(self, server) -> None:
        note = server.stop()
        if note:
            self.notes.append(note)

    def count(self, attempted: int, failed: int) -> None:
        self.attempted += attempted
        self.failed += failed

    def check_golden(self, totals: dict) -> None:
        """Simulated totals are a pure function of the seed and must equal the
        committed ones in ``perfbench/golden/``.  A seed with none committed
        is flagged, and seed 0's totals are recomputed in-process and checked
        instead, so the check never passes for want of a reference."""
        seed = self.seed
        expected = golden.committed(self.workload, seed)
        if expected is None:
            self.notes.append(f"seed {seed} has no committed golden totals; "
                              "checked seed 0's, recomputed in-process")
            seed = 0
            expected = golden.committed(self.workload, seed)
            totals = golden.compute(self.workload, seed)
        self.check(expected is not None and totals == expected,
                   f"simulated totals of seed {seed} are {totals}, "
                   f"committed {expected}")


# -- outputs ------------------------------------------------------------------

def outcomes_of(spec_body: dict, payload) -> dict:
    """``{cell.key: (result, cycles, transactions)}`` from a result payload."""
    from repro.campaign import CampaignSpec

    cells = sorted(CampaignSpec.from_dict(spec_body).cells(), key=lambda c: c.key)
    outcomes = {}
    for cell, row in zip(cells, payload):
        if any(row[k] != v for k, v in cell.describe().items()):
            raise ValueError(f"result row {row} is not cell {cell.describe()}")
        outcomes[cell.key] = (row["result"], row["cycles"], row["transactions"])
    return outcomes


# -- shared measurement plumbing -----------------------------------------------

def e2e_metrics(setup_s, cpu_s, jobs, rss_mb):
    """``cpu_ms_per_job``: CPU time of every process of the workload during
    the timed loop, divided by the jobs completed in it."""
    return {
        "setup_s": metric(setup_s, "s"),
        "cpu_ms_per_job": metric(cpu_s * 1e3 / jobs if jobs else 0.0, "ms"),
        "peak_rss_mb": metric(rss_mb, "MB"),
    }


def wall_metrics(latencies_s, wall_s, jobs):
    """Wall-clock job latency and throughput, with the sample count."""
    latencies_ms = [s * 1e3 for s in latencies_s]
    return {
        "wall.job_p50_ms": metric(median(latencies_ms), "ms"),
        "wall.job_p90_ms": metric(percentile(latencies_ms, 0.90), "ms"),
        "wall.jobs_per_s": metric(jobs / wall_s if wall_s else 0.0, "1/s"),
        "wall.samples": metric(len(latencies_ms), "count"),
    }


def launch(bench: Bench, preload, prime):
    """Start ``splice serve`` SETUP_REPEATS times, each on a fresh state dir,
    timing launch -> workers ready (preload built) -> primed; keeps the last."""
    from served import Server
    server = None
    for attempt in range(SETUP_REPEATS):
        if server is not None:
            bench.stop(server)
        start = time.perf_counter()
        server = Server(ROOT, bench.run_dir / f"state{attempt}",
                        workers=WORKERS, preload=preload)
        try:
            server.wait_ready()
            prime(server)
        except BaseException:
            bench.stop(server)
            raise
        bench.setup_samples.append(time.perf_counter() - start)
    return server, median(bench.setup_samples)


class Loop:
    """Closed-loop measurement of a served workload: its job outcomes, wall
    time, CPU seconds of the server, its workers and the client process, and
    what the farm did meanwhile (from ``/stats``)."""

    def __init__(self, outcomes, wall, cpu, farm):
        self.outcomes = sorted(outcomes, key=lambda o: o.index)
        self.wall = wall
        self.cpu = cpu
        self.farm = farm
        self.ok = [o for o in self.outcomes if o.ok]

    @classmethod
    def run(cls, bench, server, clients, tracer, first_index, seconds,
            submit_for, timeout_s):
        from layers import farm_counters
        from served import closed_loop, run_job

        client = server.client
        before = client.stats()
        cpu = server.cpu_s() + time.process_time()
        outcomes, wall = closed_loop(
            clients, seconds,
            lambda i: run_job(client, submit_for(i), i, tracer, timeout_s),
            first_index,
        )
        cpu = server.cpu_s() + time.process_time() - cpu
        loop = cls(outcomes, wall, cpu, farm_counters(before, client.stats()))
        bench.count(len(loop.outcomes), len(loop.outcomes) - len(loop.ok))
        for outcome in loop.outcomes:
            if not outcome.ok:
                bench.notes.append(f"job {outcome.index} failed: {outcome.error}")
        return loop

    def __add__(self, other):
        farm = {k: self.farm[k] + other.farm[k] for k in self.farm}
        farm["utilization"] = other.farm["utilization"]  # lifetime figure
        return Loop(self.outcomes + other.outcomes, self.wall + other.wall,
                    self.cpu + other.cpu, farm)

    def cpu_ms_per_job(self):
        return self.cpu * 1e3 / len(self.ok) if self.ok else 0.0

    def wall_metrics(self):
        return wall_metrics([o.latency_s for o in self.ok], self.wall, len(self.ok))

    def by_index(self):
        return {o.index: o for o in self.ok}


def traced_chunks(seconds, run_chunk, cost):
    """The --trace 1 measurement: four quarter-length chunks on fresh input
    indices, untraced / traced / traced / untraced.

    ``run_chunk(tracer, first_index, seconds)`` returns ``(chunk,
    next_index)`` and ``cost(chunk)`` its CPU milliseconds per job.  Returns
    ``(untraced_chunks, traced_chunks, tracer, overhead_frac)``.  Served jobs
    pile up in the server as it runs, so this order gives both halves the
    same average server age and host period; ``overhead_frac`` is the mean
    traced cost over the mean untraced cost, minus 1, which cancels a linear
    drift across the run.
    """
    off, on = Tracer(False), Tracer(True)
    chunks, index = [], 0
    for tracer in (off, on, on, off):
        chunk, index = run_chunk(tracer, index, seconds / 4)
        chunks.append(chunk)
    first, traced_a, traced_b, last = (cost(chunk) for chunk in chunks)
    overhead = (traced_a + traced_b) / (first + last) - 1.0
    return (chunks[0], chunks[3]), (chunks[1], chunks[2]), on, overhead


def served_loops(bench, server, clients, submit_for, timeout_s):
    """Returns ``(untraced, traced_or_None, tracer, overhead_frac)``."""
    def loop(tracer, first_index, seconds):
        chunk = Loop.run(bench, server, clients, tracer, first_index, seconds,
                         submit_for, timeout_s)
        return chunk, chunk.outcomes[-1].index + 1

    if not bench.trace:
        return loop(Tracer(False), 0, bench.seconds)[0], None, Tracer(False), 0.0
    (first, last), (traced_a, traced_b), tracer, overhead = traced_chunks(
        bench.seconds, loop, Loop.cpu_ms_per_job)
    return first + last, traced_a + traced_b, tracer, overhead


def fetch_result(server, tracer, job_id):
    with tracer.span("http.result", job=job_id):
        return server.client.result(job_id)


def finish_trace(bench, tracer, table_kwargs):
    """Write the spans out and derive the per-layer table from them."""
    from layers import layer_table

    tracer.write(WORK / "traces" / f"{bench.workload}-seed{bench.seed}.jsonl")
    return layer_table(tracer, attempted=bench.attempted, failed=bench.failed,
                       **table_kwargs)


# -- workloads ----------------------------------------------------------------

def serve_cold(bench: Bench) -> dict:
    """Every job is an 8-cell spec the server has never seen: kernel
    execution, queue wait, dispatch/IPC, result-cache writes."""
    def spec_for(i):
        return cold_spec(bench.seed, i)

    def prime(server):
        final = server.client.submit_and_wait(
            geometric_spec(f"cold-{bench.seed}-prime", bench.base + 9_999),
            timeout=JOB_TIMEOUT_S)
        bench.check(final["state"] == "done", f"priming job ended {final['state']}")

    server, setup_s = launch(bench, ["splice_plb"], prime)
    try:
        def submit_for(i):
            return lambda: server.client.submit(spec_for(i), timeout_s=JOB_TIMEOUT_S)

        untraced, traced, tracer, overhead = served_loops(
            bench, server, CLIENTS, submit_for, JOB_TIMEOUT_S)
        rss = server.peak_rss_mb()
        first = untraced.by_index()
        results = {}
        for i in range(CHECKED_JOBS):
            bench.check(i in first, f"cold job {i} did not complete")
            if i in first:
                results[i] = fetch_result(server, tracer, first[i].job_id)["cells"]
        state_dir = server.state_dir
    finally:
        bench.stop(server)

    from repro.campaign import CampaignSpec, run_campaign

    sample = random.Random(bench.seed).randrange(CHECKED_JOBS)
    if sample in results:
        batch = run_campaign(CampaignSpec.from_dict(spec_for(sample)))
        bench.check(batch.payload() == results[sample],
                    f"served cold job {sample} differs from in-process run_campaign")
    bench.check_golden(totals_of(results[i] for i in sorted(results)))

    if not bench.trace:
        bench.info = untraced.wall_metrics()
        return e2e_metrics(setup_s, untraced.cpu, len(untraced.ok), rss)

    import layers
    from served import server_spans

    server_spans(tracer, traced.outcomes)
    checked = [spec_for(i) for i in sorted(results)]
    outcomes = {}
    for spec, i in zip(checked, sorted(results)):
        outcomes.update(outcomes_of(spec, results[i]))
    # Admission of a new spec misses the cache, so digest and get run on
    # cells no cache holds; put stores the checked jobs' outcomes.
    layers.probe_cache(tracer, checked, bench.run_dir / "probe-empty-cache",
                       outcomes, bench.run_dir / "probe-put-cache")
    fresh = [spec_for(500_000 + k) for k in range(8)]
    layers.probe_farm_submit(tracer, fresh, bench.run_dir / "probe-cache",
                             bench.run_dir / "probe-state")
    layers.probe_journal(tracer, state_dir / "journal.jsonl",
                         bench.run_dir / "probe-journal.jsonl", limit=120)
    layers.probe_kernel(tracer, "splice_plb", "event",
                        [CampaignSpec.from_dict(spec).cells() for spec in checked])
    for spec in checked:
        layers.probe_aggregate_campaign(tracer, spec, outcomes, repeats=3)
    return finish_trace(bench, tracer, dict(
        jobs=len(traced.ok), overhead_frac=overhead,
        wall=untraced.wall_metrics(), farm=traced.farm))


def batch_sweep(bench: Bench) -> dict:
    """Serial in-process ``run_campaign`` (no result cache), compiled kernel,
    program cache primed in set-up: every call rebuilds its 5 runners."""
    program_dir = None
    for attempt in range(SETUP_REPEATS):
        program_dir = bench.run_dir / f"programs{attempt}"
        env = dict(os.environ, PYTHONPATH=str(SRC),
                   SPLICE_COMPILE_CACHE=str(program_dir))
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", _PRIME_SNIPPET], cwd=ROOT, env=env,
                       check=True, timeout=120)
        bench.setup_samples.append(time.perf_counter() - start)
    setup_s = median(bench.setup_samples)

    from repro.campaign import run_campaign
    from repro.rtl.compile import PROGRAM_CACHE_ENV

    os.environ[PROGRAM_CACHE_ENV] = str(program_dir)
    exec(compile(_PRIME_SNIPPET, "<prime>", "exec"), {})  # same set-up, in-process

    def loop(tracer, first_index, seconds):
        import layers
        from repro.campaign import CampaignResult, cell_result
        import repro.campaign.executor as executor

        current = [None]
        original = executor.build_runner

        def traced_build(label, kernel="event", **kwargs):
            start = time.perf_counter()
            runner = original(label, kernel=kernel, **kwargs)
            cache = getattr(layers.simulator_of(runner), "program_cache", None)
            tracer.add("build.runner", start, time.perf_counter(), parent=current[0],
                       program_cache_hits=cache.hits if cache else 0,
                       program_cache_misses=cache.misses if cache else 0)
            return layers.timed_runner(tracer, runner, lambda: current[0])

        if tracer.enabled:
            executor.build_runner = traced_build
        runs = []
        cpu = time.process_time()
        start = time.perf_counter()
        deadline = start + seconds
        index = first_index
        try:
            while time.perf_counter() < deadline:
                spec = batch_spec(bench.seed, index)
                current[0] = tracer.new_id()
                began = time.perf_counter()
                try:
                    result = run_campaign(spec)
                    error = None
                except Exception as exc:  # a failed campaign is a failed operation
                    result, error = None, f"{type(exc).__name__}: {exc}"
                ended = time.perf_counter()
                tracer.add("job", began, ended, span_id=current[0], ok=error is None)
                runs.append((index, spec, result, ended - began, error))
                if result is not None and tracer.enabled:
                    with tracer.span("aggregate"):
                        CampaignResult(spec=spec, cells=[
                            cell_result(c.cell, (c.result, c.cycles, c.transactions))
                            for c in result.cells], meta=dict(result.meta))
                index += 1
        finally:
            executor.build_runner = original
        return (runs, time.perf_counter() - start, time.process_time() - cpu), index

    def cpu_ms_per_campaign(chunk):
        runs, _, cpu = chunk
        done = sum(1 for run in runs if run[2] is not None)
        return cpu * 1e3 / done if done else 0.0

    if bench.trace:
        (first, last), (traced_a, traced_b), tracer, overhead = traced_chunks(
            bench.seconds, loop, cpu_ms_per_campaign)
        untraced, traced = first[0] + last[0], traced_a[0] + traced_b[0]
        wall, cpu = first[1] + last[1], first[2] + last[2]
    else:
        tracer, traced = Tracer(False), None
        (untraced, wall, cpu), _ = loop(tracer, 0, bench.seconds)

    from repro.devices.interpolator import interpolate_fixed_point

    rng = random.Random(bench.seed)
    ok_latencies = []
    for runs in filter(None, (untraced, traced)):
        for index, spec, result, latency, error in runs:
            cells = spec.cell_count
            failed = cells if result is None else result.meta["cells_failed"]
            bench.count(cells, failed)
            if error is not None:
                bench.notes.append(f"campaign {index} failed: {error}")
                continue
            bench.check(all(result.agreement().values()),
                        f"campaign {index}: implementations disagree")
            cell = rng.choice(result.cells)
            expected = interpolate_fixed_point(*cell.cell.generate_inputs()) & 0xFFFFFFFF
            bench.check(cell.result == expected,
                        f"campaign {index}: {cell.cell.key} = {cell.result}, "
                        f"interpolate_fixed_point says {expected}")
            if runs is untraced and failed == 0:
                ok_latencies.append(latency)
    first = untraced[0][2]
    if first is not None:
        bench.check_golden(totals_of([first.payload()]))

    if not bench.trace:
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        bench.info = wall_metrics(ok_latencies, wall, len(ok_latencies))
        return e2e_metrics(setup_s, cpu, len(ok_latencies), rss_mb)

    import layers
    from repro.campaign.presets import SPLICE_IMPLEMENTATIONS

    layers.probe_build_phases(tracer, SPLICE_IMPLEMENTATIONS, repeats=2)
    # The fuzz layer (the three-kernel oracle) has no workload of its own;
    # it is probed here, in-process, on cases from a seeded session.
    counterexamples = layers.probe_fuzz_cases(tracer, bench.base + 50_000,
                                              budget=FUZZ_PROBE_BUDGET)
    bench.check(counterexamples == 0,
                f"the fuzz probe found {counterexamples} failing cases")
    return finish_trace(bench, tracer, dict(
        jobs=sum(1 for run in traced if run[2] is not None),
        overhead_frac=overhead, fuzz_counterexamples=counterexamples,
        wall=wall_metrics(ok_latencies, wall, len(ok_latencies))))


RUNNERS = {
    "serve-cold": serve_cold,
    "batch-sweep": batch_sweep,
}


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source at {SRC / 'repro'}; run from the "
              "root of a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    run_dir = WORK / "runs" / f"{args.workload}-seed{args.seed}-{os.getpid()}"
    (run_dir / "tmp").mkdir(parents=True)
    # Everything the run and its server write stays inside the checkout.
    os.environ["TMPDIR"] = str(run_dir / "tmp")
    tempfile.tempdir = str(run_dir / "tmp")
    bench = Bench(args, run_dir)
    try:
        metrics = RUNNERS[args.workload](bench)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace} nproc={os.cpu_count()} "
          f"python={platform.python_version()} clients="
          f"{CLIENTS if args.workload == 'serve-cold' else 1}")
    print(f"  attempted={bench.attempted} failed={bench.failed} "
          f"failed_frac={bench.failed / max(1, bench.attempted):.4f} set-ups_s="
          + ",".join(f"{s:.3f}" for s in bench.setup_samples))
    for name, record in metrics.items():
        print(f"  {name:32s} {record['value']:14.6f} {record['unit']}")
    for name, record in bench.info.items():
        print(f"  {name:32s} {record['value']:14.6f} {record['unit']} (not gated)")
    for line in bench.notes + bench.failures:
        print(f"  ! {line}")
    correct = not bench.failures
    print(json.dumps({"correct": correct, "attempted": bench.attempted,
                      "failed": bench.failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
