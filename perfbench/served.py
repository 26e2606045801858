"""A real ``splice serve`` subprocess and the closed-loop clients that load it.

The server is launched exactly as a user runs it (``python -m repro.cli
serve --port 0 --workers 2 --state-dir DIR``); the benchmark talks to it
only over HTTP through :class:`repro.service.ServiceClient`, so every job
pays the same front end, admission, queue, worker and journal costs a user's
job does.
"""

from __future__ import annotations

import itertools
import os
import queue
import re
import signal
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.service import ServiceClient, ServiceError
from repro.service.jobs import DONE

_BANNER = re.compile(r"serving on http://([\d.]+):(\d+)")
_START_TIMEOUT_S = 60.0
_STOP_TIMEOUT_S = 30.0
#: Socket timeout of every client call; a job that takes longer than the
#: per-job timeout below counts as failed, never as a long latency sample.
_CLIENT_TIMEOUT_S = 60.0


_TICKS_PER_S = os.sysconf("SC_CLK_TCK")


def cpu_s(pid: int) -> float:
    """User plus system CPU seconds a live process has used, all threads
    included (``/proc/<pid>/stat`` fields 14 and 15)."""
    with open(f"/proc/{pid}/stat", encoding="ascii") as fh:
        fields = fh.read().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / _TICKS_PER_S


def vm_hwm_mb(pid: int) -> float:
    """Peak resident set (``VmHWM``) of a live process, in MiB."""
    try:
        with open(f"/proc/{pid}/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return 0.0


class Server:
    """One ``splice serve`` process with a fresh state directory."""

    def __init__(self, root: Path, state_dir: Path, *, workers: int = 2,
                 preload: Sequence[str] = ()) -> None:
        self.state_dir = state_dir
        self.workers = workers
        self.preload = tuple(preload)
        command = [sys.executable, "-m", "repro.cli", "serve", "--port", "0",
                   "--workers", str(workers), "--state-dir", str(state_dir),
                   "--drain-timeout", "0"]
        if self.preload:
            command += ["--preload", *self.preload]
        env = dict(os.environ, PYTHONPATH=str(root / "src"))
        state_dir.parent.mkdir(parents=True, exist_ok=True)
        self._log = open(state_dir.parent / f"{state_dir.name}.log", "w")
        self.process = subprocess.Popen(
            command, cwd=root, env=env, stdout=subprocess.PIPE,
            stderr=self._log, text=True,
        )
        self._lines: "queue.Queue[Optional[str]]" = queue.Queue()
        self._reader = threading.Thread(target=self._read_stdout, daemon=True)
        self._reader.start()
        self.worker_pids: List[int] = []
        self.client = ServiceClient(f"http://127.0.0.1:{self._await_port()}",
                                    timeout=_CLIENT_TIMEOUT_S)

    def _read_stdout(self) -> None:
        for line in self.process.stdout:
            self._lines.put(line)
        self._lines.put(None)

    def _await_port(self) -> int:
        deadline = time.monotonic() + _START_TIMEOUT_S
        while time.monotonic() < deadline:
            try:
                line = self._lines.get(timeout=max(0.0, deadline - time.monotonic()))
            except queue.Empty:
                break
            if line is None:
                break
            match = _BANNER.search(line)
            if match:
                return int(match.group(2))
        self.stop()
        raise RuntimeError(f"splice serve did not start (see {self._log.name})")

    def wait_ready(self) -> dict:
        """Poll ``/stats`` until every worker is up with its preload built."""
        deadline = time.monotonic() + _START_TIMEOUT_S
        while time.monotonic() < deadline:
            stats = self.client.stats()
            workers = stats["workers"]
            if len(workers) == self.workers and all(
                w.get("ready") and w.get("preloaded", 0) >= len(self.preload)
                for w in workers
            ):
                self.worker_pids = [w["pid"] for w in workers]
                return stats
            time.sleep(0.01)
        raise RuntimeError("farm workers did not become ready")

    def cpu_s(self) -> float:
        """CPU seconds the server and its workers have used so far."""
        return sum(cpu_s(pid) for pid in [self.process.pid, *self.worker_pids])

    def peak_rss_mb(self) -> float:
        """Sum of the server's and its workers' ``VmHWM``."""
        return sum(vm_hwm_mb(pid) for pid in [self.process.pid, *self.worker_pids])

    def stop(self) -> Optional[str]:
        """SIGTERM (drain 0) and wait; SIGKILL the server and any worker left.

        Returns a note when the server had to be killed.
        """
        note = None
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGTERM)
            try:
                self.process.wait(timeout=_STOP_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()
                note = (f"splice serve ignored SIGTERM for {_STOP_TIMEOUT_S:g}s "
                        "and was killed")
        for pid in self.worker_pids:
            try:
                os.kill(pid, signal.SIGKILL)
            except OSError:
                pass  # already gone, as it should be
        self._reader.join(timeout=5)
        self.process.stdout.close()
        self._log.close()
        return note


@dataclass
class JobOutcome:
    """One attempted job as its client saw it."""

    index: int
    ok: bool
    latency_s: float
    job_id: Optional[str] = None
    status: Optional[dict] = None
    events: List[dict] = field(default_factory=list)
    error: Optional[str] = None
    #: perf_counter instant the POST was sent (anchors server event times).
    started: float = 0.0


def run_job(client: ServiceClient, submit: Callable[[], dict], index: int,
            tracer, timeout_s: float) -> JobOutcome:
    """POST a job, follow its event stream to the end, read its final status.

    These three requests are exactly :meth:`ServiceClient.submit_and_wait`;
    they are made one by one so each gets its own span.  HTTP errors
    (503 included), connection failures, client timeouts and any terminal
    state other than ``done`` make the job failed.
    """
    root = tracer.new_id()
    start = time.perf_counter()
    outcome = JobOutcome(index=index, ok=False, latency_s=0.0, started=start)
    try:
        with tracer.span("http.post", parent=root):
            job_id = submit()["id"]
        outcome.job_id = job_id
        deadline = start + timeout_s
        with tracer.span("http.events", parent=root, job=job_id):
            for event in client.events(job_id):
                outcome.events.append(event)
                if time.perf_counter() > deadline:
                    raise TimeoutError(f"job {job_id} not terminal after {timeout_s}s")
        with tracer.span("http.status", parent=root, job=job_id):
            outcome.status = client.status(job_id)
        outcome.ok = outcome.status["state"] == DONE
        if not outcome.ok:
            outcome.error = f"job {job_id} ended {outcome.status['state']}"
    except (ServiceError, OSError, TimeoutError) as exc:
        outcome.error = f"{type(exc).__name__}: {exc}"
    outcome.latency_s = time.perf_counter() - start
    tracer.add("job", start, start + outcome.latency_s, job=outcome.job_id,
               span_id=root, ok=outcome.ok)
    return outcome


def closed_loop(clients: int, seconds: float, op: Callable[[int], JobOutcome],
                first_index: int = 0) -> Tuple[List[JobOutcome], float]:
    """``clients`` threads each run ``op(index)`` back to back until the
    deadline; returns every outcome (in index order) and the wall time.

    ``index`` comes from one shared counter starting at ``first_index``, so
    the inputs a loop uses are a prefix of the seed's input sequence from
    there, whatever the thread interleaving.
    """
    counter = itertools.count(first_index)
    lock = threading.Lock()
    outcomes: List[JobOutcome] = []
    start = time.perf_counter()
    deadline = start + seconds

    def client_loop() -> None:
        while time.perf_counter() < deadline:
            with lock:
                index = next(counter)
            result = op(index)
            with lock:
                outcomes.append(result)

    threads = [threading.Thread(target=client_loop, name=f"bench-client-{i}")
               for i in range(clients)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    wall = time.perf_counter() - start
    outcomes.sort(key=lambda o: o.index)
    return outcomes, wall


def server_spans(tracer, outcomes: Sequence[JobOutcome]) -> None:
    """Turn each job's NDJSON event times into spans under ``http.events``.

    Event ``t`` is seconds since the server admitted the job, which is
    within one request of the client's POST, so spans are anchored at the
    POST start.  ``farm.queue_wait`` runs from ``submitted`` to the
    ``running`` state; ``worker.cell`` is the gap between successive cell
    events from the same worker (the first cell of each worker's run is
    skipped: its gap includes dispatch).
    """
    if not tracer.enabled:
        return
    parents: Dict[str, int] = {
        s["job"]: s["id"] for s in tracer.named("http.events") if s["job"]
    }
    for outcome in outcomes:
        if not outcome.ok:
            continue
        parent = parents.get(outcome.job_id)
        base = outcome.started
        submitted = running = None
        last_by_worker: Dict[int, float] = {}
        for event in outcome.events:
            kind = event.get("event")
            if kind == "submitted":
                submitted = event["t"]
            elif kind == "state" and event.get("state") == "running":
                running = event["t"]
            elif kind == "cell":
                worker = event.get("worker")
                previous = last_by_worker.get(worker)
                if previous is not None:
                    tracer.add("worker.cell", base + previous, base + event["t"],
                               parent=parent, job=outcome.job_id, worker=worker)
                last_by_worker[worker] = event["t"]
        if submitted is not None and running is not None:
            tracer.add("farm.queue_wait", base + submitted, base + running,
                       parent=parent, job=outcome.job_id)
