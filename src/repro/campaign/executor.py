"""Pluggable campaign executors: serial and process-sharded.

Executors turn a list of :class:`~repro.campaign.spec.CampaignCell` into
``{cell.key: (result, cycles, transactions)}``.  Both executors share the
same per-shard runner (:func:`execute_cells`), so serial and sharded runs
are bit-identical by construction: every cell's inputs are derived only from
the cell itself, and runners are rebuilt fresh per shard.

Simulators are not picklable, so :class:`ShardedExecutor` ships only the
cell descriptors to each worker process; workers rebuild systems from the
label via :mod:`repro.devices.registry`.  Cells are label-sorted before
being split into contiguous shards, so each worker elaborates each of its
implementations exactly once and reuses the runner across all of that
label's cells.
"""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor, as_completed
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

from repro.campaign.spec import CampaignCell
from repro.devices.registry import build_runner

#: What an executor returns per cell: (result, cycles, transactions).
CellOutcome = Tuple[int, int, int]


@dataclass(frozen=True)
class CellError:
    """Structured record for a cell that could not produce an outcome.

    Produced instead of a :data:`CellOutcome` when a worker process died
    mid-shard and the one retry died too (``worker_crash``), when a faulted
    cell's simulation raised — e.g. an injected fault deadlocked the
    handshake until a driver timeout fired (``cell_exception``) — or when a
    fault schedule targets a runner that cannot inject it
    (``faults_unsupported``).  The rest of the campaign (and, in the
    service, the rest of the job) proceeds, and the failure is carried
    through aggregation as :attr:`~repro.campaign.result.CellResult.error`
    rather than killing the whole run.  Never cached: a crash says nothing
    about what the outcome would have been.
    """

    kind: str
    message: str

    def describe(self) -> str:
        return f"{self.kind}: {self.message}"


#: Progress callback: invoked with (cell, outcome) as results land, so the
#: caller can persist incrementally (an interrupted campaign keeps what it
#: finished).  Serial execution reports per cell; sharded per shard.  The
#: outcome may be a :class:`CellError`; persistence layers must skip those.
ResultCallback = Callable[[CampaignCell, Union[CellOutcome, CellError]], None]


def execute_cells(
    cells: Sequence[CampaignCell],
    on_result: Optional[ResultCallback] = None,
    runners: Optional[Dict[tuple, tuple]] = None,
) -> Dict[tuple, Union[CellOutcome, CellError]]:
    """Run ``cells`` in-process, building each (implementation, kernel) once.

    This is the whole of :class:`SerialExecutor`, the per-worker body of
    :class:`ShardedExecutor`, and the per-cell body of the service's warm
    workers — one code path keeps every executor trivially equivalent.
    (Workers call it without ``on_result``; callbacks don't cross process
    boundaries.)  ``runners`` is an optional caller-held dict of built
    runners, ``(label, kernel) -> (runner, applied fault schedule)``; pass
    the same dict to every call to keep runners resident across calls.

    Cells carrying a fault schedule attach it to the shared runner before the
    scenario and clear it after; a faulted cell whose simulation raises (a
    fault can deadlock the handshake into a driver timeout) or whose runner
    cannot inject (baselines have no SIS bundle) yields a structured
    :class:`CellError` instead of aborting the shard.  Clean cells are
    untouched: they share runners as before and a raise still propagates.
    """
    outcomes: Dict[tuple, Union[CellOutcome, CellError]] = {}
    runners = {} if runners is None else runners

    def emit(cell: CampaignCell, value: Union[CellOutcome, CellError]) -> None:
        outcomes[cell.key] = value
        if on_result is not None:
            on_result(cell, value)

    for cell in sorted(cells, key=lambda c: c.key):
        runner_key = (cell.label, cell.kernel)
        faults = cell.faults
        if runner_key not in runners:
            runners[runner_key] = (build_runner(cell.label, kernel=cell.kernel), None)
        runner, applied = runners[runner_key]
        apply_faults = getattr(runner, "apply_faults", None)
        if faults is not None and apply_faults is None:
            emit(cell, CellError(
                kind="faults_unsupported",
                message=f"runner {cell.label!r} cannot inject fault schedule {faults!r}",
            ))
            continue
        if apply_faults is not None and applied != faults:
            apply_faults(faults)
            runners[runner_key] = (runner, faults)
        sets = cell.generate_inputs()
        if faults is None:
            outcome = runner.run_scenario(sets)
        else:
            try:
                outcome = runner.run_scenario(sets)
            except Exception as exc:
                # The faulted system may be wedged mid-handshake: drop the
                # runner so later cells of this label rebuild fresh.
                runners.pop(runner_key, None)
                emit(cell, CellError(
                    kind="cell_exception",
                    message=f"fault schedule {faults!r}: {type(exc).__name__}: {exc}",
                ))
                continue
        emit(cell, (
            int(outcome["result"]) & 0xFFFFFFFF,
            int(outcome["cycles"]),
            int(outcome.get("transactions", 0)),
        ))
    return outcomes


class SerialExecutor:
    """Run every cell in the calling process."""

    name = "serial"
    workers = 1

    def execute(
        self,
        cells: Sequence[CampaignCell],
        on_result: Optional[ResultCallback] = None,
    ) -> Dict[tuple, CellOutcome]:
        return execute_cells(cells, on_result)


class ShardedExecutor:
    """Partition cells across worker processes.

    Each worker receives a contiguous, label-sorted shard and rebuilds its
    own systems (simulators are not picklable), so shards are independent
    and the merged result is identical to a serial run.

    Workers resolve labels through :mod:`repro.devices.registry` at import
    time.  Labels registered at runtime via ``register_runner`` are only
    visible to workers under the ``fork`` start method (Linux default); with
    ``spawn`` (macOS/Windows), register them from a module that workers
    import, or run serially.
    """

    name = "sharded"

    def __init__(self, workers: int = 0) -> None:
        self.workers = workers if workers > 0 else (os.cpu_count() or 1)

    @staticmethod
    def partition(cells: Sequence[CampaignCell], shards: int) -> List[List[CampaignCell]]:
        """Label-sorted contiguous split into at most ``shards`` parts.

        Sorting by key groups each label's cells together, so a shard that
        holds k labels elaborates exactly k systems; contiguous splitting
        keeps shard sizes within one cell of each other.
        """
        ordered = sorted(cells, key=lambda c: c.key)
        shards = max(1, min(shards, len(ordered) or 1))
        base, extra = divmod(len(ordered), shards)
        parts: List[List[CampaignCell]] = []
        start = 0
        for index in range(shards):
            size = base + (1 if index < extra else 0)
            parts.append(ordered[start:start + size])
            start += size
        return [part for part in parts if part]

    def execute(
        self,
        cells: Sequence[CampaignCell],
        on_result: Optional[ResultCallback] = None,
    ) -> Dict[tuple, Union[CellOutcome, CellError]]:
        shards = self.partition(cells, self.workers)
        if len(shards) <= 1:
            return execute_cells(cells, on_result)
        by_key = {cell.key: cell for cell in cells}
        outcomes: Dict[tuple, Union[CellOutcome, CellError]] = {}
        first_error: Optional[BaseException] = None
        broken: List[List[CampaignCell]] = []

        def merge(shard_result: Dict[tuple, CellOutcome]) -> None:
            outcomes.update(shard_result)
            if on_result is not None:
                for key, outcome in shard_result.items():
                    on_result(by_key[key], outcome)

        with ProcessPoolExecutor(max_workers=len(shards)) as pool:
            futures = {pool.submit(execute_cells, shard): shard for shard in shards}
            for future in as_completed(futures):
                try:
                    shard_result = future.result()
                except BrokenProcessPool:
                    # A worker process died (OOM kill, segfault, os._exit) —
                    # every unfinished future on the pool reports this, so
                    # innocent shards land here alongside the one that
                    # crashed.  Collect them all for a retry after the drain.
                    broken.append(futures[future])
                    continue
                except BaseException as exc:
                    # Keep draining: the other shards' finished work must
                    # still reach on_result (the cache) before we re-raise.
                    if first_error is None:
                        first_error = exc
                    continue
                merge(shard_result)

        # Each broken shard gets exactly one retry on its own fresh
        # single-worker pool (isolated, so one poisoned shard cannot break
        # another's retry).  A second death fails just that shard's cells
        # with a structured record instead of killing the run.
        for shard in broken:
            try:
                with ProcessPoolExecutor(max_workers=1) as retry_pool:
                    shard_result = retry_pool.submit(execute_cells, shard).result()
            except BrokenProcessPool:
                labels = sorted({cell.label for cell in shard})
                error = CellError(
                    kind="worker_crash",
                    message=(
                        "worker process died running this shard and the retry "
                        f"died too (shard of {len(shard)} cells, labels {labels})"
                    ),
                )
                for cell in shard:
                    outcomes[cell.key] = error
                    if on_result is not None:
                        on_result(cell, error)
            except BaseException as exc:
                if first_error is None:
                    first_error = exc
            else:
                merge(shard_result)
        if first_error is not None:
            raise first_error
        return outcomes


def make_executor(workers: Optional[int] = 1) -> object:
    """Resolve a worker count to an executor.

    ``0`` or ``None`` (the CLI's ``--workers auto``) resolves to
    ``os.cpu_count()`` — the same rule the service's worker pool applies, so
    "auto" means the same thing on every path.  ``1`` (and a 1-CPU host's
    "auto") is serial; anything larger is a sharded pool of that size.
    """
    if workers is None or workers == 0:
        workers = os.cpu_count() or 1
    if workers < 0:
        raise ValueError(f"workers must be >= 0 (0 = auto), got {workers}")
    if workers <= 1:
        return SerialExecutor()
    return ShardedExecutor(workers=workers)
