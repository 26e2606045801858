"""Campaign orchestration: cache lookup → execution → aggregated result.

:func:`run_campaign` is the one-call path: expand the spec's grid, satisfy
what it can from the result cache, run the remaining cells, persist fresh
outcomes back to the cache, and aggregate everything into a
:class:`~repro.campaign.result.CampaignResult`.  One worker runs the cells
in the calling process; more submit the spec to a short-lived
:class:`~repro.service.farm.SimulationFarm`, the repository's one
multi-process engine.
"""

from __future__ import annotations

import os
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Dict, Optional, Union

from repro.campaign.cache import ResultCache
from repro.campaign.executor import CellError, CellOutcome, execute_cells, resolve_workers
from repro.campaign.result import CampaignResult, campaign_result
from repro.campaign.spec import CampaignSpec
from repro.rtl.compile import PROGRAM_CACHE_ENV


@contextmanager
def _program_cache_env(cache: Optional[ResultCache]):
    """Point compiled-kernel program caching at the campaign cache directory.

    Exported through the environment, where every compiled simulator built
    in this process looks it up; restored afterwards so an un-cached
    campaign in the same process does not silently keep writing into a
    stale directory.
    """
    if cache is None:
        yield
        return
    previous = os.environ.get(PROGRAM_CACHE_ENV)
    os.environ[PROGRAM_CACHE_ENV] = str(cache.program_cache_dir)
    try:
        yield
    finally:
        if previous is None:
            os.environ.pop(PROGRAM_CACHE_ENV, None)
        else:
            os.environ[PROGRAM_CACHE_ENV] = previous


def run_campaign(
    spec: CampaignSpec,
    *,
    workers: int = 1,
    cache: Union[ResultCache, Path, str, None] = None,
) -> CampaignResult:
    """Run every cell of ``spec`` and aggregate the outcomes.

    ``workers`` is 1 (serial, in this process), N > 1 (a transient farm of
    N worker processes), or 0 (one worker per CPU).  ``cache`` may be a
    :class:`ResultCache` or a directory path; cached cells are never
    executed (their stored outcome is trusted — the content address covers
    the inputs and the kernel sources).

    A faulted cell that raises, and a cell whose worker died twice, become
    error rows.  A clean cell that raises fails the whole run, on both
    paths, after every other cell's outcome has been persisted.
    """
    workers = resolve_workers(workers)
    if isinstance(cache, (str, Path)):
        cache = ResultCache(cache)
    cells = spec.cells()
    started = time.perf_counter()
    cached: Dict[tuple, CellOutcome] = {}
    pending = list(cells)
    if cache is not None:
        pending = []
        for cell in cells:
            outcome = cache.get(cell)
            if outcome is None:
                pending.append(cell)
            else:
                cached[cell.key] = outcome
    # A fully cached grid starts no worker process on either path.
    if workers > 1 and pending:
        return _run_on_farm(spec, workers, cache, started)

    # Persist outcomes as they land, so an interrupted campaign resumes from
    # what it finished.  CellError records are never persisted: an error
    # says nothing about what the outcome would have been.
    on_result = None
    if cache is not None:
        def on_result(cell, outcome, _put=cache.put):
            if not isinstance(outcome, CellError):
                _put(cell, outcome)
    with _program_cache_env(cache):
        fresh = execute_cells(pending, on_result)
    return campaign_result(
        spec, cells, {**cached, **fresh}, cached,
        executor="serial" if workers == 1 else "farm", workers=workers,
        elapsed_s=time.perf_counter() - started,
    )


def _run_on_farm(
    spec: CampaignSpec, workers: int, cache: Optional[ResultCache], started: float
) -> CampaignResult:
    """Submit ``spec`` to a farm that lives for this one job.

    The farm answers the cached cells again at submit, from the same cache.
    No stuck-worker watchdog: a batch run has no deadline, so a long cell
    must not turn into a ``worker_stuck`` row.
    """
    from repro.service.farm import SimulationFarm

    with SimulationFarm(workers, cache=cache, stuck_timeout_s=None) as farm:
        job = farm.submit(spec)
        job.wait()
    # The farm records a clean cell that raised as a row and serves on; the
    # batch contract is to raise, which happens here, once every other
    # cell has reached the cache.
    for cell in job.cells:
        error = job.errors.get(cell.key)
        if cell.faults is None and error is not None and error.kind == "cell_exception":
            raise RuntimeError(error.message)
    # Timed here rather than from the job's submission, so the figure
    # includes starting and stopping the workers, as a caller waits for them.
    return campaign_result(
        spec, job.cells, {**job.cached, **job.fresh, **job.errors}, job.cached,
        executor="farm", workers=workers, elapsed_s=time.perf_counter() - started,
    )
