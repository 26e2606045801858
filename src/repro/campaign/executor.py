"""Running campaign cells: the one per-cell loop and the worker-count rule.

:func:`execute_cells` turns a list of :class:`~repro.campaign.spec.CampaignCell`
into ``{cell.key: (result, cycles, transactions)}``.  It is the serial body
of :func:`~repro.campaign.runner.run_campaign` and the per-cell body of the
simulation farm's warm workers, which is also what runs a multi-worker
``run_campaign``.  Serial and multi-process runs are therefore bit-identical
by construction: every cell's inputs are derived only from the cell itself.

Simulators are not picklable, so farm workers receive only the cell
descriptors and rebuild systems from the label via
:mod:`repro.devices.registry`.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Callable, Dict, Optional, Sequence, Tuple, Union

from repro.campaign.spec import CampaignCell
from repro.devices.registry import build_runner

#: What a cell produces: (result, cycles, transactions).
CellOutcome = Tuple[int, int, int]


def resolve_workers(workers: int) -> int:
    """``0`` (the ``--workers auto`` spelling) → ``os.cpu_count()``.

    The one rule for both ``run_campaign`` and the service's worker pool,
    so "auto" means the identical thing on the batch and service paths.
    """
    if workers < 0:
        raise ValueError(f"workers must be >= 0 (0 = auto), got {workers}")
    return workers if workers > 0 else (os.cpu_count() or 1)


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
#: finished).  The outcome may be a :class:`CellError`; persistence layers
#: must skip those.
ResultCallback = Callable[[CampaignCell, Union[CellOutcome, CellError]], None]


def execute_cells(
    cells: Sequence[CampaignCell],
    on_result: Optional[ResultCallback] = None,
    runners: Optional[Dict[tuple, tuple]] = None,
) -> Dict[tuple, Union[CellOutcome, CellError]]:
    """Run ``cells`` in-process, building each (implementation, kernel) once.

    This is the whole of a serial ``run_campaign`` and the per-cell body of
    the farm's warm workers — one code path keeps serial and multi-process
    runs trivially equivalent.  (Workers call it without ``on_result``;
    callbacks don't cross process boundaries.)  ``runners`` is an optional caller-held dict of built
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
