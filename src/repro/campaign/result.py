"""Campaign results: per-cell outcomes, aggregation, and artifact writers.

A :class:`CampaignResult` collects one :class:`CellResult` per grid cell.
The deterministic payload (label, scenario shape, seed, repeat, result,
cycles, transactions) is strictly separated from run metadata (wall-clock,
executor, cache statistics), so results from different executors compare
bit-identical whenever the simulations agree.

Artifact writers regenerate the paper's tables for *any* grid:

* ``to_json`` — the full payload plus metadata, machine-readable,
* ``to_csv`` — one row per cell, spreadsheet-friendly,
* ``to_markdown`` — a Figure 9.2-style implementations × scenarios table of
  mean cycles, plus a result-agreement section.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from repro.campaign.spec import CampaignCell, CampaignSpec

#: Column order shared by the CSV writer and the JSON cell payload.  The
#: ``error`` column is empty for every cell that produced an outcome; failed
#: cells (worker crashed twice — see
#: :class:`~repro.campaign.executor.CellError`) carry the structured message
#: there and ``None`` in the outcome columns.
CELL_FIELDS = (
    "label", "scenario", "set1", "set2", "set3", "seed", "repeat", "kernel",
    "faults", "result", "cycles", "transactions", "error",
)


@dataclass(frozen=True)
class CellResult:
    """Outcome of one grid cell (deterministic fields only)."""

    cell: CampaignCell
    result: Optional[int]
    cycles: Optional[int]
    transactions: Optional[int]
    cached: bool = False
    error: Optional[str] = None

    def payload(self) -> Dict[str, object]:
        """The deterministic, comparable record for this cell.

        The ``error`` key is present only on failed cells, so payloads of
        clean runs compare bit-identical with payloads written before the
        field existed (and across batch/service paths that never fail).
        """
        row = dict(self.cell.describe())
        row.update(result=self.result, cycles=self.cycles, transactions=self.transactions)
        if self.error is not None:
            row["error"] = self.error
        return row


def cell_result(cell: CampaignCell, outcome, *, cached: bool = False) -> CellResult:
    """Build a :class:`CellResult` from an executor outcome.

    ``outcome`` is either a ``(result, cycles, transactions)`` tuple or a
    :class:`~repro.campaign.executor.CellError`; this is the one place the
    distinction is folded into aggregation, shared by the batch runner and
    the service farm so both aggregate identically.
    """
    from repro.campaign.executor import CellError

    if isinstance(outcome, CellError):
        return CellResult(
            cell=cell, result=None, cycles=None, transactions=None,
            cached=False, error=outcome.describe(),
        )
    return CellResult(
        cell=cell, result=outcome[0], cycles=outcome[1], transactions=outcome[2],
        cached=cached,
    )


def campaign_result(
    spec: CampaignSpec,
    cells: Sequence[CampaignCell],
    outcomes: Mapping[tuple, object],
    cached: Mapping[tuple, object],
    *,
    executor: str,
    workers: int,
    elapsed_s: float,
    **extra: object,
) -> "CampaignResult":
    """Aggregate one run of ``spec``: the batch runner and the farm both
    build their result here, so both report the same ``meta`` keys.

    ``outcomes`` maps every cell key to its outcome or
    :class:`~repro.campaign.executor.CellError`; ``cached`` holds the keys
    answered from the result cache.  ``cells_executed`` counts the cells
    that ran to an outcome; a failed cell counts in ``cells_failed`` only,
    so cached + executed + failed = total.  ``extra`` adds run-specific
    keys (the farm's job id and priority).
    """
    results = [cell_result(cell, outcomes[cell.key], cached=cell.key in cached)
               for cell in cells]
    failed = sum(1 for r in results if r.error is not None)
    total_cycles = sum(r.cycles for r in results if not r.cached and r.error is None)
    return CampaignResult(
        spec=spec,
        cells=results,
        meta={
            "executor": executor,
            "workers": workers,
            "elapsed_s": round(elapsed_s, 6),
            "cells_total": len(results),
            "cells_cached": len(cached),
            "cells_executed": len(results) - len(cached) - failed,
            "cells_failed": failed,
            "simulated_cycles": total_cycles,
            "simulated_cycles_per_s": (round(total_cycles / elapsed_s, 1)
                                       if elapsed_s > 0 else 0.0),
            "spec_fingerprint": spec.fingerprint(),
            **extra,
        },
    )


@dataclass
class CampaignResult:
    """All cell results of one campaign run, plus run metadata."""

    spec: CampaignSpec
    cells: List[CellResult] = field(default_factory=list)
    meta: Dict[str, object] = field(default_factory=dict)

    def __post_init__(self) -> None:
        self.cells = sorted(self.cells, key=lambda c: c.cell.key)

    # -- comparison --------------------------------------------------------------

    def payload(self) -> List[Dict[str, int]]:
        """Deterministic rows, sorted by cell key — the bit-identical part."""
        return [cell.payload() for cell in self.cells]

    def diff(self, other: "CampaignResult") -> Optional[str]:
        """First difference between two results' deterministic payloads.

        Returns ``None`` when the payloads are bit-identical, otherwise a
        one-line human-readable description of the first divergent row and
        field.  The recovery tests and CI smoke scripts use this so a
        failed bit-identity assertion names the exact cell instead of
        dumping two full JSON tables.
        """
        mine, theirs = self.payload(), other.payload()
        if len(mine) != len(theirs):
            return f"row counts differ: {len(mine)} != {len(theirs)}"
        for index, (a, b) in enumerate(zip(mine, theirs)):
            if a == b:
                continue
            for key in sorted(set(a) | set(b)):
                if a.get(key) != b.get(key):
                    return (
                        f"row {index} ({a.get('label')}/s{a.get('scenario')}"
                        f"/seed{a.get('seed')}/r{a.get('repeat')}): "
                        f"{key}={a.get(key)!r} != {b.get(key)!r}"
                    )
        return None

    # -- aggregation -------------------------------------------------------------

    @property
    def cache_hit_rate(self) -> float:
        if not self.cells:
            return 0.0
        return sum(1 for c in self.cells if c.cached) / len(self.cells)

    def scenario_numbers(self) -> List[int]:
        return sorted({c.cell.scenario.number for c in self.cells})

    def mean_cycles(self) -> Dict[str, Dict[int, float]]:
        """Mean cycles per (implementation, scenario) over seeds × repeats.

        Failed cells (``error`` set) have no cycle count and are excluded;
        so are faulted cells — the Figure 9.2 metric is defined over clean
        runs, and a fault's cycle penalty would silently skew the mean.
        """
        sums: Dict[Tuple[str, int], List[int]] = {}
        for cell in self.cells:
            if cell.error is not None or cell.cell.faults is not None:
                continue
            sums.setdefault((cell.cell.label, cell.cell.scenario.number), []).append(cell.cycles)
        out: Dict[str, Dict[int, float]] = {}
        for (label, number), values in sums.items():
            out.setdefault(label, {})[number] = sum(values) / len(values)
        return out

    def cycles_table(self) -> Dict[str, Dict[int, int]]:
        """Figure 9.2-compatible ``{label: {scenario: rounded mean cycles}}``."""
        return {
            label: {number: int(round(mean)) for number, mean in per.items()}
            for label, per in self.mean_cycles().items()
        }

    def agreement(self) -> Dict[Tuple, bool]:
        """Per (scenario, seed, repeat): did all implementations agree?

        Failed cells have no result to compare and are excluded.  Faulted
        cells are compared only against cells running the *same* fault
        schedule (the token is appended to the grouping key), so a fault
        that corrupts the result never reads as an implementation
        disagreement — but two implementations diverging under the same
        fault still does.
        """
        values: Dict[Tuple, set] = {}
        for cell in self.cells:
            if cell.error is not None:
                continue
            key = (cell.cell.scenario.number, cell.cell.seed, cell.cell.repeat)
            if cell.cell.faults is not None:
                key = key + (cell.cell.faults,)
            values.setdefault(key, set()).add(cell.result & 0xFFFFFFFF)
        return {key: len(seen) == 1 for key, seen in values.items()}

    # -- serialisation -----------------------------------------------------------

    def to_dict(self) -> Dict[str, object]:
        return {
            "spec": self.spec.describe(),
            "cells": self.payload(),
            "meta": dict(self.meta),
        }

    def to_json(self, path: Optional[Path] = None, *, indent: int = 2) -> str:
        text = json.dumps(self.to_dict(), indent=indent, sort_keys=True)
        if path is not None:
            Path(path).write_text(text + "\n")
        return text

    @classmethod
    def from_dict(cls, data: Mapping[str, object]) -> "CampaignResult":
        spec = CampaignSpec.from_dict(data["spec"])
        by_shape = {
            (s.number, s.set1, s.set2, s.set3): s for s in spec.scenarios
        }
        cells = []
        for row in data["cells"]:
            shape = (row["scenario"], row["set1"], row["set2"], row["set3"])
            scenario = by_shape.get(shape)
            if scenario is None:
                from repro.evaluation.scenarios import Scenario

                scenario = Scenario(number=shape[0], set1=shape[1], set2=shape[2], set3=shape[3])
            cell = CampaignCell(
                label=row["label"], scenario=scenario,
                seed=row["seed"], repeat=row["repeat"],
                kernel=row.get("kernel", spec.kernel),
                faults=row.get("faults"),
            )
            cells.append(
                CellResult(
                    cell=cell, result=row["result"], cycles=row["cycles"],
                    transactions=row["transactions"], error=row.get("error"),
                )
            )
        return cls(spec=spec, cells=cells, meta=dict(data.get("meta", {})))

    @classmethod
    def from_json(cls, path: Path) -> "CampaignResult":
        return cls.from_dict(json.loads(Path(path).read_text()))

    def to_csv(self, path: Optional[Path] = None) -> str:
        buffer = io.StringIO()
        writer = csv.DictWriter(buffer, fieldnames=CELL_FIELDS, restval="")
        writer.writeheader()
        for row in self.payload():
            writer.writerow(row)
        text = buffer.getvalue()
        if path is not None:
            Path(path).write_text(text)
        return text

    def to_markdown(
        self,
        path: Optional[Path] = None,
        *,
        names: Optional[Mapping[str, str]] = None,
    ) -> str:
        """A Figure 9.2-style report for this grid, as markdown."""
        names = names or {}
        numbers = self.scenario_numbers()
        table = self.cycles_table()
        lines = [f"# Campaign report: {self.spec.name}", ""]
        lines.append(
            f"{len(self.cells)} cells — {len(self.spec.implementations)} implementation(s) × "
            f"{len(self.spec.scenarios)} scenario(s) × {len(self.spec.seeds)} seed(s) × "
            f"{self.spec.repeats} repeat(s)."
        )
        if self.meta:
            lines.append("")
            lines.append("| Run | Value |")
            lines.append("| --- | --- |")
            for key in sorted(self.meta):
                lines.append(f"| {key} | {self.meta[key]} |")
        lines.append("")
        lines.append("## Scenario grid (Figure 9.1 generalised)")
        lines.append("")
        lines.append("| Scenario | Set 1 | Set 2 | Set 3 | Total |")
        lines.append("| --- | --- | --- | --- | --- |")
        for s in self.spec.scenarios:
            lines.append(f"| {s.number} | {s.set1} | {s.set2} | {s.set3} | {s.total} |")
        lines.append("")
        lines.append("## Mean bus cycles per run (Figure 9.2 generalised)")
        lines.append("")
        header = "| Implementation | " + " | ".join(f"Scenario {n}" for n in numbers) + " |"
        lines.append(header)
        lines.append("| --- |" + " --- |" * len(numbers))
        for label in self.spec.implementations:
            per = table.get(label, {})
            cellstr = " | ".join(str(per.get(n, "—")) for n in numbers)
            lines.append(f"| {names.get(label, label)} | {cellstr} |")
        lines.append("")
        agreement = self.agreement()
        disagreeing = sorted(key for key, ok in agreement.items() if not ok)
        lines.append("## Result agreement")
        lines.append("")
        if not agreement:
            lines.append("No cells were run.")
        elif not disagreeing:
            lines.append(
                f"All implementations agree on every ({len(agreement)}) "
                "scenario/seed/repeat combination."
            )
        else:
            lines.append("Disagreements (scenario, seed, repeat):")
            for key in disagreeing:
                lines.append(f"- {key}")
        text = "\n".join(lines) + "\n"
        if path is not None:
            Path(path).write_text(text)
        return text

    def write_artifacts(self, directory: Path, *, names: Optional[Mapping[str, str]] = None) -> Dict[str, Path]:
        """Write campaign.json / campaign.csv / campaign.md under ``directory``."""
        directory = Path(directory)
        directory.mkdir(parents=True, exist_ok=True)
        paths = {
            "json": directory / "campaign.json",
            "csv": directory / "campaign.csv",
            "markdown": directory / "campaign.md",
        }
        self.to_json(paths["json"])
        self.to_csv(paths["csv"])
        self.to_markdown(paths["markdown"], names=names)
        return paths
