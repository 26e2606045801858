"""The workloads' inputs, all generated from the workload seed, and the
simulated totals that pin their outputs.

The program receives only what these functions build.  Every input seed of
a run derives from ``base_of(seed)``, so one ``--seed`` gives one input set
and different seeds never share an input.
"""

from __future__ import annotations

import hashlib
import json
from typing import Iterable, Sequence

CHECKED_JOBS = 4     # serve-cold jobs whose simulated totals are pinned
#: The interpolator declares its element counts as ``char n1/n2/n3``; larger
#: sets are a known defect (see README), so inputs never exceed this.
MAX_SET_SIZE = 255


def base_of(seed: int) -> int:
    return seed * 1_000_000


def checked_domain(spec):
    for scenario in spec.scenarios:
        size = max(scenario.set1, scenario.set2, scenario.set3)
        if size > MAX_SET_SIZE:
            raise ValueError(f"scenario {scenario.number} has a {size}-element set; "
                             f"inputs stay <= {MAX_SET_SIZE} (known defect)")
    return spec


def geometric_spec(name: str, seed_value: int) -> dict:
    """8 cells: geometric sets (32,16,32)/(64,32,64) x 4 repeats, splice_plb,
    event kernel."""
    from repro.campaign import ScenarioSweep, sweep_grid

    sweep = ScenarioSweep(mode="geometric", count=2, base=(32, 16, 32), max_size=64)
    return checked_domain(sweep_grid(
        sweep, implementations=("splice_plb",), seeds=(seed_value,), repeats=4,
        name=name, kernel="event",
    )).describe()


def cold_spec(seed: int, index: int) -> dict:
    """serve-cold job ``index``: a spec no earlier job of the run used."""
    return geometric_spec(f"cold-{seed}-{index}", base_of(seed) + 10_000 + index)


def batch_spec(seed: int, index: int):
    """All five splice_* labels x the Figure 9.1 scenarios x 2 fresh seeds."""
    from repro.campaign import CampaignSpec
    from repro.campaign.presets import SPLICE_IMPLEMENTATIONS
    from repro.evaluation.scenarios import SCENARIOS

    first = base_of(seed) + 2 * index
    return checked_domain(CampaignSpec(
        implementations=SPLICE_IMPLEMENTATIONS, scenarios=SCENARIOS,
        seeds=(first, first + 1), name=f"batch-{index}", kernel="compiled",
    ))


def totals_of(payloads: Iterable[Sequence[dict]]) -> dict:
    """Result digest plus summed cycles/transactions over result rows."""
    rows = [row for payload in payloads for row in payload]
    text = json.dumps(rows, sort_keys=True, separators=(",", ":"))
    return {
        "digest": hashlib.sha256(text.encode()).hexdigest(),
        "cycles": sum(row["cycles"] for row in rows),
        "transactions": sum(row["transactions"] for row in rows),
    }

