#!/usr/bin/env python3
"""Committed simulated totals per campaign workload and seed.

``perfbench/golden/<workload>.json`` maps each seed to the simulated totals
(result digest, summed cycles, summed transactions) of that seed's checked
campaigns.  A run compares its outputs with them, so a change that alters
simulated results fails the benchmark even in a fresh checkout.  The totals
are computed in-process with ``run_campaign`` on the inputs the workloads
generate; serve-cold checks on every run that a served job equals
``run_campaign`` on the same spec.  ::

    python3 perfbench/golden.py

records seeds ``0 .. SEEDS - 1``.  Re-record only for a change that is meant
to alter simulated results, and say so in the change.  Fuzz sessions have
no committed totals; the README says why.
"""

from __future__ import annotations

import json
import os
import sys
import tempfile
from pathlib import Path
from typing import Optional

import inputs

HERE = Path(__file__).resolve().parent
GOLDEN_DIR = HERE / "golden"
WORKLOADS = ("serve-cold", "batch-sweep")
SEEDS = 100


def compute(workload: str, seed: int) -> dict:
    """The totals a run of ``seed`` must reproduce, computed in-process."""
    from repro.campaign import CampaignSpec, run_campaign

    if workload == "serve-cold":
        return inputs.totals_of(
            run_campaign(CampaignSpec.from_dict(inputs.cold_spec(seed, i))).payload()
            for i in range(inputs.CHECKED_JOBS))
    return inputs.totals_of([run_campaign(inputs.batch_spec(seed, 0)).payload()])


def committed(workload: str, seed: int) -> Optional[dict]:
    """The committed totals of ``seed``, or ``None`` if it has none."""
    path = GOLDEN_DIR / f"{workload}.json"
    if not path.is_file():
        return None
    return json.loads(path.read_text()).get(str(seed))


def main() -> int:
    sys.path.insert(0, str(HERE.parent / "src"))
    GOLDEN_DIR.mkdir(exist_ok=True)
    work = HERE.parent / ".perfbench-work"
    work.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=work) as programs:
        os.environ["SPLICE_COMPILE_CACHE"] = programs
        for workload in WORKLOADS:
            totals = {str(seed): compute(workload, seed) for seed in range(SEEDS)}
            path = GOLDEN_DIR / f"{workload}.json"
            path.write_text(json.dumps(totals, indent=1, sort_keys=True) + "\n")
            print(f"{path}: {len(totals)} seeds")
    return 0


if __name__ == "__main__":
    sys.exit(main())
