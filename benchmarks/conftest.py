"""Shared fixtures for the benchmark harness."""

import datetime
import functools
import json
import os
import subprocess
from pathlib import Path

import pytest

_REPO_ROOT = Path(__file__).resolve().parent.parent

#: Append-only performance trajectory: one JSON line per recorded run.
#: Unlike the ``BENCH_*.json`` artifacts (which are overwritten in place and
#: therefore only ever show the latest numbers), this file accumulates a
#: timestamped record per run — `git sha`, the benchmark's headline numbers —
#: so the perf history across PRs can be read straight from the repository.
#: Records carry a ``mode`` field (``full`` vs ``smoke`` for
#: ``--benchmark-disable`` runs) so trajectory readers can filter out
#: smoke-mode numbers, which are gate checks, not measurements.
HISTORY_PATH = _REPO_ROOT / "BENCH_history.jsonl"

#: ``SPLICE_BENCH_RECORD=1`` rewrites the committed ``BENCH_*.json`` records
#: (:func:`write_bench`) and appends to ``BENCH_history.jsonl``
#: (:func:`record_history`).  Without it every gate still asserts, but a test
#: run leaves the tracked files untouched.
RECORD = os.environ.get("SPLICE_BENCH_RECORD") == "1"

_BENCHMARKS_DISABLED = False


def pytest_configure(config):
    global _BENCHMARKS_DISABLED
    _BENCHMARKS_DISABLED = bool(config.getoption("benchmark_disable", False))


@functools.lru_cache(maxsize=1)
def _git_sha():
    try:
        return (
            subprocess.run(
                ["git", "rev-parse", "HEAD"],
                cwd=_REPO_ROOT,
                capture_output=True,
                text=True,
                timeout=10,
                check=True,
            ).stdout.strip()
            or None
        )
    except (OSError, subprocess.SubprocessError):
        return None


def write_bench(path: Path, record: dict) -> None:
    """Rewrite the committed bench record at ``path`` when recording."""
    if RECORD:
        path.write_text(json.dumps(record, indent=2) + "\n")


def record_history(bench: str, headline: dict) -> dict:
    """Append this run's headline numbers to ``BENCH_history.jsonl`` when
    recording.

    ``bench`` names the benchmark (by convention the ``test_bench_*`` module
    stem); ``headline`` is a small JSON-serialisable dict — cycles/s, key
    ratios — not the full artifact.  Returns the appended record.
    """
    record = {
        "timestamp_utc": datetime.datetime.now(datetime.timezone.utc).isoformat(
            timespec="seconds"
        ),
        "git_sha": _git_sha(),
        "bench": bench,
        "mode": "smoke" if _BENCHMARKS_DISABLED else "full",
        "headline": headline,
    }
    if RECORD:
        with HISTORY_PATH.open("a", encoding="utf-8") as handle:
            handle.write(json.dumps(record, sort_keys=True) + "\n")
    return record


def run_once(benchmark, func, *args, **kwargs):
    """Run ``func`` exactly once under pytest-benchmark.

    The experiments are deterministic cycle-accurate simulations, so a single
    round is representative; this keeps the full benchmark sweep fast.
    """
    return benchmark.pedantic(func, args=args, kwargs=kwargs, rounds=1, iterations=1)


@pytest.fixture
def once():
    return run_once
