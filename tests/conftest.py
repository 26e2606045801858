"""Shared fixtures for the test suite."""

import multiprocessing

import pytest


@pytest.fixture(scope="module", autouse=True)
def no_leaked_worker_processes():
    """Every farm a test module starts — a served one, or the transient
    farm behind a multi-worker ``run_campaign`` — must have stopped its
    worker processes by the time the module ends, also when a cell raised."""
    yield
    leaked = multiprocessing.active_children()
    assert not leaked, f"worker processes left running: {leaked}"
