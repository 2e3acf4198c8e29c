"""Fixtures shared by every test module."""

import pytest

import npolylog.polylog as pl
from output_manifest import new_caches


@pytest.fixture(autouse=True)
def fresh_caches(monkeypatch):
    """Empty Li and series-row caches for each test, as a new process starts with."""
    for name, cache in new_caches().items():
        monkeypatch.setattr(pl, name, cache)
