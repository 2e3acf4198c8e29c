"""Fixtures shared by every test module."""

import pytest

from oracles import reset_caches


@pytest.fixture(autouse=True)
def fresh_caches(monkeypatch):
    """Empty Li and series-row caches for each test, as a new process starts with."""
    reset_caches(monkeypatch)
