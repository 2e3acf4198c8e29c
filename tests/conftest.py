"""Fixtures shared by every test module."""

import pytest

import npolylog.polylog as pl
from npolylog.ratpoly import RatFun


@pytest.fixture(autouse=True)
def fresh_caches(monkeypatch):
    """Empty Li and series-row caches for each test, as a new process starts with."""
    monkeypatch.setattr(pl, "_LI", {(): RatFun.one()})
    monkeypatch.setattr(pl, "_ROWS", {(): [1]})
