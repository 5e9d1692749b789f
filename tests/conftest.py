"""Shared fixtures for the tier-1 suite."""

import copy
import math

import pytest

from repro.engine import compiled
from repro.platform import GyroPlatform


class FleetLayout:
    """Forces every compiled fleet onto one layout.

    ``fleet_layout("lockstep")`` sets the crossover to 1, which sends
    every structure group to the lockstep layout (even where numba would
    keep it lane by lane); ``fleet_layout("lane")`` sets it to infinity,
    which runs every lane on its own kernel.  Iterating the object visits
    both layouts, forcing each in turn::

        for layout in fleet_layout:
            ...
    """

    names = ("lockstep", "lane")

    def __init__(self, monkeypatch):
        self._monkeypatch = monkeypatch

    def __call__(self, name: str) -> str:
        crossover = {"lockstep": 1, "lane": math.inf}[name]
        self._monkeypatch.setattr(compiled, "LOCKSTEP_CROSSOVER", crossover)
        return name

    def __iter__(self):
        return (self(name) for name in self.names)


@pytest.fixture
def fleet_layout(monkeypatch):
    """A :class:`FleetLayout`; the crossover is restored after the test."""
    return FleetLayout(monkeypatch)


@pytest.fixture
def forbid_platform_deepcopy(monkeypatch):
    """Make any ``copy.deepcopy`` of a platform fail the test loudly."""
    deepcopy = copy.deepcopy

    def guarded(obj, *args, **kwargs):
        if isinstance(obj, GyroPlatform):
            raise AssertionError("deep-copied a platform")
        return deepcopy(obj, *args, **kwargs)

    monkeypatch.setattr(copy, "deepcopy", guarded)
