"""Shared fixtures for the tier-1 suite."""

import copy
import math

import pytest

from repro.engine import compiled
from repro.platform import GyroPlatform


class KernelBackend:
    """Forces the compiled engine's lane kernels onto one backend.

    ``kernel_backend("c")`` runs lane kernels as C libraries,
    ``kernel_backend("python")`` as ``exec``-compiled Python.  Iterating
    the object visits every backend this host has (``"c"`` needs a
    compiler), forcing each in turn::

        for backend in kernel_backend:
            ...

    Under a forced lockstep layout it visits one backend only: lockstep
    fleets step on NumPy whatever the lane backend is.
    """

    def __init__(self, monkeypatch):
        self._monkeypatch = monkeypatch

    @property
    def names(self) -> tuple:
        return ("c", "python") if compiled.COMPILER else ("python",)

    def __call__(self, name: str) -> str:
        if name not in self.names:
            raise ValueError(f"backend {name!r} is not available here")
        self._monkeypatch.setattr(compiled, "BACKEND", name)
        return name

    def __iter__(self):
        names = self.names
        if compiled.LOCKSTEP_CROSSOVER == 1:
            names = names[:1]
        return (self(name) for name in names)


class FleetLayout:
    """Forces every compiled fleet onto one layout.

    ``fleet_layout("lockstep")`` sets the crossover to 1, which sends
    every structure group to the lockstep layout (even where C lane
    kernels would keep it lane by lane); ``fleet_layout("lane")`` sets it
    to infinity, which runs every lane on its own kernel.  Iterating the
    object visits both layouts, and the lane layout once per kernel
    backend (:class:`KernelBackend`)::

        for layout in fleet_layout:
            ...
    """

    names = ("lockstep", "lane")

    def __init__(self, monkeypatch, kernel_backend: KernelBackend):
        self._monkeypatch = monkeypatch
        self._kernel_backend = kernel_backend

    def __call__(self, name: str) -> str:
        crossover = {"lockstep": 1, "lane": math.inf}[name]
        self._monkeypatch.setattr(compiled, "LOCKSTEP_CROSSOVER", crossover)
        return name

    def __iter__(self):
        for name in self.names:
            self(name)
            for _ in self._kernel_backend:
                yield name


@pytest.fixture
def kernel_backend(monkeypatch):
    """A :class:`KernelBackend`; the backend is restored after the test."""
    return KernelBackend(monkeypatch)


@pytest.fixture
def fleet_layout(monkeypatch, kernel_backend):
    """A :class:`FleetLayout`; the crossover is restored after the test."""
    return FleetLayout(monkeypatch, kernel_backend)


@pytest.fixture
def forbid_platform_deepcopy(monkeypatch):
    """Make any ``copy.deepcopy`` of a platform fail the test loudly."""
    deepcopy = copy.deepcopy

    def guarded(obj, *args, **kwargs):
        if isinstance(obj, GyroPlatform):
            raise AssertionError("deep-copied a platform")
        return deepcopy(obj, *args, **kwargs)

    monkeypatch.setattr(copy, "deepcopy", guarded)
