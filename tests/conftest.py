"""Shared fixtures for the tier-1 suite."""

import copy

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
        return (self(name) for name in self.names)


@pytest.fixture
def kernel_backend(monkeypatch):
    """A :class:`KernelBackend`; the backend is restored after the test."""
    return KernelBackend(monkeypatch)


@pytest.fixture
def forbid_platform_deepcopy(monkeypatch):
    """Make any ``copy.deepcopy`` of a platform fail the test loudly."""
    deepcopy = copy.deepcopy

    def guarded(obj, *args, **kwargs):
        if isinstance(obj, GyroPlatform):
            raise AssertionError("deep-copied a platform")
        return deepcopy(obj, *args, **kwargs)

    monkeypatch.setattr(copy, "deepcopy", guarded)
