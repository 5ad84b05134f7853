"""Kernel-suite fixtures."""

import os
import subprocess

import pytest

from repro.graph import datasets
from repro.kernels.shm import SEGMENT_PREFIX, leaked_segments


def segment_creator(name):
    """The creator pid in ``<prefix>[-probe]-<pid hex>-<token>[-<index>]``."""
    fields = name[len(SEGMENT_PREFIX) + 1:].split("-")
    if fields[0] == "probe":
        fields = fields[1:]
    try:
        return int(fields[0], 16)
    except ValueError:
        return None


@pytest.fixture(autouse=True)
def shm_leak_sentinel(monkeypatch):
    """Fail any test in this package that leaves an arena segment behind.

    Runs after *every* kernel test — including the SIGKILL chaos cases —
    so a cleanup regression is pinned to the test that caused it instead
    of surfacing as a mystery ENOSPC later. Only segments whose embedded
    creator pid is this process, or a process it forked or started with
    ``subprocess`` during the test, count: arenas of unrelated processes
    on the same host come and go on their own schedule.
    """
    ours = {os.getpid()}
    fork = os.fork
    popen_init = subprocess.Popen.__init__

    def recording_fork():
        pid = fork()
        if pid:
            ours.add(pid)
        return pid

    def recording_popen_init(self, *args, **kwargs):
        popen_init(self, *args, **kwargs)
        ours.add(self.pid)

    monkeypatch.setattr(os, "fork", recording_fork)
    monkeypatch.setattr(subprocess.Popen, "__init__", recording_popen_init)
    before = set(leaked_segments())
    yield
    fresh = [
        name for name in leaked_segments()
        if name not in before and segment_creator(name) in ours
    ]
    assert fresh == [], f"test leaked shared-memory segments: {fresh}"


@pytest.fixture(scope="session")
def dataset_cache():
    """Session-cached Table 1 surrogates (golden runs reuse the graph)."""
    cache = {}

    def load(name: str):
        if name not in cache:
            cache[name] = datasets.load(name)
        return cache[name]

    return load
