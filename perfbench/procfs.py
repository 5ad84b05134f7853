"""Process memory and CPU readings from ``/proc`` (Linux)."""

from __future__ import annotations

import os
import resource
from typing import Union

Pid = Union[int, str]
_TICK = os.sysconf("SC_CLK_TCK")


def reset_peak_rss() -> None:
    """Restart this process's peak-RSS watermark (``VmHWM``) at its RSS."""
    with open("/proc/self/clear_refs", "w") as handle:
        handle.write("5")


def peak_rss_mb(pid: Pid = "self") -> float:
    """``VmHWM`` in MiB: the peak resident set since start or last reset."""
    with open(f"/proc/{pid}/status") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for process {pid}")


def children_peak_rss_mb() -> float:
    """Largest peak RSS of any reaped child process, in MiB."""
    return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0


def cpu_seconds(pid: Pid) -> float:
    """User + system CPU time the process has used."""
    with open(f"/proc/{pid}/stat") as handle:
        fields = handle.read().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / _TICK
