"""Host fingerprint and per-phase CPU, fault and memory accounting."""

from __future__ import annotations

import os
import platform
import resource
import time
from dataclasses import dataclass

import numpy as np


def _read(path: str) -> str:
    try:
        with open(path, encoding="utf-8") as handle:
            return handle.read()
    except OSError:
        return ""


def fingerprint() -> dict:
    """What a number measured here depends on besides the code."""
    cpu_model = next(
        (line.split(":", 1)[1].strip() for line in _read("/proc/cpuinfo").splitlines()
         if line.startswith("model name")),
        platform.processor() or "unknown",
    )
    thp = _read("/sys/kernel/mm/transparent_hugepage/enabled").strip()
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model,
        "kernel": platform.release(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "thp": thp.split("[", 1)[1].split("]", 1)[0] if "[" in thp else thp or "unknown",
    }


@dataclass(frozen=True)
class Usage:
    """Process wall, CPU and minor-fault counters at one instant."""

    wall: float
    user: float
    sys: float
    minflt: int

    @staticmethod
    def now() -> "Usage":
        usage = resource.getrusage(resource.RUSAGE_SELF)
        return Usage(time.perf_counter(), usage.ru_utime, usage.ru_stime, usage.ru_minflt)

    def since(self, earlier: "Usage") -> dict:
        return {
            "wall_s": self.wall - earlier.wall,
            "user_s": self.user - earlier.user,
            "sys_s": self.sys - earlier.sys,
            "minor_faults": self.minflt - earlier.minflt,
        }


def anon_huge_mb() -> float:
    """Anonymous memory of this process backed by transparent huge pages, MiB."""
    for line in _read("/proc/self/smaps_rollup").splitlines():
        if line.startswith("AnonHugePages:"):
            return int(line.split()[1]) / 1024.0
    return 0.0


def peak_rss_mb() -> float:
    """Peak resident set size of this process, in MiB (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
