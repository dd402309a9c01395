"""How many CPUs this process may use (shared by every worker pool)."""

from __future__ import annotations

import os


def usable_cpus() -> int:
    """CPUs this process may run on (its affinity mask where known).

    ``os.cpu_count()`` counts the host's CPUs, so a process pinned to
    one CPU (``taskset``, a cgroup cpuset) would still get a pool.
    """
    try:
        return len(os.sched_getaffinity(0)) or 1
    except AttributeError:  # no affinity API on this platform
        return os.cpu_count() or 1
