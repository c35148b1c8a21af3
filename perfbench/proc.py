"""Process-level readings taken from outside the library.

Worker CPU comes from ``/proc/<pid>/stat`` for the pids a sharded backend
reports in ``pool_stats()["workers"]``; shared-memory hygiene is read from
the ``psm_*`` names in ``/dev/shm`` (the prefix ``multiprocessing``
gives every segment it creates).
"""

from __future__ import annotations

import os
import resource
from typing import Iterable, List, Optional

_CLOCK_TICKS = os.sysconf("SC_CLK_TCK")
_SHM_DIR = "/dev/shm"


def _stat_fields(pid: int) -> Optional[List[str]]:
    """The fields of ``/proc/<pid>/stat`` after the command name, starting
    with the state; ``None`` when the process is gone."""
    try:
        with open(f"/proc/{pid}/stat") as handle:
            text = handle.read()
    except OSError:
        return None
    # The command name is parenthesised and may itself contain spaces.
    return text[text.rindex(")") + 2:].split()


def cpu_seconds(pids: Iterable[int]) -> float:
    """User + system CPU seconds consumed so far by the live ``pids``."""
    total = 0
    for pid in pids:
        fields = _stat_fields(pid)
        if fields is not None:
            total += int(fields[11]) + int(fields[12])  # utime, stime
    return total / _CLOCK_TICKS


def alive(pid: int) -> bool:
    """Whether ``pid`` still runs (a reaped or zombie process does not)."""
    fields = _stat_fields(pid)
    return fields is not None and fields[0] != "Z"


def shm_segments() -> set:
    """Names of the ``multiprocessing`` shared-memory segments that exist."""
    try:
        return {name for name in os.listdir(_SHM_DIR)
                if name.startswith("psm_")}
    except OSError:
        return set()


def peak_rss_mib() -> float:
    """Peak resident set size of this process so far, in MiB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def pin_to_one_cpu() -> None:
    """Pin every thread of this process, and so every thread it starts
    later, to the last CPU it may run on."""
    cpu = {max(os.sched_getaffinity(0))}
    for tid in os.listdir("/proc/self/task"):
        os.sched_setaffinity(int(tid), cpu)
