"""Keeping benchmark runs apart: leak checks and memory readings.

The runner (``run.py``) starts each server with :data:`RUN_ENV` in its environment,
which the pool's spawned workers and the multiprocessing resource
tracker inherit, and every shared-memory segment a run publishes is
named with :data:`SHM_PREFIX`.  A run checks
both before its set-up and after its teardown, so a server, worker or
segment outliving its run is caught instead of silently loading the next
one.
"""

from __future__ import annotations

import os
import signal
import time
from pathlib import Path

__all__ = [
    "RUN_ENV",
    "SHM_PREFIX",
    "leftover_processes",
    "leftover_segments",
    "pss_mb",
    "reap",
    "wait_until_clean",
]

#: Environment variable marking every process a benchmark run starts.
RUN_ENV = "PQSBENCH_RUN"

#: Name prefix of every shared-memory segment a benchmark run publishes.
SHM_PREFIX = "pqsbench"


def leftover_segments(shm_dir: str = "/dev/shm", prefix: str = SHM_PREFIX) -> list[str]:
    """Names of the segments in *shm_dir* that start with *prefix*."""
    try:
        names = os.listdir(shm_dir)
    except FileNotFoundError:
        return []
    return sorted(name for name in names if name.startswith(prefix))


def leftover_processes(
    proc_dir: str = "/proc", marker: str = RUN_ENV, value: str = ""
) -> list[int]:
    """Pids of live processes whose environment sets *marker* (to *value*).

    An empty *value* matches any value, i.e. any benchmark run.
    """
    needle = f"{marker}={value}".encode()
    own = os.getpid()
    found = []
    for entry in os.listdir(proc_dir):
        if not entry.isdigit() or int(entry) == own:
            continue
        try:
            environ = Path(proc_dir, entry, "environ").read_bytes()
        except (FileNotFoundError, PermissionError, ProcessLookupError):
            continue  # exited while we looked, or not ours to read
        if any(item.startswith(needle) for item in environ.split(b"\0")):
            found.append(int(entry))
    return sorted(found)


def wait_until_clean(timeout: float, poll: float = 0.1) -> tuple[list[int], list[str]]:
    """Wait up to *timeout* s for marked processes and segments to vanish.

    Returns whatever is still there at the deadline (both empty = clean).
    A resource tracker or a worker can take a moment to exit after its
    server did, so a clean tree is awaited rather than sampled once.
    """
    deadline = time.monotonic() + timeout
    while True:
        processes = leftover_processes()
        segments = leftover_segments()
        if not processes and not segments:
            return [], []
        if time.monotonic() >= deadline:
            return processes, segments
        time.sleep(poll)


def pss_mb(pids) -> float:
    """Summed proportional set size of *pids*, in MiB.

    PSS splits every shared page among the processes mapping it, so the
    shared-memory plane is counted once across the server and its workers
    rather than once per worker.
    """
    total_kb = 0
    for pid in pids:
        text = Path("/proc", str(pid), "smaps_rollup").read_text()
        for line in text.splitlines():
            if line.startswith("Pss:"):
                total_kb += int(line.split()[1])
                break
    return total_kb / 1024.0


def reap(token: str, shm_dir: str = "/dev/shm") -> None:
    """Kill run *token*'s processes and unlink its segments.

    Used after a run has been found leaking, so the leak fails that run
    and not the next one too.
    """
    for pid in leftover_processes(value=token):
        try:
            os.kill(pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    for name in leftover_segments(shm_dir, SHM_PREFIX + token):
        try:
            os.unlink(os.path.join(shm_dir, name))
        except FileNotFoundError:
            pass
