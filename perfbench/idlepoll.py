"""Idle-priority pollers that keep every CPU out of the halt state.

In a virtual machine a halted vCPU is woken through the hypervisor, and on
a busy host that wake-up waits for the host's scheduler; the wait shows up
as CPU steal time.  The serving stack wakes threads and processes several
times per request (front-end loop, dispatcher threads, queue feeders,
workers), so host contention turned straight into latency: in 12 s
head_http phases the p90 grew by about 2.6 ms per second of steal, and
steal varied from 0.1 to 5 s between neighbouring runs.

One busy loop per CPU at ``SCHED_IDLE`` keeps the vCPUs running, the effect
of ``cpuidle-haltpoll`` or ``idle=poll``.  The guest scheduler
still hands a CPU to any runnable normal task at once, so the pollers take
no CPU time from the measured processes; they only remove the halt/wake
round trip through the host.
"""

from __future__ import annotations

import os
import subprocess
import sys

__all__ = ["IdlePollers"]

_POLL = """
import os, sys
os.sched_setaffinity(0, {int(sys.argv[1])})
os.sched_setscheduler(0, os.SCHED_IDLE, os.sched_param(0))
while True:
    pass
"""


class IdlePollers:
    """Context manager running one idle-priority busy loop per usable CPU."""

    def __init__(self, env: dict | None = None) -> None:
        self._env = env
        self._processes: list[subprocess.Popen] = []

    def __enter__(self) -> "IdlePollers":
        try:
            for cpu in sorted(os.sched_getaffinity(0)):
                self._processes.append(subprocess.Popen(
                    [sys.executable, "-c", _POLL, str(cpu)], env=self._env
                ))
        except BaseException:
            self.__exit__(None, None, None)
            raise
        return self

    def __exit__(self, *exc_info) -> None:
        for process in self._processes:
            process.kill()
        for process in self._processes:
            process.wait(timeout=30)
        self._processes = []

    @property
    def pids(self) -> list[int]:
        """Pids of the running pollers."""
        return [process.pid for process in self._processes]
