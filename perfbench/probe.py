"""Host speed probe: batch verdict times are scaled to a nominal host speed.

The benchmark runs on a small shared host whose CPUs each change speed
by up to 1.7x within seconds, independently of each other (a fixed
pure-Python loop took 140-330 ms from one second to the next).  That
drift swamps the differences the benchmark is for, so every batch
scenario's time is scaled by the speed of the CPU it ran on:

- :func:`pin` keeps a pass (and the server it starts) on one CPU, so
  the probes time the CPU the work runs on;
- :class:`HostSpeed` times a fixed loop (:data:`LOOP`, about 25 ms)
  right before and right after each scenario, and a short loop
  (:data:`SAMPLE_LOOP`) every :data:`SAMPLE_EVERY_S` in a background
  thread while it runs;
- the scenario's time, minus the time the samples took (which is also
  taken out of the adjacent probes), is scaled by the nominal over the
  observed time per loop iteration.  The adjacent
  probes count as :data:`ADJACENT_WEIGHT` samples, so short scenarios
  rest on them and long ones on the samples taken while they ran.

A reported millisecond is therefore one at the speed where :data:`LOOP`
takes :data:`NOMINAL_MS`.  On six runs of one robust-interval seed this
cut a scenario's run-to-run spread (coefficient of variation, mean over
the scenarios) from 9.6% to 5.2%; on corpus-cold from 17% to 8%.
Service round trips are not scaled: they are mostly loopback HTTP, JSON
and store reads, which this loop does not track, and scaling them
doubled their spread between runs.
"""

from __future__ import annotations

import os
import threading
import time
from typing import List, Tuple

#: Time of :data:`LOOP` on a 2-core x86-64 host in its usual state.
NOMINAL_MS = 25.0
LOOP = 300_000
SAMPLE_LOOP = 10_000
SAMPLE_EVERY_S = 0.05
ADJACENT_WEIGHT = 5


def pin() -> None:
    """Keep this process, and every process it starts, on one CPU."""
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


def probe_ms(loop: int = LOOP) -> float:
    """Wall time of a fixed pure-Python loop, in milliseconds."""
    started = time.perf_counter()
    total = 0
    for i in range(loop):
        total += i * i % 7
    return (time.perf_counter() - started) * 1e3


class HostSpeed:
    """Probes around measurements and samples while they run."""

    def __init__(self) -> None:
        self.last = probe_ms()
        self.samples: List[Tuple[float, float, float]] = []
        self._stop = threading.Event()
        self._sampler = threading.Thread(target=self._sample, daemon=True)
        self._sampler.start()

    def _sample(self) -> None:
        while not self._stop.wait(SAMPLE_EVERY_S):
            started = time.perf_counter()
            took = probe_ms(SAMPLE_LOOP)
            self.samples.append((started, started + took / 1e3, took))

    def close(self) -> None:
        self._stop.set()
        self._sampler.join()

    def _sampled_ms(self, started: float, ended: float) -> List[float]:
        """Times of the samples taken between ``started`` and ``ended``."""
        return [took for begin, end, took in list(self.samples)
                if begin >= started and end <= ended]

    def _probe(self) -> float:
        """:func:`probe_ms` without the samples taken meanwhile."""
        started = time.perf_counter()
        took = probe_ms()
        return took - sum(self._sampled_ms(started, started + took / 1e3))

    def scaled_ms(self, raw_ms: float, started: float, ended: float) -> float:
        """``raw_ms``, measured by ``perf_counter`` from ``started`` to
        ``ended``, without the samples taken meanwhile and at nominal speed."""
        now = self._probe()
        inside = self._sampled_ms(started, ended)
        adjacent = (self.last + now) / 2.0 / LOOP
        per_iteration = (
            ADJACENT_WEIGHT * adjacent + sum(took / SAMPLE_LOOP for took in inside)
        ) / (ADJACENT_WEIGHT + len(inside))
        self.last = now
        return (raw_ms - sum(inside)) * (NOMINAL_MS / LOOP) / per_iteration
