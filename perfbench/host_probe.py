"""Host speed probe: what a fixed piece of work costs in CPU time right now.

On a virtual machine of a shared host the CPU time of the same work moves
with what the host's other machines run, through shared caches, memory
bandwidth and sibling hyper-threads: on a 4-vCPU machine the same cold BSL
sweep took 39 CPU-s and, ten minutes later, 50. A CPU-time metric that is
to catch a 10 % regression has to take that out.

``HostProbe`` starts ``python3 perfbench/host_probe.py`` as a child. Every
``PERIOD_S`` the child runs a fixed pure-Python loop and a 16 MiB memory
copy, compute- and memory-bound work, and records when it ended
(``time.perf_counter()``, the system-wide monotonic clock, so the parent
can compare) and its thread CPU seconds. It uses about 5 % of one CPU. When
its stdin closes it writes the samples to stdout as a JSON list of
``[end, cpu_s]`` pairs and exits. ``HostProbe.scale(start, end)`` then
gives the factor that turns CPU seconds spent in that interval into CPU
seconds at the reference speed ``REFERENCE_S``.
"""
from __future__ import annotations

import json
import select
import statistics
import subprocess
import sys
import time

PERIOD_S = 0.1
LOOP = 100_000
COPY_BYTES = 16 << 20
# The probe's median CPU time on a quiet host: a 4-vCPU Xeon virtual
# machine, Python 3.11. Only ratios between runs matter; this constant
# keeps scaled CPU seconds close to the raw ones on that machine.
REFERENCE_S = 0.0053


def sample_forever() -> list[tuple[float, float]]:
    """The child: sample until stdin closes."""
    samples = []
    src, dst = bytearray(COPY_BYTES), memoryview(bytearray(COPY_BYTES))
    while not select.select([sys.stdin], [], [], PERIOD_S)[0]:
        c = time.thread_time()
        for _ in range(LOOP):
            pass
        dst[:] = src
        samples.append((time.perf_counter(), time.thread_time() - c))
    return samples


class HostProbe:
    """The parent's handle on a running probe child."""

    def __init__(self):
        self._proc = subprocess.Popen(
            [sys.executable, __file__], stdin=subprocess.PIPE,
            stdout=subprocess.PIPE, text=True,
        )
        self._samples: list | None = None

    def __enter__(self) -> HostProbe:
        return self

    def __exit__(self, *exc) -> None:
        self.stop()

    def stop(self) -> None:
        """Stop the child and wait for it; safe to call more than once."""
        if self._samples is not None:
            return
        try:
            out, _ = self._proc.communicate(timeout=30)
        except subprocess.TimeoutExpired:
            self._proc.kill()
            self._proc.wait()
            raise
        self._samples = json.loads(out)

    def probe_s(self, start: float, end: float) -> float:
        """Mean CPU seconds of one probe sample that ended in [start, end).

        Only after ``stop()``: the child hands over its samples when it stops.
        """
        if self._samples is None:
            raise RuntimeError("the probe is still running")
        return statistics.mean(c for t, c in self._samples if start <= t < end)

    def scale(self, start: float, end: float) -> float:
        return REFERENCE_S / self.probe_s(start, end)


if __name__ == "__main__":
    json.dump(sample_forever(), sys.stdout)
