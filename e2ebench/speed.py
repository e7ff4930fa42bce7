"""Speed-normalised timing: measured seconds at the reference machine speed.

Every time this benchmark reports is ``raw * NOMINAL / probe``, where
``raw`` is the measured wall time of an interval and ``probe`` the mean
duration of ``probe.py``'s loop on the interval's CPUs during that
interval.  ``NOMINAL`` is the loop's duration on the reference machine,
so on a quiet host the reported and the raw seconds agree.  Raw seconds
are printed next to them and kept in the spans dump.
"""

from __future__ import annotations

import statistics
import subprocess
import sys
import threading
from pathlib import Path

#: Duration of one ``probe.spin`` on the reference machine (Python 3.11,
#: a quiet 2-vCPU container), in seconds.
NOMINAL = 0.0030

PROBE = Path(__file__).resolve().with_name("probe.py")


class SpeedProbe:
    """Probe processes pinned to *cpus*, sampling until :meth:`stop`."""

    def __init__(self, cpus) -> None:
        self.samples: list[tuple[float, float]] = []
        self._procs = []
        self._readers = []
        for cpu in cpus:
            proc = subprocess.Popen(
                [sys.executable, str(PROBE), str(cpu)],
                stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
            )
            reader = threading.Thread(target=self._read, args=(proc,), daemon=True)
            reader.start()
            self._procs.append(proc)
            self._readers.append(reader)

    def _read(self, proc) -> None:
        for line in proc.stdout:
            end, duration = line.split()
            self.samples.append((float(end), float(duration)))

    def stop(self) -> None:
        for proc in self._procs:
            proc.stdin.close()
        for proc, reader in zip(self._procs, self._readers):
            try:
                proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
            reader.join(timeout=10)

    def normalise(self, raw: float, start: float, end: float) -> float:
        """*raw* seconds measured over [start, end] at reference speed.

        Uses the samples taken in the interval, widened to the nearest
        samples on either side when it is shorter than a probe period.
        """
        inside = [d for t, d in self.samples if start <= t <= end]
        if len(inside) < 2:
            ordered = sorted(self.samples, key=lambda s: abs(s[0] - (start + end) / 2))
            inside = [d for _, d in ordered[:2]]
        if not inside:
            raise RuntimeError("speed probe recorded no samples")
        return raw * NOMINAL / statistics.mean(inside)
