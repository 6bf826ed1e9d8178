"""A host-speed gauge that shares one core with the measured jobs.

    python3 benchmark/calibrator.py PATH

The host this benchmark runs on is shared: the speed of one core drifts
by up to 2x over minutes and by up to 1.6x within a second, and the two
cores drift independently. So `run.py` pins itself, every job it spawns
and this process to one core, and starts this process at a low priority
(nice 10, about a tenth of the core while a job runs). It repeats a fixed
round of exact Fraction and dict work, like the engine's own, and after
every round publishes how many rounds it has done and its own CPU seconds
in a small shared file. Its scheduler slices are spread over every job,
so the rounds per CPU second over a job's interval track how fast the
core ran for that job. `Gauge` reads the file; `reference_seconds` turns
a measured interval into seconds at the reference speed.

The process exits on SIGTERM, or by itself once its parent is gone.
"""

from __future__ import annotations

import mmap
import os
import signal
import struct
import sys
import time
from fractions import Fraction

NICE = 10
# rounds per CPU second that define the reference speed; about this host's
# median (2-vCPU Intel Xeon guest, Python 3.11.7), where it ranged over
# 1500-3100. It fixes the unit only
REFERENCE_RATE = 2000.0
# how strongly the engine's speed follows the gauge's: over 222 timed jobs
# of the four workloads, log CPU seconds against log rounds per second had
# slopes of -0.885 to -0.905, so the engine gains 0.9% when the gauge gains 1%
SENSITIVITY = 0.9

# seqlock layout: sequence number, rounds, CPU seconds of this process
LAYOUT = struct.Struct("<QQd")


def one_round(x: Fraction, table: dict) -> Fraction:
    for i in range(50):
        key = (i % 97, i % 13)
        table[key] = table.get(key, 0) + x * Fraction(i + 1, 2 * i + 3)
        x = x + Fraction(1, (i % 5) + 2)
    return x


def serve(path: str) -> None:
    stop = []
    signal.signal(signal.SIGTERM, lambda *_: stop.append(True))
    parent = os.getppid()
    os.nice(NICE)
    with open(path, "r+b") as fh, mmap.mmap(fh.fileno(), LAYOUT.size) as shared:
        seq = rounds = 0
        cpu0 = time.process_time()
        while not stop and os.getppid() == parent:
            table: dict = {}
            one_round(Fraction(3, 7), table)
            rounds += 1
            # odd sequence number: a write is in progress
            struct.pack_into("<Q", shared, 0, seq + 1)
            LAYOUT.pack_into(shared, 0, seq + 1, rounds, time.process_time() - cpu0)
            seq += 2
            struct.pack_into("<Q", shared, 0, seq)


class Gauge:
    """Reads the calibrator's shared file: snapshots of (rounds, CPU s)."""

    def __init__(self, path: str):
        self._fh = open(path, "rb")
        self._map = mmap.mmap(self._fh.fileno(), LAYOUT.size, access=mmap.ACCESS_READ)

    def snapshot(self) -> tuple:
        while True:
            seq, rounds, cpu = LAYOUT.unpack_from(self._map, 0)
            if seq % 2 == 0 and struct.unpack_from("<Q", self._map, 0)[0] == seq:
                return rounds, cpu
            time.sleep(0.0005)  # the writer shares this core: let it finish

    def close(self) -> None:
        self._map.close()
        self._fh.close()


def rate(before: tuple, after: tuple) -> float | None:
    """Rounds per CPU second between two snapshots, or None without a slice."""
    rounds, cpu = after[0] - before[0], after[1] - before[1]
    return rounds / cpu if rounds > 0 and cpu > 0 else None


def reference_seconds(seconds: float, rounds_per_s: float) -> float:
    """CPU seconds measured while the gauge ran at rounds_per_s, at the reference speed."""
    return seconds * (rounds_per_s / REFERENCE_RATE) ** SENSITIVITY


def create(path: str) -> None:
    with open(path, "wb") as fh:
        fh.write(bytes(LAYOUT.size))


if __name__ == "__main__":
    serve(sys.argv[1])
