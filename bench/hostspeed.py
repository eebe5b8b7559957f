"""How fast is this host *right now*?  A fixed probe, timed between iterations.

This VM shares its host.  For minutes at a time everything on it -- wall
and CPU time alike -- runs 15-50 % slower, so whole benchmark runs land in
a slow phase and no statistic over their iterations can tell.  The probe
below is work that never changes: four small kernels (integer arithmetic,
standard-library calls, a toy scheduler over Python objects, small-array
NumPy) that use nothing from ``src/``.  A run times it before the first
iteration and after every one; the mean of those readings without their
slowest tenth, against ``REFERENCE_PROBE_S``, is the run's **host-speed
factor**, and every time the run reports is multiplied by it.  The numbers
therefore read "seconds on this VM when quiet".

Measured over twenty minutes that held one six-minute slow phase (bench/
README.md has the table): the probe's slowdown correlated 0.9 with that of
the pair workloads in 20-second windows, and scaling cut the window-to-
window quartile spread from 15-16 % to 5 %.  The four kernels slow down by
different amounts (arithmetic least, object-heavy code most), which is why
the probe mixes them in equal parts instead of using one.

The factor only removes what the host adds.  A change to the repository
cannot move the probe, so it moves the reported times by exactly its share.
"""

from __future__ import annotations

import collections
import dataclasses
import heapq
import json
import random
import re
import statistics
import struct
import subprocess
import sys
import time
import zlib
from pathlib import Path
from typing import Dict, List

import numpy as np

#: About what one probe takes on this VM when the host is quiet.  Fixed:
#: changing it rescales every reported time.
REFERENCE_PROBE_S = 0.0160

#: Probes taken between two iterations (about 0.15 s).
PROBES_PER_GAP = 10

#: Share of the slowest probes left out of the mean: one stall of the
#: virtual CPU inside a probe says nothing about the iterations around it.
TRIM = 0.10

_clock = time.perf_counter


# --------------------------------------------------------------------------- #
# the four kernels, each about a quarter of a probe
# --------------------------------------------------------------------------- #
def _arithmetic() -> int:
    total = 0
    for i in range(60_000):
        total += i * i % 7
    return total


_TEXT = " ".join(f"peer{i} seg{i * 7 % 113} t={i * 0.37:.2f}" for i in range(400))
_DOCUMENT = {"peers": [{"id": i, "buf": list(range(i % 17)), "rate": i * 1.5, "name": f"p{i}"}
                       for i in range(120)]}
_PATTERN = re.compile(r"seg(\d+) t=(\d+\.\d+)")


@dataclasses.dataclass
class _Record:
    a: int
    b: float
    c: str


def _stdlib() -> int:
    checksum = 0
    for _ in range(4):
        document = json.loads(json.dumps(_DOCUMENT, sort_keys=True))
        matches = _PATTERN.findall(_TEXT)
        rows = sorted(document["peers"], key=lambda row: (-row["rate"], row["name"]))
        counts = collections.Counter(segment for segment, _ in matches)
        heap: List[tuple] = []
        for row in rows:
            heapq.heappush(heap, (row["rate"] % 7, row["id"]))
        drained = [heapq.heappop(heap) for _ in range(len(heap))]
        records = [_Record(i, i / 3, f"{i:05d}") for i in range(300)]
        packed = b"".join(struct.pack("<id", record.a, record.b) for record in records)
        shared = {record.c for record in records} & {f"{i:05d}" for i in range(0, 600, 2)}
        checksum += zlib.crc32(packed) + len(shared) + len(counts) + len(drained)
    return checksum


class _Peer:
    __slots__ = ("pid", "buffer", "neighbours", "rate")

    def __init__(self, pid: int, rng: random.Random) -> None:
        self.pid = pid
        self.buffer = set(rng.sample(range(200), 60))
        self.neighbours: List["_Peer"] = []
        self.rate = rng.uniform(1, 4)

    def schedule(self, now: int) -> int:
        wanted = {}
        for segment in range(now, now + 40):
            if segment not in self.buffer:
                holders = [n for n in self.neighbours if segment in n.buffer]
                if holders:
                    wanted[segment] = (1.0 / len(holders), 1.0 - (segment - now) / 40.0, holders)
        budget: Dict[int, float] = collections.defaultdict(float)
        planned = 0
        for _, (_, _, holders) in sorted(
            wanted.items(), key=lambda item: -(item[1][0] * 0.6 + item[1][1] * 0.4)
        ):
            best = min(holders, key=lambda n: budget[n.pid] / n.rate)
            if budget[best.pid] < best.rate:
                budget[best.pid] += 1.0
                planned += 1
        return planned


_RNG = random.Random(3)
_PEERS = [_Peer(pid, _RNG) for pid in range(40)]
for _peer in _PEERS:
    _peer.neighbours = _RNG.sample(_PEERS, 8)


def _toy_scheduler() -> int:
    planned = 0
    for now in (17, 93):
        for peer in _PEERS:
            planned += peer.schedule(now)
    return planned


_PRESENCE = np.random.default_rng(1).random((96, 200))


def _small_arrays() -> float:
    total = 0.0
    for _ in range(30):
        have = _PRESENCE > 0.5
        rarity = 1.0 / np.maximum(have.sum(axis=0), 1)
        priority = np.where(have, rarity, 0.0) * 0.6 + 0.4
        order = np.argsort(-priority[3])
        total += float(priority[:, order[:10]].max(axis=1).sum()) + np.flatnonzero(have[5]).size
    return total


def probe() -> float:
    """Seconds the fixed probe takes now."""
    start = _clock()
    _arithmetic()
    _stdlib()
    _toy_scheduler()
    _small_arrays()
    return _clock() - start


def trimmed_mean(values: List[float], trim: float = TRIM) -> float:
    """Mean of ``values`` without their largest ``trim`` share."""
    if not values:
        raise ValueError("trimmed_mean of an empty sample")
    ordered = sorted(values)
    return statistics.fmean(ordered[: len(ordered) - int(len(ordered) * trim)])


class HostSpeed:
    """The probe readings of one run and the factor they give.

    ``processes`` is how many processes the workload keeps busy at once.
    The two virtual CPUs do not slow down together (each shares its core
    with other tenants), so a workload that loads both is probed on both:
    ``processes - 1`` helper processes run the probe while this one does,
    and all readings are pooled.
    """

    def __init__(self, processes: int = 1) -> None:
        self.readings: List[float] = []
        # Imported as ``bench.hostspeed``: run as a script, this directory would
        # lead sys.path and bench/trace.py would shadow the stdlib ``trace``.
        serve = "import sys; sys.path.insert(0, sys.argv[1]); " \
                "from bench.hostspeed import serve; serve()"
        self.helpers = [
            subprocess.Popen([sys.executable, "-c", serve, str(Path(__file__).parent.parent)],
                             stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
            for _ in range(processes - 1)
        ]
        for helper in self.helpers:
            helper.stdout.readline()  # "ready": its imports are done

    def sample(self, count: int = PROBES_PER_GAP) -> None:
        for helper in self.helpers:
            helper.stdin.write(f"{count}\n")
            helper.stdin.flush()
        self.readings.extend(probe() for _ in range(count))
        for helper in self.helpers:
            self.readings.extend(json.loads(helper.stdout.readline()))

    def close(self) -> None:
        """Stop the helper processes and wait for them."""
        for helper in self.helpers:
            helper.stdin.close()
            helper.wait()
        self.helpers = []

    def factor(self) -> float:
        """Multiply a measured time by this to read it at reference host speed."""
        return REFERENCE_PROBE_S / trimmed_mean(self.readings)

    def summary(self) -> Dict[str, float]:
        return {
            "factor": self.factor(),
            "reference_probe_s": REFERENCE_PROBE_S,
            "trimmed_mean_probe_s": trimmed_mean(self.readings),
            "median_probe_s": statistics.median(self.readings),
            "min_probe_s": min(self.readings),
            "max_probe_s": max(self.readings),
            "probes": len(self.readings),
        }


def serve() -> None:
    """Helper process: for every count on stdin, that many readings on stdout."""
    print("ready", flush=True)
    for line in sys.stdin:
        print(json.dumps([probe() for _ in range(int(line))]), flush=True)
