"""Host-speed probe: expresses op timings at a fixed reference host speed.

On a host shared with other tenants the CPU's speed drifts, both within a
second and between phases that last minutes.  On a 2-vCPU virtual machine
(Intel Xeon, Python 3.11, numpy 2.4) a fixed op's wall time varied by 1.5x
to 2x, the process's CPU time grew with it (no steal time is accounted),
and no hardware cycle counter was exposed.  A fixed
probe computation, independent of wbackhaul and mixing the kinds of work
the workloads do (numpy slicing and reductions, frozen-dataclass
replacement with validation, JSON round trips), is timed between ops, at
most every PROBE_EVERY_S.  An op's corrected latency is

    latency * REFERENCE_S / local

where local is the mean of the probe times just before and just after the
op: the latency the op would have had on a host on which the probe takes
REFERENCE_S.  Raw timings are reported next to the corrected ones.
"""
from __future__ import annotations

import dataclasses
import json
import time

import numpy as np

PROBE_EVERY_S = 0.05
REFERENCE_S = 1e-3

_POINTS = np.random.default_rng(12345).random((6000, 2))
_DOC = json.dumps({"architecture": {"type": "central", "n_small": 10}, "alpha": 3.2,
                   "small": {"radius_m": 50.0,
                             "power_curve": {"slope_a": 7.84, "offset_b_w": 71.5}}})


@dataclasses.dataclass(frozen=True)
class _Cell:
    radius_m: float
    alpha: float

    def __post_init__(self):
        if not (isinstance(self.radius_m, float) and self.radius_m > 0):
            raise ValueError("radius_m")


def _probe_kernel() -> float:
    s = 0.0
    for k in range(400, 6000, 400):
        d = _POINTS[:k] - _POINTS[k]
        s += float((d[:, 0] * d[:, 0] + d[:, 1] * d[:, 1]).min())
    cell = _Cell(50.0, 3.2)
    for _ in range(150):
        cell = dataclasses.replace(cell, radius_m=cell.radius_m * 1.0001)
        s += (cell.radius_m / 500.0) ** cell.alpha
    for _ in range(25):
        s += len(json.dumps(json.loads(_DOC)))
    return s


class HostSpeed:
    def __init__(self):
        self.times: list[float] = []
        self._last = -1.0

    def probe(self) -> int:
        """Time the probe now; returns its index."""
        t0 = time.perf_counter()
        _probe_kernel()
        t1 = time.perf_counter()
        self.times.append(t1 - t0)
        self._last = t1
        return len(self.times) - 1

    def before_op(self) -> int:
        """Probe if the last one is older than PROBE_EVERY_S; index of the latest probe."""
        if time.perf_counter() - self._last >= PROBE_EVERY_S:
            return self.probe()
        return len(self.times) - 1

    def local(self, index: int) -> float:
        """Mean of probe `index` (before an op) and the next one (after it)."""
        after = self.times[min(index + 1, len(self.times) - 1)]
        return (self.times[index] + after) / 2

    def corrected(self, phase) -> list[float]:
        """The phase's op latencies (ns) at the reference host speed."""
        return [ns * REFERENCE_S / self.local(k)
                for ns, k in zip(phase.latencies_ns, phase.probe_index)]
