"""Host-speed probe and the reference clock built on it.

The probe is a fixed slice of work in three timed parts that mirror the
program's mix: an interpreter loop (scheduler and session bookkeeping),
elementwise NumPy on small tiles (activations, norms, quantisation) and one
single-thread GEMM of the shape the projections use.  The benchmark runs a
slice between engine steps and between set-up phases; its time is excluded
from every measured interval.

:class:`RefClock` turns wall time into *reference time*: each stretch between
two probe slices is scaled by ``REF_PROBE_MS`` over the local probe time
(raised to ``ELASTICITY``), so an interval reads what it would on a host
where one slice takes ``REF_PROBE_MS``.  A host that runs 1.5x slower for a minute slows the probe
with it, and the scaled interval stays put; a program that does more work
does not slow the probe, and the scaled interval grows.  That only holds
while the probe measures the host and not the program, so this module
imports nothing from ``repro``.
"""

from __future__ import annotations

import time
from typing import List

import numpy as np

#: probe time of one slice, in ms, on the reference host (a 2-core x86 VM,
#: Python 3.11, NumPy 2.4 with single-thread OpenBLAS, in a quiet period).
#: Never change it: every reference-time figure is scaled by it.
REF_PROBE_MS = 10.0
#: stretches between slices are scaled by the median of this many slices on
#: each side of them, so a single disturbed slice moves nothing
WINDOW = 4
#: how engine time follows probe time through the host's slow spells: a
#: spell that slows the probe by x slows the engine by about x ** ELASTICITY.
#: Fitted once (log-log slope of engine round time on probe time over 90
#: identical rounds of three workloads, 7 minutes of natural spells, 0.67 to
#: 0.79 by workload); a fixed property of the yardstick, never re-fitted to
#: a program change
ELASTICITY = 0.75

_PY_ITERATIONS = 25_000
_NP_ROUNDS = 50
_GEMM_ROUNDS = 4


class Probe:
    """The fixed work of one probe slice; :meth:`run` times its three parts."""

    def __init__(self) -> None:
        rng = np.random.default_rng(20261017)
        self._tile = rng.standard_normal((8, 512))
        self._a = rng.standard_normal((64, 512))
        self._b = rng.standard_normal((512, 512))
        self.checksum = 0.0

    @staticmethod
    def _interpreter() -> int:
        table: dict = {}
        order: List[int] = []
        for i in range(_PY_ITERATIONS):
            key = i & 63
            table[key] = table.get(key, 0) + i
            if not i % 16:
                order.append(key)
        return len(order) + table[7]

    def _elementwise(self) -> float:
        x = self._tile
        acc = 0.0
        for _ in range(_NP_ROUNDS):
            y = 0.5 * x * (1.0 + np.tanh(0.79788456 * (x + 0.044715 * x * x * x)))
            mean = y.mean(axis=-1, keepdims=True)
            z = (y - mean) / np.sqrt(y.var(axis=-1, keepdims=True) + 1e-5)
            q = np.clip(np.rint(z * 31.0), -127, 127)
            acc += float(q[0, 0])
        return acc

    def _gemm(self) -> float:
        acc = 0.0
        for _ in range(_GEMM_ROUNDS):
            acc += float((self._a @ self._b)[0, 0])
        return acc

    def _warm(self) -> None:
        # bring the probe's operands back into cache after the engine's work,
        # so the slice measures the host, not what the program left behind
        self.checksum += float(self._a.sum() + self._b.sum() + self._tile.sum())

    def run(self) -> tuple:
        """``(interpreter_s, elementwise_s, gemm_s)`` of one slice."""
        clock = time.perf_counter
        self._warm()
        t0 = clock()
        py = self._interpreter()
        t1 = clock()
        el = self._elementwise()
        t2 = clock()
        mm = self._gemm()
        t3 = clock()
        # keep the results alive, so no part is skipped as dead work
        self.checksum += py + el + mm
        return t1 - t0, t2 - t1, t3 - t2


def _factor(slice_seconds) -> float:
    """Reference seconds per wall second where slices took ``slice_seconds``."""
    return (REF_PROBE_MS / 1e3 / float(np.median(slice_seconds))) ** ELASTICITY


class RefClock:
    """Wall clock with probe slices interleaved; maps wall times to reference time.

    Take timestamps with :meth:`now` and call :meth:`probe` between the
    pieces of work.  After the run, :meth:`freeze` builds the piecewise
    linear maps: :meth:`Timeline.ref` counts reference seconds and
    :meth:`Timeline.wall` raw seconds, both with every probe slice cut out.
    """

    def __init__(self) -> None:
        self._probe = Probe()
        #: per slice: start, end, interpreter, elementwise and GEMM seconds
        self.slices: List[tuple] = []
        self.now = time.perf_counter

    def probe(self) -> None:
        start = self.now()
        parts = self._probe.run()
        self.slices.append((start, self.now()) + parts)

    def estimate(self, t0: float, t1: float) -> float:
        """Reference seconds of ``[t0, t1]`` by the latest slices (for pacing only)."""
        return (t1 - t0) * _factor([s[1] - s[0] for s in self.slices[-2 * WINDOW:]])

    def freeze(self) -> "Timeline":
        return Timeline(self.slices)


class Timeline:
    """Reference and wall time of a finished run, probe slices excluded."""

    def __init__(self, slices: List[tuple]) -> None:
        if len(slices) < 2:
            raise ValueError("a timeline needs at least two probe slices")
        arr = np.array(slices, dtype=float)
        starts, ends = arr[:, 0], arr[:, 1]
        self.parts = arr[:, 2:]
        self.totals = ends - starts
        n = len(slices)
        # stretch j runs from the end of slice j to the start of slice j+1
        self.factors = np.array(
            [_factor(self.totals[max(0, j + 1 - WINDOW) : j + 1 + WINDOW]) for j in range(n - 1)]
        )
        lengths = starts[1:] - ends[:-1]
        self._seg_start = ends[:-1]
        self._seg_end = starts[1:]
        self._cum_wall = np.concatenate([[0.0], np.cumsum(lengths)])
        self._cum_ref = np.concatenate([[0.0], np.cumsum(lengths * self.factors)])

    def _map(self, times, cum: np.ndarray, scale: np.ndarray) -> np.ndarray:
        t = np.asarray(times, dtype=float)
        k = np.clip(np.searchsorted(self._seg_start, t, side="right") - 1, 0, len(scale) - 1)
        inside = np.clip(t, self._seg_start[k], self._seg_end[k]) - self._seg_start[k]
        return cum[k] + inside * scale[k]

    def ref(self, times) -> np.ndarray:
        """Reference seconds from the first slice to each of ``times``."""
        return self._map(times, self._cum_ref, self.factors)

    def wall(self, times) -> np.ndarray:
        """Wall seconds from the first slice to each of ``times``, slices cut out."""
        return self._map(times, self._cum_wall, np.ones_like(self.factors))

    @property
    def probe_seconds(self) -> float:
        return float(self.totals.sum())
