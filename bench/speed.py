"""Machine-speed reference: the timed metrics are scaled to a machine of
fixed speed.

On the shared 2-core VM the benchmark was written on, the same work
takes up to a fifth longer or shorter from one ten-second window to the
next (other tenants' load moves the CPU's speed, not the scheduler: CPU
time moves with wall time).  So each client interleaves a fixed
reference unit with its operations, ``SHARE`` of their time, and an
operation's latency is scaled by the speed the unit shows around it:

    scaled latency = raw latency * nominal_s / (mean unit time
                     within window_s of the operation)

A scaled time is the time the operation would take on a machine where
one unit takes ``nominal_s``.  No unit runs ``lmbd`` code, so a change
to the library moves the scaled times by as much as the raw ones.

Two references, for two kinds of work:

- ``IN_PROCESS`` (query and scan loops): bytecode and calls, a small
  dict, and big-integer and Fraction arithmetic, with a gcd of
  5000-bit integers for about half its time.  On that VM the part
  before the gcd tracked single-point ``lmbd`` calls within about 2%
  over minutes in which both moved by 30%, but an exact (Fraction)
  ``moments`` call, which slows less, only within 8%; the gcd alone
  tracked that call within 1%, and the whole unit tracked both within
  about 5%.  Small numpy calls were left out: their time moved by 80%
  in the same minutes.
- ``PROCESS`` (cli calls and every set-up probe): a fresh interpreter
  that imports a few standard modules.  Over fourteen 10 s windows in
  which ``python -m lmbd.cli moments`` took 592-824 ms, its time
  tracked that of the CLI call within about 6%.
"""

from __future__ import annotations

import math
import subprocess
import sys
import time
from array import array
from fractions import Fraction
from typing import Callable, NamedTuple

import numpy as np

# reference time per operation time
SHARE = 0.1

_BIG_A = 3 ** 2000
_BIG_B = 7 ** 1500
_FRAC = Fraction(5, 11)
# coprime apart from 11**200: Fraction normalizes with gcds of this size
_GCD_A = 3 ** 3000 * 11 ** 200
_GCD_B = 7 ** 2300 * 11 ** 200


def _term(i: int, x: float) -> float:
    return x * i + math.log1p(i)


def unit() -> None:
    """One in-process reference unit: the same work on every call."""
    total = 0.0
    for i in range(40):
        total += _term(i, 0.5)
    names = {}
    for i in range(50):
        names[i] = str(i)
    total += (_BIG_A * _BIG_B) % 1000003 + len(names)
    f = _FRAC
    for _ in range(6):
        f = f * _FRAC + 1
    math.gcd(_GCD_A, _GCD_B)


def spawn_unit() -> None:
    """One process reference unit: start an isolated interpreter that
    imports a few standard modules, and wait for it to end."""
    subprocess.run([sys.executable, "-I", "-c", "import argparse, csv, decimal, fractions, json"],
                   check=True)


class Reference(NamedTuple):
    unit: Callable[[], None]
    # one unit's time on the VM above, in a quiet minute
    nominal_s: float
    # an operation is scaled by the units that ended this close to it
    window_s: float


IN_PROCESS = Reference(unit, 100e-6, 1.0)
# a unit is about 50 ms: the window takes in a few of them
PROCESS = Reference(spawn_unit, 40e-3, 3.0)


def reference_for(workload: str) -> Reference:
    """Each cli operation starts a process; query and scan run in one."""
    return PROCESS if workload == "cli" else IN_PROCESS


class Meter:
    """Runs reference units after each operation, ``SHARE`` of its time,
    and keeps each unit's end time and duration (in arrays, so that the
    client's peak RSS stays the workload's)."""

    def __init__(self, reference: Reference) -> None:
        self.unit = reference.unit
        self.ends = array("d")
        self.durations = array("d")
        self._owed = 0.0

    def follow(self, busy_s: float) -> None:
        self._owed += SHARE * busy_s
        clock = time.perf_counter
        while self._owed > 0:
            t0 = clock()
            self.unit()
            t1 = clock()
            self.ends.append(t1)
            self.durations.append(t1 - t0)
            self._owed -= t1 - t0


def speeds(reference: Reference, starts, latencies, ends, durations) -> np.ndarray:
    """Per operation, the nominal unit time over the mean time of the
    units that ended within the reference's window of it (before its
    start or after its end)."""
    ends = np.asarray(ends)
    cum = np.concatenate(([0.0], np.cumsum(durations)))
    starts = np.asarray(starts, dtype=float)
    lo = np.searchsorted(ends, starts - reference.window_s, side="left")
    hi = np.searchsorted(ends, starts + np.asarray(latencies, dtype=float) + reference.window_s,
                         side="right")
    return reference.nominal_s * (hi - lo) / (cum[hi] - cum[lo])


def run_speed(reference: Reference, durations) -> float:
    """The nominal unit time over the mean unit time of a whole loop.
    Units take a fixed share of each operation's time, so this is the
    speed averaged over the loop's time."""
    return reference.nominal_s * len(durations) / sum(durations)
