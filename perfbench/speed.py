"""Host-speed references: correct timings for the speed the host ran at.

The shared VM this benchmark was tuned on runs the same code at two
speeds about 1.8x apart, in phases of seconds to minutes, and whole
runs can fall in one phase; CPU time slows exactly as wall time does.
So the benchmark times fixed reference work around what it measures,
and scales each measured time by a nominal reference time over the
mean of the two reference timings around it.  A corrected figure reads
as the time on a host that runs the reference in the nominal time; the
raw figures are reported beside it.

There are two references, because set-up and ops slow differently in
a slow phase:

- ops: :func:`time_reference`, pure-Python work in this process, run
  between blocks of ops, with the garbage collector off so that the
  program's heap does not slow it;
- set-up: :func:`time_setup_reference`, a fresh interpreter importing
  a fixed set of standard-library modules, run just before and just
  after a set-up.  Set-up is mostly imports, which slow about 0.6 times
  as much as the pure-Python reference does (in log terms), and about
  0.85 times as much as this one.

Neither reference touches ``repro``, so no change to the program moves
them.
"""

from __future__ import annotations

import gc
import heapq
import subprocess
import sys
import time

__all__ = [
    "NOMINAL_S", "NOMINAL_SETUP_S", "time_reference",
    "time_setup_reference", "scale",
]

#: Reference times on a nominal host: about their median times on the
#: 2-vCPU Xeon VM the benchmark was tuned on, so that corrected figures
#: there are close to raw ones.
NOMINAL_S = 0.025
NOMINAL_SETUP_S = 0.17

SETUP_REFERENCE_IMPORTS = (
    "import argparse, asyncio, csv, dataclasses, decimal, difflib, "
    "email.mime.multipart, fractions, http.server, inspect, json, "
    "logging, pathlib, sqlite3, statistics, typing, unittest, "
    "xml.dom.minidom"
)


def reference_work() -> int:
    """Fixed interpreter work: integer arithmetic, a bounded heap and a
    dict, the mix the simulator's event loop spends its time in."""
    heap: list[tuple[int, int]] = []
    counts: dict[int, int] = {}
    x = 12345
    for i in range(20_000):
        x = (x * 1103515245 + 12345) & 0x7FFFFFFF
        heapq.heappush(heap, (x % 1000, i))
        key = x % 512
        counts[key] = counts.get(key, 0) + 1
        if len(heap) > 64:
            heapq.heappop(heap)
    return len(counts) + len(heap)


def time_reference() -> float:
    """Wall seconds of one :func:`reference_work`, collector off."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        begin = time.perf_counter()
        reference_work()
        return time.perf_counter() - begin
    finally:
        if enabled:
            gc.enable()


def time_setup_reference() -> float:
    """Wall seconds of a fresh isolated interpreter that imports
    ``SETUP_REFERENCE_IMPORTS`` and exits."""
    begin = time.perf_counter()
    subprocess.run(
        [sys.executable, "-I", "-c", SETUP_REFERENCE_IMPORTS],
        stdin=subprocess.DEVNULL, check=True, timeout=60,
    )
    return time.perf_counter() - begin


def scale(before: float, after: float, nominal: float = NOMINAL_S) -> float:
    """Factor from raw to corrected time for work done between two
    reference timings."""
    return nominal / ((before + after) / 2.0)
