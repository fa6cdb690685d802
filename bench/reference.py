"""Host-speed references that the benchmark's times are scaled by.

On a shared host the machine's speed drifts by tens of percent from one
minute to the next, so run medians of raw wall times spread further than a
useful regression bound.  Between the ops the benchmark therefore times a
fixed reference task that does the same kind of work as the ops but runs
none of the package's code, and reports each time scaled by
``REF_MS / median reference time of the run``: the time at a host speed
where the reference takes REF_MS.  There are two references:

* ``numeric_ms`` (in-process ops): a fixed LAPACK eigenvalue solve in the
  worker process, timed every ``INTERVAL_S`` between ops.  It loads
  ``scipy.linalg``, which the eigenfunctions ops do not load themselves, so
  that module counts in the eigenfunctions worker's peak RSS;
* ``import_ref_ms`` in ``run.py`` (cli-cold ops and all set-up times): a fresh
  interpreter that imports numpy, timed after each op or set-up sample.

A pure-Python loop, elementwise numpy work and a small dense ``eigvalsh``
were tried as well and tracked neither kind of op: their run medians moved
more than the ops' did, so scaling by them widened the spread.
The raw wall times are printed next to the scaled ones.
"""
from __future__ import annotations

import functools
import statistics
import time

NUMERIC_REF_MS = 15.0
IMPORT_REF_MS = 150.0
INTERVAL_S = 0.2


def scaled(samples: list[float], refs: list[float], ref_ms: float) -> list[float]:
    """Raw times of one run at the host speed where the reference takes
    ``ref_ms``."""
    factor = ref_ms / statistics.median(refs)
    return [raw * factor for raw in samples]


@functools.cache
def _tridiagonal():
    import numpy as np
    rng = np.random.default_rng(0)
    return rng.random(8192) + 2.0, rng.random(8191)


def numeric_ms() -> float:
    """Wall time of the five largest eigenvalues of a fixed 8192 x 8192
    tridiagonal matrix (LAPACK bisection, as the oracle uses), in ms."""
    from scipy.linalg import eigvalsh_tridiagonal
    diag, off = _tridiagonal()
    t0 = time.perf_counter()
    eigvalsh_tridiagonal(diag, off, select="i", select_range=(8187, 8191))
    return (time.perf_counter() - t0) * 1e3
