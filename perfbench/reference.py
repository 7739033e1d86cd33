"""Reference kernels that measure how fast the host runs right now.

The host runs Python at two speeds about 1.5x apart, switching within
seconds and drifting over minutes, so measured op times spread too widely
between runs for a 0.25 bound.  The benchmark reads a reference kernel just
before and just after each timed call and divides the call's seconds by the
mean of the two readings: a scaled second is a second on a host that runs
the reference in its nominal time.  A reading is the median of a few short
runs of the kernel, so that one stall does not set the scale of a long op.

Each kernel does the same kind of work as the workloads that use it, but in
this file's own code, so that no change to rejectsvm moves it.  Inputs are
fixed (seed 0), the same in every run.  NOTES.md gives the measurements
behind the choice of kernel per workload.
"""

import csv
import io
import statistics
import time

import numpy as np
from scipy.linalg import blas

_PARSE_NOMINAL_S = 0.030
_PIVOTS_NOMINAL_S = 0.020
_rng = np.random.default_rng(0)
_buf = io.StringIO()
np.savetxt(_buf, _rng.normal(size=(1000, 51)), fmt="%.17g", delimiter=",")
_CSV_TEXT = _buf.getvalue()
_TABLEAU = np.asfortranarray(_rng.uniform(0.5, 1.5, size=(200, 600)))


def parse():
    """Host slowness for CSV parsing: 1.0 at the nominal speed.

    Parses a fixed 1,000 x 51 CSV text with csv.reader and float() into a
    numpy array, as rejectsvm's loaders do; the median of three parses.
    """
    times = []
    for _ in range(3):
        t0 = time.perf_counter()
        out = np.empty((1000, 51))
        for i, row in enumerate(csv.reader(io.StringIO(_CSV_TEXT))):
            for j, cell in enumerate(row):
                out[i, j] = float(cell)
        times.append(time.perf_counter() - t0)
    return statistics.median(times) / _PARSE_NOMINAL_S


def pivots():
    """Host slowness for dense simplex work: 1.0 at the nominal speed.

    400 pivot steps on a fixed 200 x 600 Fortran-ordered tableau: an
    entering column by argmin, a ratio test, a row scaling and a BLAS rank-1
    update, as rejectsvm's simplex pivots; the median of four such runs.
    The update is damped so the entries stay of order one.
    """
    times = []
    for _ in range(4):
        t0 = time.perf_counter()
        t = _TABLEAU.copy(order="F")
        for _ in range(400):
            cost = t[-1, :-1]
            c = int(np.argmin(np.where(cost > 0, cost, np.inf)))
            col = t[:-1, c]
            ratio = np.where(col > 0, np.abs(t[:-1, -1])
                             / np.maximum(col, 1e-12), np.inf)
            r = int(np.argmin(ratio))
            if abs(t[r, c]) > 1e-9:
                t[r, :] /= t[r, c]
            colv = t[:, c].copy()
            colv[r] = 0.0
            rowv = t[r, :].copy()
            blas.dger(-1e-3, colv, rowv, a=t, overwrite_a=1)
        times.append(time.perf_counter() - t0)
    return statistics.median(times) / _PIVOTS_NOMINAL_S
