"""Machine-speed calibration for timings on a shared, noisy host.

On small shared machines the speed of pure-Python code drifts by up to
a factor of two over a few seconds, and CPU time drifts with it.  The
drift hits all interpreter-bound code alike: the ratio of a CLI op's
time to the time of the fixed loop below, measured next to it, stays
within a few per cent while both vary twofold.  So each op is timed
together with this loop, and its time is reported at the speed where
the loop takes REFERENCE_S:

    reported = measured * REFERENCE_S / loop time next to the op

The loop uses no npolylog code, so a change to the package moves the
reported times and the loop does not.

Import time tracks the loop less well (within about 10 %), as part of it
is file and system work.  Set-up is therefore scaled by a reference
import instead: a fresh interpreter that imports a fixed set of
standard-library modules, run next to each set-up child.  That ratio
stays within about 5 % while both times vary by half.
"""

from __future__ import annotations

import statistics
import time
from fractions import Fraction

# Time of one calibrate() call at the reference speed (a typical value
# on a 2-core x86-64 host).
REFERENCE_S = 0.0015

# Time of REFERENCE_IMPORT at the reference speed.
IMPORT_REFERENCE_S = 0.045

# Modules npolylog does not import, timed in a fresh interpreter.
REFERENCE_IMPORT = """\
import time
start = time.perf_counter()
import csv, difflib, email.message, http.client, logging, sqlite3, tarfile, xml.dom.minidom, zipfile
print(time.perf_counter() - start)
"""


def calibrate() -> float:
    """Seconds taken by a fixed loop of Fraction, int and dict work."""
    start = time.perf_counter()
    total = Fraction(0)
    seen = {}
    for i in range(1, 400):
        total += Fraction(1, i)
        seen[i, i % 7] = total.numerator % 1000
    return time.perf_counter() - start


def scale(measured: float, loops: list[float]) -> float:
    """measured, expressed at the reference speed given nearby loop times."""
    return measured * REFERENCE_S / statistics.median(loops)
