"""Time one set-up in a fresh process; print it and the numpy import within
it, in seconds.

    python3 perfbench/setup_probe.py <workload> <seed> <output_dir>

Set-up is what precedes the sweep of ``smallmass converge``: importing the
package, parsing the configuration, building the model and probing its
assumptions.  Interpreter start-up is not included.  numpy is imported first,
as the package would import it, and that import is also timed on its own: it
is the set-up's calibration (see ``hostspeed``).
"""

import time

START = time.perf_counter()

import os  # noqa: E402
import sys  # noqa: E402

import numpy  # noqa: E402,F401

NUMPY_IMPORT_S = time.perf_counter() - START

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import smallmass.cli  # noqa: E402,F401
import workloads  # noqa: E402

workloads.setup(workloads.WORKLOADS[sys.argv[1]], int(sys.argv[2]), sys.argv[3])
print(time.perf_counter() - START, NUMPY_IMPORT_S)
