"""Importing storysort loads numpy with OpenBLAS on one thread, unless the caller set
OPENBLAS_NUM_THREADS, whose value is kept.

Each case starts a fresh interpreter: a process's BLAS keeps the threads it started with,
and this one loaded numpy long ago. A child counts its threads in /proc/self/task after a
600 x 600 product, which OpenBLAS splits across its threads when it has them.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import storysort

BLAS_VARIABLES = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")

CHILD = """\
import json, os
import storysort
import numpy as np
a = np.ones((600, 600))
a @ a
print(json.dumps([len(os.listdir("/proc/self/task")), os.environ.get("OPENBLAS_NUM_THREADS")]))
"""


def blas_name() -> str:
    try:
        return np.__config__.CONFIG["Build Dependencies"]["blas"]["name"]
    except (AttributeError, KeyError):
        return ""


pytestmark = [
    pytest.mark.skipif(not Path("/proc/self/task").is_dir(),
                       reason="threads are counted in /proc/self/task"),
    pytest.mark.skipif("openblas" not in blas_name(), reason="numpy's BLAS is not OpenBLAS"),
    pytest.mark.skipif(
        not hasattr(os, "sched_getaffinity") or len(os.sched_getaffinity(0)) < 2,
        reason="OpenBLAS starts no worker thread on one core"),
]


def child_threads_and_variable(given: str | None) -> list:
    """[threads, OPENBLAS_NUM_THREADS afterwards] of a fresh interpreter that imports
    storysort with no BLAS thread variable set, or with OPENBLAS_NUM_THREADS = given."""
    env = {k: v for k, v in os.environ.items() if k not in BLAS_VARIABLES}
    src = str(Path(storysort.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join([src, *filter(None, [os.environ.get("PYTHONPATH")])])
    if given is not None:
        env["OPENBLAS_NUM_THREADS"] = given
    proc = subprocess.run([sys.executable, "-c", CHILD], env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def test_import_runs_blas_on_one_thread_and_leaves_no_variable():
    assert child_threads_and_variable(None) == [1, None]


def test_a_thread_count_the_caller_sets_is_kept():
    assert child_threads_and_variable("2") == [2, "2"]
