"""The recorded digests hold with none of numpy's dispatched SIMD code.

numpy picks its SIMD kernels by CPU when it is imported, and a kernel
may round differently in the last bit. The solve, LP dump and CLI report
digests must hold on every CPU, so their three test files run again in a
pytest subprocess whose ``NPY_DISABLE_CPU_FEATURES`` names every feature
numpy can dispatch, leaving it on its baseline code. The subprocess
works in a temporary directory and writes no bytecode, so it leaves
nothing in the checkout.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

import netwattzap

from conftest import numpy_cpu_tables

TESTS = Path(__file__).resolve().parent
DIGEST_TESTS = ("test_solve_digests.py", "test_placement_dump.py", "test_cli_digests.py")


def test_digests_hold_on_numpy_baseline(tmp_path):
    tables = numpy_cpu_tables()
    if not tables or not tables[1]:
        pytest.skip("numpy exposes no list of dispatched CPU features")
    env = {k: v for k, v in os.environ.items() if k != "NPY_ENABLE_CPU_FEATURES"}
    # The subprocess imports the package from where this process found it.
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(Path(netwattzap.__file__).parents[1]), env.get("PYTHONPATH"))))
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    env["NPY_DISABLE_CPU_FEATURES"] = " ".join(tables[1])
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-p", "no:cacheprovider", *(str(TESTS / name) for name in DIGEST_TESTS)],
        cwd=tmp_path,
        env=env,
        capture_output=True,
        text=True,
        encoding="utf-8",
    )
    assert run.returncode == 0, run.stdout[-5000:] + run.stderr[-5000:]
    # The conftest report header names the SIMD features numpy dispatched.
    assert "; dispatched none\n" in run.stdout
