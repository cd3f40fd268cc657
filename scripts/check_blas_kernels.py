#!/usr/bin/env python3
"""Which pinned output bytes depend on the OpenBLAS kernel.

Runs the pinned-output tests (`pytest tests/test_cli.py -k
output_bytes_are_pinned`) once per OPENBLAS_CORETYPE value (unset, Haswell,
Nehalem), each in its own process because OpenBLAS picks its kernels when it
loads, and prints the kernel each run reports and the pins that fail under it.
Exits 1 only if a pin fails, or nothing runs, on the default (unset) kernel:
the other kernels are expected to move the last bits of some BLAS products.

    python scripts/check_blas_kernels.py
"""

import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
CORETYPES = [None, "Haswell", "Nehalem"]
PINS = ["tests/test_cli.py", "-k", "output_bytes_are_pinned"]

# the kernel numpy's bundled OpenBLAS is running, if it exports the call that names it
CORENAME = """
import ctypes, glob, os, numpy
libs = glob.glob(os.path.join(os.path.dirname(numpy.__file__), os.pardir, "numpy.libs",
                              "libscipy_openblas*"))
try:
    name = ctypes.CDLL(libs[0]).scipy_openblas_get_corename64_
    name.argtypes, name.restype = [], ctypes.c_char_p
    print(name().decode())
except (IndexError, OSError, AttributeError):
    print("unknown")
"""


def run(coretype):
    """(kernel name, ids of passed pins, ids of failed pins) under ``coretype``."""
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_CORETYPE"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    if coretype:
        env["OPENBLAS_CORETYPE"] = coretype
    kernel = subprocess.run([sys.executable, "-c", CORENAME], capture_output=True, text=True,
                            env=env, cwd=ROOT).stdout.strip()
    proc = subprocess.run([sys.executable, "-m", "pytest", "-q", "-rA", "-p", "no:cacheprovider",
                           *PINS], capture_output=True, text=True, env=env, cwd=ROOT)
    # "PASSED tests/test_cli.py::test_x[argv0-<sha256>...]" -> "test_x[argv0]"
    found = re.findall(r"^(PASSED|FAILED) \S+::(\w+)(?:\[(\w+))?", proc.stdout, re.M)
    ids = {status: [name + (f"[{param}]" if param else "") for s, name, param in found
                    if s == status] for status in ("PASSED", "FAILED")}
    return kernel, ids["PASSED"], ids["FAILED"]


def main():
    code = 0
    for coretype in CORETYPES:
        kernel, passed, failed = run(coretype)
        total = len(passed) + len(failed)
        print(f"OPENBLAS_CORETYPE={coretype or '(unset)'} (kernel {kernel}): "
              f"{len(passed)}/{total} pins pass")
        for test in failed:
            print(f"  fails: {test}")
        if coretype is None and (failed or not passed):
            code = 1
    return code


if __name__ == "__main__":
    sys.exit(main())
