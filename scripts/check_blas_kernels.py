#!/usr/bin/env python3
"""Which pinned output bytes depend on the OpenBLAS kernel or numpy's SIMD level.

Runs the pinned-output tests (`pytest tests/test_cli.py -k
output_bytes_are_pinned`) once per OPENBLAS_CORETYPE value (unset, Haswell,
Nehalem), then with the default kernel under two NPY_DISABLE_CPU_FEATURES
settings: without the AVX-512 dispatch targets, as on an AVX2 host, and
without X86_V3 too, as on an SSE4.2 host.  Each run has its own process,
because OpenBLAS and numpy pick their kernels when they load; the script
prints the kernel each run reports and the pins that fail under it.
Exits 1 only if a pin fails, or nothing runs, on the default (unset) kernel:
the other settings are expected to move the last bits of some results.

    python scripts/check_blas_kernels.py
"""

import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
AVX512 = "X86_V4 AVX512_ICL AVX512_SPR"
SETTINGS = [  # environment of each run; the first is the host's default
    {}, {"OPENBLAS_CORETYPE": "Haswell"}, {"OPENBLAS_CORETYPE": "Nehalem"},
    {"NPY_DISABLE_CPU_FEATURES": AVX512}, {"NPY_DISABLE_CPU_FEATURES": "X86_V3 " + AVX512},
]
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


def run(setting):
    """(kernel name, ids of passed pins, ids of failed pins) under the ``setting`` variables."""
    env = {k: v for k, v in os.environ.items()
           if k not in ("OPENBLAS_CORETYPE", "NPY_DISABLE_CPU_FEATURES")}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    env.update(setting)
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
    for setting in SETTINGS:
        kernel, passed, failed = run(setting)
        total = len(passed) + len(failed)
        name = " ".join(f"{k}={v}" for k, v in setting.items()) or "OPENBLAS_CORETYPE=(unset)"
        print(f"{name} (kernel {kernel}): {len(passed)}/{total} pins pass")
        for test in failed:
            print(f"  fails: {test}")
        if not setting and (failed or not passed):
            code = 1
    return code


if __name__ == "__main__":
    sys.exit(main())
