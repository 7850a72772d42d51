"""The CPU class that the final weight bits of a simulated run follow.

Two libraries pick machine code at run time: numpy picks among its SIMD
dispatch targets, and its bundled OpenBLAS picks a dgemm kernel (its
"core") and a thread count.  `python tests/cpu_class.py` prints the class
this process runs on (numpy.show_runtime() shows no OpenBLAS core without
threadpoolctl), and the pinned-bits tests name it when they fail.
The variables NPY_DISABLE_CPU_FEATURES and OPENBLAS_CORETYPE change it for
one process.  This module imports nothing from fedcarbon.
"""

from __future__ import annotations

import ctypes
import glob
import os

import numpy as np


def numpy_dispatch() -> list[str]:
    """numpy's dispatch targets that this CPU enables, in build order."""
    try:
        from numpy._core import _multiarray_umath as umath
    except ImportError:  # numpy 1.x
        from numpy.core import _multiarray_umath as umath
    features = umath.__cpu_features__
    return [name for name in umath.__cpu_dispatch__ if features.get(name)]


def openblas() -> tuple[str, str]:
    """OpenBLAS's core name and thread count, read from the library in
    numpy.libs/; "unknown" for a value it does not export."""
    libs = sorted(glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir,
                                         "numpy.libs", "*openblas*")))
    lib = ctypes.CDLL(libs[0]) if libs else None

    def first(names: tuple[str, str], restype: type) -> object:
        for name in names:
            fn = getattr(lib, name, None)
            if fn is not None:
                fn.argtypes, fn.restype = [], restype
                return fn()
        return "unknown"

    core = first(("scipy_openblas_get_corename64_", "openblas_get_corename64_"),
                 ctypes.c_char_p)
    threads = first(("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_"),
                    ctypes.c_int)
    return core.decode() if isinstance(core, bytes) else str(core), str(threads)


def cpu_class() -> str:
    """One line naming the class, as
    "numpy 2.4.6 X86_V3 X86_V4 ...; OpenBLAS SkylakeX, threads 2"."""
    dispatch = " ".join(numpy_dispatch()) or "baseline only"
    core, threads = openblas()
    return f"numpy {np.__version__} {dispatch}; OpenBLAS {core}, threads {threads}"


if __name__ == "__main__":
    print(cpu_class())
