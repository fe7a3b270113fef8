"""Test-session set-up shared by every test module."""

import numpy as np
from numpy.lib.introspect import opt_func_info


def pytest_report_header(config):
    # The exact-rule bytes in tests/data/sc_golden.npz hold under the SIMD
    # kernels numpy dispatches float64 exp and log1p to (X86_V4, AVX-512, on
    # the host that wrote the file); naming the target lets a golden-file
    # failure on another CPU show its cause.
    info = opt_func_info(func_name="^(exp|log1p)$", signature="float64")
    targets = ", ".join(
        f"{name} {sig['current']}" for name, sigs in sorted(info.items()) for sig in sigs.values()
    )
    return f"numpy {np.__version__} float64 dispatch: {targets}"
