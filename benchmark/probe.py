"""Set-up probe: import dsgd_lab and parse a config in a fresh interpreter.

    python3 benchmark/probe.py CONFIG [--host]

prints one JSON line with `setup_s`, the seconds spent importing the CLI
module (numpy included) and parsing and validating CONFIG; with --host it
also describes the interpreter, numpy and its BLAS, including the BLAS thread
count in effect.
"""

import ctypes
import json
import os
import platform
import sys
import time

_THREAD_QUERIES = (
    "scipy_openblas_get_num_threads64_",
    "openblas_get_num_threads64_",
    "openblas_get_num_threads",
    "MKL_Get_Max_Threads",
)


def _blas_threads() -> int | None:
    """Threads the loaded BLAS will use, asked of the library itself."""
    with open("/proc/self/maps") as maps:
        paths = {line.split()[-1] for line in maps if "blas" in line.lower() and "/" in line}
    for path in sorted(paths):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in _THREAD_QUERIES:
            query = getattr(lib, symbol, None)
            if query is not None:
                query.restype = ctypes.c_int
                return int(query())
    return None


def host() -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = {}
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "blas_threads": _blas_threads(),
    }


def main(argv: list[str]) -> int:
    start = time.perf_counter()
    from dsgd_lab import cli

    cli.parse_config(argv[0])
    result = {"setup_s": time.perf_counter() - start}
    if "--host" in argv[1:]:
        result["host"] = host()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
