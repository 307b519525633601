"""Machine record for the benchmark output.

Reports core count, CPU model, L3 size, the BLAS numpy was built against (name,
version, thread count), numpy and scipy versions, and a measured copy
bandwidth with its array size. Run as a script it prints the record as one
JSON line; the benchmark runs it in a child process so that the
copy-bandwidth arrays do not count in the benchmark's own peak RSS.

    python3 perfbench/machine.py
"""

import ctypes
import json
import os
import time
from pathlib import Path

import numpy as np
import scipy

MIB = 1 << 20
COPY_REPEATS = 7


def cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="ascii", errors="replace") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return None


def l3_bytes():
    """Size of the level-3 cache seen by cpu0, from sysfs; None if unknown."""
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            if (index / "level").read_text().strip() != "3":
                continue
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        units = {"K": 1 << 10, "M": 1 << 20, "G": 1 << 30}
        if size[-1] in units:
            return int(size[:-1]) * units[size[-1]]
        return int(size)
    return None


def blas_threads():
    """Thread count reported by the OpenBLAS library loaded into this process."""
    try:
        with open("/proc/self/maps", encoding="ascii", errors="replace") as fh:
            paths = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return None
    for path in sorted(paths):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.argtypes = []
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def blas_info():
    config = np.show_config(mode="dicts")
    blas = config.get("Build Dependencies", {}).get("blas", {})
    return {"name": blas.get("name"), "version": blas.get("version"),
            "threads": blas_threads()}


def copy_bandwidth(l3):
    """Median read+write bandwidth of np.copyto on arrays of 4x the L3 each."""
    nbytes = max(4 * (l3 or 32 * MIB), 64 * MIB)
    src = np.ones(nbytes // 8)
    dst = np.zeros_like(src)
    np.copyto(dst, src)
    times = []
    for _ in range(COPY_REPEATS):
        t0 = time.perf_counter()
        np.copyto(dst, src)
        times.append(time.perf_counter() - t0)
    seconds = float(np.median(times))
    return {"gbps": 2 * nbytes / seconds / 1e9, "array_bytes": nbytes,
            "samples": COPY_REPEATS}


def machine_record():
    l3 = l3_bytes()
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "l3_bytes": l3,
        "blas": blas_info(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "copy_bandwidth": copy_bandwidth(l3),
    }


if __name__ == "__main__":
    print(json.dumps(machine_record()))
