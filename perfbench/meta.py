"""Machine and build facts recorded next to every benchmark result."""

import ctypes
import hashlib
import os
import platform
import subprocess

import numpy as np
import scipy

_THREAD_SYMBOLS = (
    "scipy_openblas_get_num_threads64_",
    "openblas_get_num_threads64_",
    "openblas_get_num_threads",
)


def _cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def _openblas_threads():
    """Thread count of each loaded OpenBLAS library (numpy and scipy bundle their own)."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            paths = {ln.split()[-1] for ln in fh if "openblas" in ln.lower() and "/" in ln}
    except OSError:
        return None
    threads = {}
    for path in sorted(paths):
        lib = ctypes.CDLL(path)
        fn = next((getattr(lib, s) for s in _THREAD_SYMBOLS if hasattr(lib, s)), None)
        if fn is not None:
            fn.restype = ctypes.c_int
            threads[os.path.basename(path)] = int(fn())
    return threads


def _openblas_version():
    try:
        return np.__config__.CONFIG["Build Dependencies"]["blas"]["version"]
    except (AttributeError, KeyError):
        return None


def _git_commit(root):
    if not os.path.isdir(os.path.join(root, ".git")):
        return None
    out = subprocess.run(
        ["git", "-C", root, "rev-parse", "HEAD"], capture_output=True, text=True, timeout=10
    )
    return out.stdout.strip() or None


def source_digest(root):
    """sha256 over the package sources, so results from a checkout without git
    still name the code they measured."""
    h = hashlib.sha256()
    pkg = os.path.join(root, "src", "softqn")
    for dirpath, dirnames, filenames in os.walk(pkg):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for name in sorted(filenames):
            path = os.path.join(dirpath, name)
            h.update(os.path.relpath(path, pkg).encode() + b"\0")
            with open(path, "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()


def metadata(root, seed):
    return {
        "nproc": os.cpu_count(),
        "openblas_num_threads_env": os.environ.get("OPENBLAS_NUM_THREADS"),
        "cpu_affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "cpu_model": _cpu_model(),
        "openblas_version": _openblas_version(),
        "openblas_threads": _openblas_threads(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "git_commit": _git_commit(root),
        "source_sha256": source_digest(root),
        "workload_seed": seed,
    }
