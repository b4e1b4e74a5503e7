"""Environment block printed with every result, so two results can be
checked for comparability: interpreter and library versions, the BLAS and
its thread count, CPUs, the source revision and the run's settings."""

import ctypes
import hashlib
import os
import platform
import subprocess

import numpy as np
import scipy


def blas_info():
    """BLAS name and version from numpy's build record, and the thread
    count each loaded OpenBLAS reports."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = {}
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    except OSError:
        libs = []
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                threads[os.path.basename(path)] = fn()
                break
    env = {k: os.environ[k] for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                                      "MKL_NUM_THREADS") if k in os.environ}
    return {"name": blas.get("name"), "version": blas.get("version"),
            "threads": threads, "thread_env": env}


def git_revision(root):
    """(commit, dirty) of the checkout, or (None, None) when it is not a
    git work tree of its own."""
    if not (root / ".git").exists():
        return None, None

    def git(*args):
        return subprocess.run(["git", *args], cwd=root, capture_output=True,
                              text=True, timeout=30)

    try:
        head = git("rev-parse", "HEAD")
        if head.returncode != 0:
            return None, None
        status = git("status", "--porcelain", "--untracked-files=no")
    except (OSError, subprocess.TimeoutExpired):
        return None, None
    return head.stdout.strip(), bool(status.stdout.strip())


def tree_digest(*dirs):
    """SHA-256 over the Python sources under the given directories, which
    identifies the code also where there is no git metadata."""
    h = hashlib.sha256()
    for d in dirs:
        for path in sorted(d.rglob("*.py")):
            h.update(str(path.relative_to(d.parent)).encode())
            h.update(path.read_bytes())
    return h.hexdigest()


def collect(root, args):
    commit, dirty = git_revision(root)
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas_info(),
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
        else os.cpu_count(),
        "machine": platform.machine(),
        "git_commit": commit,
        "git_dirty": dirty,
        "source_sha256": tree_digest(root / "src" / "fedrosvm", root / "perfbench"),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }
