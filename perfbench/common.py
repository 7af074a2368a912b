"""Shared helpers: repository paths, the environment fingerprint, statistics.

Nothing here sets an environment variable: the BLAS/OMP thread variables are
read for the fingerprint and left exactly as the caller's environment has them.
"""

from __future__ import annotations

import ctypes
import glob
import importlib.util
import json
import math
import os
import platform
import statistics
import sys
import time
from pathlib import Path
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
#: Scratch space inside the checkout: temporary caches and trace files.
OUT = ROOT / ".perfbench"

#: BLAS/OpenMP variables that change BLAS speed and reduction order.
BLAS_ENV_VARS = (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "OPENBLAS_CORETYPE",
)

#: The hardware-simulated LM families and the systolic accelerators.
HW_LM_FAMILIES = (
    "opt-6.7b", "llama2-7b", "llama2-13b", "llama2-70b", "llama3-8b", "phi3-3.8b",
)
SYSTOLIC_ARCHS = (
    "adaptivfloat", "ant", "gobo", "microscopiq-v1", "microscopiq-v2",
    "olaccel", "olive",
)
#: Evaluation shape of the toy-size inputs (``--smoke``).
TOY_SHAPE = {"eval_sequences": 8, "eval_seq_len": 24}


def use_source_tree() -> None:
    """Make ``import repro`` resolve to the checkout's ``src`` tree.

    Exits with status 2 when the checkout has no program to measure.
    """
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program at {SRC}/repro", file=sys.stderr)
        raise SystemExit(2)
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def run_perf_helpers():
    """The span helpers ``_capture`` / ``_by_name`` of ``benchmarks/perf/run_perf.py``."""
    path = ROOT / "benchmarks" / "perf" / "run_perf.py"
    spec = importlib.util.spec_from_file_location("perfbench_run_perf", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module._capture, module._by_name


# ---------------------------------------------------------------- fingerprint


def _openblas_lib() -> Optional[ctypes.CDLL]:
    import numpy as np

    libdir = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(glob.glob(str(libdir / "*openblas*"))):
        try:
            return ctypes.CDLL(path)
        except OSError:
            continue
    return None


def _call_str(lib, names: Sequence[str]) -> str:
    for name in names:
        fn = getattr(lib, name, None)
        if fn is not None:
            fn.restype = ctypes.c_char_p
            return (fn() or b"").decode(errors="replace").strip()
    return ""


def environment() -> Dict[str, Any]:
    """What speed and numerics depend on: numpy, BLAS, threads, CPU, Python."""
    import numpy as np

    blas = dict(np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {}))
    info: Dict[str, Any] = {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas_name": blas.get("name", ""),
        "blas_version": blas.get("version", ""),
        "blas_env": {k: os.environ.get(k) for k in BLAS_ENV_VARS},
        "nproc": os.cpu_count(),
        "affinity": sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
    }
    lib = _openblas_lib()
    if lib is not None:
        # numpy wheels bundle OpenBLAS with a ``scipy_`` prefix and 64-bit suffix.
        prefixes = ("scipy_openblas_{}64_", "openblas_{}")
        info["blas_config"] = _call_str(lib, [p.format("get_config") for p in prefixes])
        info["blas_coretype"] = _call_str(lib, [p.format("get_corename") for p in prefixes])
        for name in [p.format("get_num_threads") for p in prefixes]:
            fn = getattr(lib, name, None)
            if fn is not None:
                info["blas_threads"] = int(fn())
                break
    flags: List[str] = []
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("flags"):
                    flags = line.split(":", 1)[1].split()
                    break
    except OSError:
        pass
    info["cpu_simd"] = sorted(f for f in flags if f.startswith(("avx", "sse4", "fma", "amx")))
    return info


def host_probe() -> float:
    """Seconds of a fixed pure-Python loop (median of five).

    On a shared host the same code runs 25-50% faster or slower from one
    minute to the next; the probe, taken at the start and the end of every
    run, tells that drift apart from a change in the program.
    """
    times = []
    for _ in range(5):
        t0 = time.perf_counter()
        total = 0
        for i in range(200_000):
            total += i * i
        times.append(time.perf_counter() - t0)
    return float(statistics.median(times))


# ----------------------------------------------------------------- statistics


def median(values: Iterable[float]) -> float:
    return float(statistics.median(list(values)))


def tail(values: Sequence[float]) -> Tuple[float, float]:
    """The highest percentile with at least ten samples beyond it.

    Returns ``(value, percentile)``; with fewer than eleven samples there is
    no such percentile and the maximum is returned as the 100th.
    """
    ordered = sorted(values)
    n = len(ordered)
    if n < 11:
        return float(ordered[-1]), 100.0
    k = n - 11  # ten samples lie above index k
    return float(ordered[k]), round(100.0 * (k + 1) / n, 2)


def all_finite(metrics: Any) -> bool:
    """Every number inside ``metrics`` (nested dicts/lists) is finite."""
    if isinstance(metrics, bool) or metrics is None or isinstance(metrics, str):
        return True
    if isinstance(metrics, (int, float)):
        return math.isfinite(metrics)
    if isinstance(metrics, dict):
        return all(all_finite(v) for v in metrics.values())
    if isinstance(metrics, (list, tuple)):
        return all(all_finite(v) for v in metrics)
    return True


def as_json(value: Any) -> Any:
    """``value`` after a JSON round trip — how results cross the wire."""
    return json.loads(json.dumps(value))
