"""Provenance recorded with every benchmark result."""

from __future__ import annotations

import ctypes
import hashlib
import os
import platform
import subprocess
from pathlib import Path


def _read(path: str) -> str | None:
    try:
        return Path(path).read_text().strip()
    except OSError:
        return None


def _cpu_model() -> str:
    for line in (_read("/proc/cpuinfo") or "").splitlines():
        if line.startswith("model name"):
            return line.split(":", 1)[1].strip()
    return platform.processor() or "unknown"


def _caches() -> dict[str, str]:
    out = {}
    base = Path("/sys/devices/system/cpu/cpu0/cache")
    for idx in sorted(base.glob("index*")):
        level, kind, size = (_read(str(idx / f)) for f in ("level", "type", "size"))
        if level in ("2", "3") and kind == "Unified":
            out[f"L{level}"] = size
    return out


def _blas() -> dict[str, object]:
    """The OpenBLAS library numpy loaded, its configuration and thread count."""
    import numpy  # noqa: F401  (loads the BLAS library)

    libs = sorted({
        line.split()[-1]
        for line in (_read("/proc/self/maps") or "").splitlines()
        if "blas" in line.lower() and ".so" in line
    })
    info: dict[str, object] = {"library": Path(libs[0]).name if libs else "unknown"}
    if libs:
        lib = ctypes.CDLL(libs[0])
        for prefix in ("scipy_openblas", "openblas"):
            for suffix in ("64_", ""):
                get_threads = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
                get_config = getattr(lib, f"{prefix}_get_config{suffix}", None)
                if get_threads is not None and get_config is not None:
                    get_threads.restype = ctypes.c_int
                    get_config.restype = ctypes.c_char_p
                    info["threads"] = get_threads()
                    info["config"] = get_config().decode()
                    return info
    return info


def _commit(root: Path) -> str:
    if not (root / ".git").exists():
        return "unavailable"
    try:
        res = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unavailable"
    return res.stdout.strip() if res.returncode == 0 else "unavailable"


def _source_digest(root: Path) -> str:
    """sha256 over the package sources, for checkouts that are not git repositories."""
    h = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        h.update(str(path.relative_to(root)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def provenance(root: Path, workload: str, seed: int) -> dict[str, object]:
    import numpy

    return {
        "workload": workload,
        "seed": seed,
        "nproc": os.cpu_count(),
        "cpu": _cpu_model(),
        "caches": _caches(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": _blas(),
        "git_commit": _commit(root),
        "source_sha256": _source_digest(root),
    }
