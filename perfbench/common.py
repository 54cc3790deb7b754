"""Shared plumbing: the checkout layout, the pinned environment, the
host-speed probe, order statistics, peak memory, and the
fresh-interpreter set-up probe."""

from __future__ import annotations

import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from fractions import Fraction
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

#: The checkout root: the benchmark lives in ``<root>/perfbench``.
ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
CONFIGS = ROOT / "configs"
#: Scratch space for server roots and span dumps (git-ignored).
WORK = ROOT / ".perfbench"


class CheckoutError(Exception):
    """The benchmark was started outside a checkout of the package."""


def check_checkout() -> None:
    missing = [
        str(path.relative_to(ROOT))
        for path in (SRC / "repro" / "__init__.py", CONFIGS / "table1.json",
                     CONFIGS / "table2.json", CONFIGS / "onebit_counting.json")
        if not path.is_file()
    ]
    if missing:
        raise CheckoutError(
            f"not a checkout of the package (missing: {', '.join(missing)}); "
            "run from the repository root")


def pin_environment() -> None:
    """Clear every ``REPRO_*`` variable (``REPRO_STORE``, ``REPRO_PARALLEL``,
    ``REPRO_QUOTIENT``, ``REPRO_QUOTIENT_RATIO``, ``REPRO_VECTOR``,
    ``REPRO_MEMO``, ``REPRO_HEARTBEAT_SECONDS``, ``REPRO_LEASE_STALE_SECONDS``,
    ``REPRO_SERVICE_PORT``, ``REPRO_SERVICE_BACKLOG``, ...) so ambient
    settings cannot change what is measured, and make ``src`` importable,
    in this process and in every child it starts."""
    for name in list(os.environ):
        if name.startswith("REPRO_"):
            del os.environ[name]
    path = os.environ.get("PYTHONPATH")
    os.environ["PYTHONPATH"] = str(SRC) + (os.pathsep + path if path else "")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def environment_stamp() -> Dict[str, object]:
    try:
        import numpy

        numpy_version: Optional[str] = numpy.__version__
    except ImportError:  # pragma: no cover - numpy is a base dependency
        numpy_version = None
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy_version,
    }


# -- host speed -------------------------------------------------------------- #

#: :func:`speed_probe` on a quiet 2-vCPU host (Python 3.11.7).
REFERENCE_PROBE_SECONDS = 0.0026


def _eliminate(n: int) -> None:
    """Gauss-Jordan elimination over ``Fraction`` on a fixed n x (n+2)
    matrix: exact big-integer arithmetic, like the tables' hot path."""
    m = [[Fraction((i * 3 + j * 5) % 11 - 5, 1 + (i + j) % 3) for j in range(n + 2)]
         for i in range(n)]
    r = 0
    for c in range(n + 2):
        p = next((i for i in range(r, n) if m[i][c] != 0), None)
        if p is None:
            continue
        m[r], m[p] = m[p], m[r]
        inv = 1 / m[r][c]
        m[r] = [x * inv for x in m[r]]
        for i in range(n):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        r += 1
        if r == n:
            break


def speed_probe(repeats: int = 8) -> float:
    """Seconds one fixed exact-arithmetic computation takes right now."""
    started = time.perf_counter()
    for _ in range(repeats):
        _eliminate(7)
    return (time.perf_counter() - started) / repeats


def host_factor() -> float:
    """Multiplier that turns seconds measured now into seconds on the
    reference host.

    The machines this runs on are shared: over minutes their speed drifts
    by 20% and more, which no run length averages away.  A probe taken
    just before each operation tracks that drift (on one host, over 16
    half-minute windows, Table 1 time varied with a quartile spread of
    8.9% raw and 2.8% scaled), so the result line reports scaled times;
    the readable report prints the raw ones beside them.  The probe runs
    no package code, so a change to the package cannot move it.
    """
    return REFERENCE_PROBE_SECONDS / speed_probe()


#: :func:`fs_probe` on a quiet 2-vCPU host (Python 3.11.7).
REFERENCE_FS_PROBE_SECONDS = 0.001
#: Share of a cold served job's latency that is file-system work when
#: :func:`fs_probe` reads the reference time.  Over ten 15-second served
#: runs on one host, the run medians of cold latency fitted
#: 0.10 s + 160 x the probe's seconds (correlation 0.94), and 0.16 s of
#: 0.26 s is 0.6.
FS_SHARE = 0.6


def fs_probe(directory: Path) -> float:
    """Seconds one atomic file replacement takes right now in
    ``directory`` (mean of ten): create a temporary file, write 1.5 kB,
    fsync, rename.  The result store writes every record and entry this
    way."""
    target = directory / "probe"
    started = time.perf_counter()
    for _ in range(10):
        fd, staged = tempfile.mkstemp(dir=str(directory))
        with os.fdopen(fd, "wb") as handle:
            handle.write(b"x" * 1500)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(staged, target)
    return (time.perf_counter() - started) / 10


def fs_factor(directory: Path) -> float:
    """Multiplier that turns a cold served job's latency measured now
    into its latency on the reference host.

    A cold job is mostly file-system work in the server (open, fsync,
    rename, mkdir), whose speed on a shared host swings by 2x from minute
    to minute while :func:`host_factor` stays flat; only the
    :data:`FS_SHARE` of the latency is scaled by the probe.  Like
    :func:`speed_probe`, the probe runs no package code.
    """
    ratio = fs_probe(directory) / REFERENCE_FS_PROBE_SECONDS
    return 1.0 / ((1.0 - FS_SHARE) + FS_SHARE * ratio)


# -- statistics ------------------------------------------------------------ #

TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)


def median(values: Sequence[float]) -> float:
    return statistics.median(values) if values else 0.0


def hd_median(values: Sequence[float]) -> float:
    """The Harrell-Davis estimate of the median: a Beta((n+1)/2, (n+1)/2)
    weighted mean of the order statistics.  With the dozen samples a
    tables run holds, the sample median jumps between clusters of
    seed-dependent costs; this estimate of the same quantity does not."""
    import numpy

    ordered = numpy.sort(numpy.asarray(values, dtype=float))
    n = len(ordered)
    if n < 3:
        return float(numpy.median(ordered)) if n else 0.0
    a = (n + 1) / 2.0
    x = numpy.linspace(0.0, 1.0, 20001)[1:-1]
    density = numpy.exp((a - 1.0) * (numpy.log(x) + numpy.log1p(-x)))
    cdf = numpy.concatenate(([0.0], numpy.cumsum(density)))
    cdf /= cdf[-1]
    grid = numpy.concatenate(([0.0], x))
    weights = numpy.diff(numpy.interp(numpy.arange(n + 1) / n, grid, cdf, right=1.0))
    return float(weights @ ordered)


def percentile(values: Sequence[float], p: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * p // 100))
    return ordered[int(rank) - 1]


def tail(values: Sequence[float]) -> Tuple[float, str, int]:
    """The highest percentile with at least ten samples beyond it, as
    ``(value, label, samples)``; with fewer than twenty samples no
    percentile qualifies and the maximum is reported as ``max``."""
    n = len(values)
    for p in TAIL_PERCENTILES:
        if n * (100.0 - p) / 100.0 >= 10:
            return percentile(values, p), f"p{p:g}", n
    return (max(values) if values else 0.0), "max", n


def peak_rss_mb(pids: Sequence[int] = ()) -> float:
    """Peak resident set of this process, or of the given processes
    (``VmHWM`` summed) when ``pids`` is not empty."""
    if not pids:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    total_kb = 0
    for pid in pids:
        try:
            with open(f"/proc/{pid}/status", encoding="ascii") as handle:
                for line in handle:
                    if line.startswith("VmHWM:"):
                        total_kb += int(line.split()[1])
        except OSError:
            pass
    return total_kb / 1024.0


def processes() -> List[Tuple[int, str, int, int]]:
    """``(pid, state, ppid, pgrp)`` of every process, from ``/proc``."""
    found = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat", encoding="ascii", errors="replace") as handle:
                fields = handle.read().rsplit(")", 1)[1].split()
        except OSError:
            continue
        found.append((int(entry), fields[0], int(fields[1]), int(fields[2])))
    return found


# -- set-up probe ------------------------------------------------------------ #

_SETUP_SCRIPT = """
import sys
import repro
from repro.scenarios import load_scenario
for path in sys.argv[1:]:
    load_scenario(path)
"""


def direct_setup_seconds(configs: Sequence[Path], repeats: int) -> List[float]:
    """Wall seconds of fresh interpreters that ``import repro`` and
    validate ``configs``: one unmeasured warm-up (bytecode caches), then
    ``repeats`` measured launches."""
    command = [sys.executable, "-c", _SETUP_SCRIPT] + [str(c) for c in configs]
    samples = []
    for attempt in range(repeats + 1):
        started = time.perf_counter()
        subprocess.run(command, check=True, cwd=str(ROOT),
                       stdout=subprocess.DEVNULL)
        if attempt:
            samples.append(time.perf_counter() - started)
    return samples
