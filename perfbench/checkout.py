"""Where the measured code lives and how child processes are started.

The benchmark measures the ``ordmaps`` under this checkout's ``src/``, which
is not installed, so every child process gets ``PYTHONPATH=<checkout>/src``
and checks where ``ordmaps`` was imported from.
"""

from __future__ import annotations

import os
import subprocess
import threading
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK_PARENT = ROOT / ".perfbench-work"


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


def assert_measured_package(package_file: str, src_dir) -> None:
    package = Path(package_file).resolve()
    expected = Path(src_dir).resolve() / "ordmaps"
    if package.parent != expected:
        raise BenchError(f"ordmaps was imported from {package}, not from {expected}")


def child_env(work_dir: Path) -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONNOUSERSITE"] = "1"
    env["TMPDIR"] = str(work_dir)
    # set-up warms the bytecode cache, as an installed package would have it
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


def wait(proc: subprocess.Popen, timeout: float) -> tuple[int, float]:
    """Reap ``proc`` (killed after ``timeout`` s); return (exit code, peak RSS MB)."""
    timer = threading.Timer(timeout, proc.kill)
    timer.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    except BaseException:  # interrupted (SIGTERM): stop the child before unwinding
        proc.kill()
        proc.wait()
        raise
    finally:
        timer.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, usage.ru_maxrss / 1024.0  # ru_maxrss is in KiB on Linux


def run(argv: list[str], cwd: Path, env: dict[str, str], log_stem: Path, timeout: float):
    """Run one child to completion; return (exit code, start, wall s, peak RSS MB)."""
    with open(f"{log_stem}.out", "wb") as out, open(f"{log_stem}.err", "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, env=env, stdin=subprocess.DEVNULL, stdout=out, stderr=err)
        code, rss = wait(proc, timeout)
        wall = time.perf_counter() - start
    return code, start, wall, rss
