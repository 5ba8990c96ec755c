"""Run one workload in a child and leave no process behind.

The program under test starts processes of its own: the shards, and —
through ``multiprocessing.shared_memory`` — the standard library's
resource tracker, which only ends once it has noticed that the process
that started it is gone, i.e. a moment *after* the workload process
exited, and which nobody reaps where PID 1 does not.  A run must not
return before every process it started has ended, so the command the
driver calls is this supervisor: it makes itself the reaper of orphaned
descendants, runs the workload in a process group of its own, and
returns only when the workload and everything it left behind has been
waited for — on every way out, a crash or a signal included.
"""

from __future__ import annotations

import ctypes
import os
import signal
import subprocess
import sys
import time

#: What an orphan gets to end on its own before the group is killed.
GRACE_SECONDS = 10.0
_PR_SET_CHILD_SUBREAPER = 36


def _adopt_orphans() -> bool:
    """Make descendants whose parent died children of this process
    (Linux); without it they go to PID 1 and can only be watched."""
    try:
        libc = ctypes.CDLL(None, use_errno=True)
        return libc.prctl(_PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0) == 0
    except (OSError, AttributeError):
        return False


def _group_alive(pgid: int) -> bool:
    try:
        os.killpg(pgid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:
        pass
    return True


def _reap(block: bool) -> bool:
    """Wait for ended children; False once there are none left."""
    while True:
        try:
            pid, _ = os.waitpid(-1, 0 if block else os.WNOHANG)
        except ChildProcessError:
            return False
        if pid == 0:
            return True


def _drain(pgid: int, adopted: bool) -> None:
    """Wait until nothing the workload started is left; kill what does
    not end on its own within the grace period."""
    def left() -> bool:
        return _reap(block=False) if adopted else _group_alive(pgid)

    for _ in range(2):
        stop = time.monotonic() + GRACE_SECONDS
        while left():
            if time.monotonic() >= stop:
                break
            time.sleep(0.005)
        else:
            return
        try:
            os.killpg(pgid, signal.SIGKILL)
        except (ProcessLookupError, PermissionError):
            pass


def _terminated(signum, frame):
    raise SystemExit(128 + signum)


def run(command: list[str], cwd: str | None = None) -> int:
    """Run ``command`` (inheriting standard output) and return its exit
    code once it and all its descendants have ended."""
    adopted = _adopt_orphans()
    signal.signal(signal.SIGTERM, _terminated)
    child = subprocess.Popen(command, cwd=cwd, start_new_session=True)
    try:
        return child.wait()
    except BaseException:
        # Interrupted: the workload goes first, then what it started.
        try:
            os.killpg(child.pid, signal.SIGKILL)
        except (ProcessLookupError, PermissionError):
            pass
        child.wait()
        raise
    finally:
        _drain(child.pid, adopted)
