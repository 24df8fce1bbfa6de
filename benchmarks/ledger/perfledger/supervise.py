"""Nothing the benchmark starts may outlive it.

A pass starts processes it does not hold a handle on: ``multiprocessing``'s
resource tracker (it ends on its own, but only *after* its parent has),
the serving worker of a router that died, a fit leg of a killed
orchestrator. :func:`supervised` therefore forks before any of that
exists: the child runs the pass, the parent does nothing but adopt every
orphan the pass leaves (``PR_SET_CHILD_SUBREAPER``), wait for each to end,
kill what does not end on its own, and only then exit with the pass's
status. This holds on every way out of the pass — return, exception,
crash, a signal, or the deadline below.

Linux only, like the ``/proc`` walk it uses; elsewhere the pass runs
unsupervised.
"""

from __future__ import annotations

import ctypes
import os
import signal
import sys
import time
from typing import Callable, List

_PR_SET_PDEATHSIG = 1
_PR_SET_CHILD_SUBREAPER = 36

#: A pass must end within the contract's 180 s; past this it is killed.
DEADLINE_S = 170.0
#: How long orphans get to end on their own before they are killed.
GRACE_S = 3.0
_POLL_S = 0.005


def _prctl(option: int, value: int) -> bool:
    try:
        return ctypes.CDLL(None, use_errno=True).prctl(option, value, 0, 0, 0) == 0
    except (OSError, AttributeError):
        return False


def _children(pid: int) -> List[int]:
    """Live or zombie processes whose parent is ``pid``."""
    found = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as f:
                fields = f.read().rsplit(")", 1)[1].split()
        except (OSError, IndexError):
            continue  # ended while we were looking
        if int(fields[1]) == pid:
            found.append(int(entry))
    return found


def _signal_all(pids: List[int], signum: int) -> None:
    for pid in pids:
        try:
            os.kill(pid, signum)
        except ProcessLookupError:
            pass


def _reap_until_none(grace_s: float) -> None:
    """Wait until this process has no child left. Orphaned grandchildren
    are re-parented here, so this covers every descendant; those still
    alive after ``grace_s`` are killed (their children then arrive here
    too and meet the same end)."""
    me = os.getpid()
    give_up = time.monotonic() + grace_s
    while True:
        try:
            while os.waitpid(-1, os.WNOHANG)[0]:
                pass
        except ChildProcessError:
            return  # no child of any kind left
        if time.monotonic() > give_up:
            _signal_all(_children(me), signal.SIGKILL)
        time.sleep(_POLL_S)


def supervised(run: Callable[[], int]) -> int:
    """Run ``run()`` in a forked child and return its exit status once no
    process it started exists any more. Call before numpy is imported and
    before any thread is started."""
    if not sys.platform.startswith("linux") or not _prctl(_PR_SET_CHILD_SUBREAPER, 1):
        return run()
    sys.stdout.flush()
    sys.stderr.flush()
    supervisor = os.getpid()
    child = os.fork()
    if child == 0:
        # The pass. Should the supervisor be killed outright, follow it.
        _prctl(_PR_SET_PDEATHSIG, signal.SIGTERM)
        if os.getppid() != supervisor:
            os._exit(1)
        return run()

    def _stop(signum, frame):  # a signal to the supervisor, or the deadline
        raise SystemExit(124 if signum == signal.SIGALRM else 128 + signum)

    for signum in (signal.SIGTERM, signal.SIGINT, signal.SIGHUP, signal.SIGALRM):
        signal.signal(signum, _stop)
    signal.setitimer(signal.ITIMER_REAL, DEADLINE_S)
    try:
        status = os.waitstatus_to_exitcode(os.waitpid(child, 0)[1])
    except SystemExit as stop:
        if stop.code == 124:
            print(f"pass exceeded {DEADLINE_S:.0f} s; killed", file=sys.stderr)
        _signal_all([child], signal.SIGKILL if stop.code == 124 else signal.SIGTERM)
        raise
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        for signum in (signal.SIGTERM, signal.SIGINT, signal.SIGHUP):
            signal.signal(signum, signal.SIG_IGN)  # nothing interrupts the clean-up
        _reap_until_none(GRACE_S)
    return status if status >= 0 else 128 - status
