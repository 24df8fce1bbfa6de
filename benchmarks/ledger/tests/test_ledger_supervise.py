"""``supervised``: nothing a pass starts outlives the command."""

import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

_LEDGER = Path(__file__).resolve().parent.parent

_SCRIPT = textwrap.dedent(
    """
    import subprocess, sys
    sys.path.insert(0, {ledger!r})
    from perfledger import supervise

    supervise.GRACE_S = 0.2

    def run():
        # A process nobody waits for, in its own session, as a crashed
        # router's worker would be.
        orphan = subprocess.Popen(["sleep", "60"], start_new_session=True)
        print(orphan.pid, flush=True)
        return {code}

    sys.exit(supervise.supervised(run))
    """
)


def _alive(pid: int) -> bool:
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    return True


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="subreaper is Linux-only")
@pytest.mark.parametrize("code", [0, 3])
def test_orphans_are_ended_and_the_status_is_passed_on(code):
    done = subprocess.run(
        [sys.executable, "-c", _SCRIPT.format(ledger=str(_LEDGER), code=code)],
        capture_output=True, text=True, timeout=30,
    )
    assert done.returncode == code, done.stderr
    assert not _alive(int(done.stdout.split()[0]))
