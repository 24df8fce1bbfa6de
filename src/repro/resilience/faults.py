"""Deterministic fault injection: seeded plans over named sites.

Chaos testing the serving + fitting stack needs failures that are
*reproducible*: "the worker dies on the third pipe message" must mean
the same thing on every run and every machine, or a failing soak test
cannot be bisected. This module provides that determinism:

* Production code is instrumented with :func:`fault_point` calls at
  **named sites** (``store.load``, ``registry.rehydrate``,
  ``worker.pipe``, ``fit.leg``, ``engine.predict``, ``runtime.task``,
  ``wire.stream`` — before each body write of the edge's binary
  reply, for dropping a connection mid-response).
  Unarmed, a fault point is two module-global reads — no measurable
  cost on any request path.
* A :class:`FaultPlan` is a seeded list of :class:`FaultRule`\\ s, each
  binding a site to an action — ``raise`` a typed exception, ``delay``
  the caller, ``corrupt`` a byte of the file the site is about to read,
  or ``kill`` the calling process with SIGKILL — on a deterministic
  window of hits (``after`` skipped, ``count`` fired).
* :func:`arm` installs a plan process-wide; with ``propagate=True`` it
  is also exported through the ``REPRO_FAULT_PLAN`` environment
  variable, so worker processes (fork *or* spawn) arm themselves
  lazily on their first fault point.
* Hit counting is per-process by default. For plans that must count
  across processes — "kill the fit leg once, then let the respawn
  through" needs the respawned process to see hit 2, not hit 1 — give
  the plan a ``state_dir``: counters live in ``flock``-serialized
  files, shared by every process of the run, and every fired fault is
  journaled to ``fired.jsonl`` for the soak harness's reconciliation.

Nothing here is imported by default application flows beyond the
``fault_point`` no-op; a library user who never arms a plan pays only
the unarmed fast path.
"""

from __future__ import annotations

import fcntl
import hashlib
import json
import os
import signal
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Union

from .. import exceptions as _exceptions
from ..exceptions import ConfigurationError, InjectedFaultError
from ..telemetry import spans as _telemetry

__all__ = [
    "FaultRule",
    "FaultPlan",
    "arm",
    "disarm",
    "active_plan",
    "fault_point",
    "SITES",
    "PLAN_ENV",
]

#: The named injection sites threaded through the library. ``fault_point``
#: accepts any string, but plans naming unknown sites are rejected so a
#: typo cannot silently inject nothing.
SITES = (
    "store.load",
    "registry.rehydrate",
    "worker.pipe",
    "fit.leg",
    "engine.predict",
    "runtime.task",
    "wire.stream",
)

#: Environment variable carrying a JSON-serialized plan to child processes.
PLAN_ENV = "REPRO_FAULT_PLAN"

_ACTIONS = ("raise", "delay", "corrupt", "kill")

#: Exception classes a ``raise`` rule may name. Restricted to the library
#: hierarchy (plus OSError for I/O-shaped failures) so a plan cannot be
#: used to raise arbitrary classes.
_RAISABLE: Dict[str, type] = {
    name: obj
    for name, obj in vars(_exceptions).items()
    if isinstance(obj, type) and issubclass(obj, _exceptions.ReproError)
}
_RAISABLE["OSError"] = OSError


@dataclass
class FaultRule:
    """One site's fault: which action, on which window of hits.

    Attributes
    ----------
    site:
        One of :data:`SITES`.
    action:
        ``"raise"``, ``"delay"``, ``"corrupt"``, or ``"kill"``.
    after:
        Hits of the site that pass through before the rule starts
        firing (0 = fire on the first hit).
    count:
        Consecutive hits the rule fires on once triggered; later hits
        pass through again (so recovery is part of the same plan).
    delay:
        Seconds to sleep for ``"delay"``.
    exception:
        Class name for ``"raise"`` (a :class:`~repro.exceptions
        .ReproError` subclass or ``OSError``); default
        :class:`InjectedFaultError`.
    message:
        Text of the raised exception (default derived from the site).
    """

    site: str
    action: str
    after: int = 0
    count: int = 1
    delay: float = 0.0
    exception: str = "InjectedFaultError"
    message: str = ""

    def __post_init__(self) -> None:
        if self.site not in SITES:
            raise ConfigurationError(
                f"unknown fault site {self.site!r}; known: {SITES}"
            )
        if self.action not in _ACTIONS:
            raise ConfigurationError(
                f"unknown fault action {self.action!r}; known: {_ACTIONS}"
            )
        if int(self.after) < 0:
            raise ConfigurationError(f"after must be >= 0, got {self.after}")
        if int(self.count) < 1:
            raise ConfigurationError(f"count must be >= 1, got {self.count}")
        if self.action == "delay" and float(self.delay) <= 0:
            raise ConfigurationError(
                f"delay rules need delay > 0 seconds, got {self.delay}"
            )
        if self.action == "raise" and self.exception not in _RAISABLE:
            raise ConfigurationError(
                f"unraisable exception {self.exception!r}; "
                f"known: {sorted(_RAISABLE)}"
            )
        self.after = int(self.after)
        self.count = int(self.count)
        self.delay = float(self.delay)

    def fires_on(self, hit: int) -> bool:
        """Whether this rule fires on the ``hit``-th (1-based) site hit."""
        return self.after < hit <= self.after + self.count

    def to_dict(self) -> dict:
        return {
            "site": self.site,
            "action": self.action,
            "after": self.after,
            "count": self.count,
            "delay": self.delay,
            "exception": self.exception,
            "message": self.message,
        }


@dataclass
class FaultPlan:
    """A seeded set of fault rules plus (optionally) shared hit state.

    Parameters
    ----------
    rules:
        The :class:`FaultRule` list (dicts are accepted and coerced).
    seed:
        Drives the deterministic choice of which byte a ``corrupt``
        action flips — same seed, same corruption, every run.
    state_dir:
        Directory for cross-process hit counters and the fired-fault
        journal. ``None`` keeps counters in this process's memory —
        fine for single-process tests, wrong for plans whose sites are
        hit from several processes (a respawned worker would restart
        the count and re-trigger "first hit" rules forever).
    """

    rules: List[FaultRule] = field(default_factory=list)
    seed: int = 0
    state_dir: Optional[Union[str, Path]] = None

    def __post_init__(self) -> None:
        self.rules = [
            rule if isinstance(rule, FaultRule) else FaultRule(**rule)
            for rule in self.rules
        ]
        self.seed = int(self.seed)
        if self.state_dir is not None:
            self.state_dir = Path(self.state_dir)
            self.state_dir.mkdir(parents=True, exist_ok=True)
        self._local_hits: Dict[str, int] = {}
        self._by_site: Dict[str, List[FaultRule]] = {}
        for rule in self.rules:
            self._by_site.setdefault(rule.site, []).append(rule)

    # ---------------------------------------------------------- serialization
    def to_json(self) -> str:
        return json.dumps(
            {
                "seed": self.seed,
                "state_dir": None if self.state_dir is None else str(self.state_dir),
                "rules": [rule.to_dict() for rule in self.rules],
            }
        )

    @classmethod
    def from_json(cls, raw: str) -> "FaultPlan":
        data = json.loads(raw)
        return cls(
            rules=data.get("rules", []),
            seed=data.get("seed", 0),
            state_dir=data.get("state_dir"),
        )

    # -------------------------------------------------------------- counting
    def _next_hit(self, site: str) -> int:
        """Increment and return the site's (1-based) hit count.

        With a ``state_dir`` the count is global across processes: the
        counter file is read-modify-written under an exclusive
        ``flock``, so concurrent hits from different processes each get
        a distinct number.
        """
        if self.state_dir is None:
            hit = self._local_hits.get(site, 0) + 1
            self._local_hits[site] = hit
            return hit
        path = self.state_dir / f"{site}.hits"
        fd = os.open(path, os.O_RDWR | os.O_CREAT, 0o644)
        try:
            fcntl.flock(fd, fcntl.LOCK_EX)
            raw = os.read(fd, 64).strip()
            hit = (int(raw) if raw else 0) + 1
            # One fixed-width write and no truncate: a process SIGKILLed
            # here (a ``kill`` rule firing on another of its threads)
            # leaves the old count or the new one, never an empty file
            # that would restart the count and re-fire every rule.
            os.pwrite(fd, b"%20d" % hit, 0)
        finally:
            os.close(fd)  # releases the lock
        return hit

    def hits(self, site: str) -> int:
        """The site's current hit count (without incrementing)."""
        if self.state_dir is None:
            return self._local_hits.get(site, 0)
        path = self.state_dir / f"{site}.hits"
        try:
            raw = path.read_text().strip()
        except FileNotFoundError:
            return 0
        return int(raw) if raw else 0

    def _journal(self, site: str, hit: int, action: str) -> None:
        if self.state_dir is None:
            return
        line = json.dumps(
            {
                "site": site,
                "hit": hit,
                "action": action,
                "pid": os.getpid(),
                "t": time.time(),
            }
        )
        fd = os.open(self.state_dir / "fired.jsonl", os.O_WRONLY | os.O_CREAT | os.O_APPEND, 0o644)
        try:
            fcntl.flock(fd, fcntl.LOCK_EX)
            os.write(fd, (line + "\n").encode())
        finally:
            os.close(fd)

    def fired(self) -> List[dict]:
        """Every journaled fault firing (needs a ``state_dir``)."""
        if self.state_dir is None:
            return []
        path = self.state_dir / "fired.jsonl"
        if not path.is_file():
            return []
        out = []
        for line in path.read_text().splitlines():
            line = line.strip()
            if not line:
                continue
            try:
                out.append(json.loads(line))
            except json.JSONDecodeError:  # torn final line from a kill
                break
        return out

    # --------------------------------------------------------------- firing
    def visit(self, site: str, *, path: Optional[str] = None) -> None:
        """Count one hit of ``site`` and fire any matching rules."""
        rules = self._by_site.get(site)
        if not rules:
            return
        hit = self._next_hit(site)
        for rule in rules:
            if rule.fires_on(hit):
                self._fire(rule, site, hit, path)

    def _fire(self, rule: FaultRule, site: str, hit: int, path: Optional[str]) -> None:
        self._journal(site, hit, rule.action)
        # A firing is the single most useful thing to see on a request
        # trace during a chaos run: the span carries which site fired,
        # which action, and on which hit. No-op when telemetry is off.
        _telemetry.annotate("fault", f"{site}#{hit}:{rule.action}")
        if rule.action == "delay":
            time.sleep(rule.delay)
            return
        if rule.action == "kill":
            os.kill(os.getpid(), signal.SIGKILL)
            return  # pragma: no cover - unreachable
        if rule.action == "corrupt":
            if path is None:
                raise InjectedFaultError(
                    f"corrupt rule fired at {site!r} which carries no file path"
                )
            self._corrupt_file(Path(path), site, hit)
            return
        message = rule.message or f"injected fault at {site!r} (hit {hit})"
        raise _RAISABLE[rule.exception](message)

    def _corrupt_file(self, path: Path, site: str, hit: int) -> None:
        """Flip one seed-determined byte of ``path`` in place.

        The offset derives from (seed, site, hit) through sha256 — not
        ``hash()``, whose string hashing is randomized per process — so
        the same plan corrupts the same byte on every run.
        """
        try:
            size = path.stat().st_size
        except OSError as exc:
            raise InjectedFaultError(
                f"corrupt rule at {site!r}: cannot stat {path}: {exc}"
            ) from exc
        if size == 0:
            return
        digest = hashlib.sha256(f"{self.seed}:{site}:{hit}".encode()).digest()
        offset = int.from_bytes(digest[:8], "big") % size
        with open(path, "r+b") as fh:
            fh.seek(offset)
            byte = fh.read(1)
            fh.seek(offset)
            fh.write(bytes([byte[0] ^ 0xFF]))
            fh.flush()
            os.fsync(fh.fileno())

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"FaultPlan(rules={len(self.rules)}, seed={self.seed}, "
            f"state_dir={str(self.state_dir) if self.state_dir else None})"
        )


# ---------------------------------------------------------------------------
# Module-level arming. The fast path of fault_point when nothing is armed
# is two global reads — it sits on per-request and per-task code paths.
# ---------------------------------------------------------------------------

_PLAN: Optional[FaultPlan] = None
# True while the environment may hold a plan this process has not loaded
# yet (set at import for children, and by arm(propagate=True)).
_ENV_PENDING = PLAN_ENV in os.environ


def arm(plan: FaultPlan, *, propagate: bool = False) -> FaultPlan:
    """Install ``plan`` as this process's active fault plan.

    With ``propagate`` the plan is also exported via ``REPRO_FAULT_PLAN``
    so child processes — forked *or* spawned after this call — arm the
    same plan on their first :func:`fault_point`. Cross-process hit
    determinism additionally needs the plan to carry a ``state_dir``.
    """
    global _PLAN, _ENV_PENDING
    if propagate:
        os.environ[PLAN_ENV] = plan.to_json()
        _ENV_PENDING = True
    _PLAN = plan
    return plan


def disarm() -> None:
    """Remove the active plan (and its environment export), idempotently."""
    global _PLAN, _ENV_PENDING
    _PLAN = None
    _ENV_PENDING = False
    os.environ.pop(PLAN_ENV, None)


def active_plan() -> Optional[FaultPlan]:
    """The currently armed plan, if any (without env lazy-loading)."""
    return _PLAN


def fault_point(site: str, *, path: Optional[str] = None) -> None:
    """Declare a named injection site; a no-op unless a plan is armed.

    ``path`` names the file a ``corrupt`` rule at this site would
    damage — pass it at sites that are about to read payload from disk.
    """
    global _PLAN, _ENV_PENDING
    plan = _PLAN
    if plan is None:
        if not _ENV_PENDING:
            return
        _ENV_PENDING = False
        raw = os.environ.get(PLAN_ENV)
        if not raw:
            return
        plan = _PLAN = FaultPlan.from_json(raw)
    plan.visit(site, path=path)
