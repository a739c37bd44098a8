"""Multi-host sweep sharding with work stealing over the result cache.

:mod:`repro.training.trials` fans trials out over local processes;
this module fans a sweep out over *hosts* that share nothing but the
:class:`~repro.training.trials.ResultCache` directory (NFS, a
synced scratch mount, anything with atomic rename).  Launch the same
``reproduce`` command on every host with a different ``--shard i/n``
and each host owns the trials whose position is congruent to ``i``
modulo ``n``; with ``--steal`` a host that finishes its own slice takes
over unfinished trials from the others instead of idling.

The protocol is deliberately *advisory*: every trial is deterministic
and cache writes are atomic and content-addressed, so two hosts racing
to run the same trial waste work but never corrupt anything.  Claims
exist purely to keep that waste rare:

* **Claim files** — ``<cache>/claims/<key>.claim`` created with
  ``O_CREAT | O_EXCL``, the one primitive that is atomic on every
  shared filesystem worth using.  Exactly one host wins the create;
  losers move on.
* **Heartbeat leases** — a claim is only as alive as its mtime.  The
  claiming host re-stamps its active claims every ``ttl / 4`` seconds
  from a background thread; a claim older than ``ttl`` marks a dead or
  wedged sharder and is up for (re-)stealing via ``os.replace`` — last
  writer wins, which is exactly the at-least-once semantics the
  deterministic cache makes safe.
* **Assembly** — after running everything it could claim, a shard
  polls the cache for the trials other shards own, re-stealing any
  whose claim goes stale, so one dead host delays the sweep by at most
  a lease instead of hanging it.
"""

from __future__ import annotations

import os
import socket
import tempfile
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence

from repro.errors import ConfigError
from repro.training.trials import (
    ResultCache,
    TrialSpec,
    execute_trial,
    trial_key,
)

__all__ = [
    "ShardSpec",
    "ClaimBoard",
    "run_trials_sharded",
]


@dataclass(frozen=True)
class ShardSpec:
    """This host's slice of a sweep: shard ``index`` of ``total``."""

    index: int
    total: int

    def __post_init__(self) -> None:
        if self.total < 1:
            raise ConfigError(f"shard total must be >= 1, got {self.total}")
        if not 0 <= self.index < self.total:
            raise ConfigError(
                f"shard index must be in [0, {self.total}), got {self.index}"
            )

    @classmethod
    def parse(cls, text: str) -> "ShardSpec":
        """Parse the CLI form ``i/n`` (e.g. ``0/4``)."""
        try:
            index_text, total_text = text.split("/", 1)
            return cls(index=int(index_text), total=int(total_text))
        except ValueError as error:
            raise ConfigError(
                f"shard must look like i/n (e.g. 0/4), got {text!r}"
            ) from error

    def owns(self, position: int) -> bool:
        """Whether this shard owns the trial at ``position`` in the sweep."""
        return position % self.total == self.index

    def __str__(self) -> str:
        return f"{self.index}/{self.total}"


def default_owner(shard: ShardSpec) -> str:
    """Identity written into claim files: host, pid, shard."""
    return f"{socket.gethostname()}:{os.getpid()}:shard{shard.index}"


class ClaimBoard:
    """Advisory claims over trial keys, as files under the cache root.

    All methods tolerate concurrent use from multiple hosts; the only
    atomicity they rely on is ``O_EXCL`` create and ``os.replace``.
    """

    def __init__(self, root: Path) -> None:
        self.root = Path(root) / "claims"

    def _path(self, key: str) -> Path:
        return self.root / f"{key}.claim"

    def try_claim(self, key: str, owner: str) -> bool:
        """Atomically claim ``key``; False if someone already holds it."""
        self.root.mkdir(parents=True, exist_ok=True)
        try:
            fd = os.open(
                self._path(key), os.O_CREAT | os.O_EXCL | os.O_WRONLY
            )
        except FileExistsError:
            return False
        with os.fdopen(fd, "w") as handle:
            handle.write(owner)
        return True

    def steal(self, key: str, owner: str) -> bool:
        """Take over a stale claim (last writer wins); False if the
        claim vanished first (its holder finished and released)."""
        if not self._path(key).exists():
            return False
        fd, tmp = tempfile.mkstemp(dir=self.root, suffix=".steal")
        with os.fdopen(fd, "w") as handle:
            handle.write(owner)
        os.replace(tmp, self._path(key))
        return True

    def refresh(self, key: str) -> None:
        """Heartbeat: re-stamp the claim's mtime to now."""
        try:
            os.utime(self._path(key))
        except OSError:
            pass

    def release(self, key: str) -> None:
        """Drop a claim (missing is fine — it may have been stolen)."""
        try:
            os.unlink(self._path(key))
        except OSError:
            pass

    def age(self, key: str) -> Optional[float]:
        """Seconds since the claim's last heartbeat, or None if absent."""
        try:
            return time.time() - self._path(key).stat().st_mtime
        except OSError:
            return None

    def stale(self, key: str, ttl: float) -> bool:
        """Whether ``key`` has a claim whose lease has expired."""
        age = self.age(key)
        return age is not None and age > ttl


class _Heartbeat(threading.Thread):
    """Re-stamps the claims this process holds every ``interval``."""

    def __init__(self, board: ClaimBoard, interval: float) -> None:
        super().__init__(daemon=True, name="claim-heartbeat")
        self._board = board
        self._interval = interval
        self._keys: set = set()
        self._lock = threading.Lock()
        # Not ``_stop``: that name is a method on Thread itself, and
        # shadowing it with an Event breaks ``join()``.
        self._halt = threading.Event()

    def hold(self, key: str) -> None:
        with self._lock:
            self._keys.add(key)

    def drop(self, key: str) -> None:
        with self._lock:
            self._keys.discard(key)

    def run(self) -> None:
        while not self._halt.wait(self._interval):
            with self._lock:
                keys = list(self._keys)
            for key in keys:
                self._board.refresh(key)

    def stop(self) -> None:
        self._halt.set()


def _execute_claimed(
    spec: TrialSpec,
    key: str,
    cache: ResultCache,
    board: ClaimBoard,
    heartbeat: _Heartbeat,
) -> Dict[str, Any]:
    """Run one claimed trial, publish it, release the claim."""
    heartbeat.hold(key)
    try:
        return execute_trial(spec, cache=cache)
    finally:
        heartbeat.drop(key)
        board.release(key)


def _run_batch(
    specs: Sequence[TrialSpec],
    cache: ResultCache,
    workers: Optional[int],
) -> List[Dict[str, Any]]:
    """Execute a claimed batch, over the local pool when asked."""
    if workers is None or workers <= 1 or len(specs) <= 1:
        return [execute_trial(spec, cache=cache) for spec in specs]
    from concurrent.futures import ProcessPoolExecutor

    from repro.training.trials import _pool_worker

    jobs = [(spec, str(cache.root)) for spec in specs]
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(_pool_worker, jobs))


def run_trials_sharded(
    specs: Sequence[TrialSpec],
    shard: ShardSpec,
    cache: ResultCache,
    steal: bool = False,
    workers: Optional[int] = None,
    lease_ttl: float = 30.0,
    poll: float = 0.25,
    timeout: Optional[float] = 600.0,
    owner: Optional[str] = None,
) -> List[Dict[str, Any]]:
    """Run this shard's slice of ``specs`` (stealing the rest if asked)
    and return payloads for *all* of them, in input order.

    Every shard calls this with the identical spec list and gets the
    identical return value — sharding decides only *who computes what
    first*.  Trials the shard neither owns nor steals are awaited from
    the shared cache; a claim whose lease expires mid-wait is re-stolen
    (own trials always; foreign ones only with ``steal``), so a crashed
    host costs one ``lease_ttl``, not the sweep.

    ``timeout`` bounds the wait for results someone else is computing
    (None waits forever); exceeding it raises ``TimeoutError`` naming
    the missing trials.
    """
    if shard.total == 1 and not steal:
        # Degenerate single-shard sweep: no protocol needed.
        return _run_batch(specs, cache, workers)
    board = ClaimBoard(cache.root)
    who = owner if owner is not None else default_owner(shard)
    keys = [trial_key(spec) for spec in specs]
    # The same configuration can appear at several sweep positions
    # (shared reference points); dedupe so it runs at most once here.
    first_spec: Dict[str, TrialSpec] = {}
    first_pos: Dict[str, int] = {}
    owned: List[str] = []
    foreign: List[str] = []
    for position, (spec, key) in enumerate(zip(specs, keys)):
        if key in first_spec:
            continue
        first_spec[key] = spec
        first_pos[key] = position
        (owned if shard.owns(position) else foreign).append(key)
    # Steal in rotation order starting just past our own shard so
    # stealers spread over victims instead of dogpiling shard 0.
    if steal and shard.total > 1:
        foreign.sort(
            key=lambda k: (
                (first_pos[k] - shard.index) % shard.total,
                first_pos[k],
            )
        )
    done: Dict[str, Dict[str, Any]] = {}
    heartbeat = _Heartbeat(board, interval=max(lease_ttl / 4.0, 0.05))
    heartbeat.start()
    try:
        # Pass 1: our own slice.  A foreign claim on our own trial means
        # a stealer got there first — leave it unless the lease expired.
        # Claims are taken up front so the whole batch can fan out over
        # the local process pool while the heartbeat covers it.
        claimed: List[str] = []
        for key in owned:
            payload = cache.get(key)
            if payload is not None:
                done[key] = payload
            elif board.try_claim(key, who) or (
                board.stale(key, lease_ttl) and board.steal(key, who)
            ):
                claimed.append(key)
                heartbeat.hold(key)
        if claimed:
            try:
                payloads = _run_batch(
                    [first_spec[key] for key in claimed], cache, workers
                )
                for key, payload in zip(claimed, payloads):
                    done[key] = payload
            finally:
                for key in claimed:
                    heartbeat.drop(key)
                    board.release(key)
        # Pass 2: steal unclaimed/expired foreign work.
        if steal:
            for key in foreign:
                if key in done:
                    continue
                payload = cache.get(key)
                if payload is not None:
                    done[key] = payload
                elif board.try_claim(key, who) or (
                    board.stale(key, lease_ttl) and board.steal(key, who)
                ):
                    done[key] = _execute_claimed(
                        first_spec[key], key, cache, board, heartbeat
                    )
        # Pass 3: await the rest, re-stealing dead sharders' claims.
        deadline = None if timeout is None else time.monotonic() + timeout
        while True:
            missing = [key for key in first_spec if key not in done]
            for key in missing:
                payload = cache.get(key)
                if payload is not None:
                    done[key] = payload
                    continue
                recoverable = steal or key in owned
                if not recoverable:
                    continue
                if board.try_claim(key, who) or (
                    board.stale(key, lease_ttl) and board.steal(key, who)
                ):
                    done[key] = _execute_claimed(
                        first_spec[key], key, cache, board, heartbeat
                    )
            if all(key in done for key in first_spec):
                break
            if deadline is not None and time.monotonic() > deadline:
                still = [k[:12] for k in first_spec if k not in done]
                raise TimeoutError(
                    f"shard {shard}: timed out waiting for "
                    f"{len(still)} trial(s) from other shards: "
                    f"{', '.join(still)}"
                )
            time.sleep(poll)
    finally:
        heartbeat.stop()
    return [done[key] for key in keys]
