"""A crash-safe, disk-backed job scheduler over lock-file leases.

The queue is a directory: one JSON record per job under ``jobs/``, one
lease file per *running* job under ``leases/``.  No daemon, no socket,
no database — any number of worker processes sharing the filesystem
cooperate through two primitives:

* **Atomic job records.**  Job state transitions rewrite the record via
  :func:`~repro.store.atomic.atomic_write_text`, so a record is always a
  complete JSON document in exactly one state.
* **Exclusive lease files.**  Claiming a job creates
  ``leases/<job_id>.lock`` with ``O_CREAT | O_EXCL`` — the POSIX
  test-and-set.  The holder refreshes the lease's heartbeat field
  periodically; a lease whose heartbeat is older than ``lease_ttl``
  seconds belongs to a dead worker (``kill -9`` leaves exactly this
  residue) and is broken by the next claimant, which re-runs the job.
  Breaking a stale lease is serialised: the breaker judges staleness
  and unlinks the corpse under an exclusive ``flock`` on the queue's
  lease mutex (``leases.flock``, beside ``leases/``), which every lease
  creation takes too.  Two workers racing on the same corpse resolve to
  one owner, never two, and a fresh lease is never moved or removed
  while it is judged — its holder's heartbeat always finds it in place.

Claiming is incremental, not a full rescan: one directory listing per
claim pass (names only — records are read lazily, not re-``stat``-ed en
masse), job ids already observed ``done`` are skipped without touching
disk again, and a rotating cursor resumes each pass where the previous
one stopped so concurrent workers fan out across the queue instead of
herding on the lexicographically first job.

Failure policy: a job that raises is requeued with capped exponential
backoff (``retry_base * 2^(attempts-1)``, capped at ``retry_cap``) until
``max_attempts`` is exhausted, then parked as ``failed`` with the error
recorded.  Because the runners persist every finished cell into the
:class:`~repro.store.cache.ResultStore` as they go, a re-run — whether
after a crash or a retry — resumes from the last completed unit instead
of starting over.

Job identity is content-addressed (SHA-256 of kind + canonical params),
so resubmitting the same work is idempotent: you get the same job id and
at most one execution of each cell, ever.

Timing knobs come from the environment via the shared
:mod:`repro.envflags` parser: ``REPRO_LEASE_STALE_SECONDS=...`` sets the
default lease TTL (how long a silent lease stays credible) and
``REPRO_HEARTBEAT_SECONDS=...`` the default heartbeat interval the
orchestrator refreshes in-flight leases at; invalid or absurd values
fall back to the documented defaults.
"""

from __future__ import annotations

import bisect
import contextlib
import fcntl
import hashlib
import json
import os
import socket
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Set, Union

from repro.envflags import env_float
from repro.store.atomic import MadeDirs, atomic_write_text, sweep_temp_files
from repro.store.cache import canonical_params

#: Job lifecycle states, in the order they normally occur.
QUEUED, RUNNING, DONE, FAILED = "queued", "running", "done", "failed"
_STATES = (QUEUED, RUNNING, DONE, FAILED)

#: Environment variables configuring the scheduler's two clocks.
HEARTBEAT_ENV = "REPRO_HEARTBEAT_SECONDS"
LEASE_STALE_ENV = "REPRO_LEASE_STALE_SECONDS"

#: Documented defaults behind the environment knobs.
DEFAULT_HEARTBEAT_SECONDS = 5.0
DEFAULT_LEASE_TTL = 30.0


def default_heartbeat_seconds() -> float:
    """How often lease holders should refresh their heartbeat, from
    ``REPRO_HEARTBEAT_SECONDS=...`` (validated; floor 0.05 s)."""
    return env_float(HEARTBEAT_ENV, DEFAULT_HEARTBEAT_SECONDS, minimum=0.05)


def default_lease_ttl() -> float:
    """How long a silent lease stays credible before takeover, from
    ``REPRO_LEASE_STALE_SECONDS=...`` (validated; floor 0.1 s)."""
    return env_float(LEASE_STALE_ENV, DEFAULT_LEASE_TTL, minimum=0.1)


def job_id_for(kind: str, params: Dict[str, Any]) -> str:
    """Deterministic job identity: same work → same id (idempotent submit)."""
    payload = kind + "\x1f" + canonical_params(params)
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:16]


@dataclass
class JobRecord:
    """One unit of schedulable work and its durable lifecycle state."""

    id: str
    kind: str
    params: Dict[str, Any]
    status: str = QUEUED
    attempts: int = 0
    max_attempts: int = 3
    not_before: float = 0.0
    error: Optional[str] = None
    result_key: Optional[str] = None
    progress: Dict[str, Any] = field(default_factory=dict)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "id": self.id,
            "kind": self.kind,
            "params": self.params,
            "status": self.status,
            "attempts": self.attempts,
            "max_attempts": self.max_attempts,
            "not_before": self.not_before,
            "error": self.error,
            "result_key": self.result_key,
            "progress": self.progress,
        }

    @classmethod
    def from_dict(cls, d: Dict[str, Any]) -> "JobRecord":
        if d.get("status") not in _STATES:
            raise ValueError(f"job record has unknown status {d.get('status')!r}")
        return cls(
            id=d["id"],
            kind=d["kind"],
            params=dict(d.get("params") or {}),
            status=d["status"],
            attempts=int(d.get("attempts", 0)),
            max_attempts=int(d.get("max_attempts", 3)),
            not_before=float(d.get("not_before", 0.0)),
            error=d.get("error"),
            result_key=d.get("result_key"),
            progress=dict(d.get("progress") or {}),
        )


class LeaseBroken(RuntimeError):
    """Raised on heartbeat/complete when the caller no longer holds the
    lease (another worker broke it after the TTL lapsed)."""


class JobQueue:
    """The disk-backed queue: submit, claim, heartbeat, complete, retry."""

    def __init__(
        self,
        root: Union[str, os.PathLike],
        lease_ttl: Optional[float] = None,
        retry_base: float = 1.0,
        retry_cap: float = 60.0,
        owner: Optional[str] = None,
    ):
        self.root = os.fspath(root)
        self.lease_ttl = float(lease_ttl) if lease_ttl is not None else default_lease_ttl()
        self.retry_base = float(retry_base)
        self.retry_cap = float(retry_cap)
        self._owner = owner or f"{socket.gethostname()}:{os.getpid()}"
        # Claim-pass bookkeeping: ids observed DONE are never re-read
        # (a done record is immutable), and the cursor rotates each pass
        # so concurrent claimants spread over the queue.  FAILED ids are
        # *not* cached — a failed job can be revived at any time.
        self._seen_done: Set[str] = set()
        self._cursor: Optional[str] = None
        self._dirs = MadeDirs()
        self.counters: Dict[str, int] = {
            "claims": 0,
            "takeovers": 0,
            "lease_conflicts": 0,
            "listings": 0,
            "records_read": 0,
            "done_skips": 0,
        }

    # -- layout --------------------------------------------------------- #

    @property
    def jobs_dir(self) -> str:
        return os.path.join(self.root, "jobs")

    @property
    def leases_dir(self) -> str:
        return os.path.join(self.root, "leases")

    def job_path(self, job_id: str) -> str:
        return os.path.join(self.jobs_dir, f"{job_id}.json")

    def lease_path(self, job_id: str) -> str:
        return os.path.join(self.leases_dir, f"{job_id}.lock")

    @property
    def lease_mutex_path(self) -> str:
        return os.path.join(self.root, "leases.flock")

    def _write(self, record: JobRecord) -> None:
        # Any state transition written through this instance invalidates
        # its done-cache for the id (e.g. a done job forced back to
        # queued must become claimable again).
        self._seen_done.discard(record.id)
        path = self.job_path(record.id)
        text = json.dumps(record.to_dict(), sort_keys=True, indent=1)
        self._dirs.write(self.jobs_dir, lambda: atomic_write_text(path, text))

    def _read(self, job_id: str) -> Optional[JobRecord]:
        self.counters["records_read"] += 1
        try:
            with open(self.job_path(job_id), "r", encoding="utf-8") as fh:
                return JobRecord.from_dict(json.load(fh))
        except (OSError, json.JSONDecodeError, ValueError, KeyError):
            return None

    # -- submit --------------------------------------------------------- #

    def submit(self, kind: str, params: Dict[str, Any], max_attempts: int = 3) -> JobRecord:
        """Enqueue work; idempotent on ``(kind, params)``.

        A finished or in-flight duplicate is returned as-is; a previously
        *failed* duplicate is revived with a fresh attempt budget.
        """
        job_id = job_id_for(kind, params)
        existing = self._read(job_id)
        if existing is not None:
            if existing.status != FAILED:
                return existing
            existing.status = QUEUED
            existing.attempts = 0
            existing.not_before = 0.0
            existing.error = None
            self._write(existing)
            return existing
        record = JobRecord(id=job_id, kind=kind, params=dict(params), max_attempts=max_attempts)
        self._write(record)
        return record

    def revive(self, job_id: Optional[str] = None) -> int:
        """Requeue FAILED job(s) with a fresh attempt budget.

        With ``job_id`` revives that job; without, every failed job.
        Returns the number of jobs revived.
        """
        if job_id is not None:
            targets = [job_id]
        else:
            targets = [r.id for r in self.jobs() if r.status == FAILED]
        revived = 0
        for target in targets:
            record = self._read(target)
            if record is None or record.status != FAILED:
                continue
            record.status = QUEUED
            record.attempts = 0
            record.not_before = 0.0
            record.error = None
            self._write(record)
            revived += 1
        return revived

    # -- leases --------------------------------------------------------- #

    @contextlib.contextmanager
    def _lease_mutex(self):
        """Hold the queue's lease mutex: an exclusive ``flock`` on
        :attr:`lease_mutex_path`.  Lease creation and lease breaking take
        it; heartbeats and releases do not (they only touch a lease the
        caller holds).  The lock dies with its descriptor, so a worker
        killed inside never wedges the queue."""
        fd = self._dirs.write(
            self.root,
            lambda: os.open(self.lease_mutex_path, os.O_RDWR | os.O_CREAT, 0o644),
        )
        try:
            fcntl.flock(fd, fcntl.LOCK_EX)
            yield
        finally:
            os.close(fd)

    def _try_acquire_lease(self, job_id: str) -> bool:
        path = self.lease_path(job_id)
        payload = json.dumps(
            {"owner": self._owner, "heartbeat": time.time()}, sort_keys=True
        )
        with self._lease_mutex():
            try:
                fd = self._dirs.write(
                    self.leases_dir,
                    lambda: os.open(path, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o644),
                )
            except FileExistsError:
                return False
            try:
                os.write(fd, payload.encode("utf-8"))
            finally:
                os.close(fd)
        return True

    @staticmethod
    def _read_lease_file(path: str) -> Optional[Dict[str, Any]]:
        try:
            with open(path, "r", encoding="utf-8") as fh:
                return json.load(fh)
        except (OSError, json.JSONDecodeError, UnicodeDecodeError):
            return None

    def _lease_info(self, job_id: str) -> Optional[Dict[str, Any]]:
        return self._read_lease_file(self.lease_path(job_id))

    def _stale_file(self, path: str) -> bool:
        info = self._read_lease_file(path)
        if info is None:
            # Unreadable lease: age it by file mtime; missing file = stale.
            try:
                mtime = os.path.getmtime(path)
            except OSError:
                return True
            return time.time() - mtime > self.lease_ttl
        return time.time() - float(info.get("heartbeat", 0.0)) > self.lease_ttl

    def _lease_stale(self, job_id: str) -> bool:
        return self._stale_file(self.lease_path(job_id))

    def _break_lease(self, job_id: str) -> bool:
        """Retire a stale lease; ``True`` only for the caller that did.

        The caller judged the lease stale *before* getting here, and a
        rival may have taken the job over since.  So the lease is judged
        again and unlinked under the lease mutex, where no other breaker
        and no lease creation can interleave: a fresh lease stays in
        place (its holder's heartbeat never sees the path missing), and
        of two workers spotting the same corpse only the first unlinks
        it — the second finds the path gone, or a fresh lease on it, and
        backs off.
        """
        path = self.lease_path(job_id)
        with self._lease_mutex():
            if not self._stale_file(path):
                return False
            try:
                os.unlink(path)
            except OSError:
                return False  # already gone: another breaker won
        return True

    def _release_lease(self, job_id: str) -> None:
        try:
            os.unlink(self.lease_path(job_id))
        except OSError:
            pass

    def lease_info(self, job_id: str) -> Optional[Dict[str, Any]]:
        """The public read of a job's lease: the ``{"owner", "heartbeat"}``
        record of whoever currently holds it, or ``None`` when the job is
        not leased (queued, finished, or between claims).  The experiment
        service's status endpoint reads liveness through here instead of
        poking at lease files."""
        return self._lease_info(job_id)

    def heartbeat_age(self, job_id: str) -> Optional[float]:
        """Seconds since the lease holder last heartbeat, or ``None``
        when the job is not leased.  An age beyond ``lease_ttl`` means
        the holder is presumed dead and the next claimant will take the
        job over."""
        info = self.lease_info(job_id)
        if info is None:
            return None
        return max(0.0, time.time() - float(info.get("heartbeat", 0.0)))

    def heartbeat(self, job_id: str) -> None:
        """Refresh the lease; raises :class:`LeaseBroken` if this worker
        no longer holds it (the job was handed to someone else).

        One atomic, fsynced rewrite of the lease file.  Holders call it
        once per :func:`default_heartbeat_seconds`, not once per unit of
        work: the runners' progress writer and the orchestrator's
        heartbeat task both pace it on that interval."""
        info = self._lease_info(job_id)
        if info is None or info.get("owner") != self._owner:
            raise LeaseBroken(f"lease on {job_id} is not held by {self._owner}")
        atomic_write_text(
            self.lease_path(job_id),
            json.dumps({"owner": self._owner, "heartbeat": time.time()}, sort_keys=True),
        )

    # -- claim ---------------------------------------------------------- #

    def _candidate_ids(self) -> List[str]:
        """One directory listing's worth of claim candidates: names only,
        known-done ids dropped without disk access, rotated to start just
        past the cursor so successive passes (and concurrent workers)
        walk different stretches of the queue."""
        self.counters["listings"] += 1
        try:
            names = sorted(
                name[: -len(".json")]
                for name in os.listdir(self.jobs_dir)
                if name.endswith(".json")
            )
        except OSError:
            return []
        if self._seen_done:
            kept = [name for name in names if name not in self._seen_done]
            self.counters["done_skips"] += len(names) - len(kept)
            names = kept
        if self._cursor is not None and names:
            pivot = bisect.bisect_right(names, self._cursor)
            names = names[pivot:] + names[:pivot]
        return names

    def _claim_queued(self, job_id: str, now: float) -> Optional[JobRecord]:
        if not self._try_acquire_lease(job_id):
            # A queued record with a lease is either a rival claim in
            # flight (fresh lease — back off) or the residue of a worker
            # that died between acquiring the lease and writing the
            # running record.  That residue would wedge the job forever,
            # since stale-lease takeover only inspects *running*
            # records: break the corpse and take its place.
            if not self._lease_stale(job_id) or not self._break_lease(job_id):
                self.counters["lease_conflicts"] += 1
                return None
            if not self._try_acquire_lease(job_id):
                self.counters["lease_conflicts"] += 1
                return None
            self.counters["takeovers"] += 1
        fresh = self._read(job_id)  # re-read under the lease
        if fresh is None or fresh.status != QUEUED or fresh.not_before > now:
            self._release_lease(job_id)
            return None
        fresh.status = RUNNING
        self._write(fresh)
        self.counters["claims"] += 1
        return fresh

    def _claim_stale(self, job_id: str) -> Optional[JobRecord]:
        if os.path.exists(self.lease_path(job_id)):
            if not self._break_lease(job_id):
                # Another worker broke it first, or already holds a
                # fresh lease in its place.
                self.counters["lease_conflicts"] += 1
                return None
        if not self._try_acquire_lease(job_id):
            self.counters["lease_conflicts"] += 1
            return None
        fresh = self._read(job_id)
        if fresh is None or fresh.status != RUNNING:
            self._release_lease(job_id)
            return None
        fresh.attempts += 1
        self.counters["takeovers"] += 1
        if fresh.attempts >= fresh.max_attempts:
            fresh.status = FAILED
            fresh.error = "worker died (lease expired) and retries exhausted"
            self._write(fresh)
            self._release_lease(fresh.id)
            return None
        self._write(fresh)
        self.counters["claims"] += 1
        return fresh

    def claim_batch(self, limit: int = 1) -> List[JobRecord]:
        """Take up to ``limit`` runnable jobs from one listing pass.

        Runnable means: ``queued`` with its backoff window expired, or
        ``running`` under a lease whose holder stopped heartbeating for
        longer than ``lease_ttl`` (a crashed worker — the claim breaks
        the dead lease and re-runs the job).  Amortizing one listing
        over a whole batch is what the orchestrator's dispatch window
        leans on: at 10k queued jobs the listing, not the lease work,
        is the dominant cost of a single claim.
        """
        claimed: List[JobRecord] = []
        if limit <= 0:
            return claimed
        now = time.time()
        for job_id in self._candidate_ids():
            self._cursor = job_id
            record = self._read(job_id)
            if record is None:
                continue  # torn or vanished record: never fatal
            if record.status == DONE:
                self._seen_done.add(job_id)
                continue
            if record.status == QUEUED and record.not_before <= now:
                taken = self._claim_queued(job_id, now)
            elif record.status == RUNNING and self._lease_stale(job_id):
                taken = self._claim_stale(job_id)
            else:
                continue
            if taken is not None:
                claimed.append(taken)
                if len(claimed) >= limit:
                    break
        return claimed

    def claim(self) -> Optional[JobRecord]:
        """Take one runnable job, or ``None`` (see :meth:`claim_batch`)."""
        batch = self.claim_batch(1)
        return batch[0] if batch else None

    # -- outcomes ------------------------------------------------------- #

    def update_progress(self, job_id: str, progress: Dict[str, Any]) -> None:
        record = self._read(job_id)
        if record is None:
            return
        record.progress.update(progress)
        self._write(record)

    def complete(self, job_id: str, result_key: Optional[str] = None) -> None:
        record = self._read(job_id)
        if record is None:
            raise LeaseBroken(f"job {job_id} vanished")
        record.status = DONE
        record.error = None
        record.result_key = result_key
        self._write(record)
        self._release_lease(job_id)

    def fail(self, job_id: str, error: str) -> JobRecord:
        """Record a failure: requeue with capped exponential backoff, or
        park as ``failed`` once the attempt budget is spent."""
        record = self._read(job_id)
        if record is None:
            raise LeaseBroken(f"job {job_id} vanished")
        record.attempts += 1
        record.error = error
        if record.attempts >= record.max_attempts:
            record.status = FAILED
        else:
            record.status = QUEUED
            backoff = min(self.retry_cap, self.retry_base * (2 ** (record.attempts - 1)))
            record.not_before = time.time() + backoff
        self._write(record)
        self._release_lease(job_id)
        return record

    # -- introspection and maintenance ---------------------------------- #

    def jobs(self) -> List[JobRecord]:
        """Every job record, sorted by id (stable across listings)."""
        if not os.path.isdir(self.jobs_dir):
            return []
        records = []
        for name in sorted(os.listdir(self.jobs_dir)):
            if name.endswith(".json"):
                record = self._read(name[: -len(".json")])
                if record is not None:
                    records.append(record)
        return records

    def get(self, job_id: str) -> Optional[JobRecord]:
        return self._read(job_id)

    def counts(self) -> Dict[str, int]:
        tally = {state: 0 for state in _STATES}
        for record in self.jobs():
            tally[record.status] += 1
        return tally

    def stats(self) -> Dict[str, int]:
        """Process-local claim-path counters (claims, takeovers, lease
        conflicts, listings, record reads, done-skips)."""
        return dict(self.counters)

    def gc(self, keep_terminal: Optional[float] = None) -> Dict[str, int]:
        """Break stale leases, drop leases of finished jobs, and sweep
        orphaned temp files; returns counts.

        ``keep_terminal`` (seconds) additionally prunes COMPLETED/FAILED
        job *records* whose file is older than the retention window —
        the queue-side mirror of :meth:`ResultStore.gc`.  ``None`` (the
        default) keeps every record; ``0`` prunes all terminal records.
        Result documents are untouched either way — they live in the
        store, keyed by content, not by job.
        """
        broken = 0
        if os.path.isdir(self.leases_dir):
            for name in sorted(os.listdir(self.leases_dir)):
                if not name.endswith(".lock"):
                    continue
                job_id = name[: -len(".lock")]
                record = self._read(job_id)
                if record is not None and record.status in (DONE, FAILED):
                    self._release_lease(job_id)
                    broken += 1
                elif self._lease_stale(job_id) and self._break_lease(job_id):
                    broken += 1
        pruned = 0
        if keep_terminal is not None and os.path.isdir(self.jobs_dir):
            horizon = time.time() - max(float(keep_terminal), 0.0)
            for name in sorted(os.listdir(self.jobs_dir)):
                if not name.endswith(".json"):
                    continue
                job_id = name[: -len(".json")]
                record = self._read(job_id)
                if record is None or record.status not in (DONE, FAILED):
                    continue
                path = self.job_path(job_id)
                try:
                    if os.path.getmtime(path) > horizon:
                        continue
                    os.unlink(path)
                except OSError:
                    continue
                self._release_lease(job_id)
                self._seen_done.discard(job_id)
                pruned += 1
        swept = len(sweep_temp_files(self.root)) if os.path.isdir(self.root) else 0
        return {"leases_broken": broken, "temp_files": swept, "jobs_pruned": pruned}
