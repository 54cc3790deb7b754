"""Per-job event logs: the durable feed behind live run watching.

The experiment service streams a run's life over SSE — progress updates
as units finish, round-level tracer metric snapshots while they compute
— and an SSE stream must survive reconnects: a client that comes back
with ``Last-Event-ID: 17`` expects event 18 next, no duplicates, no
gaps.  That contract needs a durable, ordered record of what was already
emitted, which is exactly what a :class:`JobEventLog` is: one
append-only JSONL file per job under ``root/events/``, each line a
``{"id", "event", "data"}`` record with ids dense and increasing from 1.

Writers are the job runners (:mod:`repro.store.jobs`) — whichever
process they live in, a worker loop or an orchestrator pool child —
appending through the same line-atomic ``O_APPEND`` primitive as the
store journal, so a line is torn at worst at a record boundary and
readers simply skip a trailing partial line.  Readers are the service's
SSE handlers, polling :meth:`JobEventLog.read` with the last id they
delivered.

Ids are assigned by counting: a writer's first append for a job counts
the lines already on disk and continues from there.  Exactly one runner
holds a job's lease at a time (the scheduler's claim discipline), so
concurrent writers on one job's log don't happen in healthy operation;
a retried job appends after its predecessor's events with strictly
larger ids, which is what lets a watcher of the first attempt resume
into the second.
"""

from __future__ import annotations

import json
import os
from typing import Any, Dict, List, Optional, Union

from repro.store.atomic import MadeDirs, append_line

#: Subdirectory of a store root holding the per-job event files.
EVENTS_DIR = "events"

#: Hard per-job cap a well-behaved writer should respect (the scenario
#: runner's round-level trace feed checks it): beyond this, appends are
#: dropped rather than letting one chatty job grow without bound.
MAX_EVENTS_PER_JOB = 10_000


class JobEventLog:
    """An append-only, resumable event feed per job id."""

    def __init__(self, root: Union[str, os.PathLike]):
        self.root = os.fspath(root)
        self._next: Dict[str, int] = {}
        self._dirs = MadeDirs()

    @property
    def events_dir(self) -> str:
        return os.path.join(self.root, EVENTS_DIR)

    def path(self, job_id: str) -> str:
        return os.path.join(self.events_dir, f"{job_id}.jsonl")

    # -- writing -------------------------------------------------------- #

    def _count(self, job_id: str) -> int:
        """Events already on disk (torn trailing line excluded)."""
        try:
            with open(self.path(job_id), "rb") as fh:
                data = fh.read()
        except OSError:
            return 0
        return data.count(b"\n")

    def append(self, job_id: str, event: str, data: Dict[str, Any]) -> Optional[int]:
        """Append one event; returns its id (1-based), or ``None`` when
        the per-job cap was reached and the event was dropped."""
        next_id = self._next.get(job_id)
        if next_id is None:
            next_id = self._count(job_id) + 1
        if next_id > MAX_EVENTS_PER_JOB:
            self._next[job_id] = next_id
            return None
        line = json.dumps({"id": next_id, "event": event, "data": data}, sort_keys=True)
        self._dirs.write(self.events_dir, lambda: append_line(self.path(job_id), line))
        self._next[job_id] = next_id + 1
        return next_id

    # -- reading -------------------------------------------------------- #

    def read(self, job_id: str, after: int = 0) -> List[Dict[str, Any]]:
        """Every event with id greater than ``after``, in id order.

        Torn or undecodable lines are skipped (a reader polling a live
        log may see a partial final line — the next poll gets it whole).
        """
        try:
            with open(self.path(job_id), "r", encoding="utf-8") as fh:
                text = fh.read()
        except OSError:
            return []
        events: List[Dict[str, Any]] = []
        for line in text.splitlines():
            try:
                record = json.loads(line)
            except json.JSONDecodeError:
                continue
            if not isinstance(record, dict) or not isinstance(record.get("id"), int):
                continue
            if record["id"] > after:
                events.append(record)
        events.sort(key=lambda r: r["id"])
        return events

    def last_id(self, job_id: str) -> int:
        """The id of the newest event on disk (0 when the log is empty)."""
        events = self.read(job_id)
        return events[-1]["id"] if events else 0

    def __repr__(self) -> str:
        return f"JobEventLog({self.root!r})"
