"""End-to-end tests of the durable runners: worker loop, CLI, kill -9."""

import json
import os
import signal
import subprocess
import sys
import time

import pytest

from repro.store.cache import ResultStore
from repro.store.jobs import (
    JOB_KINDS,
    document_key,
    expected_result_key,
    noop_document,
    open_queue,
    open_store,
    run_job,
    run_worker,
    table_document,
)
from repro.store.events import JobEventLog
from repro.store.scheduler import DONE, FAILED, QUEUED, RUNNING, JobQueue

REPO_SRC = os.path.join(os.path.dirname(__file__), "..", "..", "src")
CONFIGS = os.path.join(os.path.dirname(__file__), "..", "..", "configs")


def _env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.abspath(REPO_SRC)
    return env


def read_doc_bytes(store: ResultStore, key: str) -> bytes:
    with open(store.entry_path(key), "rb") as fh:
        return fh.read()


class TestRunWorker:
    def test_table_job_end_to_end(self, tmp_path):
        queue = open_queue(tmp_path)
        store = open_store(tmp_path)
        record = queue.submit("table1", {"n": 4, "seed": 0})
        assert run_worker(tmp_path, queue=queue, store=store) == 1
        finished = queue.get(record.id)
        assert finished.status == DONE
        assert finished.progress == {"units_done": 16, "units_total": 16}
        doc = store.get(finished.result_key)
        assert doc["kind"] == "table1"
        assert doc["summary"] == {"cells": 16, "consistent": 16, "verdict": "PASS"}
        assert finished.result_key == document_key("table1", {"n": 4, "seed": 0})

    def test_rerun_serves_cells_from_store(self, tmp_path):
        queue = open_queue(tmp_path)
        store = open_store(tmp_path)
        queue.submit("table1", {"n": 4, "seed": 0})
        run_worker(tmp_path, queue=queue, store=store)
        first_puts = store.puts
        # Same work, fresh job identity space: force a re-run by reviving.
        record = queue.submit("table1", {"n": 4, "seed": 0})
        job = queue.get(record.id)
        job.status = "queued"
        queue._write(job)
        run_worker(tmp_path, queue=queue, store=store)
        assert store.hits >= 16  # every cell came from disk
        assert store.puts == first_puts + 1  # only the document rewritten

    def test_sweep_job(self, tmp_path):
        queue = open_queue(tmp_path)
        store = open_store(tmp_path)
        params = {"specs": [[4, 3, 0, 12], [4, 3, 1, 12]]}
        record = queue.submit("sweep", params)
        assert run_worker(tmp_path, queue=queue, store=store) == 1
        doc = store.get(queue.get(record.id).result_key)
        assert doc["summary"] == {"checks": 2, "ok": 2, "verdict": "PASS"}

    def test_unknown_kind_fails_with_error(self, tmp_path):
        queue = open_queue(tmp_path)
        record = queue.submit("haruspicy", {}, max_attempts=1)
        run_worker(tmp_path, queue=queue, store=open_store(tmp_path))
        parked = queue.get(record.id)
        assert parked.status == FAILED
        assert "unknown job kind" in parked.error

    def test_failed_job_retries_until_budget(self, tmp_path):
        queue = JobQueue(os.path.join(tmp_path, "queue"), retry_base=0.0)
        record = queue.submit("haruspicy", {}, max_attempts=3)
        processed = run_worker(tmp_path, queue=queue, store=open_store(tmp_path))
        assert processed == 3  # claimed, failed, retried, retried, parked
        assert queue.get(record.id).status == FAILED
        assert queue.get(record.id).attempts == 3

    def test_table_document_is_pure(self):
        cells = [{"consistent": True}, {"consistent": False}]
        doc = table_document("table1", 4, 0, cells)
        assert doc["summary"]["verdict"] == "FAIL"
        assert table_document("table1", 4, 0, cells) == doc
        assert set(JOB_KINDS) == {
            "table1",
            "table2",
            "certificate",
            "sweep",
            "scenario",
            "noop",
        }

    def test_noop_job_end_to_end(self, tmp_path):
        queue = open_queue(tmp_path)
        store = open_store(tmp_path)
        record = queue.submit("noop", {"i": 3, "seed": 1})
        assert run_worker(tmp_path, queue=queue, store=store) == 1
        finished = queue.get(record.id)
        assert finished.status == DONE
        doc = store.get(finished.result_key)
        assert doc["kind"] == "noop"
        assert doc["summary"]["verdict"] == "PASS"
        assert doc == noop_document({"i": 3, "seed": 1})

    def test_noop_document_ignores_acceleration_flags(self):
        plain = noop_document({"i": 1})
        accelerated = noop_document({"i": 1, "quotient": True, "vector": True})
        assert plain == accelerated


class TestExpectedResultKey:
    """The orchestrator's dedup handle predicts each runner's store key."""

    def test_noop_key_matches_runner(self, tmp_path):
        queue = open_queue(tmp_path)
        store = open_store(tmp_path)
        record = queue.submit("noop", {"i": 7, "quotient": True})
        run_worker(tmp_path, queue=queue, store=store)
        assert queue.get(record.id).result_key == expected_result_key(
            "noop", {"i": 7, "quotient": True}
        )
        # The prediction strips acceleration flags, like the runner.
        assert expected_result_key("noop", {"i": 7}) == expected_result_key(
            "noop", {"i": 7, "vector": True}
        )

    def test_sweep_key_matches_runner(self, tmp_path):
        queue = open_queue(tmp_path)
        store = open_store(tmp_path)
        params = {"specs": [[4, 3, 0, 12]]}
        record = queue.submit("sweep", params)
        run_worker(tmp_path, queue=queue, store=store)
        assert queue.get(record.id).result_key == expected_result_key("sweep", params)

    def test_table_key_fills_runner_defaults(self):
        assert expected_result_key("table2", {}) == document_key(
            "table2", {"n": 5, "seed": 0}
        )
        assert expected_result_key("table1", {"seed": 2}) == document_key(
            "table1", {"n": 6, "seed": 2}
        )

    def test_unpredictable_kinds_return_none(self):
        assert expected_result_key("haruspicy", {}) is None
        assert expected_result_key("scenario", {"config": {"bogus": True}}) is None

    def test_invalid_params_return_none(self):
        assert expected_result_key("scenario", {}) is None
        assert expected_result_key("scenario", {"config": ["not", "a", "mapping"]}) is None
        assert expected_result_key("table1", {"n": "six"}) is None
        assert expected_result_key("certificate", {"seed": None}) is None

    def test_dedup_bugs_propagate(self, monkeypatch):
        """Only invalid params read as "no prediction"; a failure inside
        the dedup path itself must surface, not pose as a cache miss."""
        import repro.scenarios
        import repro.store.jobs as jobs

        def broken(*_args, **_kwargs):
            raise RuntimeError("dedup path bug")

        monkeypatch.setattr(repro.scenarios, "validate_scenario", broken)
        with pytest.raises(RuntimeError, match="dedup path bug"):
            expected_result_key("scenario", {"config": {}})
        monkeypatch.setattr(jobs, "document_key", broken)
        with pytest.raises(RuntimeError, match="dedup path bug"):
            expected_result_key("noop", {"i": 1})


class TestLeaseTakeoverRace:
    """Two workers spotting the same stale lease: exactly one wins, and
    the loser's attempt leaves the record uncorrupted."""

    def _stale_job(self, tmp_path, max_attempts=5):
        queue = JobQueue(os.path.join(tmp_path, "queue"), lease_ttl=0.05)
        record = queue.submit("noop", {"i": 0}, max_attempts=max_attempts)
        claimed = queue.claim()
        assert claimed is not None and claimed.id == record.id
        time.sleep(0.08)  # let the lease age past its TTL
        return record.id

    def test_orphaned_lease_on_queued_record_is_broken(self, tmp_path):
        """A worker dying between lease acquisition and the RUNNING
        write leaves a QUEUED record under a dead lease; claimants must
        break the corpse instead of skipping the job forever."""
        queue = JobQueue(os.path.join(tmp_path, "queue"), lease_ttl=0.05, owner="survivor")
        record = queue.submit("noop", {"i": 1})
        os.makedirs(queue.leases_dir, exist_ok=True)
        with open(queue.lease_path(record.id), "w", encoding="utf-8") as fh:
            json.dump({"owner": "corpse", "heartbeat": time.time()}, fh)
        # Fresh lease: looks like a rival claim in flight — back off.
        assert queue.claim() is None
        assert queue.stats()["lease_conflicts"] == 1
        time.sleep(0.08)  # the corpse never heartbeats; the lease goes stale
        taken = queue.claim()
        assert taken is not None and taken.id == record.id
        assert taken.status == RUNNING
        assert queue.stats()["takeovers"] == 1
        queue.heartbeat(record.id)  # the lease is ours now

    def test_concurrent_stale_claims_resolve_to_one_owner(self, tmp_path):
        import threading

        for rep in range(10):
            root = tmp_path / f"rep{rep}"
            job_id = self._stale_job(root)
            workers = [
                JobQueue(os.path.join(root, "queue"), lease_ttl=0.05, owner=f"w{k}")
                for k in range(2)
            ]
            barrier = threading.Barrier(2)
            results = [None, None]

            def contend(k):
                barrier.wait()
                results[k] = workers[k].claim()

            threads = [
                threading.Thread(target=contend, args=(k,)) for k in range(2)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join()

            winners = [r for r in results if r is not None]
            assert len(winners) == 1, f"rep {rep}: {len(winners)} workers won"
            assert winners[0].id == job_id
            # One takeover happened fleet-wide, and the loser recorded a
            # conflict instead of a second ownership.
            takeovers = sum(w.counters["takeovers"] for w in workers)
            assert takeovers == 1
            # The record survived the race intact: parsable, running,
            # exactly one attempt charged.
            record = workers[0].get(job_id)
            assert record is not None
            assert record.status == RUNNING
            assert record.attempts == 1
            # And the winner's lease is live: a third worker sees
            # nothing claimable.
            third = JobQueue(os.path.join(root, "queue"), lease_ttl=30.0, owner="w3")
            assert third.claim() is None

    def test_loser_cannot_break_fresh_lease(self, tmp_path):
        # A slow loser that decided to break the lease *before* the
        # winner re-acquired must not unseat the winner afterwards: the
        # rename-based break targets the old lease file, which is gone.
        job_id = self._stale_job(tmp_path)
        winner = JobQueue(os.path.join(tmp_path, "queue"), lease_ttl=0.05, owner="w0")
        loser = JobQueue(os.path.join(tmp_path, "queue"), lease_ttl=0.05, owner="w1")
        assert winner.claim() is not None
        # The loser saw the pre-takeover stale lease; by the time it
        # acts, the winner holds a fresh one.  _break_lease renames the
        # *current* path, so simulate the stalest possible loser: the
        # lease is fresh now, so _lease_stale says no and claim skips it.
        assert loser.claim() is None
        winner.heartbeat(job_id)  # the winner still owns the lease

    def test_holder_heartbeats_through_a_crowd_of_breakers(self, tmp_path):
        """Stress: more breaker threads than cores hammer a fresh lease
        while its holder heartbeats.  No breaker may retire it, and the
        holder may never find its lease missing."""
        import threading

        root = os.path.join(tmp_path, "queue")
        holder = JobQueue(root, lease_ttl=30.0, owner="holder")
        record = holder.submit("noop", {"i": 3})
        assert holder.claim() is not None
        breakers = [JobQueue(root, lease_ttl=30.0, owner=f"b{k}") for k in range(8)]
        stop = threading.Event()
        broken, errors = [], []

        def hammer(queue):
            while not stop.is_set():
                if queue._break_lease(record.id):
                    broken.append(queue._owner)

        def heartbeat():
            try:
                for _ in range(300):
                    holder.heartbeat(record.id)
            except Exception as exc:  # noqa: BLE001 - the failure under test
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=hammer, args=(q,)) for q in breakers]
            for t in threads:
                t.start()
            beat = threading.Thread(target=heartbeat)
            beat.start()
            beat.join(timeout=60)
            stop.set()
            for t in threads:
                t.join(timeout=10)
        finally:
            sys.setswitchinterval(interval)
        assert not beat.is_alive() and not any(t.is_alive() for t in threads)
        assert errors == [] and broken == []
        assert holder.lease_info(record.id)["owner"] == "holder"


class TestStaleJudgementInterleaving:
    """Deterministic interleavings of the takeover race: worker B judges
    a dead lease stale, then worker A takes the job over before B acts
    on that judgement.  B must not retire A's fresh lease."""

    def _dead_lease(self, tmp_path, status):
        root = os.path.join(tmp_path, "queue")
        queue = JobQueue(root, lease_ttl=30.0, owner="dead")
        record = queue.submit("noop", {"i": 2})
        if status == RUNNING:
            assert queue.claim() is not None
        os.makedirs(queue.leases_dir, exist_ok=True)
        with open(queue.lease_path(record.id), "w", encoding="utf-8") as fh:
            json.dump({"owner": "dead", "heartbeat": time.time() - 3600}, fh)
        return root, record.id

    @staticmethod
    def _interleave(judge, rival):
        """Wrap ``judge._lease_stale`` so ``rival`` claims right after
        the first check that returns True."""
        check = judge._lease_stale
        taken = []

        def stale_then_rival_claims(job_id):
            verdict = check(job_id)
            if verdict and not taken:
                taken.append(rival.claim())
            return verdict

        judge._lease_stale = stale_then_rival_claims
        return taken

    @pytest.mark.parametrize("status", [RUNNING, "queued"])
    def test_claim_after_rival_takeover_backs_off(self, tmp_path, status):
        root, job_id = self._dead_lease(tmp_path, status)
        a = JobQueue(root, lease_ttl=30.0, owner="a")
        b = JobQueue(root, lease_ttl=30.0, owner="b")
        taken = self._interleave(b, a)
        assert b.claim() is None
        assert taken and taken[0] is not None and taken[0].id == job_id
        a.heartbeat(job_id)  # A still holds its lease
        assert a.lease_info(job_id)["owner"] == "a"
        record = a.get(job_id)
        assert record.status == RUNNING
        assert record.attempts == (1 if status == RUNNING else 0)
        assert b.stats()["takeovers"] == 0
        assert not [n for n in os.listdir(a.leases_dir) if not n.endswith(".lock")]

    def test_gc_after_rival_takeover_keeps_the_fresh_lease(self, tmp_path):
        root, job_id = self._dead_lease(tmp_path, RUNNING)
        a = JobQueue(root, lease_ttl=30.0, owner="a")
        sweeper = JobQueue(root, lease_ttl=30.0, owner="gc")
        taken = self._interleave(sweeper, a)
        assert sweeper.gc()["leases_broken"] == 0
        assert taken and taken[0] is not None
        a.heartbeat(job_id)

    def test_holder_heartbeats_while_rival_judges_its_lease(self, tmp_path):
        """B judged the dead lease stale, A took the job over, and B now
        re-judges before breaking.  A heartbeat from A *during* that
        judgement must find A's lease in place — the path never goes
        missing while a fresh lease is judged."""
        root, job_id = self._dead_lease(tmp_path, RUNNING)
        a = JobQueue(root, lease_ttl=30.0, owner="a")
        b = JobQueue(root, lease_ttl=30.0, owner="b")
        taken = self._interleave(b, a)
        judge = b._stale_file
        heartbeats = []

        def judge_while_a_heartbeats(path):
            if taken and taken[0] is not None:
                a.heartbeat(job_id)
                heartbeats.append(path)
            return judge(path)

        b._stale_file = judge_while_a_heartbeats
        assert b.claim() is None
        assert heartbeats  # A heartbeat while B judged its lease
        assert a.lease_info(job_id)["owner"] == "a"
        a.heartbeat(job_id)
        assert b.stats()["takeovers"] == 0
        assert b.stats()["lease_conflicts"] == 1


def _onebit_config():
    with open(os.path.join(CONFIGS, "onebit_counting.json"), encoding="utf-8") as fh:
        return json.load(fh)


def _slow_sweep(monkeypatch, delay, on_unit=None):
    """Make every sweep unit take ``delay`` seconds; ``on_unit(i)`` runs
    before unit ``i`` (1-based) computes."""
    import repro.analysis.rates as rates

    check = rates.check_proof_invariants
    calls = []

    def slow_check(*args, **kwargs):
        calls.append(None)
        if on_unit is not None:
            on_unit(len(calls))
        time.sleep(delay)
        return check(*args, **kwargs)

    monkeypatch.setattr(rates, "check_proof_invariants", slow_check)


class TestProgressCadence:
    """Per-unit bookkeeping: one event per unit, but the lease and the
    job record are rewritten on the first and last unit and once per
    heartbeat interval — never once per unit."""

    def _count_writes(self, monkeypatch):
        import repro.store.scheduler as scheduler

        written = []
        write = scheduler.atomic_write_text

        def counting_write(path, text, *args, **kwargs):
            written.append(os.fspath(path))
            return write(path, text, *args, **kwargs)

        monkeypatch.setattr(scheduler, "atomic_write_text", counting_write)
        return written

    def test_lease_and_record_writes_do_not_scale_with_units(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_HEARTBEAT_SECONDS", "3600")
        queue, store = open_queue(tmp_path), open_store(tmp_path)
        record = queue.submit("scenario", {"config": _onebit_config()})
        written = self._count_writes(monkeypatch)
        assert run_worker(tmp_path, queue=queue, store=store) == 1
        # The lease: first and last unit.  The record: claim, first and
        # last unit, done.  Forty units write neither forty times.
        assert written.count(queue.lease_path(record.id)) == 2
        assert written.count(queue.job_path(record.id)) == 4
        # Yet every unit still appends its progress event.
        events = JobEventLog(store.root).read(record.id)
        progress = [e["data"] for e in events if e["event"] == "progress"]
        assert [p["units_done"] for p in progress] == list(range(1, 41))
        assert {p["units_total"] for p in progress} == {40}
        finished = queue.get(record.id)
        assert finished.status == DONE
        assert finished.progress == {"units_done": 40, "units_total": 40}

    def test_rival_never_sees_a_stale_lease_mid_run(self, tmp_path, monkeypatch):
        import threading

        monkeypatch.setenv("REPRO_HEARTBEAT_SECONDS", "0.05")
        monkeypatch.setenv("REPRO_LEASE_STALE_SECONDS", "0.3")
        _slow_sweep(monkeypatch, 0.02)
        queue, store = open_queue(tmp_path), open_store(tmp_path)
        # 40 units of >= 20 ms: several lease TTLs end to end.
        record = queue.submit("sweep", {"specs": [[4, 2, s, 5] for s in range(40)]})
        rival = open_queue(tmp_path, owner="rival")
        assert rival.lease_ttl == 0.3
        ages = []
        stop = threading.Event()

        def watch():
            while not stop.is_set():
                age = rival.heartbeat_age(record.id)
                if age is not None:
                    ages.append(age)
                time.sleep(0.005)

        watcher = threading.Thread(target=watch)
        watcher.start()
        try:
            assert run_worker(tmp_path, queue=queue, store=store) == 1
        finally:
            stop.set()
            watcher.join(timeout=10)
        assert not watcher.is_alive()
        assert queue.get(record.id).status == DONE
        assert len(ages) > 20  # the rival looked throughout the run
        assert max(ages) < rival.lease_ttl

    def test_stolen_lease_is_caught_at_the_last_unit(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_HEARTBEAT_SECONDS", "3600")
        queue, store = open_queue(tmp_path), open_store(tmp_path)
        params = {"specs": [[4, 2, s, 5] for s in range(10)]}
        record = queue.submit("sweep", params)

        def steal(unit):
            if unit == 5:  # a rival takes the job over mid-run
                with open(queue.lease_path(record.id), "w", encoding="utf-8") as fh:
                    json.dump({"owner": "thief", "heartbeat": time.time()}, fh)

        _slow_sweep(monkeypatch, 0.0, on_unit=steal)
        completed = []
        complete = queue.complete
        monkeypatch.setattr(
            queue, "complete", lambda *a, **k: completed.append(a) or complete(*a, **k)
        )
        assert run_worker(tmp_path, queue=queue, store=store) == 1
        assert completed == []  # never completed over the thief
        assert expected_result_key("sweep", params) not in store
        failed = queue.get(record.id)
        assert failed.status == QUEUED and failed.attempts == 1
        assert "LeaseBroken" in failed.error
        # The last write before the theft was the first unit's.
        assert failed.progress == {"units_done": 1, "units_total": 10}
        events = JobEventLog(store.root).read(record.id)
        assert [e["data"]["units_done"] for e in events] == list(range(1, 10))


class TestKillResume:
    """The acceptance scenario: SIGKILL a worker mid-table, resume, and
    the final document is byte-for-byte what an uninterrupted run emits."""

    @pytest.mark.slow
    def test_sigkill_then_resume_yields_identical_document(self, tmp_path):
        interrupted_root = tmp_path / "interrupted"
        clean_root = tmp_path / "clean"
        params = {"n": 4, "seed": 0}

        # Uninterrupted reference run.
        clean_queue = open_queue(clean_root)
        clean_store = open_store(clean_root)
        clean_record = clean_queue.submit("table2", params)
        run_worker(clean_root, queue=clean_queue, store=clean_store)
        clean_key = clean_queue.get(clean_record.id).result_key
        clean_bytes = read_doc_bytes(clean_store, clean_key)

        # Interrupted run: spawn a worker subprocess, kill -9 it once it
        # has persisted at least one cell but before it can finish.
        queue = JobQueue(os.path.join(interrupted_root, "queue"), lease_ttl=0.5)
        store = open_store(interrupted_root)
        record = queue.submit("table2", params)
        worker = subprocess.Popen(
            [sys.executable, "-m", "repro", "store", "--root", str(interrupted_root), "run"],
            env=_env(),
            stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL,
        )
        try:
            deadline = time.time() + 120
            while time.time() < deadline:
                progress = queue.get(record.id).progress
                if progress.get("units_done", 0) >= 1:
                    break
                if worker.poll() is not None:  # finished too fast: still fine
                    break
                time.sleep(0.02)
            else:
                pytest.fail("worker never reported progress")
        finally:
            if worker.poll() is None:
                os.kill(worker.pid, signal.SIGKILL)
            worker.wait()

        interrupted = queue.get(record.id)
        if interrupted.status != DONE:
            # The crash left a stale lease and a partially filled store;
            # a fresh worker must break the lease and finish the rest.
            time.sleep(0.6)  # let the lease age past its TTL
            hits_before = store.hits
            assert run_worker(interrupted_root, queue=queue, store=store) == 1
            assert store.hits > hits_before or store.puts > 0
        resumed = queue.get(record.id)
        assert resumed.status == DONE

        resumed_bytes = read_doc_bytes(store, resumed.result_key)
        assert resumed.result_key == clean_key
        assert resumed_bytes == clean_bytes


class TestStoreCLI:
    def run_cli(self, *args):
        return subprocess.run(
            [sys.executable, "-m", "repro", "store", *args],
            env=_env(),
            capture_output=True,
            text=True,
        )

    def test_submit_run_result_status_gc(self, tmp_path):
        root = str(tmp_path)
        submitted = self.run_cli("--root", root, "submit", "table1", "--n", "4")
        assert submitted.returncode == 0
        record = json.loads(submitted.stdout)
        assert record["kind"] == "table1" and record["status"] == "queued"

        ran = self.run_cli("--root", root, "run")
        assert ran.returncode == 0, ran.stderr
        assert "processed 1 job(s)" in ran.stdout

        result = self.run_cli("--root", root, "result", record["id"])
        assert result.returncode == 0, result.stderr
        doc = json.loads(result.stdout)
        assert doc["summary"]["verdict"] == "PASS"

        status = self.run_cli("--root", root, "status")
        payload = json.loads(status.stdout)
        assert payload["queue"]["done"] == 1
        assert payload["store"]["entries"] == 17  # 16 cells + the document

        gc = self.run_cli("--root", root, "gc")
        assert gc.returncode == 0
        assert json.loads(gc.stdout)["store"]["corrupt_entries"] == 0

    def test_result_before_run_explains(self, tmp_path):
        root = str(tmp_path)
        record = json.loads(
            self.run_cli("--root", root, "submit", "table1", "--n", "4").stdout
        )
        result = self.run_cli("--root", root, "result", record["id"])
        assert result.returncode == 1
        assert "no result document yet" in result.stderr

    def test_sweep_submit_requires_specs(self, tmp_path):
        out = self.run_cli("--root", str(tmp_path), "submit", "sweep")
        assert out.returncode != 0

    def test_sweep_submit_and_run(self, tmp_path):
        root = str(tmp_path)
        record = json.loads(
            self.run_cli(
                "--root", root, "submit", "sweep", "--spec", "4,3,0,12"
            ).stdout
        )
        assert record["params"] == {"specs": [[4, 3, 0, 12]]}
        ran = self.run_cli("--root", root, "run")
        assert ran.returncode == 0, ran.stderr
