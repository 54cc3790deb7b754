"""The ``served`` workload: ``python -m repro serve --pools 1`` driven by
one closed-loop client.

Each client cycle submits one new ``onebit_counting`` variant (a cold
write: job record, event log, rows, document), then re-submits finished
variants (warm: ``303`` plus the result fetch) and revalidates their
results (``304``).  The client is one thread on one keep-alive
connection; the traced run adds one thread holding one SSE connection.
At the end the server gets SIGTERM while that connection is still open,
and the shutdown is checked and reported (``service.shutdown_failures``).
"""

from __future__ import annotations

import json
import os
import queue
import random
import select
import shutil
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

from common import (CONFIGS, ROOT, WORK, fs_factor, hd_median, median, peak_rss_mb,
                    processes, tail)
from report import Outcome

#: Warm re-submissions and revalidations per cold submission.  Chosen so
#: cold and warm work take equal shares of a cycle's wall time: on a
#: 2-vCPU host (Python 3.11.7) a cold job took 0.19 s from submit to
#: bytes, a 303 plus fetch 3.5 ms and a 304 1.0 ms, so 40 of each take
#: 0.18 s.  The ratio is an assumption, not a measured traffic mix.
WARM_PER_CYCLE = 40
REVALIDATE_PER_CYCLE = 40
#: How often the client polls a cold job's status.
POLL_SECONDS = 0.01
JOB_TIMEOUT = 60.0
START_TIMEOUT = 60.0
STOP_TIMEOUT = 30.0
#: Server launches timed for ``setup_s`` before the measured one.
SETUP_PROBES = 3


class Server:
    """One ``serve`` subprocess on a fresh root, in its own session."""

    def __init__(self, root: str) -> None:
        self.root = root
        self.proc: Optional[subprocess.Popen] = None
        self.client = None
        self.stderr_path = os.path.join(root, "serve.stderr")

    def start(self) -> float:
        """Launch; returns seconds until ``/healthz`` first answers 200."""
        from repro.service.client import ServiceClient

        os.makedirs(self.root)
        started = time.perf_counter()
        with open(self.stderr_path, "wb") as stderr:
            self.proc = subprocess.Popen(
                [sys.executable, "-m", "repro", "serve", "--root",
                 os.path.join(self.root, "store"), "--port", "0", "--pools", "1"],
                cwd=str(ROOT), stdout=subprocess.PIPE, stderr=stderr,
                start_new_session=True,
            )
        ready, _, _ = select.select([self.proc.stdout], [], [], START_TIMEOUT)
        line = self.proc.stdout.readline() if ready else b""
        if not line:
            raise RuntimeError(f"serve did not announce itself: {self.stderr()[-500:]}")
        announce = json.loads(line)
        self.client = ServiceClient(announce["host"], announce["port"], timeout=JOB_TIMEOUT)
        while True:
            try:
                if self.client.healthz()["status"] == "ok":
                    break
            except OSError:
                if time.perf_counter() - started > START_TIMEOUT:
                    raise
                time.sleep(0.002)
        return time.perf_counter() - started

    def stderr(self) -> str:
        try:
            with open(self.stderr_path, encoding="utf-8", errors="replace") as handle:
                return handle.read()
        except OSError:
            return ""

    def pids(self) -> List[int]:
        """The server and its children (the pool workers)."""
        return [self.proc.pid] + [
            pid for pid, _state, ppid, _pgrp in processes() if ppid == self.proc.pid]

    def stop(self) -> Tuple[bool, str]:
        """SIGTERM the server as it stands (open connections included),
        then judge the shutdown: exit code 0, no process left in its
        group, no traceback on stderr.  Anything left is killed."""
        proc = self.proc
        reasons = []
        proc.send_signal(signal.SIGTERM)
        try:
            code = proc.wait(timeout=STOP_TIMEOUT)
            if code != 0:
                reasons.append(f"exit code {code}")
        except subprocess.TimeoutExpired:
            reasons.append(f"still running {STOP_TIMEOUT:g}s after SIGTERM")
        left = [pid for pid, state, _ppid, pgrp in processes()
                if pgrp == proc.pid and state != "Z"]
        if left:
            reasons.append(f"{len(left)} process(es) left in its group")
        stderr = self.stderr()
        if "Traceback" in stderr:
            lines = [l for l in stderr.splitlines() if l.strip()]
            reasons.append(f"traceback on stderr ({lines[-1].strip()[:120]})")
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except (ProcessLookupError, PermissionError):
            pass
        proc.wait()
        proc.stdout.close()
        if self.client is not None:
            self.client.close()
        return not reasons, "; ".join(reasons)


def _variants(rng: random.Random):
    with open(CONFIGS / "onebit_counting.json", encoding="utf-8") as handle:
        base = json.load(handle)
    count = len(base["seeds"])
    seen = set()
    while True:
        seeds = tuple(sorted(rng.sample(range(2 ** 31), count)))
        if seeds not in seen:
            seen.add(seeds)
            yield dict(base, seeds=list(seeds))


class _Timer:
    """Times client calls; records spans when a recorder is attached."""

    def __init__(self) -> None:
        self.recorder = None
        self.samples: Dict[str, List[float]] = {}

    def call(self, name: str, fn, *args, **kwargs):
        recorder = self.recorder
        span = recorder.open(name) if recorder is not None else None
        started = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            elapsed = time.perf_counter() - started
            if span is not None:
                recorder.close(span)
            self.samples.setdefault(name, []).append(elapsed)


class _SseWatcher(threading.Thread):
    """The traced run's second connection: follows each cold job's SSE
    feed and notes when its ``end`` event arrives."""

    def __init__(self, host: str, port: int) -> None:
        super().__init__(daemon=True)
        from repro.service.client import ServiceClient

        self.client = ServiceClient(host, port, timeout=JOB_TIMEOUT)
        self.jobs: "queue.Queue[Optional[str]]" = queue.Queue()
        self.ends: Dict[str, float] = {}
        self.errors: List[str] = []

    def run(self) -> None:
        while True:
            job_id = self.jobs.get()
            if job_id is None:
                return
            try:
                for event in self.client.events(job_id):
                    if event["event"] == "end":
                        self.ends[job_id] = time.perf_counter()
                        break
            except Exception as exc:  # noqa: BLE001 - reported as a failure
                self.errors.append(f"SSE {job_id}: {exc!r}")


class ClientLoop:
    """The closed-loop client and everything it has seen."""

    def __init__(self, server: Server, rng: random.Random, outcome: Outcome) -> None:
        self.client = server.client
        self.rng = rng
        self.variants = _variants(rng)
        self.outcome = outcome
        self.finished: List[Tuple[Dict[str, Any], str, bytes]] = []
        self.timer = _Timer()
        self.cold: List[float] = []
        #: Cold latencies times the cycle's :func:`common.fs_factor`.
        self.cold_scaled: List[float] = []
        self.factors: List[float] = []
        self.factor = 1.0
        self.probe_dir = Path(server.root) / "fs-probe"
        self.probe_dir.mkdir()
        self.scaled_wall = 0.0
        self.warm: List[float] = []
        self.revalidate: List[float] = []
        self.queue_wait: List[float] = []
        self.run_time: List[float] = []
        self.done_at: Dict[str, float] = {}
        self.watcher: Optional[_SseWatcher] = None
        self._consecutive_failures = 0

    def discard_samples(self) -> None:
        self.cold, self.cold_scaled, self.warm, self.revalidate = [], [], [], []
        self.queue_wait, self.run_time, self.factors = [], [], []
        self.scaled_wall = 0.0

    def _failed(self, message: str) -> None:
        self.outcome.fail(message)
        self._consecutive_failures += 1
        if self._consecutive_failures >= 5:
            raise RuntimeError(f"five operations failed in a row; last: {message}")

    def cold_job(self) -> None:
        call = self.timer.call
        recorder = self.timer.recorder
        config = next(self.variants)
        self.outcome.attempted += 1
        started = time.perf_counter()
        record = call("service.submit", self.client.submit, config)
        if record.get("status") == "cached":
            self._failed(f"new variant {config['seeds']} answered as cached")
            return
        job_id = record["id"]
        if self.watcher is not None:
            self.watcher.jobs.put(job_id)
        submitted = time.perf_counter()
        phase = recorder.open("store.queue_wait", submitted) if recorder else None
        running_at = None
        try:
            while True:
                status = call("service.status", self.client.run_status, job_id)
                now = time.perf_counter()
                if status["status"] == "running" and running_at is None:
                    running_at = now
                    if recorder:
                        recorder.close(phase, now)
                        phase = recorder.open("store.run", now)
                if status["status"] in ("done", "failed"):
                    break
                if now - submitted > JOB_TIMEOUT:
                    self._failed(f"job {job_id} still {status['status']} after {JOB_TIMEOUT:g}s")
                    return
                time.sleep(POLL_SECONDS)
        finally:
            done_at = time.perf_counter()
            if recorder:
                recorder.close(phase, done_at)
        self.done_at[job_id] = done_at
        if status["status"] != "done":
            self._failed(f"job {job_id} failed: {status.get('error')}")
            return
        key = status["result_key"]
        payload = call("service.fetch", self.client.result_bytes, key)
        self.cold.append(time.perf_counter() - started)
        self.cold_scaled.append(self.cold[-1] * self.factor)
        self.queue_wait.append((running_at or done_at) - submitted)
        self.run_time.append(done_at - (running_at or done_at))
        self.finished.append((config, key, payload))
        self._consecutive_failures = 0

    def warm_job(self) -> None:
        config, key, payload = self.rng.choice(self.finished)
        self.outcome.attempted += 1
        started = time.perf_counter()
        answer = self.timer.call("service.submit", self.client.submit, config)
        if answer.get("status") != "cached" or answer.get("result_key") != key:
            self._failed(f"re-submission of {config['seeds']} answered {answer.get('status')}")
            return
        fetched = self.timer.call("service.fetch", self.client.result_bytes, key)
        self.warm.append(time.perf_counter() - started)
        if fetched != payload:
            self._failed(f"warm fetch of {key} returned other bytes")
            return
        self.outcome.checks += 1
        self._consecutive_failures = 0

    def revalidate_job(self) -> None:
        _config, key, _payload = self.rng.choice(self.finished)
        self.outcome.attempted += 1
        started = time.perf_counter()
        answer = self.timer.call("service.revalidate", self.client.result_bytes, key, etag=key)
        self.revalidate.append(time.perf_counter() - started)
        if answer is not None:
            self._failed(f"revalidation of {key} did not answer 304")
            return
        self.outcome.checks += 1
        self._consecutive_failures = 0

    def cycle(self) -> None:
        from repro.service.client import ServiceError

        steps = [self.cold_job] + [self.warm_job] * WARM_PER_CYCLE \
            + [self.revalidate_job] * REVALIDATE_PER_CYCLE
        for step in steps:
            if not self.finished and step != self.cold_job:
                break
            try:
                step()
            except (ServiceError, OSError, ValueError, KeyError) as exc:
                self._failed(f"{step.__name__}: {exc!r}")

    def run_for(self, seconds: float) -> Tuple[int, float]:
        """Client cycles until ``seconds`` have passed, each after a
        file-system probe; returns the number of cycles and the wall
        seconds the cycles took.  ``scaled_wall`` adds up the cycles with
        their cold job scaled by the probe's factor."""
        cycles = 0
        wall = 0.0
        started = time.perf_counter()
        while not cycles or time.perf_counter() - started < seconds:
            self.factor = fs_factor(self.probe_dir)
            self.factors.append(self.factor)
            colds = len(self.cold)
            if self.timer.recorder is not None:
                self.timer.recorder.op = cycles
                span = self.timer.recorder.open("bench.op")
            cycle_started = time.perf_counter()
            self.cycle()
            elapsed = time.perf_counter() - cycle_started
            if self.timer.recorder is not None:
                self.timer.recorder.close(span)
            wall += elapsed
            cold = self.cold[-1] if len(self.cold) > colds else 0.0
            self.scaled_wall += elapsed - cold + cold * self.factor
            cycles += 1
        return cycles, wall

    def verify_documents(self) -> None:
        """Served bytes against direct ``run_scenario`` bytes of the same
        config (outside the timed region)."""
        import repro.scenarios as scenarios

        for config, key, payload in self.finished:
            self.outcome.attempted += 1
            try:
                served = scenarios.document_bytes(json.loads(payload)["payload"])
            except (ValueError, KeyError, TypeError) as exc:
                self.outcome.fail(f"result {key} is not an entry: {exc!r}")
                continue
            direct = scenarios.document_bytes(
                scenarios.run_scenario(scenarios.validate_scenario(config), store=None))
            if served != direct:
                self.outcome.fail(f"served document {key} differs from the direct run")
            else:
                self.outcome.checks += 1


def _counters(client) -> Dict[str, float]:
    stats = client.store_stats()
    health = client.healthz()
    orchestrator = health.get("orchestrator") or {}
    service = health.get("counters", {})
    return {
        "store.entries_added": stats.get("store", {}).get("entries", 0),
        "store.orchestrator.claimed": orchestrator.get("claimed", 0),
        "store.orchestrator.dispatched": orchestrator.get("dispatched", 0),
        "store.orchestrator.dedup_store": orchestrator.get("dedup_store", 0),
        "service.requests": service.get("requests", 0),
        "service.errors": service.get("errors", 0),
    }


def measure(seed: int, seconds: float, trace: bool, outcome: Outcome) -> None:
    """One run of the ``served`` workload; see the module docstring."""
    rng = random.Random(f"served:{seed}")
    base = WORK / f"served-{os.getpid()}"
    shutil.rmtree(base, ignore_errors=True)
    base.mkdir(parents=True)
    server = None
    try:
        setup = []
        for launch in range(SETUP_PROBES):
            probe = Server(str(base / f"probe-{launch}"))
            try:
                setup.append(probe.start())
            finally:
                # Probes drop their connection before SIGTERM; only the
                # measured shutdown below keeps the client's one open.
                if probe.client is not None:
                    probe.client.close()
                if probe.proc is not None:
                    probe.stop()
        server = Server(str(base / "main"))
        setup.append(server.start())
        loop = ClientLoop(server, rng, outcome)
        # One unmeasured warm-up cycle: first-request and first-job costs.
        loop.cycle()
        loop.discard_samples()
        budget = seconds / 2.0 if trace else float(seconds)
        cycles, wall = loop.run_for(budget)
        rss = peak_rss_mb(server.pids())
        if trace:
            _traced_phase(loop, budget, cycles, wall, outcome)
        ok, reason = server.stop()
        server = None
        outcome.report("service.shutdown_failures", 0.0 if ok else 1.0, "count",
                       "SIGTERM with the client's keep-alive connection open"
                       + ("" if ok else f": {reason}"))
        loop.verify_documents()
        if not trace:
            ops = len(loop.cold) + len(loop.warm) + len(loop.revalidate)
            cold_tail, cold_label, cold_n = tail(loop.cold)
            warm_tail, warm_label, warm_n = tail(loop.warm)
            outcome.metric("setup_s", median(setup), "s")
            outcome.metric("peak_rss_mb", rss, "MB")
            outcome.metric("p50_s", hd_median(loop.cold_scaled), "s")
            outcome.metric("ops_per_s", ops / loop.scaled_wall, "1/s")
            outcome.report("fs_factor", median(loop.factors), "ratio",
                           "result-line p50_s and the cold share of ops_per_s are scaled by this")
            outcome.report("setup_s", median(setup), "s",
                           f"median of {len(setup)} launches until /healthz answers 200")
            outcome.report("cold_p50_s", median(loop.cold), "s", "raw; submit to verified bytes")
            outcome.report("cold_tail_s", cold_tail, "s", f"{cold_label} of {cold_n} cold jobs")
            outcome.report("warm_p50_s", median(loop.warm), "s", "303 + fetch")
            outcome.report("warm_tail_s", warm_tail, "s", f"{warm_label} of {warm_n}")
            outcome.report("revalidate_p50_s", median(loop.revalidate), "s", "304")
            outcome.report("ops_per_s", ops / wall, "1/s", f"raw; {cycles} client cycles")
            outcome.report("error_rate", outcome.error_rate, "ratio")
        else:
            outcome.metrics["service.shutdown_failures"]["value"] = 0.0 if ok else 1.0
            outcome.metrics["error_rate"]["value"] = outcome.error_rate
    finally:
        if server is not None and server.proc is not None:
            server.stop()
        shutil.rmtree(base, ignore_errors=True)


def _traced_phase(loop: ClientLoop, budget: float, cycles: int, wall: float,
                  outcome: Outcome) -> None:
    """The second half of a traced run: the same client with spans on
    every request and an SSE watcher on a second connection."""
    import spans

    recorder = spans.Recorder()
    before = _counters(loop.client)
    loop.timer = _Timer()
    loop.timer.recorder = recorder
    watcher = _SseWatcher(loop.client.host, loop.client.port)
    loop.watcher = watcher
    watcher.start()
    first_cold = len(loop.queue_wait)
    try:
        traced_cycles, traced_wall = loop.run_for(budget)
    finally:
        watcher.jobs.put(None)
        watcher.join(JOB_TIMEOUT)
        watcher.client.close()
        loop.watcher = None
        loop.timer.recorder = None
    after = _counters(loop.client)
    for message in watcher.errors:
        outcome.fail(message)
    lags = [end - loop.done_at[job] for job, end in watcher.ends.items() if job in loop.done_at]
    samples = loop.timer.samples
    values: Dict[str, float] = {
        name: (after[name] - before[name]) / traced_cycles for name in after
    }
    self_times = recorder.self_times()
    op_wall = sum(recorder.durations("bench.op"))
    values.update({
        "store.queue_wait_s": median(loop.queue_wait[first_cold:]),
        "store.run_s": median(loop.run_time[first_cold:]),
        "service.submit_s": median(samples.get("service.submit", [])),
        "service.status_s": median(samples.get("service.status", [])),
        "service.fetch_s": median(samples.get("service.fetch", [])),
        "service.revalidate_s": median(samples.get("service.revalidate", [])),
        "service.sse_end_lag_s": median(lags),
        "unattributed_share": self_times.get("bench.op", 0.0) / op_wall if op_wall else 0.0,
        "trace_overhead": (traced_wall / traced_cycles) / (wall / cycles),
    })
    outcome.per_layer(values)
    WORK.mkdir(exist_ok=True)
    recorder.dump(WORK / "spans-served.npz")
    outcome.report("traced_cycles", traced_cycles, "count",
                   f"{len(lags)} SSE end events matched; spans written to "
                   ".perfbench/spans-served.npz")
