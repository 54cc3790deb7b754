"""The two in-process workloads: ``tables`` and ``grid``.

Both run scenario documents through ``repro.scenarios`` with no store,
exactly as ``python -m repro run CONFIG`` does, one operation after the
other on one thread.  The process-wide memo caches are cleared before
every operation, so each one costs what it costs in a fresh
``python -m repro run`` process and no operation depends on the ones
before it.
"""

from __future__ import annotations

import json
import random
import subprocess
import sys
import time
from typing import Any, Dict, Iterator, List, NamedTuple, Tuple

from common import (CONFIGS, ROOT, WORK, direct_setup_seconds, hd_median, host_factor,
                    median, peak_rss_mb, tail)
from report import SPAN_TIMES, Outcome


class Sample(NamedTuple):
    """One measured operation."""

    seconds: float
    parts: Dict[str, float]
    rows: int
    #: :func:`common.host_factor` taken just before the operation.
    factor: float

#: Sizes of the larger grid tier (tens to ~100 vertices).  Hypercube
#: sizes must be powers of two; 40 rounds cover every probe's verdict.
LARGE_TIER_GRAPHS = [
    {"family": "complete", "sizes": [24, 48]},
    {"family": "ring", "sizes": [24, 48]},
    {"family": "star", "sizes": [48, 96]},
    {"family": "hypercube", "sizes": [32, 64]},
    {"family": "random", "sizes": [48, 96]},
]
LARGE_TIER_ROUNDS = 40
SEED_RANGE = 2 ** 31
#: Fresh interpreters timed for ``setup_s`` in each untraced run.
SETUP_REPEATS = 5


def _load(name: str) -> Dict[str, Any]:
    with open(CONFIGS / name, encoding="utf-8") as handle:
        return json.load(handle)


class DirectWorkload:
    """One in-process workload: an endless stream of operations drawn
    from the workload seed, each a list of scenario configs."""

    name = ""
    #: What one operation is called in the report.
    unit = ""

    def operations(self, rng: random.Random) -> Iterator[List[Tuple[str, Dict[str, Any]]]]:
        raise NotImplementedError

    def check_golden(self, first_documents: Dict[str, bytes], outcome: Outcome) -> None:
        """Extra correctness checks against the CLI (none by default)."""

    def work(self, sample: Sample) -> int:
        """What ``ops_per_s`` counts: documents by default."""
        return len(sample.parts)

    def run_op(self, configs, outcome: Outcome) -> Tuple[float, Dict[str, float], Dict[str, bytes], int]:
        """Run one operation; returns its wall seconds, seconds per part,
        document bytes per part, and grid rows produced."""
        import repro.scenarios as scenarios

        parts: Dict[str, float] = {}
        documents: Dict[str, bytes] = {}
        rows = 0
        for part, config in configs:
            started = time.perf_counter()
            scenario = scenarios.validate_scenario(config, source=f"perfbench:{part}")
            document = scenarios.run_scenario(scenario, store=None)
            payload = scenarios.document_bytes(document)
            parts[part] = time.perf_counter() - started
            documents[part] = payload
            outcome.attempted += 1
            summary = document["summary"]
            expected_rows = (
                len(scenarios.grid_units(scenario)) if scenario.kind == "grid" else None
            )
            if summary["verdict"] != "PASS":
                outcome.fail(f"{part} seed {config.get('seed', config.get('seeds'))}: "
                             f"verdict {summary['verdict']}")
            elif expected_rows is not None and summary["rows"] != expected_rows:
                outcome.fail(f"{part}: {summary['rows']} rows, expected {expected_rows}")
            else:
                outcome.checks += 1
            rows += summary.get("rows", 0)
        return sum(parts.values()), parts, documents, rows


class TablesWorkload(DirectWorkload):
    name = "tables"
    unit = "Table 1 + Table 2 regeneration"

    def operations(self, rng):
        # The first operation (the warm-up) is the shipped configs
        # themselves, seed 0, which the golden check compares with the
        # CLI's bytes.
        table1, table2 = _load("table1.json"), _load("table2.json")
        yield [("table1", table1), ("table2", table2)]
        while True:
            seed = rng.randrange(SEED_RANGE)
            yield [("table1", dict(table1, seed=seed)), ("table2", dict(table2, seed=seed))]

    def check_golden(self, first_documents, outcome):
        for part in ("table1", "table2"):
            outcome.attempted += 1
            completed = subprocess.run(
                [sys.executable, "-m", "repro", "run", str(CONFIGS / f"{part}.json")],
                cwd=str(ROOT), stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            )
            if completed.returncode != 0:
                outcome.fail(f"python -m repro run configs/{part}.json exited "
                             f"{completed.returncode}: {completed.stderr.decode()[-300:]}")
            elif completed.stdout != first_documents[part]:
                outcome.fail(f"{part} seed 0 differs from python -m repro run "
                             f"configs/{part}.json")
            else:
                outcome.checks += 1

    def report(self, samples, outcome: Outcome) -> None:
        for part in ("table1", "table2"):
            values = [sample.parts[part] for sample in samples]
            value, label, n = tail(values)
            outcome.report(f"{part}_p50_s", median(values), "s")
            outcome.report(f"{part}_tail_s", value, "s", f"{label} of {n} documents")


class GridWorkload(DirectWorkload):
    name = "grid"
    unit = "grid pass (shipped sizes + larger tier)"

    def operations(self, rng):
        shipped = _load("onebit_counting.json")
        large = dict(shipped, scenario="onebit-counting-large",
                     rounds=LARGE_TIER_ROUNDS, graphs=LARGE_TIER_GRAPHS)
        count = len(shipped["seeds"])
        while True:
            seeds = sorted(rng.sample(range(SEED_RANGE), count))
            yield [("shipped", dict(shipped, seeds=seeds)), ("large", dict(large, seeds=seeds))]

    def work(self, sample: Sample) -> int:
        return sample.rows

    def report(self, samples, outcome: Outcome) -> None:
        wall = sum(sample.seconds for sample in samples)
        outcome.report("grid_rows_per_s", sum(map(self.work, samples)) / wall, "1/s")
        for part in ("shipped", "large"):
            outcome.report(f"grid_{part}_p50_s",
                           median([sample.parts[part] for sample in samples]), "s")


WORKLOADS = {w.name: w for w in (TablesWorkload(), GridWorkload())}


def _pass(workload: DirectWorkload, specs, outcome: Outcome, recorder=None):
    """Run ``specs`` in order; returns a :class:`Sample` per op and the
    documents of the first."""
    from repro.core.memo import clear_memos

    samples = []
    first = None
    for index, spec in enumerate(specs):
        clear_memos()
        factor = host_factor()
        if recorder is not None:
            recorder.op = index
            span = recorder.open("bench.op")
        total, parts, documents, rows = workload.run_op(spec, outcome)
        if recorder is not None:
            recorder.close(span)
        samples.append(Sample(total, parts, rows, factor))
        if first is None:
            first = documents
    return samples, first


def _layer_values(recorder, ops: int, traced_wall: float, untraced_wall: float) -> Dict[str, float]:
    self_times = recorder.self_times()
    calls = recorder.calls
    values = {name: self_times.get(span, 0.0) / ops for name, span in SPAN_TIMES}
    rounds = calls.get("core.engine.step", 0)
    entries = recorder.values.get("linalg.exact.matrix_entries", 0.0)
    values.update({
        "linalg.exact.kernel_basis_calls": calls.get("linalg.exact.kernel_basis", 0) / ops,
        "linalg.exact.matrix_entries": entries / ops,
        "linalg.exact.nonzero_share": (
            recorder.values.get("linalg.exact.nonzeros", 0.0) / entries if entries else 0.0),
        "core.execution.output_calls": calls.get("core.execution.outputs", 0) / ops,
        "core.execution.outputs_per_round": (
            calls.get("core.execution.outputs", 0) / rounds if rounds else 0.0),
        "core.engine.rounds": rounds / ops,
        "core.engine.step_per_round_us": (
            self_times.get("core.engine.step", 0.0) / rounds * 1e6 if rounds else 0.0),
        "core.convergence.rounds": recorder.values.get("core.convergence.rounds", 0.0) / ops,
        "analysis.tables.cells": calls.get("analysis.tables.cell", 0) / ops,
        "unattributed_share": self_times.get("bench.op", 0.0) / sum(recorder.durations("bench.op")),
        "trace_overhead": traced_wall / untraced_wall,
    })
    return values


def measure(workload: DirectWorkload, seed: int, seconds: float, trace: bool,
            outcome: Outcome) -> None:
    """One run of a direct workload.  Untraced, it reports the end-to-end
    figures; traced, it runs the same operations untraced for half the
    time, then again with spans installed, and reports the per-layer
    split of the traced pass."""
    stream = workload.operations(random.Random(f"{workload.name}:{seed}"))
    if not trace:
        setup = direct_setup_seconds(
            [CONFIGS / name for name in ("table1.json", "table2.json", "onebit_counting.json")],
            SETUP_REPEATS)
    budget = seconds / 2.0 if trace else float(seconds)
    # An unmeasured warm-up operation pays the lazy imports and first-call
    # costs; its documents feed the golden check.
    _, first = _pass(workload, [next(stream)], outcome)
    specs, samples = [], []
    started = time.perf_counter()
    while not samples or time.perf_counter() - started < budget:
        specs.append(next(stream))
        samples.extend(_pass(workload, specs[-1:], outcome)[0])
    workload.check_golden(first, outcome)
    totals = [sample.seconds for sample in samples]
    wall = sum(totals)
    if not trace:
        work = sum(map(workload.work, samples))
        value, label, n = tail(totals)
        outcome.metric("setup_s", median(setup), "s")
        outcome.metric("peak_rss_mb", peak_rss_mb(), "MB")
        outcome.metric("p50_s", hd_median([s.seconds * s.factor for s in samples]), "s")
        outcome.metric("ops_per_s", work / sum(s.seconds * s.factor for s in samples), "1/s")
        outcome.report("host_factor", median([s.factor for s in samples]), "ratio",
                       "result-line p50_s/ops_per_s are raw figures scaled by this")
        outcome.report("setup_s", median(setup), "s",
                       f"median of {len(setup)} fresh imports + config validation")
        outcome.report("p50_s", median(totals), "s", f"raw; per {workload.unit}")
        outcome.report("ops_per_s", work / wall, "1/s", "raw")
        outcome.report("tail_s", value, "s", f"raw; {label} of {n} operations")
        workload.report(samples, outcome)
        outcome.report("error_rate", outcome.error_rate, "ratio")
        return

    import spans

    recorder = spans.install()
    try:
        traced, _ = _pass(workload, specs, outcome, recorder)
    finally:
        recorder.uninstall()
    traced_wall = sum(sample.seconds for sample in traced)
    values = _layer_values(recorder, len(specs), traced_wall, wall)
    values["error_rate"] = outcome.error_rate
    outcome.per_layer(values)
    WORK.mkdir(exist_ok=True)
    recorder.dump(WORK / f"spans-{workload.name}.npz")
    outcome.report("traced_ops", len(specs), "count",
                   f"spans written to {(WORK / f'spans-{workload.name}.npz').relative_to(ROOT)}")
