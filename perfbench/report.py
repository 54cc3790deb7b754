"""What one run found: counters, correctness failures, the readable
report, and the per-layer metric catalogue shared by every workload."""

from __future__ import annotations

import json
import sys
from typing import Dict, List, Tuple

#: Per-layer metrics printed by every traced run, with their units.
#: Times of engine layers are self seconds per workload operation; the
#: ``service.*_s`` and ``store.*_s`` times are medians per request or per
#: cold job; counts are per workload operation.  A layer a workload does
#: not reach reports 0.
PER_LAYER: Tuple[Tuple[str, str], ...] = (
    ("linalg.exact.kernel_basis_s", "s"),
    ("linalg.exact.kernel_basis_calls", "count"),
    ("linalg.exact.matrix_entries", "count"),
    ("linalg.exact.nonzero_share", "ratio"),
    ("algorithms.history_tree.output_s", "s"),
    ("algorithms.frequency_static.output_s", "s"),
    ("algorithms.minimum_base_alg.extract_base_s", "s"),
    ("algorithms.fibre_solver.solve_s", "s"),
    ("graphs.views.truncate_s", "s"),
    ("fibrations.minimum_base_s", "s"),
    ("core.execution.outputs_s", "s"),
    ("core.execution.output_calls", "count"),
    ("core.execution.outputs_per_round", "ratio"),
    ("core.engine.step_s", "s"),
    ("core.engine.rounds", "count"),
    ("core.engine.step_per_round_us", "us"),
    ("core.engine.compile_plan_s", "s"),
    ("graphs.build_s", "s"),
    ("core.convergence.rounds", "count"),
    ("core.convergence.detect_s", "s"),
    ("analysis.tables.cell_s", "s"),
    ("analysis.tables.cells", "count"),
    ("scenarios.validate_s", "s"),
    ("scenarios.run_s", "s"),
    ("scenarios.document_bytes_s", "s"),
    ("store.queue_wait_s", "s"),
    ("store.run_s", "s"),
    ("store.entries_added", "count"),
    ("store.orchestrator.claimed", "count"),
    ("store.orchestrator.dispatched", "count"),
    ("store.orchestrator.dedup_store", "count"),
    ("service.submit_s", "s"),
    ("service.status_s", "s"),
    ("service.fetch_s", "s"),
    ("service.revalidate_s", "s"),
    ("service.requests", "count"),
    ("service.errors", "count"),
    ("service.sse_end_lag_s", "s"),
    ("service.shutdown_failures", "count"),
    ("unattributed_share", "ratio"),
    ("trace_overhead", "ratio"),
    ("error_rate", "ratio"),
)

#: Engine-layer time metrics and the span each one reads its self time from.
SPAN_TIMES: Tuple[Tuple[str, str], ...] = (
    ("linalg.exact.kernel_basis_s", "linalg.exact.kernel_basis"),
    ("algorithms.history_tree.output_s", "algorithms.history_tree.output"),
    ("algorithms.frequency_static.output_s", "algorithms.frequency_static.output"),
    ("algorithms.minimum_base_alg.extract_base_s", "algorithms.minimum_base_alg.extract_base"),
    ("algorithms.fibre_solver.solve_s", "algorithms.fibre_solver.solve"),
    ("graphs.views.truncate_s", "graphs.views.truncate"),
    ("fibrations.minimum_base_s", "fibrations.minimum_base"),
    ("core.execution.outputs_s", "core.execution.outputs"),
    ("core.engine.step_s", "core.engine.step"),
    ("core.engine.compile_plan_s", "core.engine.compile_plan"),
    ("graphs.build_s", "graphs.build"),
    ("core.convergence.detect_s", "core.convergence.detect"),
    ("analysis.tables.cell_s", "analysis.tables.cell"),
    ("scenarios.validate_s", "scenarios.validate"),
    ("scenarios.run_s", "scenarios.run"),
    ("scenarios.document_bytes_s", "scenarios.document_bytes"),
)


class Outcome:
    """Counters and findings of one workload run."""

    def __init__(self, workload: str) -> None:
        self.workload = workload
        self.attempted = 0
        self.failed = 0
        self.checks = 0
        self.failures: List[str] = []
        self.lines: List[Tuple[str, float, str, str]] = []
        self.metrics: Dict[str, Dict[str, object]] = {}

    def fail(self, message: str) -> None:
        self.failed += 1
        self.failures.append(message)
        print(f"[perfbench] {self.workload}: FAILED {message}", file=sys.stderr)

    def report(self, name: str, value: float, unit: str, note: str = "") -> None:
        """A named figure for the readable report (not the result line)."""
        self.lines.append((name, float(value), unit, note))

    def metric(self, name: str, value: float, unit: str) -> None:
        """A figure of the result line."""
        self.metrics[name] = {"value": float(value), "unit": unit}

    @property
    def error_rate(self) -> float:
        return self.failed / self.attempted if self.attempted else 1.0

    def per_layer(self, values: Dict[str, float]) -> None:
        """Fill the result line with every per-layer metric; layers the
        workload does not reach read 0."""
        for name, unit in PER_LAYER:
            self.metric(name, values.get(name, 0.0), unit)

    def print(self, trace: bool) -> None:
        mode = "traced" if trace else "untraced"
        print(f"== {self.workload} ({mode})")
        for name, value, unit, note in self.lines:
            suffix = f"  ({note})" if note else ""
            print(f"   {name:<44} {value:>14.6g} {unit}{suffix}")
        for name, entry in self.metrics.items():
            print(f"   {name:<44} {entry['value']:>14.6g} {entry['unit']}  [result]")
        print(f"   checks passed {self.checks}, operations attempted "
              f"{self.attempted}, failed {self.failed}")
        for message in self.failures:
            print(f"   FAILED: {message}")

    def result(self) -> Dict[str, object]:
        return {
            "correct": self.failed == 0 and self.checks > 0,
            "attempted": max(self.attempted, 1),
            "failed": self.failed,
            "metrics": self.metrics,
        }


def print_result(result: Dict[str, object]) -> None:
    print(json.dumps(result, sort_keys=True), flush=True)
