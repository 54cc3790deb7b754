"""Timing spans installed on the package's public functions from outside.

The traced run of each workload calls :func:`install`, which swaps the
functions and methods named in :data:`LAYERS` for thin wrappers that
record one span per call, and :func:`Recorder.uninstall` puts the
originals back.  Nothing under ``src/`` knows about it: the wrappers are
patched into every ``repro.*`` module that holds a reference to the
original (module globals and module-level dicts such as solver tables)
and onto the classes that define the methods.

A span is a name, a start, an end, a parent and an op: ``parent`` is the index of
the enclosing span (``-1`` at top level) and ``op`` the identifier shared
by every span of one workload operation (one document, one request
cycle).  A call made while the innermost open span already has the same
name (recursion, ``super()`` chains) is folded into it, which leaves
per-name self time unchanged and keeps deep recursions cheap.  Spans stay
in memory; :meth:`Recorder.dump` writes them out once the run has ended.
"""

from __future__ import annotations

import functools
from array import array
import importlib
import sys
import time
from collections import defaultdict
from typing import Any, Callable, Dict, List, Optional, Tuple

#: (span name, module, attribute path) — ``Class.method`` or ``function``.
#: ``*`` as the attribute patches every public function the module defines.
LAYERS: Tuple[Tuple[str, str, str], ...] = (
    ("scenarios.validate", "repro.scenarios.schema", "validate_scenario"),
    ("scenarios.run", "repro.scenarios.runner", "run_scenario"),
    ("scenarios.document_bytes", "repro.scenarios.runner", "document_bytes"),
    ("analysis.tables.cell", "repro.analysis.tables", "compute_cell"),
    ("core.convergence.detect", "repro.core.convergence", "run_until_stable"),
    ("core.convergence.detect", "repro.core.convergence", "run_until_asymptotic"),
    ("core.execution.outputs", "repro.core.execution", "Execution.outputs"),
    ("core.engine.step", "repro.core.engine.stepper", "EngineStepper.step"),
    ("core.engine.compile_plan", "repro.core.engine.plan", "DeliveryPlan.__init__"),
    ("algorithms.history_tree.output", "repro.algorithms.history_tree",
     "HistoryTreeAlgorithm.output"),
    ("algorithms.frequency_static.output", "repro.algorithms.frequency_static",
     "_FunctionOutput.output"),
    ("algorithms.minimum_base_alg.extract_base", "repro.algorithms.minimum_base_alg",
     "extract_base"),
    ("algorithms.fibre_solver.solve", "repro.algorithms.fibre_solver",
     "fibre_ratios_outdegree"),
    ("algorithms.fibre_solver.solve", "repro.algorithms.fibre_solver",
     "fibre_ratios_ports"),
    ("algorithms.fibre_solver.solve", "repro.algorithms.fibre_solver",
     "fibre_ratios_symmetric"),
    ("linalg.exact.kernel_basis", "repro.linalg.exact", "kernel_basis"),
    ("graphs.views.truncate", "repro.graphs.views", "ViewBuilder.truncate"),
    ("graphs.build", "repro.graphs.builders", "*"),
    ("fibrations.minimum_base", "repro.core.memo", "memoized_minimum_base"),
    ("fibrations.minimum_base", "repro.fibrations.minimum_base", "minimum_base"),
)


class Recorder:
    """In-memory span store plus the patch log needed to undo it.

    Spans live in parallel typed arrays (name id, parent, op, start,
    end) so a traced run of a few hundred thousand calls stays small.
    """

    def __init__(self) -> None:
        self.names: List[str] = []
        self._ids: Dict[str, int] = {}
        self.name_ids = array("i")
        self.parents = array("i")
        self.ops = array("i")
        self.starts = array("d")
        self.ends = array("d")
        self.stack: List[int] = []
        self.op = -1
        self.calls: Dict[str, int] = defaultdict(int)
        self.values: Dict[str, float] = defaultdict(float)
        #: (module, class or dispatch dict; key; original) for uninstall.
        self._patches: List[Tuple[Any, Any, Any]] = []

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    # -- recording ------------------------------------------------------ #

    def open(self, name: str, start: Optional[float] = None) -> int:
        index = len(self.starts)
        self.name_ids.append(self.name_id(name))
        self.parents.append(self.stack[-1] if self.stack else -1)
        self.ops.append(self.op)
        self.starts.append(time.perf_counter() if start is None else start)
        self.ends.append(0.0)
        self.stack.append(index)
        return index

    def close(self, index: int, end: Optional[float] = None) -> None:
        self.stack.remove(index)
        self.ends[index] = time.perf_counter() if end is None else end

    def wrap(self, name: str, fn: Callable,
             observe: Optional[Callable[["Recorder", tuple, Any], None]] = None) -> Callable:
        nid = self.name_id(name)
        name_ids, parents, ops = self.name_ids, self.parents, self.ops
        starts, ends, stack, calls = self.starts, self.ends, self.stack, self.calls
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if stack and name_ids[stack[-1]] == nid:
                return fn(*args, **kwargs)
            index = len(starts)
            name_ids.append(nid)
            parents.append(stack[-1] if stack else -1)
            ops.append(self.op)
            ends.append(0.0)
            stack.append(index)
            calls[name] += 1
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[index] = clock()
                stack.pop()
            if observe is not None:
                observe(self, args, result)
            return result

        return wrapper

    # -- patching ------------------------------------------------------- #

    def patch(self, name: str, module_name: str, attr: str,
              observe: Optional[Callable] = None) -> None:
        module = importlib.import_module(module_name)
        if attr == "*":
            for key, value in list(vars(module).items()):
                if (callable(value) and not key.startswith("_")
                        and getattr(value, "__module__", None) == module_name
                        and not isinstance(value, type)):
                    self._patch_function(name, value, observe)
            return
        if "." in attr:
            cls_name, method = attr.split(".")
            cls = getattr(module, cls_name)
            original = cls.__dict__[method]
            self._patches.append((cls, method, original))
            setattr(cls, method, self.wrap(name, original, observe))
            return
        self._patch_function(name, getattr(module, attr), observe)

    def _patch_function(self, name: str, original: Callable,
                        observe: Optional[Callable]) -> None:
        wrapper = self.wrap(name, original, observe)
        for module_name, module in list(sys.modules.items()):
            if module is None or not module_name.startswith("repro"):
                continue
            namespace = vars(module)
            for key, value in list(namespace.items()):
                if value is original:
                    self._patches.append((module, key, original))
                    setattr(module, key, wrapper)
                elif isinstance(value, dict) and key.isupper():
                    # Dispatch tables (``_SOLVERS``, ...) hold references too.
                    for dict_key, dict_value in list(value.items()):
                        if dict_value is original:
                            self._patches.append((value, dict_key, original))
                            value[dict_key] = wrapper

    def uninstall(self) -> None:
        for target, key, original in reversed(self._patches):
            if isinstance(target, dict):
                target[key] = original
            else:
                setattr(target, key, original)
        self._patches.clear()

    # -- reading -------------------------------------------------------- #

    def self_times(self) -> Dict[str, float]:
        """Per-name self time: each span's duration minus the time its
        child spans cover."""
        child_time = defaultdict(float)
        starts, ends, parents = self.starts, self.ends, self.parents
        for index in range(len(starts)):
            if parents[index] >= 0:
                child_time[parents[index]] += ends[index] - starts[index]
        totals: Dict[str, float] = defaultdict(float)
        for index in range(len(starts)):
            totals[self.names[self.name_ids[index]]] += (
                ends[index] - starts[index] - child_time[index])
        return dict(totals)

    def durations(self, name: str) -> List[float]:
        nid = self._ids.get(name)
        return [self.ends[i] - self.starts[i] for i in range(len(self.starts))
                if self.name_ids[i] == nid]

    def dump(self, path) -> None:
        """Write every span as ``.npz`` arrays plus the name table."""
        import numpy

        numpy.savez(
            path,
            names=numpy.array(self.names),
            name=numpy.frombuffer(self.name_ids, dtype=numpy.int32),
            parent=numpy.frombuffer(self.parents, dtype=numpy.int32),
            op=numpy.frombuffer(self.ops, dtype=numpy.int32),
            start=numpy.frombuffer(self.starts, dtype=numpy.float64),
            end=numpy.frombuffer(self.ends, dtype=numpy.float64),
        )


def _observe_kernel(recorder: Recorder, args: tuple, _result: Any) -> None:
    matrix = args[0] if args else []
    rows = len(matrix)
    cols = len(matrix[0]) if rows else 0
    recorder.values["linalg.exact.matrix_entries"] += rows * cols
    recorder.values["linalg.exact.nonzeros"] += sum(
        1 for row in matrix for x in row if x)


def _observe_detect(recorder: Recorder, _args: tuple, report: Any) -> None:
    recorder.values["core.convergence.rounds"] += getattr(report, "rounds_run", 0)


OBSERVERS = {
    "linalg.exact.kernel_basis": _observe_kernel,
    "core.convergence.detect": _observe_detect,
}


def install() -> Recorder:
    """Patch every layer in :data:`LAYERS` and return the recorder that
    collects their spans."""
    recorder = Recorder()
    try:
        for name, module_name, attr in LAYERS:
            recorder.patch(name, module_name, attr, OBSERVERS.get(name))
    except BaseException:
        recorder.uninstall()
        raise
    return recorder
