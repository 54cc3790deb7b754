"""Impossibility experiments — the §4.1 argument, executed.

The proof that a computable function must be frequency-based runs any
candidate algorithm on two rings ``R_n`` and ``R_m`` whose input vectors
are equivalent in frequency, and observes that both executions are lifts
of the *same* execution on the quotient ring ``R_p`` (Lemma 3.1), so the
outputs — hence the limits — coincide.  This module makes each step of
that argument an executable, checkable experiment:

* :func:`verify_lifting_on_outputs` — empirical Lemma 3.1/3.2: outputs of
  the lifted execution are the fibrewise copies of the base execution's;
* :func:`demonstrate_collapse` — the full ``R_n ← R_p → R_m`` diagram for
  one algorithm and one frequency class;
* :func:`frequency_counterexample` — a certificate that a *non*-frequency-
  based function (e.g. the sum) defeats a claimed algorithm: the forced
  common output cannot equal both ``f(v)`` and ``f(w)``.

The same collapse preserves output-port colorings and outdegree
valuations (§4.1), so one harness serves all three enriched models as
well as simple broadcast.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Callable, List, Optional, Sequence

from repro.core.agent import Algorithm
from repro.core.execution import Execution
from repro.core.models import CommunicationModel
from repro.graphs.digraph import DiGraph
from repro.fibrations.fibration import ring_collapse
from repro.fibrations.lifting import lift_valuation
from repro.fibrations.morphism import GraphMorphism
from repro.functions.frequency import frequencies_of


def _is_elementwise(x: Any) -> bool:
    """Containers compared element by element (tuples, lists, ndarrays)."""
    if isinstance(x, (list, tuple)):
        return True
    # Duck-typed ndarray (no hard numpy dependency in this layer): sized,
    # indexable, and not one of the atomic/unordered payload types.
    return (
        hasattr(x, "__len__")
        and hasattr(x, "__getitem__")
        and not isinstance(x, (str, bytes, dict, set, frozenset))
    )


#: How deep :func:`outputs_match` descends into nested containers before
#: demanding exact ``repr`` equality.  Deep enough for every output shape
#: the harnesses produce (per-round lists of per-agent dicts of float
#: pairs is depth 3); the cap keeps pathological self-referential inputs
#: from recursing unboundedly.
OUTPUTS_MATCH_MAX_DEPTH = 8


def outputs_match(
    x: Any,
    y: Any,
    rel_tol: float = 1e-9,
    abs_tol: float = 1e-12,
    _depth: int = OUTPUTS_MATCH_MAX_DEPTH,
) -> bool:
    """Equality by ``repr``, with a float tolerance.

    Lifted and direct executions are mathematically identical but may
    sum floats in a different order, so numeric outputs are compared up
    to rounding: scalars via ``math.isclose``, and container outputs
    elementwise with the same tolerance.  The descent is recursive to
    :data:`OUTPUTS_MATCH_MAX_DEPTH` levels — tuples, lists, and ndarrays
    compare positionally, dicts key-by-key (per-value frequency tables
    are dict outputs) — so nested float structures like per-round
    output sequences compare correctly; only beyond
    the depth cap does the comparison fall back to exact ``repr``
    equality.  (The pre-PR-7 version descended a single level, so a list
    of per-agent float vectors — e.g. nested averages — spuriously
    mismatched on last-ulp differences.)"""
    if repr(x) == repr(y):
        return True
    if _depth > 0:
        if isinstance(x, dict) and isinstance(y, dict):
            if set(x.keys()) != set(y.keys()):
                return False
            return all(
                outputs_match(x[k], y[k], rel_tol=rel_tol, abs_tol=abs_tol, _depth=_depth - 1)
                for k in x
            )
        if _is_elementwise(x) and _is_elementwise(y):
            if len(x) != len(y):
                return False
            return all(
                outputs_match(a, b, rel_tol=rel_tol, abs_tol=abs_tol, _depth=_depth - 1)
                for a, b in zip(x, y)
            )
    try:
        return math.isclose(float(x), float(y), rel_tol=rel_tol, abs_tol=abs_tol)
    except (TypeError, ValueError):
        return False


#: Backwards-compatible private alias (pre-1.1 name).
_outputs_match = outputs_match


def verify_lifting_on_outputs(
    phi: GraphMorphism,
    algorithm_factory: Callable[[], Algorithm],
    base_inputs: Sequence[Any],
    rounds: int,
) -> bool:
    """Empirical Lifting lemma: for ``rounds`` rounds, the execution on the
    total graph with fibrewise-copied inputs produces, at every round, the
    fibrewise copy of the base execution's outputs.

    Fresh algorithm instances are used for both executions (they must be
    the *same* algorithm, i.e. the same factory).
    """
    base_exec = Execution(algorithm_factory(), phi.target_graph, inputs=list(base_inputs))
    total_exec = Execution(
        algorithm_factory(), phi.source_graph, inputs=lift_valuation(phi, base_inputs)
    )
    for _ in range(rounds):
        base_exec.step()
        total_exec.step()
        expected = lift_valuation(phi, base_exec.outputs())
        got = total_exec.outputs()
        if not all(outputs_match(x, y) for x, y in zip(expected, got)):
            return False
    return True


@dataclass
class CollapseOutcome:
    """Result of running one algorithm across a collapse diagram.

    ``outputs_*`` are the final per-agent outputs on each ring; ``lifted``
    records whether both big executions tracked the base fibrewise at
    every round (the Lifting lemma's prediction — always true for a real
    anonymous algorithm).
    """

    base_values: List[Any]
    outputs_base: List[Any]
    outputs_big: List[Any]
    outputs_other: List[Any]
    lifted: bool


def demonstrate_collapse(
    algorithm_factory: Callable[[], Algorithm],
    n: int,
    m: int,
    base_values: Sequence[Any],
    rounds: int,
    model: CommunicationModel = CommunicationModel.SIMPLE_BROADCAST,
) -> CollapseOutcome:
    """Run one algorithm on ``R_n``, ``R_m``, and their common base ``R_p``.

    ``base_values`` (length ``p``, with ``p | n`` and ``p | m``) define the
    inputs; both big rings receive the lifted vectors, which are equivalent
    in frequency by construction.  The collapse carries the decoration the
    model needs (ports / outdegrees), so the experiment is valid in any of
    the four communication models.
    """
    p = len(base_values)
    if n % p or m % p:
        raise ValueError(f"need p | n and p | m, got p={p}, n={n}, m={m}")
    with_ports = model is CommunicationModel.OUTPUT_PORT_AWARE
    phi_n = ring_collapse(n, p, with_ports=with_ports)
    phi_m = ring_collapse(m, p, with_ports=with_ports)
    ok_n = verify_lifting_on_outputs(phi_n, algorithm_factory, base_values, rounds)
    ok_m = verify_lifting_on_outputs(phi_m, algorithm_factory, base_values, rounds)

    base_exec = Execution(
        algorithm_factory(), phi_n.target_graph, inputs=list(base_values)
    ).run(rounds)
    big_exec = Execution(
        algorithm_factory(), phi_n.source_graph, inputs=lift_valuation(phi_n, base_values)
    ).run(rounds)
    other_exec = Execution(
        algorithm_factory(), phi_m.source_graph, inputs=lift_valuation(phi_m, base_values)
    ).run(rounds)
    return CollapseOutcome(
        base_values=list(base_values),
        outputs_base=base_exec.outputs(),
        outputs_big=big_exec.outputs(),
        outputs_other=other_exec.outputs(),
        lifted=ok_n and ok_m,
    )


def two_fibre_cover(z_a: int, z_c: int, value_a: Any = "alpha", value_c: Any = "gamma"):
    """A strongly connected graph with two fibres of chosen cardinalities.

    All graphs from this family share one minimum base (two classes ``A``
    and ``C``: ``A`` hears one ``C``; ``C`` hears one ``A`` and one ``C``),
    so *under simple broadcast* an algorithm behaves identically on all of
    them — yet the value frequencies are ``(z_a, z_c)/(z_a + z_c)``.
    Picking non-proportional cardinality pairs yields the impossibility
    certificates for the broadcast column of Tables 1 and 2:

    * ``(1, 2)`` vs ``(1, 3)`` — frequency-based functions (e.g. the
      average) are not computable, even with a bound on ``n``
      (Hendrickx et al. [20] / Boldi & Vigna [6]);
    * ``(1, 3)`` vs ``(2, 2)`` — not even when ``n`` itself is known
      (footnote a: needs ``n ≥ 4``);
    * ``(1, 2)`` vs ``(1, 3)`` with ``value_a`` marked as the leader —
      not even with one leader (footnote b).

    Construction (``z_c ≥ z_a ≥ 1``): ``C``-vertices form a directed
    cycle; each ``C``-vertex hears one ``A``-vertex (round-robin); the
    first ``z_a`` ``C``-vertices feed back one ``A``-vertex each.
    """
    if not (1 <= z_a <= z_c):
        raise ValueError("need 1 <= z_a <= z_c")
    n = z_a + z_c
    a = list(range(z_a))
    c = list(range(z_a, n))
    specs = []
    for k in range(z_c):
        specs.append((c[k], c[(k + 1) % z_c]))  # C-cycle
        specs.append((a[k % z_a], c[k]))  # each C hears one A
    for k in range(z_a):
        specs.append((c[k], a[k]))  # each A hears one C
    values = [value_a] * z_a + [value_c] * z_c
    return DiGraph(n, sorted(set(specs)), values=values, ensure_self_loops=True)


def frequency_counterexample(
    f: Callable[[Sequence[Any]], Any],
    base_values: Sequence[Any],
    reps_v: int = 1,
    reps_w: int = 2,
) -> Optional[dict]:
    """A certificate that ``f`` cannot be computed (if not frequency-based).

    Builds ``v`` = ``base_values`` repeated ``reps_v`` times and ``w``
    repeated ``reps_w`` times — equivalent in frequency by construction —
    and checks ``f(v) != f(w)``.  Returns the certificate dict (vectors,
    values, ring sizes for the collapse) or ``None`` when ``f`` takes equal
    values (no counterexample from this base).

    The comparison goes through :func:`outputs_match`, not exact ``repr``
    equality: a genuinely frequency-based ``f`` evaluated in floating
    point (e.g. a naive ``sum(v)/len(v)`` average) can differ between
    ``v`` and ``w`` in the last bit purely from summation order, and that
    rounding noise must not be certified as a counterexample."""
    p = len(base_values)
    v = list(base_values) * reps_v
    w = list(base_values) * reps_w
    assert frequencies_of(v) == frequencies_of(w)
    fv, fw = f(v), f(w)
    if outputs_match(fv, fw):
        return None
    from repro.analysis.provenance import Manifest

    return {
        "base_values": list(base_values),
        "v": v,
        "w": w,
        "f(v)": fv,
        "f(w)": fw,
        "n": p * reps_v,
        "m": p * reps_w,
        "manifest": Manifest(
            kind="impossibility",
            n=p * reps_v,
            extra={"m": p * reps_w, "p": p},
        ).to_dict(),
    }


def verify_counterexample(cert: dict) -> List[str]:
    """Re-verify a :func:`frequency_counterexample` certificate; returns
    the list of problems (empty = the certificate is sound).

    The check is independent of how the certificate was produced — and
    deliberately goes through the tolerance-aware :func:`outputs_match`,
    so a certificate whose recorded values differ only by float rounding
    (summation-order noise) is *rejected*, mirroring the emission path.
    """
    problems: List[str] = []
    v, w = cert.get("v"), cert.get("w")
    if not v or not w:
        return ["certificate has no input vectors"]
    if frequencies_of(v) != frequencies_of(w):
        problems.append("v and w are not equivalent in frequency")
    if outputs_match(cert.get("f(v)"), cert.get("f(w)")):
        problems.append("recorded f(v) and f(w) agree up to tolerance — no counterexample")
    if cert.get("n") != len(v) or cert.get("m") != len(w):
        problems.append("recorded ring sizes do not match the vectors")
    manifest = cert.get("manifest")
    if not manifest or manifest.get("kind") != "impossibility":
        problems.append("certificate carries no impossibility manifest")
    return problems
