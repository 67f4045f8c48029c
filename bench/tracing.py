"""In-memory spans recorded around calls into coherelab's layers.

A span has a name, a start, an end, a parent and the request it belongs
to (``composed`` for the step-by-step replay of one CLI command,
``probe`` for repeated calls into inner functions, ``serial`` for the
single-thread rerun).  Spans stay in memory and are written out with the
run's record when the benchmark ends.
"""

from __future__ import annotations

from contextlib import contextmanager
from time import perf_counter

# Span names of the composed replay and of the probes; layer_metrics
# turns them into the per-layer metrics that BENCHMARK.json declares.
COMPOSED = (
    "netfile.read_s",
    "coherence.sweep_s",
    "concentration.experiment_s",
    "timedomain.closed_loop_s",
    "timedomain.simulate_s",
    "timedomain.csv_s",
    "cli.format_s",
)
PROBED = (
    "coherence.node_eval_s",
    "coherence.transfer_s",
    "coherence.incoherence_s",
    "coherence.bound_s",
    "coherence.model_build_s",
    "rational.harmonic_mean_s",
    "network.laplacian_s",
    "concentration.sample_s",
)


class Tracer:
    def __init__(self):
        self.origin = perf_counter()
        self.spans: list[dict] = []
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str, request: str):
        record = {
            "id": len(self.spans),
            "name": name,
            "request": request,
            "parent": self._open[-1] if self._open else None,
            "start": perf_counter() - self.origin,
            "end": None,
        }
        self.spans.append(record)
        self._open.append(record["id"])
        try:
            yield record
        finally:
            record["end"] = perf_counter() - self.origin
            self._open.pop()

    def cover(self, names, request: str) -> None:
        """Time the layers this request did not reach, around no work.

        Every run then reports the same names, each a measured span.
        """
        seen = {s["name"] for s in self.spans if s["request"] == request}
        for name in names:
            if name not in seen:
                with self.span(name, request):
                    pass

    def total(self, name: str, request: str) -> float:
        return sum(
            s["end"] - s["start"]
            for s in self.spans
            if s["name"] == name and s["request"] == request
        )

    def self_time(self, span_id: int) -> float:
        """Duration of a span minus the time its direct children cover."""
        span = self.spans[span_id]
        children = sum(
            s["end"] - s["start"] for s in self.spans if s["parent"] == span_id
        )
        return (span["end"] - span["start"]) - children


def layer_metrics(tracer: Tracer, root_id: int, untraced_s: float,
                  bounded: int, bound_attempts: int, compute: str) -> dict[str, float]:
    """Per-layer values from the spans of one traced run.

    ``root_id`` is the composed replay's root span, ``untraced_s`` the
    wall time of the same command run without tracing, and ``compute``
    the composed stage that the ``serial`` request reran with one thread.
    """
    probe = {name: tracer.total(name, "probe") for name in PROBED}
    root = tracer.spans[root_id]
    metrics = {name: tracer.total(name, "composed") for name in COMPOSED}
    metrics["cli.overhead_s"] = tracer.self_time(root_id)
    metrics["coherence.node_eval_s"] = probe["coherence.node_eval_s"]
    metrics["coherence.solve_s"] = probe["coherence.transfer_s"] - probe["coherence.node_eval_s"]
    metrics["coherence.norm_s"] = (
        probe["coherence.incoherence_s"] - probe["coherence.transfer_s"]
        - probe["coherence.node_eval_s"]
    )
    for name in ("coherence.bound_s", "coherence.model_build_s", "rational.harmonic_mean_s",
                 "network.laplacian_s", "concentration.sample_s"):
        metrics[name] = probe[name]
    metrics["coherence.bound_yield"] = bounded / bound_attempts if bound_attempts else 0.0
    metrics["parallel.speedup"] = (
        tracer.total(compute, "serial") / tracer.total(compute, "composed")
    )
    metrics["trace.overhead_s"] = (root["end"] - root["start"]) - untraced_s
    return metrics
