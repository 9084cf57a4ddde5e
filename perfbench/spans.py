"""In-process tracing of the package's layers, from outside the package.

Tracer.install wraps each public function at the name the package calls it
through, so a call from the CLI, from another module, or from a lambda the
CLI builds all land in a span. Spans carry name, start, end, parent and the
draws consumed while they ran; they stay in memory until the run writes them
out. Every wrapper is removed again by Tracer.uninstall.
"""

from __future__ import annotations

import importlib
import time
from collections import defaultdict
from contextlib import contextmanager

RULE_SUFFIX = {"exact_binomial": "binom", "wilson_interval": "wilson", "fixed_tolerance": "fixed"}

# (module, attribute, span name): the names the package resolves at call time
_WRAPPED = [
    ("qumark.keys", "derive_indices", "keys.derive_indices"),
    ("qumark.carrier", "ingest_raw", "carrier.ingest"),
    ("qumark.carrier", "ingest_pgm", "carrier.ingest"),
    ("qumark.cli", "build_message", "watermark.build_message"),
    ("qumark.cli", "embed", "watermark.embed"),
    ("qumark.cli", "observe", "watermark.observe"),
    ("qumark.cli", "verify", "watermark.verify"),
    ("qumark.attacks", "verify", "watermark.verify"),
    ("qumark.stats", "decide", None),  # named by rule kind
    ("qumark.stats", "recommended_sample_size", "stats.recommended_sample_size"),
    ("qumark.cli", "noise_attack", "attacks.noise_attack"),
    ("qumark.cli", "shift_attack", "attacks.shift_attack"),
    ("qumark.cli", "averaging_attack", "attacks.averaging_attack"),
] + [
    ("qumark.fileformats", f"{verb}_{kind}", f"fileformats.{verb}_{kind}")
    for verb in ("dump", "load")
    for kind in ("secret", "quantum_message", "observation")
]


def _counts(name: str, args: tuple, result) -> dict:
    """Work done by one call, as counts."""
    if name == "keys.derive_indices":
        params = args[1]
        return {"keys.marks": params.mark_count, "keys.eligible": params.eligible_count()}
    if name == "carrier.ingest":
        payload = result[0] if isinstance(result, tuple) else result
        return {"carrier.payload_bits": len(payload.bits)}
    if name == "fileformats.dump_quantum_message":
        return {"fileformats.message_bytes": len(result.encode("utf-8"))}
    return {}


class Tracer:
    def __init__(self) -> None:
        self.spans: list[dict] = []
        self.draws = 0
        self._stack: list[int] = []
        self._saved: list[tuple] = []

    def _open(self, name: str) -> dict:
        span = {
            "id": len(self.spans),
            "name": name,
            "parent": self._stack[-1] if self._stack else None,
            "start_ns": time.perf_counter_ns(),
            "end_ns": None,
            "draws": self.draws,
        }
        self.spans.append(span)
        self._stack.append(span["id"])
        return span

    def _close(self, span: dict) -> None:
        span["end_ns"] = time.perf_counter_ns()
        span["draws"] = self.draws - span["draws"]
        self._stack.pop()

    @contextmanager
    def stage(self, name: str):
        span = self._open(name)
        try:
            yield span
        finally:
            self._close(span)

    def _wrap(self, fn, name: str | None):
        def traced(*args, **kwargs):
            span_name = name or f"stats.decide_{RULE_SUFFIX[args[3].kind]}"
            span = self._open(span_name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(span)
            counts = _counts(span_name, args, result)
            if counts:
                span["counts"] = counts
            return result

        return traced

    def install(self) -> None:
        import qumark.cli

        tracer = self

        class CountingSource(qumark.cli.RandomSource):
            def draw(self) -> float:
                tracer.draws += 1
                return super().draw()

        targets = [(qumark.cli, "RandomSource", CountingSource)]
        for module_name, attr, name in _WRAPPED:
            module = importlib.import_module(module_name)
            targets.append((module, attr, self._wrap(getattr(module, attr), name)))
        for module, attr, replacement in targets:
            self._saved.append((module, attr, getattr(module, attr)))
            setattr(module, attr, replacement)

    def uninstall(self) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)


def layer_metrics(spans: list[dict]) -> dict[str, float]:
    """Per-layer seconds and counts summed over the spans of one traced pass.

    Times are inclusive, except watermark.verify and the cli stages, which
    report self time: their duration minus the part their child spans cover.
    Children never overlap in this single-threaded replay, so that part is
    the sum of the children's durations.
    """
    child_ns: dict[int, int] = defaultdict(int)
    for span in spans:
        if span["parent"] is not None:
            child_ns[span["parent"]] += span["end_ns"] - span["start_ns"]
    metrics: dict[str, float] = defaultdict(float)
    for span in spans:
        duration = span["end_ns"] - span["start_ns"]
        name = span["name"]
        if name.startswith("cli."):
            metrics["cli.self_s"] += (duration - child_ns[span["id"]]) / 1e9
        elif name == "watermark.verify":
            metrics["watermark.verify_s"] += (duration - child_ns[span["id"]]) / 1e9
        else:
            metrics[f"{name}_s"] += duration / 1e9
        for key, count in span.get("counts", {}).items():
            metrics[key] += count
        if span["parent"] is None:
            metrics["qstate.draws"] += span["draws"]
    return dict(metrics)
