"""Spans and counters recorded around the public functions of each layer.

The tracer wraps functions from the benchmark's side only; nothing under
``src/`` changes. A function imported by name into several modules
(``quantize`` and ``randomize`` in ``protocol`` and ``cli``, say) is
replaced in every module that holds it, and a method is replaced on its
class, so each call site picks up the wrapper where it looks the name up.
``store`` reaches ``kernels`` through the module, so patching the module
attribute covers it. A target the package no longer has is an error, and
so is a target a workload must reach but did not (:meth:`Tracer.require`):
either would make its metrics read 0, which looks like a win.

Spans stay in memory as tuples and are written out once, at the end.
"""

from __future__ import annotations

import json
import time
from collections import Counter, defaultdict
from pathlib import Path

from binaryshield import (cli, embeddings, fingerprint, kernels, protocol,
                          redaction, store)

LAYERS = ("cli", "redaction", "embeddings", "fingerprint", "protocol", "store",
          "kernels")
_MODULES = (fingerprint, protocol, cli, store, kernels)


class TracingError(RuntimeError):
    """The package no longer matches what the tracer patches."""


def _count_entities(counters, args, result):
    counters["redact.calls"] += 1
    counters["redact.entities"] += sum(result.entity_counts.values())


def _count_scan(counters, args, result):
    corpus, query = args[0], args[1]
    # The kernel takes the corpus as (rows, words) and one query row of
    # words; a changed layout must not be miscounted as rows.
    if corpus.ndim != 2 or query.ndim != 1 or corpus.shape[1] != query.shape[0]:
        raise TracingError(f"scan_distances got corpus {corpus.shape} and query "
                           f"{query.shape}, not (rows, words) and (words,)")
    counters["scan.calls"] += 1
    counters["scan.rows"] += corpus.shape[0]
    counters["scan.bytes"] += corpus.nbytes


def _count_matches(counters, args, result):
    counters["search.calls"] += 1
    counters["threshold.calls"] += 1
    counters["threshold.matches"] += len(result)


def _count_search(counters, args, result):
    counters["search.calls"] += 1


def _counter(key):
    def hook(counters, args, result):
        counters[key] += 1
    return hook


# (span name, class or None for a module function, attribute, counter hook)
TARGETS = (
    ("redaction.redact", redaction.Redactor, "redact", _count_entities),
    ("redaction.detect", redaction.Redactor, "detect", _counter("detect.calls")),
    ("embeddings.embed", embeddings.PseudoEmbedder, "embed", None),
    ("fingerprint.quantize", None, "quantize", None),
    ("fingerprint.randomize", None, "randomize", None),
    ("protocol.encode_frame", None, "encode_frame", None),
    ("protocol.decode_frame", None, "decode_frame", None),
    ("protocol.broadcast", None, "broadcast", None),
    ("protocol.ingest_detection", None, "ingest_detection", None),
    ("store.insert", store.FingerprintStore, "insert", None),
    ("store.search_threshold", store.FingerprintStore, "search_threshold",
     _count_matches),
    ("store.search_topk", store.FingerprintStore, "search_topk", _count_search),
    ("kernels.scan_distances", None, "scan_distances", _count_scan),
    ("kernels.rows_to_words", None, "rows_to_words", _counter("rows_to_words.calls")),
)


class Tracer:
    """Span recorder that can be switched on and off between requests, so
    one run interleaves traced and untraced stretches and measures its own
    overhead."""

    def __init__(self):
        self.spans: list = []   # (name, t0, t1, parent index)
        self.counters: Counter = Counter()
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object, object]] = []
        for name, owner, attr, hook in TARGETS:
            module_name = name.split(".")[0]
            if owner is not None:
                original = owner.__dict__.get(attr)
                if original is None:
                    raise TracingError(f"{owner.__qualname__}.{attr} not found")
                self._patches.append(
                    (owner, attr, original, self._wrap(name, original, hook)))
                continue
            home = next((m for m in _MODULES if m.__name__.endswith("." + module_name)))
            original = getattr(home, attr, None)
            if original is None:
                raise TracingError(f"{home.__name__}.{attr} not found")
            wrapped = self._wrap(name, original, hook)
            for module in _MODULES:
                if getattr(module, attr, None) is original:
                    self._patches.append((module, attr, original, wrapped))
        self.enabled = False

    def _wrap(self, name, fn, hook):
        spans, stack, counters = self.spans, self._stack, self.counters
        clock = time.perf_counter

        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                spans[index] = (name, t0, t1, parent)
            if hook is not None:
                hook(counters, args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def enable(self) -> None:
        if not self.enabled:
            for owner, attr, _original, wrapped in self._patches:
                setattr(owner, attr, wrapped)
            self.enabled = True

    def disable(self) -> None:
        if self.enabled:
            for owner, attr, original, _wrapped in self._patches:
                setattr(owner, attr, original)
            self.enabled = False

    def require(self, names) -> None:
        """Fail unless every named span was recorded at least once."""
        seen = {span[0] for span in self.spans if span is not None}
        missing = sorted(set(names) - seen)
        if missing:
            raise TracingError(f"no spans recorded for {', '.join(missing)}")

    def call(self, name: str, fn, *args, **kwargs):
        """Run ``fn`` inside a span the benchmark opens itself (the CLI
        call), so the spans it causes become its children."""
        return self._wrap(name, fn, None)(*args, **kwargs)

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("name,start_s,end_s,parent\n")
            for name, t0, t1, parent in self.spans:
                fh.write(f"{name},{t0:.9f},{t1:.9f},{parent}\n")
            fh.write("# counters " + json.dumps(dict(self.counters), sort_keys=True)
                     + "\n")


def summarize(tracer: Tracer, traced_busy_s: float, traced_ops: int) -> dict[str, float]:
    """Per-layer metrics from the spans of the traced stretches.

    ``traced_busy_s`` is the summed service time of the requests that ran
    traced; whatever part of it no root span covers is ``unattributed``.
    """
    n = len(tracer.spans)
    child = [0.0] * n
    for name, t0, t1, parent in tracer.spans:
        if parent >= 0:
            child[parent] += t1 - t0
    total = defaultdict(float)     # inclusive seconds, outermost calls only
    self_s = defaultdict(float)
    calls = Counter()
    layer_self = defaultdict(float)
    root_s = 0.0
    for i, (name, t0, t1, parent) in enumerate(tracer.spans):
        dur = t1 - t0
        own = dur - child[i]
        self_s[name] += own
        layer_self[name.split(".")[0]] += own
        if parent < 0:
            root_s += dur
        if parent < 0 or tracer.spans[parent][0] != name:
            total[name] += dur
            calls[name] += 1

    def mean(name, scale, use_self=False):
        if not calls[name]:
            return 0.0
        return (self_s if use_self else total)[name] / calls[name] * scale

    c = tracer.counters
    searches = c["search.calls"]
    scan_s = total["kernels.scan_distances"]
    ops = max(traced_ops, 1)
    out = {
        "redaction.redact_us": mean("redaction.redact", 1e6),
        "redaction.detect_calls_per_redact":
            c["detect.calls"] / c["redact.calls"] if c["redact.calls"] else 0.0,
        "redaction.entities_per_prompt":
            c["redact.entities"] / c["redact.calls"] if c["redact.calls"] else 0.0,
        "embeddings.embed_us": mean("embeddings.embed", 1e6),
        "fingerprint.quantize_us": mean("fingerprint.quantize", 1e6),
        "fingerprint.randomize_us": mean("fingerprint.randomize", 1e6),
        "protocol.encode_frame_us": mean("protocol.encode_frame", 1e6),
        "protocol.ingest_detection_self_us":
            mean("protocol.ingest_detection", 1e6, use_self=True),
        "protocol.decode_frame_us": mean("protocol.decode_frame", 1e6),
        "protocol.broadcast_self_us": mean("protocol.broadcast", 1e6, use_self=True),
        "cli.fingerprint_self_s": mean("cli.fingerprint", 1.0, use_self=True),
        "kernels.scan_distances_us": mean("kernels.scan_distances", 1e6),
        "kernels.scan_bytes_per_s": c["scan.bytes"] / scan_s if scan_s else 0.0,
        "kernels.rows_to_words_ms": mean("kernels.rows_to_words", 1e3),
        "store.matrix_rebuilds_per_search":
            c["rows_to_words.calls"] / searches if searches else 0.0,
        "store.search_threshold_self_us":
            mean("store.search_threshold", 1e6, use_self=True),
        "store.matches_per_answer":
            c["threshold.matches"] / c["threshold.calls"] if c["threshold.calls"] else 0.0,
        "store.rows_scanned_per_search": c["scan.rows"] / searches if searches else 0.0,
        "store.search_topk_self_us": mean("store.search_topk", 1e6, use_self=True),
        "store.insert_us": mean("store.insert", 1e6),
    }
    for layer in LAYERS:
        out[f"self.{layer}_us_per_op"] = layer_self[layer] / ops * 1e6
    out["self.unattributed_us_per_op"] = (traced_busy_s - root_s) / ops * 1e6
    out["trace.spans_per_op"] = n / ops
    return out
