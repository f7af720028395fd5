"""The three workloads: ``backfill``, ``broadcast`` and ``live``.

Each workload has two halves. ``prepare_*`` writes the seeded inputs to a
working directory; it runs in the parent process, so the memory that
generating them takes never counts towards the measured process's peak.
``run_*`` runs in a fresh process over those files and returns an
:class:`Outcome` of raw, additive results: latency samples per request
kind, completed operations, set-up samples, counts, and, when a tracer is
given, the per-layer metrics. Outcomes of several processes merge into one
report (:func:`report`). All load comes from one thread: a closed-loop
client for ``backfill`` and ``broadcast``, an open-loop Poisson generator
for ``live``.

With a tracer, the window alternates untraced and traced stretches (of
``STRETCH_S`` seconds, or of one call on ``backfill``). Per-layer metrics
come from the traced stretches and the service-time ratio between the two
kinds of stretch is the tracing overhead; the machine's speed drifts over
seconds, so short interleaved stretches compare like with like.
"""

from __future__ import annotations

import gc
import io
import json
import pickle
import re
import resource
import time
from contextlib import redirect_stdout
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from binaryshield import cli, embeddings, fingerprint, protocol, redaction, store
from binaryshield.errors import FrameDecodeError
from binaryshield.textproc import derive_seed

import checks
from inputs import (ALPHA, DIM, N_BYTES, TAU, PromptFactory, make_frames,
                    make_peer_log, peer_ids, poisson_schedule, write_prompt_chunks,
                    write_snapshot)
from tracing import Tracer, summarize

STRETCH_S = 0.5
# Prompts per `fingerprint` call in backfill: one JSONL file the size of the
# repo's documented labelled dataset (`binaryshield gen pairs --attack 500
# --benign 500`). The call's fixed cost (rule compilation, a cold token
# cache, click) is then under 1% of its time, as in a real backfill.
PROMPTS_PER_CALL = 1000
BACKFILL_FILES = 8
PEER_LOG = 100_000
LIVE_RATE = 30.0        # requests/s offered to the live service
DETECT_EVERY = 3        # one local detection for every two peer answers
TOPK = 5
PEER_SETUPS = 2         # load_snapshot + first search, per process
clock = time.perf_counter


@dataclass
class Outcome:
    attempted: int
    failed: int
    ops: int                    # completed prompts (backfill) or requests
    window_s: float
    setup_s: list[float]
    peak_rss_mb: float
    latency_s: dict[str, list[float]]   # per request kind
    counts: dict[str, float]            # additive: summed across processes
    per_layer: dict[str, float] | None = None


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def current_rss_bytes() -> int:
    with open("/proc/self/statm") as fh:
        return int(fh.read().split()[1]) * resource.getpagesize()


def pct(values, q: float) -> float:
    return float(np.percentile(np.asarray(values, dtype=float), q)) if len(values) else 0.0


def latency_summary(prefix: str, seconds: list[float]) -> dict:
    ms = [s * 1e3 for s in seconds]
    return {f"{prefix}_p50_ms": pct(ms, 50), f"{prefix}_p90_ms": pct(ms, 90),
            f"{prefix}_p99_ms": pct(ms, 99), f"{prefix}_samples": len(ms)}


# The request kind whose latency each workload's end-to-end metrics report.
PRIMARY = {"backfill": "prompt", "broadcast": "answer", "live": "detect"}


def merge(outcomes: list[Outcome]) -> Outcome:
    """Pool the outcomes of several processes of one workload."""
    latency: dict[str, list[float]] = {}
    counts: dict[str, float] = {}
    for o in outcomes:
        for kind, values in o.latency_s.items():
            latency.setdefault(kind, []).extend(values)
        for key, value in o.counts.items():
            counts[key] = counts.get(key, 0) + value
    return Outcome(attempted=sum(o.attempted for o in outcomes),
                   failed=sum(o.failed for o in outcomes),
                   ops=sum(o.ops for o in outcomes),
                   window_s=sum(o.window_s for o in outcomes),
                   setup_s=[s for o in outcomes for s in o.setup_s],
                   peak_rss_mb=max(o.peak_rss_mb for o in outcomes),
                   latency_s=latency, counts=counts,
                   per_layer=outcomes[0].per_layer if len(outcomes) == 1 else None)


def report(workload: str, o: Outcome) -> tuple[dict[str, float], dict]:
    """End-to-end metrics and the per-request-kind detail of an outcome."""
    primary = latency_summary("", o.latency_s[PRIMARY[workload]])
    metrics = {"setup_s": float(np.median(o.setup_s)),
               "throughput_ops_s": o.ops / o.window_s,
               "latency_p50_ms": primary["_p50_ms"],
               "latency_p90_ms": primary["_p90_ms"],
               "peak_rss_mb": o.peak_rss_mb}
    detail = {"failed_frac": o.failed / max(o.attempted, 1),
              "setup_samples": len(o.setup_s)}
    for kind, values in o.latency_s.items():
        detail.update(latency_summary(kind, values))
    c = o.counts
    if c.get("answers"):
        detail["answers_with_matches_frac"] = c["answers_with_matches"] / c["answers"]
        detail["matches_when_any"] = (c["matches"] / c["answers_with_matches"]
                                      if c["answers_with_matches"] else 0.0)
    if "busy_s" in c:
        detail["utilisation"] = c["busy_s"] / o.window_s
    detail.update({k: v for k, v in c.items() if k not in ("busy_s", "matches")})
    return metrics, detail


class Stretches:
    """Switches the tracer on for every second stretch of the window."""

    def __init__(self, tracer: Tracer | None):
        self.tracer = tracer

    def at(self, offset_s: float) -> bool:
        return self.set(int(offset_s / STRETCH_S) % 2 == 1)

    def set(self, traced: bool) -> bool:
        if self.tracer is None:
            return False
        if traced:
            self.tracer.enable()
        else:
            self.tracer.disable()
        return traced


def overhead(service: list[float], traced: list[bool], kinds: list[str]) -> float:
    """Mean service time traced over untraced, minus one, weighting each
    request kind by how often it ran."""
    extra = base = 0.0
    for kind in set(kinds):
        on = [s for s, t, k in zip(service, traced, kinds) if k == kind and t]
        off = [s for s, t, k in zip(service, traced, kinds) if k == kind and not t]
        if on and off:
            n = len(on) + len(off)
            extra += n * (np.mean(on) - np.mean(off))
            base += n * np.mean(off)
    return extra / base if base else 0.0


def traced_layers(tracer: Tracer, required, service, traced, kinds,
                  ops) -> dict[str, float]:
    tracer.require(required)
    busy = sum(s for s, t in zip(service, traced) if t)
    n_ops = sum(o for o, t in zip(ops, traced) if t)
    out = summarize(tracer, busy, n_ops)
    out["trace.overhead_frac"] = overhead(service, traced, kinds)
    return out


# Spans a traced run of each workload must record. If one is missing, the
# program no longer reaches the layer through the traced name, and its
# per-layer metrics would read 0 instead of failing.
PIPELINE_SPANS = ("redaction.redact", "embeddings.embed", "fingerprint.quantize",
                  "fingerprint.randomize", "protocol.encode_frame")
ANSWER_SPANS = ("protocol.decode_frame", "protocol.broadcast",
                "store.search_threshold", "kernels.scan_distances")


# -- backfill -----------------------------------------------------------------------

def prepare_backfill(seed: int, seconds: float, workdir: Path,
                     n_files: int = BACKFILL_FILES,
                     per_file: int = PROMPTS_PER_CALL) -> None:
    write_prompt_chunks(seed, n_files, per_file, workdir / "prompts")
    write_prompt_chunks(seed + 2**40, 1, 20, workdir / "warmup")


def _read_jsonl(path: Path) -> list[dict]:
    return [json.loads(line) for line in path.read_text("utf-8").splitlines()]


def run_backfill(seed: int, seconds: float, workdir: Path,
                 tracer: Tracer | None = None, setup_reps: int = 16,
                 check_every: int = 20) -> Outcome:
    """The ``fingerprint`` command run in-process over JSONL files of
    flagged prompts, one call after another."""
    files = sorted((workdir / "prompts").glob("*.jsonl"))
    sizes = [f.read_bytes().count(b"\n") for f in files]
    config = embeddings.ProviderConfig(kind=embeddings.ProviderKind.PSEUDO,
                                       dim=DIM, model_id=f"pseudo-{DIM}")
    # Each set-up compiles the rules from scratch, as a fresh process would.
    # The pause between them spreads the samples over half a second: back
    # to back, all of them land in the same phase of the machine's drift.
    setup = []
    for _ in range(setup_reps):
        re.purge()
        t0 = clock()
        redaction.Redactor.default()
        embeddings.make_provider(config)
        setup.append(clock() - t0)
        time.sleep(0.025)

    out_dir = workdir / "frames"
    out_dir.mkdir()
    cli_seed = seed % 2**32

    def argv(path: Path, out: Path) -> list[str]:
        return ["fingerprint", "--input", str(path), "--out", str(out),
                "--service-id", "bf", "--seed", str(cli_seed),
                "--dim", str(DIM), "--alpha", str(ALPHA)]

    sink = io.StringIO()
    with redirect_stdout(sink):
        cli.main(argv(next((workdir / "warmup").glob("*.jsonl")), out_dir / "warmup.bin"),
                 standalone_mode=False)

    # Calls run about a second each, so the traced run alternates whole calls.
    stretches = Stretches(tracer)
    calls = []      # (file index, output path, service seconds, traced, error)
    start = clock()
    end = start + seconds
    k = 0
    while clock() < end:
        traced = stretches.set(k % 2 == 1)
        f = k % len(files)
        out = out_dir / f"call{k:06d}.bin"
        error = None
        t0 = clock()
        try:
            with redirect_stdout(sink):
                if traced:
                    tracer.call("cli.fingerprint", cli.main, argv(files[f], out),
                                standalone_mode=False)
                else:
                    cli.main(argv(files[f], out), standalone_mode=False)
        except Exception as exc:  # a failed call fails all of its prompts
            error = exc
        calls.append((f, out, clock() - t0, traced, error))
        k += 1
        sink.seek(0)
        sink.truncate()
    window = clock() - start
    if tracer is not None:
        tracer.disable()
    rss = peak_rss_mb()

    redactor = redaction.Redactor.default()
    provider = embeddings.make_provider(config)
    records_of = {}
    failed = leaks = 0
    for k, (f, out, _service, _traced, error) in enumerate(calls):
        if f not in records_of:
            records_of[f] = _read_jsonl(files[f])
        records = records_of[f]
        lines = out.read_bytes().splitlines(keepends=True) if error is None else []
        if len(lines) != len(records):
            failed += len(records)
            continue
        for i, (rec, line) in enumerate(zip(records, lines)):
            try:
                composite = protocol.decode_frame(line)
            except FrameDecodeError:
                failed += 1
                continue
            leaked = checks.leaked_tokens(rec["text"], line)
            leaks += len(leaked)
            ok = (composite.fingerprint_id == rec["id"]
                  and composite.origin_service == "bf" and not leaked)
            if ok and i % check_every == k % check_every:
                expected = fingerprint.randomize(
                    fingerprint.quantize(provider.embed(redactor.redact(rec["text"]))),
                    fingerprint.PrivacyBudget.of(ALPHA),
                    derive_seed(cli_seed, "bf", rec["id"]))
                ok = expected.bits == composite.decoded_bits()
            failed += not ok

    service = [s for _, _, s, _, _ in calls]
    prompts = [sizes[f] for f, *_ in calls]
    per_layer = None
    if tracer is not None:
        traced = [t for _, _, _, t, _ in calls]
        per_layer = traced_layers(tracer, ("cli.fingerprint",) + PIPELINE_SPANS,
                                  service, traced, ["call"] * len(calls), prompts)
    return Outcome(attempted=sum(prompts), failed=failed,
                   ops=sum(n for n, (*_, e) in zip(prompts, calls) if e is None),
                   window_s=window, setup_s=setup, peak_rss_mb=rss,
                   latency_s={"prompt": [s / n for s, n in zip(service, prompts)],
                              "call": service},
                   counts={"calls": len(calls), "distinct_prompts":
                           sum(sizes[f] for f in records_of), "token_leaks": leaks},
                   per_layer=per_layer)


# -- the peer log: set-up shared by broadcast and live ----------------------------

def prepare_peer(seed: int, workdir: Path, n_log: int):
    """The peer's snapshot and, for the checks, the benchmark's own copy of
    its rows. Returns the log, from which the frames are made."""
    log = make_peer_log(seed, n_log)
    write_snapshot(log, workdir / "peer.bsfp")
    np.save(workdir / "peer-rows.npy", log.rows)
    return log


def load_oracle(workdir: Path, spare: int = 0) -> checks.LogOracle:
    rows = np.load(workdir / "peer-rows.npy")
    return checks.LogOracle(rows, peer_ids(rows.shape[0]), spare=spare)


PROBE = bytes(N_BYTES)


def setup_once(path: Path):
    """load_snapshot, then the first search, which builds the word matrix."""
    gc.collect()
    t0 = clock()
    st = store.FingerprintStore.load_snapshot(path)
    t1 = clock()
    st.search_threshold(PROBE, TAU)
    return st, clock() - t0, t1 - t0


@dataclass
class Peer:
    store: store.FingerprintStore
    setup_s: list[float]
    load_snapshot_s: list[float]
    bytes_per_entry: float

    @classmethod
    def load(cls, path: Path) -> "Peer":
        """The first set-up of the process; memory per entry is taken on it,
        before any freed memory can be reused."""
        rss0 = current_rss_bytes()
        st, total, load = setup_once(path)
        return cls(st, [total], [load], (current_rss_bytes() - rss0) / len(st))

    def repeat_setup(self, path: Path, reps: int) -> None:
        """Further set-up samples, taken after the window has closed and
        its peak memory has been read, with the served store released."""
        self.store = None
        for _ in range(reps):
            st, total, load = setup_once(path)
            del st
            self.setup_s.append(total)
            self.load_snapshot_s.append(load)


def answer(data: bytes, peers: list) -> tuple[bytes, object]:
    """decode_frame -> broadcast -> reply bytes. A malformed frame gets an
    error reply; its outcome is the FrameDecodeError."""
    try:
        composite = protocol.decode_frame(data)
    except FrameDecodeError as exc:
        return json.dumps({"error": str(exc)}).encode("utf-8"), exc
    replies = protocol.broadcast(composite, peers)
    return json.dumps([r.to_dict() for r in replies]).encode("utf-8"), replies


def answer_ok(frame, outcome, oracle: checks.LogOracle, n_rows: int,
              service_id: str) -> bool:
    if frame.kind == "malformed":
        return isinstance(outcome, FrameDecodeError)
    if not isinstance(outcome, list) or len(outcome) != 1:
        return False
    reply = outcome[0]
    return (reply.error is None and reply.service_id == service_id
            and reply.fingerprint_id == json.loads(frame.data)["fingerprint_id"]
            and reply.match_count == oracle.count_within(frame.bits, TAU, n_rows))


def answer_counts(frames, outcomes) -> dict[str, int]:
    counts = [o[0].match_count for o in outcomes if isinstance(o, list) and o]
    return {"answers": len(counts), "answers_with_matches": sum(c > 0 for c in counts),
            "matches": sum(counts),
            "malformed_frames": sum(f.kind == "malformed" for f in frames)}


def peer_layers(per_layer: dict, peer: Peer) -> None:
    per_layer.update({"store.load_snapshot_s": float(np.median(peer.load_snapshot_s)),
                      "store.bytes_per_entry": peer.bytes_per_entry})


# -- broadcast -------------------------------------------------------------------

def prepare_broadcast(seed: int, seconds: float, workdir: Path,
                      n_log: int = PEER_LOG, pool: int = 4096) -> None:
    log = prepare_peer(seed, workdir, n_log)
    with open(workdir / "frames.pkl", "wb") as fh:
        pickle.dump(make_frames(seed, pool, log), fh)


def run_broadcast(seed: int, seconds: float, workdir: Path,
                  tracer: Tracer | None = None, setup_reps: int = PEER_SETUPS,
                  check_every: int = 25) -> Outcome:
    """A peer answering incoming frames against its read-only log."""
    with open(workdir / "frames.pkl", "rb") as fh:
        frames = pickle.load(fh)
    pool = len(frames)
    snapshot = workdir / "peer.bsfp"
    peer = Peer.load(snapshot)
    peers = [protocol.ServiceNode(service_id="S1", store=peer.store, tau=TAU)]
    for frame in frames[:20]:
        answer(frame.data, peers)

    stretches = Stretches(tracer)
    records = []    # (frame index, outcome, service seconds, traced)
    start = clock()
    end = start + seconds
    k = 0
    while (now := clock()) < end:
        traced = stretches.at(now - start)
        i = k % pool
        t0 = clock()
        try:
            _reply, outcome = answer(frames[i].data, peers)
        except Exception as exc:
            outcome = exc
        records.append((i, outcome, clock() - t0, traced))
        k += 1
    window = clock() - start
    if tracer is not None:
        tracer.disable()
    rss = peak_rss_mb()
    peers = None
    peer.repeat_setup(snapshot, setup_reps - 1)

    oracle = load_oracle(workdir)
    failed = 0
    for k, (i, outcome, _s, _t) in enumerate(records):
        frame = frames[i]
        if isinstance(outcome, Exception) and not isinstance(outcome, FrameDecodeError):
            failed += 1
        elif (frame.kind in ("malformed", "boundary") or k % check_every == 0) and k < pool:
            failed += not answer_ok(frame, outcome, oracle, len(oracle), "S1")

    service = [s for _, _, s, _ in records]
    per_layer = None
    if tracer is not None:
        per_layer = traced_layers(tracer, ANSWER_SPANS, service,
                                  [t for *_, t in records],
                                  ["answer"] * len(records), [1] * len(records))
        peer_layers(per_layer, peer)
    counts = answer_counts([frames[i] for i, *_ in records], [o for _, o, _, _ in records])
    counts["distinct_frames"] = min(len(records), pool)
    return Outcome(attempted=len(records), failed=failed, ops=len(records),
                   window_s=window, setup_s=peer.setup_s, peak_rss_mb=rss,
                   latency_s={"answer": service}, counts=counts, per_layer=per_layer)


# -- live ----------------------------------------------------------------------------

def _wait_until(due: float) -> None:
    # sleep() overshoots by tens of microseconds; spin the last millisecond.
    remaining = due - clock()
    if remaining > 0.002:
        time.sleep(remaining - 0.001)
    while clock() < due:
        pass


def detect(node, text: str, config, fid: str, issued_at: int):
    """ingest_detection -> search_topk on the service's own log -> encode_frame."""
    composite = protocol.ingest_detection(node, text, {"region": "eu"}, config,
                                          fingerprint_id=fid, issued_at=issued_at)
    top = node.store.search_topk(composite.decoded_bits(), TOPK)
    return composite, top, protocol.encode_frame(composite)


def prepare_live(seed: int, seconds: float, workdir: Path, n_log: int = PEER_LOG,
                 rate: float = LIVE_RATE) -> None:
    log = prepare_peer(seed, workdir, n_log)
    schedule = poisson_schedule(seed, rate, seconds, DETECT_EVERY)
    prompts, warm = PromptFactory(seed, stream=1), PromptFactory(seed, stream=2)
    traffic = {"schedule": schedule,
               "frames": make_frames(seed, len(schedule), log),
               "texts": [prompts.prompt() if is_detect else None
                         for _, is_detect in schedule],
               "warm": [warm.prompt() for _ in range(200)]}
    with open(workdir / "traffic.pkl", "wb") as fh:
        pickle.dump(traffic, fh)


def run_live(seed: int, seconds: float, workdir: Path,
             tracer: Tracer | None = None, setup_reps: int = PEER_SETUPS,
             check_every: int = 4) -> Outcome:
    """The same peer as a member of a three-service federation: Poisson
    arrivals of local detections and peers' frames; each request is timed
    from its due time."""
    with open(workdir / "traffic.pkl", "rb") as fh:
        traffic = pickle.load(fh)
    schedule, frames, texts = traffic["schedule"], traffic["frames"], traffic["texts"]
    snapshot = workdir / "peer.bsfp"
    peer = Peer.load(snapshot)
    node = protocol.ServiceNode(service_id="S1", store=peer.store, tau=TAU)
    peers = [node]
    config = protocol.PipelineConfig(
        redactor=redaction.Redactor.default(),
        provider=embeddings.PseudoEmbedder(dim=DIM), alpha=ALPHA,
        base_seed=seed, dim=DIM)
    for text in traffic["warm"]:    # a running service has a warm token cache
        config.provider.embed(config.redactor.redact(text))

    stretches = Stretches(tracer)
    records = []    # (index, outcome, latency, service, lag, traced)
    deadline = 2 * seconds + 5
    start = last_end = clock() + 0.05
    for j, (offset, is_detect) in enumerate(schedule):
        due = start + offset
        _wait_until(due)
        if clock() - start > deadline:
            late = clock() - due
            records.append((j, TimeoutError("not served"), late, 0.0, late, False))
            continue
        traced = stretches.at(offset)
        t0 = clock()
        try:
            if is_detect:
                outcome = detect(node, texts[j], config, f"S1-d{j}", j)
            else:
                outcome = answer(frames[j].data, peers)[1]
        except Exception as exc:
            outcome = exc
        t1 = last_end = clock()
        records.append((j, outcome, t1 - due, t1 - t0, t0 - due, traced))
    window = last_end - start
    if tracer is not None:
        tracer.disable()
    rss = peak_rss_mb()
    node = peers = None
    peer.repeat_setup(snapshot, setup_reps - 1)

    oracle = load_oracle(workdir, spare=len(schedule))
    failed = leaks = 0
    for k, (j, outcome, *_rest) in enumerate(records):
        if not schedule[j][1]:
            if isinstance(outcome, Exception) and not isinstance(outcome, FrameDecodeError):
                failed += 1
            elif frames[j].kind in ("malformed", "boundary") or k % check_every == 0:
                failed += not answer_ok(frames[j], outcome, oracle, len(oracle), "S1")
            continue
        if isinstance(outcome, Exception):
            failed += 1
            continue
        composite, top, frame = outcome
        bits = composite.decoded_bits()
        oracle.append(composite.fingerprint_id, bits)
        expected = fingerprint.randomize(
            fingerprint.quantize(config.provider.embed(config.redactor.redact(texts[j]))),
            fingerprint.PrivacyBudget.of(ALPHA), derive_seed(seed, "S1", f"S1-d{j}"))
        leaked = checks.leaked_tokens(texts[j], frame)
        leaks += len(leaked)
        ok = (expected.bits == bits and not leaked
              and protocol.decode_frame(frame) == composite
              and [(m.id, m.distance) for m in top] == oracle.topk(bits, TOPK, len(oracle)))
        failed += not ok

    service = [r[3] for r in records]
    kinds = ["detect" if schedule[j][1] else "answer" for j, *_ in records]
    latency = {kind: [r[2] for r, k in zip(records, kinds) if k == kind]
               for kind in ("answer", "detect")}
    latency["request"] = [r[2] for r in records]
    latency["lag"] = [r[4] for r in records]
    per_layer = None
    if tracer is not None:
        required = ANSWER_SPANS + PIPELINE_SPANS + (
            "protocol.ingest_detection", "store.insert", "store.search_topk")
        per_layer = traced_layers(tracer, required, service, [r[5] for r in records],
                                  kinds, [1] * len(records))
        peer_layers(per_layer, peer)
        per_layer["loadgen.lag_p99_ms"] = pct(latency["lag"], 99) * 1e3
    counts = answer_counts([frames[j] for j, *_ in records if not schedule[j][1]],
                           [o for (j, o, *_r) in records if not schedule[j][1]])
    counts.update(busy_s=sum(service), token_leaks=leaks)
    return Outcome(attempted=len(records), failed=failed,
                   ops=sum(not isinstance(r[1], TimeoutError) for r in records),
                   window_s=window, setup_s=peer.setup_s, peak_rss_mb=rss,
                   latency_s=latency, counts=counts, per_layer=per_layer)


@dataclass(frozen=True)
class Workload:
    prepare: Callable   # (seed, seconds, workdir) -> None, in the parent
    run: Callable       # (seed, seconds, workdir, tracer=None) -> Outcome


WORKLOADS = {"backfill": Workload(prepare_backfill, run_backfill),
             "broadcast": Workload(prepare_broadcast, run_broadcast),
             "live": Workload(prepare_live, run_live)}
