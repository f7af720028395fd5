"""Tests of the benchmark itself: its inputs, its oracle and the rule that a
wrong output counts as failed. Run with ``python3 -m pytest perfbench``."""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import bootstrap

bootstrap.prepare()

from binaryshield import protocol, store  # noqa: E402
from binaryshield.errors import FrameDecodeError  # noqa: E402

import checks  # noqa: E402
import inputs  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from tracing import Tracer, TracingError  # noqa: E402

HERE = Path(__file__).resolve().parent


def test_inputs_repeat_for_a_seed_and_differ_across_seeds():
    a, b, c = (inputs.make_peer_log(s, 500) for s in (4, 4, 5))
    assert (a.rows == b.rows).all() and not (a.rows == c.rows).all()
    fa = [f.data for f in inputs.make_frames(4, 300, a)]
    assert fa == [f.data for f in inputs.make_frames(4, 300, b)]
    pa, pb = inputs.PromptFactory(4), inputs.PromptFactory(4)
    assert [pa.prompt() for _ in range(50)] == [pb.prompt() for _ in range(50)]
    assert inputs.poisson_schedule(4, 30, 2, 3) == inputs.poisson_schedule(4, 30, 2, 3)
    assert sum(d for _, d in inputs.poisson_schedule(4, 30, 2, 3)) == 20


def test_snapshot_loads_into_the_store(tmp_path):
    log = inputs.make_peer_log(2, 300)
    inputs.write_snapshot(log, tmp_path / "log.bsfp")
    loaded = store.FingerprintStore.load_snapshot(tmp_path / "log.bsfp")
    assert len(loaded) == 300 and loaded.dim == inputs.DIM
    assert [e.bits for e in loaded] == [r.tobytes() for r in log.rows]


def test_every_malformed_frame_is_a_frame_decode_error():
    log = inputs.make_peer_log(3, 500)
    frames = inputs.make_frames(3, 3000, log)
    kinds = {f.kind for f in frames}
    assert kinds == {"random", "campaign", "boundary", "malformed"}
    for frame in frames:
        if frame.kind == "malformed":
            with pytest.raises(FrameDecodeError):
                protocol.decode_frame(frame.data)
        else:
            assert protocol.decode_frame(frame.data).decoded_bits() == frame.bits


def test_oracle_orders_ties_by_insertion():
    rows = inputs.make_peer_log(1, 50).rows
    oracle = checks.LogOracle(rows, [f"e{i}" for i in range(50)])
    oracle.append("dup", rows[7].tobytes())
    top = oracle.topk(rows[7].tobytes(), 2, len(oracle))
    assert top == [("e7", 0), ("dup", 0)]
    assert oracle.count_within(rows[7].tobytes(), 0, 50) == 1


def test_wrong_reply_is_not_accepted():
    log = inputs.make_peer_log(6, 800)
    oracle = checks.LogOracle(log.rows, log.ids)
    st = store.FingerprintStore(dim=inputs.DIM)
    for ident, row in zip(log.ids, log.rows):
        st.insert(store.StoredFingerprint(id=ident, bits=row.tobytes(), dim=inputs.DIM))
    peers = [protocol.ServiceNode("S1", st, inputs.TAU)]
    frames = inputs.make_frames(6, 400, log)
    frame = max((f for f in frames if f.kind == "campaign"),
                key=lambda f: oracle.count_within(f.bits, inputs.TAU, 800))
    _reply, outcome = workloads.answer(frame.data, peers)
    assert workloads.answer_ok(frame, outcome, oracle, 800, "S1")
    assert outcome[0].match_count > 0
    wrong = [protocol.CorrelationReply(r.service_id, r.fingerprint_id,
                                       r.match_count + 1, r.tau_used) for r in outcome]
    assert not workloads.answer_ok(frame, wrong, oracle, 800, "S1")
    bad = next(f for f in frames if f.kind == "malformed")
    assert not workloads.answer_ok(bad, outcome, oracle, 800, "S1")


def test_leaked_token_is_found():
    frame = (b'{"version":1,"origin_service":"bf","fingerprint_id":"r1","dim":8,'
             b'"alpha":2.0,"bits_base64":"AA==","metadata":{"note":"Amsterdam"},'
             b'"issued_at":0}\n')
    assert checks.leaked_tokens("meet me in Amsterdam", frame) == ["Amsterdam"]
    assert checks.leaked_tokens("meet me in Boston", frame) == []


def _off_by_one_broadcast(original):
    def broadcast(composite, peers):
        return [protocol.CorrelationReply(r.service_id, r.fingerprint_id,
                                          r.match_count + 1, r.tau_used)
                for r in original(composite, peers)]
    return broadcast


def _prepared(workload, seed, seconds, workdir, **kw):
    workdir.mkdir(parents=True, exist_ok=True)
    workloads.WORKLOADS[workload].prepare(seed, seconds, workdir, **kw)
    return workdir


def test_broadcast_counts_an_injected_wrong_reply(tmp_path, monkeypatch):
    workdir = _prepared("broadcast", 8, 0.4, tmp_path, n_log=1500, pool=300)
    kw = dict(setup_reps=2, check_every=5)
    good = workloads.run_broadcast(8, 0.4, workdir, **kw)
    assert good.attempted > 0 and good.failed == 0
    assert len(good.setup_s) == 2
    monkeypatch.setattr(protocol, "broadcast", _off_by_one_broadcast(protocol.broadcast))
    bad = workloads.run_broadcast(8, 0.4, workdir, **kw)
    assert bad.failed > 0


def test_live_counts_wrong_top_k(tmp_path, monkeypatch):
    workdir = _prepared("live", 9, 1.0, tmp_path, n_log=1500, rate=80.0)
    good = workloads.run_live(9, 1.0, workdir, setup_reps=1)
    assert good.attempted == 80 and good.failed == 0
    original = store.FingerprintStore.search_topk
    monkeypatch.setattr(store.FingerprintStore, "search_topk",
                        lambda self, q, k, *a: original(self, q, k, *a)[::-1])
    bad = workloads.run_live(9, 1.0, workdir, setup_reps=1)
    assert bad.failed > 0


def test_backfill_counts_frames_with_wrong_bits(tmp_path, monkeypatch):
    kw = dict(n_files=2, per_file=30)
    good = workloads.run_backfill(10, 0.3, _prepared("backfill", 10, 0.3, tmp_path / "a",
                                                     **kw), setup_reps=1, check_every=3)
    assert good.attempted > 0 and good.failed == 0
    assert len(good.latency_s["prompt"]) == good.counts["calls"]
    from binaryshield import cli
    original = cli.randomize
    monkeypatch.setattr(cli, "randomize", lambda b, a, seed: original(b, a, seed + 1))
    bad = workloads.run_backfill(10, 0.3, _prepared("backfill", 10, 0.3, tmp_path / "b",
                                                    **kw), setup_reps=1, check_every=3)
    assert bad.failed > 0


def test_outcomes_of_several_processes_pool_into_one_report(tmp_path):
    parts = [workloads.run_broadcast(
        20 + i, 0.3, _prepared("broadcast", 20 + i, 0.3, tmp_path / str(i), n_log=600,
                               pool=100), setup_reps=1, check_every=5) for i in range(2)]
    merged = workloads.merge(parts)
    assert merged.attempted == sum(p.attempted for p in parts)
    assert len(merged.latency_s["answer"]) == merged.attempted
    assert len(merged.setup_s) == 2
    metrics, detail = workloads.report("broadcast", merged)
    assert [name for name, _ in run.END_TO_END] == list(metrics)
    assert all(value > 0 for value in metrics.values())
    assert detail["failed_frac"] == 0 and detail["answer_samples"] == merged.attempted


def test_tracer_records_spans_and_restores_names(tmp_path):
    original = protocol.decode_frame
    tracer = Tracer()
    tracer.enable()
    assert protocol.decode_frame is not original
    tracer.disable()
    assert protocol.decode_frame is original
    workdir = _prepared("broadcast", 11, 1.2, tmp_path, n_log=600, pool=100)
    outcome = workloads.run_broadcast(11, 1.2, workdir, tracer=tracer, setup_reps=1)
    assert protocol.decode_frame is original
    assert outcome.failed == 0
    layers = outcome.per_layer
    assert layers["kernels.scan_distances_us"] > 0
    assert layers["store.rows_scanned_per_search"] == 600
    assert layers["store.matrix_rebuilds_per_search"] == 0
    assert set(layers) <= {name for name, _ in run.PER_LAYER}


def test_tracer_fails_on_a_target_the_package_lost(monkeypatch):
    from binaryshield import kernels
    monkeypatch.delattr(kernels, "rows_to_words")
    with pytest.raises(TracingError, match="rows_to_words"):
        Tracer()


def test_tracer_fails_on_a_layer_the_workload_did_not_reach():
    tracer = Tracer()
    tracer.enable()
    try:
        protocol.decode_frame(inputs.make_frames(3, 1, inputs.make_peer_log(3, 10))[0].data)
    except FrameDecodeError:
        pass
    finally:
        tracer.disable()
    tracer.require(["protocol.decode_frame"])
    with pytest.raises(TracingError, match="store.search_threshold"):
        tracer.require(["protocol.decode_frame", "store.search_threshold"])


def test_tracer_refuses_a_scan_in_another_layout(monkeypatch):
    import numpy as np
    from binaryshield import kernels
    # A kernel that took the corpus word-major, (words, rows).
    monkeypatch.setattr(kernels, "scan_distances",
                        lambda corpus, query, backend=None: np.zeros(corpus.shape[1]))
    tracer = Tracer()
    tracer.enable()
    try:
        corpus = np.zeros((40, 12), dtype=np.uint64)
        kernels.scan_distances(corpus, corpus[0])
        assert tracer.counters["scan.rows"] == 40
        with pytest.raises(TracingError, match="rows, words"):
            kernels.scan_distances(corpus.T.copy(), corpus[0])
    finally:
        tracer.disable()


def test_benchmark_json_lists_the_reported_metrics():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(run.PER_LAYER)
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)


def test_refuses_to_run_without_the_source_tree(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "backfill",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
