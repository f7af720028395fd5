"""``binaryshield`` command-line interface.

Shared knobs are :class:`Knob` options: explicit flag > BINARYSHIELD_<NAME>
environment variable > --config JSON file > built-in default. Outputs are
written atomically (temp file + rename) so a failed run never leaves a
truncated artifact. Exit codes: 0 success, 1 data/runtime error, 2 usage
error.
"""

from __future__ import annotations

import json
from collections import Counter
from functools import wraps
from pathlib import Path

import click

from . import bench as bench_mod
from .atomicio import atomic_output
from .embeddings import (ProviderConfig, ProviderKind, build_cache, make_provider)
from .errors import BinaryShieldError, SchemaError
from .evaluation import (accuracy_at_k, alpha_sweep, calibrate_noise, pr_sweep,
                         storage_report)
from .fingerprint import PrivacyBudget, quantize, randomize
from .parallel import map_blocks
from .protocol import (compose, encode_frame, read_frames, simulate_campaign,
                       write_demo_scenario)
from .records import (VariantType, load_corpus, load_pairs, load_prompts,
                      write_corpus_jsonl, write_pairs_jsonl)
from .redaction import Redactor, histogram_to_csv
from .simhash import simhash
from .store import FingerprintStore, StoredFingerprint
from .synthetic import SyntheticGenerator
from .textproc import derive_seed


class Knob(click.Option):
    """A shared knob. Click reads the flag, then BINARYSHIELD_<NAME>, then
    :meth:`get_default`: the --config entry of that name, else the declared
    default; it casts and checks the value from each source alike."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.envvar = f"BINARYSHIELD_{self.name.upper()}"

    def get_default(self, ctx, call=True):
        if self.name in (ctx.obj or {}):
            return ctx.obj[self.name]
        return super().get_default(ctx, call)


def _knob(*decls, **kwargs):
    return click.option(*decls, cls=Knob, show_default=True, show_envvar=True,
                        **kwargs)


def _provider(*kinds, **kwargs):
    return _knob("--provider", type=click.Choice(kinds), default="pseudo", **kwargs)


def _budget(ctx, param, value):
    """A privacy budget's alpha: a positive finite number."""
    try:
        return PrivacyBudget(float(value)).alpha
    except ValueError:
        raise click.BadParameter(f"{value!r} is not a positive finite number") from None


def _budget_or_none(ctx, param, value):
    """A privacy budget, or None for 'none' (the noise-free pipeline)."""
    return None if value == "none" else _budget(ctx, param, value)


def _comma_list(item):
    """Callback for a comma-separated list of at least one value; empty
    entries are skipped and ``item`` checks each of the others."""
    def callback(ctx, param, value):
        values = [item(ctx, param, v) for v in value.split(",") if v]
        if not values:
            raise click.BadParameter(f"{value!r} lists no values")
        return values
    return callback


DIM = _knob("--dim", type=int, default=768)
ALPHA = _knob("--alpha", default="2.0", metavar="FLOAT", callback=_budget)
SEED = _knob("--seed", type=int, default=0)
ENDPOINT_URL = _knob("--endpoint-url", default=None)
API_KEY_ENV = _knob("--api-key-env", default=None)
CACHE_PATH = _knob("--cache-path", default=None)
EVAL_ALPHA = _knob("--alpha", default="2.0", callback=_budget_or_none,
                   help="privacy budget, or 'none'. Only the binaryshield "
                        "method draws noise: simhash and dense ignore this "
                        "and --seed.")
EVAL_PROVIDER = _provider("pseudo", "file_cache",
                          help="embedding source (file_cache for replication)")


def _data_errors(fn):
    """Map package/data errors to exit code 1 (usage errors stay 2)."""
    @wraps(fn)
    def wrapper(*args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except click.ClickException:
            raise
        except (BinaryShieldError, ValueError, TypeError, OSError) as exc:
            raise click.ClickException(str(exc)) from exc
    return wrapper


def _build_provider(kind, dim, model_id=None, endpoint_url=None, api_key_env=None,
                    cache_path=None):
    return make_provider(ProviderConfig(
        kind=ProviderKind(kind), dim=dim, model_id=model_id or f"{kind}-{dim}",
        endpoint_url=endpoint_url, api_key_env_var=api_key_env, cache_path=cache_path))


def _emit(text: str, out_path: str | None):
    if out_path:
        with atomic_output(out_path) as fh:
            fh.write(text)
    else:
        click.echo(text, nl=False)


@click.group()
@click.option("--config", "config_path", type=click.Path(exists=True, dir_okay=False),
              default=None,
              help="JSON object of strings and numbers: defaults for the shared knobs.")
@click.pass_context
def main(ctx, config_path):
    """Privacy-preserving fingerprinting and correlation of flagged prompts."""
    if not config_path:
        return
    try:
        config = json.loads(Path(config_path).read_text("utf-8"))
    except (ValueError, RecursionError) as exc:
        raise click.BadParameter(f"not valid JSON: {exc}",
                                 param_hint="--config") from None
    if not isinstance(config, dict) or not all(
            isinstance(v, (str, int, float)) and not isinstance(v, bool)
            for v in config.values()):
        raise click.BadParameter("must be a JSON object of strings and numbers",
                                 param_hint="--config")
    ctx.obj = config


# -- fingerprint ---------------------------------------------------------------

@main.command()
@click.option("--input", "input_path", required=True,
              type=click.Path(exists=True, dir_okay=False))
@click.option("--out", "out_path", required=True, type=click.Path(dir_okay=False))
@click.option("--service-id", default="local", show_default=True)
@DIM
@ALPHA
@SEED
@_provider("pseudo", "file_cache", "remote_http")
@click.option("--model-id", default=None)
@ENDPOINT_URL
@API_KEY_ENV
@CACHE_PATH
@click.option("--rules", "rules_path", type=click.Path(exists=True), default=None)
@_data_errors
def fingerprint(input_path, out_path, service_id, dim, alpha, seed, provider,
                model_id, endpoint_url, api_key_env, cache_path, rules_path):
    """Turn prompts (JSONL: id, text, metadata?) into wire frames.

    A file of a few hundred prompts or more is released on every usable
    CPU (see binaryshield.parallel); the output is the same."""
    redactor = Redactor.from_config(rules_path) if rules_path else Redactor.default()
    prov = _build_provider(provider, dim, model_id, endpoint_url, api_key_env,
                           cache_path)
    records = load_prompts(input_path)

    def release(start, stop):
        """Frames, or for a failed record its error message, of one block."""
        out: list[bytes | str] = []
        for i in range(start, stop):
            rec = records[i]
            try:
                redacted = redactor.redact(rec.text)
                priv = randomize(quantize(prov.embed(redacted)), alpha,
                                 derive_seed(seed, service_id, rec.id))
                out.append(encode_frame(compose(service_id, rec.id, priv,
                                                rec.metadata, i)))
            except Exception as exc:  # reported per record, run continues
                out.append(f"record {rec.id!r}: {exc}")
        return out

    released = [r for block in map_blocks(len(records), release) for r in block]
    failures = [r for r in released if isinstance(r, str)]
    if failures:
        for message in failures:
            click.echo(f"error: {message}", err=True)
        raise click.ClickException(
            f"{len(failures)} of {len(records)} records failed; no output written")
    with atomic_output(out_path, "wb") as fh:
        for frame in released:
            fh.write(frame)
    click.echo(f"wrote {len(released)} frames to {out_path}")


# -- redact ---------------------------------------------------------------------

@main.command()
@click.option("--input", "input_path", required=True,
              type=click.Path(exists=True, dir_okay=False))
@click.option("--out", "out_path", required=True, type=click.Path(dir_okay=False))
@click.option("--rules", "rules_path", type=click.Path(exists=True), default=None)
@click.option("--histogram", "histogram_path", type=click.Path(dir_okay=False),
              default=None,
              help="Also write a plot-ready entity-count CSV: the sum of the "
                   "output rows' entity_counts.")
@_data_errors
def redact(input_path, out_path, rules_path, histogram_path):
    """Redact PII from prompts (JSONL in, JSONL with placeholders out)."""
    redactor = Redactor.from_config(rules_path) if rules_path else Redactor.default()
    records = load_prompts(input_path)
    histogram = Counter()
    with atomic_output(out_path) as fh:
        for rec in records:
            result = redactor.redact(rec.text)
            histogram.update(result.entity_counts)
            fh.write(json.dumps({
                "id": rec.id, "text": result.text,
                "entity_counts": {t.name: c for t, c in
                                  sorted(result.entity_counts.items(),
                                         key=lambda kv: kv[0].value)},
                "original_length": result.original_length,
            }, separators=(",", ":")) + "\n")
    if histogram_path:
        with atomic_output(histogram_path) as fh:
            fh.write(histogram_to_csv(histogram))
    click.echo(f"redacted {len(records)} prompts to {out_path}")


# -- simhash ---------------------------------------------------------------------

@main.command(name="simhash")
@click.option("--input", "input_path", required=True,
              type=click.Path(exists=True, dir_okay=False))
@click.option("--out", "out_path", required=True, type=click.Path(dir_okay=False))
@_data_errors
def simhash_cmd(input_path, out_path):
    """64-bit SimHash fingerprints for prompts (JSONL in/out)."""
    records = load_prompts(input_path)
    with atomic_output(out_path) as fh:
        for rec in records:
            fp = simhash(rec.text)
            fh.write(json.dumps({"id": rec.id, "bits_hex": f"{fp.bits:016x}",
                                 "feature_count": fp.feature_count},
                                separators=(",", ":")) + "\n")
    click.echo(f"wrote {len(records)} fingerprints to {out_path}")


# -- embed-cache -------------------------------------------------------------------

@main.group(name="embed-cache")
def embed_cache():
    """Build or inspect file-backed embedding caches."""


@embed_cache.command(name="build")
@click.option("--input", "input_path", type=click.Path(exists=True, dir_okay=False),
              default=None, help="prompt JSONL (id, text)")
@click.option("--pairs", "pairs_path", type=click.Path(exists=True, dir_okay=False),
              default=None, help="PairRecord JSONL; caches both prompts")
@click.option("--corpus", "corpus_path", type=click.Path(exists=True, dir_okay=False),
              default=None, help="CorpusRecord JSONL")
@click.option("--out", "out_path", required=True, type=click.Path(dir_okay=False))
@_provider("pseudo", "remote_http")
@DIM
@click.option("--model-id", default=None)
@ENDPOINT_URL
@API_KEY_ENV
@click.option("--redact/--no-redact", "do_redact", default=True,
              show_default=True,
              help="Redact before embedding. Use --no-redact when building a "
                   "cache for the eval harness, which looks texts up as-is.")
@click.option("--rules", "rules_path", type=click.Path(exists=True), default=None)
@_data_errors
def embed_cache_build(input_path, pairs_path, corpus_path, out_path,
                      provider, dim, model_id, endpoint_url, api_key_env,
                      do_redact, rules_path):
    """Embed a dataset's texts through a source provider into a cache file."""
    sources = [p for p in (input_path, pairs_path, corpus_path) if p]
    if len(sources) != 1:
        raise click.UsageError(
            "specify exactly one of --input, --pairs or --corpus")
    prov = _build_provider(provider, dim, model_id, endpoint_url, api_key_env)
    if input_path:
        texts = [rec.text for rec in load_prompts(input_path)]
    elif pairs_path:
        texts = [t for p in load_pairs(pairs_path).records
                 for t in (p.prompt_a, p.prompt_b)]
    else:
        texts = [r.text for r in load_corpus(corpus_path).records]
    if do_redact:
        redactor = (Redactor.from_config(rules_path) if rules_path
                    else Redactor.default())
        texts = [redactor.redact(t) for t in texts]
    stats = build_cache(texts, prov, out_path, dim=dim)
    click.echo(f"cache {out_path}: wrote {stats['written']}, "
               f"skipped {stats['skipped']} already present/duplicate")


# -- store ---------------------------------------------------------------------

@main.group(name="store")
def store_group():
    """Build and inspect fingerprint store snapshots."""


@store_group.command(name="build")
@click.option("--input", "input_path", required=True,
              type=click.Path(exists=True, dir_okay=False),
              help="Frames JSONL, as produced by the fingerprint command.")
@click.option("--out", "out_path", required=True, type=click.Path(dir_okay=False))
@_data_errors
def store_build(input_path, out_path):
    """Ingest wire frames into a searchable store snapshot."""
    store = FingerprintStore()
    count = 0
    for lineno, frame in read_frames(input_path):
        try:
            store.insert(StoredFingerprint(
                id=frame.fingerprint_id, bits=frame.bits,
                dim=frame.dim, alpha=frame.alpha, metadata=frame.metadata))
        except ValueError as exc:
            raise SchemaError(str(exc), path=input_path, line=lineno) from None
        count += 1
    store.save_snapshot(out_path)
    click.echo(f"stored {count} fingerprints in {out_path}")


# -- search ---------------------------------------------------------------------

@main.command()
@click.option("--store", "store_path", required=True,
              type=click.Path(exists=True, dir_okay=False))
@click.option("--query", "query_path", required=True,
              type=click.Path(exists=True, dir_okay=False))
@click.option("--tau", type=int, default=None,
              help="Match radius; flag only, as it picks the mode against --topk.")
@click.option("--topk", type=int, default=None)
@click.option("--format", "fmt", type=click.Choice(["json", "table"]),
              default="json", show_default=True)
@click.option("--out", "out_path", type=click.Path(dir_okay=False), default=None)
@_data_errors
def search(store_path, query_path, tau, topk, fmt, out_path):
    """Search a store snapshot with a fingerprint frame."""
    if (tau is None) == (topk is None):
        raise click.UsageError("specify exactly one of --tau or --topk")
    store = FingerprintStore.load_snapshot(store_path)
    first = next(read_frames(query_path), None)
    if first is None:
        raise click.ClickException(f"{query_path}: empty query file")
    _, composite = first
    if tau is not None:
        results = store.search_threshold(composite.bits, tau,
                                         query_metadata=composite.metadata)
    else:
        results = store.search_topk(composite.bits, topk,
                                    query_metadata=composite.metadata)
    if fmt == "json":
        lines = [json.dumps({"id": r.id, "distance": r.distance,
                             "metadata_overlap": r.metadata_overlap},
                            separators=(",", ":")) for r in results]
        text = "\n".join(lines) + ("\n" if lines else "")
    else:
        rows = [f"{r.id}\t{r.distance}\t{r.metadata_overlap}" for r in results]
        text = "id\tdistance\tmetadata_overlap\n" + "\n".join(rows) + "\n"
    _emit(text, out_path)


# -- simulate ---------------------------------------------------------------------

@main.command()
@click.option("--scenario", "scenario_path", required=True,
              type=click.Path(exists=True, dir_okay=False))
@click.option("--out", "out_path", type=click.Path(dir_okay=False), default=None)
@click.option("--format", "fmt", type=click.Choice(["json", "table"]),
              default="json", show_default=True)
@_data_errors
def simulate(scenario_path, out_path, fmt):
    """Replay a scripted multi-service correlation scenario."""
    report = simulate_campaign(scenario_path)
    if out_path:
        with atomic_output(out_path) as fh:
            fh.write(report.to_json())
    click.echo(report.to_table() if fmt == "table" else report.to_json(), nl=False)


# -- eval -------------------------------------------------------------------------

@main.group(name="eval")
def eval_group():
    """Evaluation harness subcommands."""


@eval_group.command(name="pr-sweep")
@click.option("--pairs", "pairs_path", required=True,
              type=click.Path(exists=True, dir_okay=False))
@click.option("--method", type=click.Choice(["binaryshield", "simhash"]),
              default="binaryshield", show_default=True)
@EVAL_ALPHA
@SEED
@DIM
@EVAL_PROVIDER
@CACHE_PATH
@click.option("--out", "out_path", type=click.Path(dir_okay=False), default=None)
@_data_errors
def eval_pr_sweep(pairs_path, method, alpha, seed, dim, provider,
                  cache_path, out_path):
    """Precision-recall threshold sweep over labeled pairs.

    Only the binaryshield method draws noise; simhash ignores --alpha and
    --seed."""
    loaded = load_pairs(pairs_path)
    if loaded.dropped_empty or loaded.dropped_duplicate:
        click.echo(f"dropped {loaded.dropped_empty} empty, "
                   f"{loaded.dropped_duplicate} duplicate pairs", err=True)
    prov = _build_provider(provider, dim, cache_path=cache_path)
    result = pr_sweep(loaded.records, method, alpha=alpha, seed=seed, provider=prov)
    _emit(result.to_csv(), out_path)
    click.echo(f"optimal tau={result.optimal.tau} f1={result.optimal.f1:.4f}",
               err=True)


@eval_group.command(name="alpha-sweep")
@click.option("--pairs", "pairs_path", required=True,
              type=click.Path(exists=True, dir_okay=False))
@click.option("--alphas", default="0.25,0.5,0.75,1.0,1.25,1.5,1.75,2.0,2.25,2.5,2.75,3.0",
              show_default=True, callback=_comma_list(_budget))
@click.option("--seeds-per-alpha", type=click.IntRange(min=1), default=5,
              show_default=True)
@SEED
@DIM
@EVAL_PROVIDER
@CACHE_PATH
@click.option("--out", "out_path", type=click.Path(dir_okay=False), default=None)
@_data_errors
def eval_alpha_sweep(pairs_path, alphas, seeds_per_alpha, seed, dim,
                     provider, cache_path, out_path):
    """Privacy-utility sweep: mean optimal metrics per alpha."""
    prov = _build_provider(provider, dim, cache_path=cache_path)
    loaded = load_pairs(pairs_path)
    result = alpha_sweep(loaded.records, alphas, seeds_per_alpha=seeds_per_alpha,
                         base_seed=seed, provider=prov)
    _emit(result.to_csv(), out_path)


@eval_group.command(name="calibrate-noise")
@click.option("--n-prompts", type=int, default=500, show_default=True)
@click.option("--alphas", default="0.2,0.6,1.0,1.4,1.8,2.2,2.6,3.0,3.4",
              show_default=True, callback=_comma_list(_budget))
@DIM
@SEED
@click.option("--out", "out_path", type=click.Path(dir_okay=False), default=None)
@_data_errors
def eval_calibrate_noise(n_prompts, alphas, dim, seed, out_path):
    """Self-Hamming distortion vs the (1-p)d theory curve."""
    result = calibrate_noise(n_prompts, alphas, dim=dim, seed=seed)
    _emit(result.to_csv(), out_path)


@eval_group.command(name="accuracy-at-k")
@click.option("--corpus", "corpus_path", required=True,
              type=click.Path(exists=True, dir_okay=False))
@click.option("--queries", "queries_path", required=True,
              type=click.Path(exists=True, dir_okay=False))
@click.option("--method", type=click.Choice(["binaryshield", "simhash", "dense"]),
              default="binaryshield", show_default=True)
@click.option("--k", "k_values", default="1,3,5", show_default=True,
              callback=_comma_list(
                  lambda ctx, param, v: click.IntRange(min=1).convert(v, param, ctx)))
@EVAL_ALPHA
@SEED
@DIM
@EVAL_PROVIDER
@CACHE_PATH
@click.option("--out", "out_path", type=click.Path(dir_okay=False), default=None)
@_data_errors
def eval_accuracy_at_k(corpus_path, queries_path, method, k_values, alpha,
                       seed, dim, provider, cache_path, out_path):
    """Top-k retrieval accuracy over a hybrid corpus.

    Only the binaryshield method draws noise; simhash and dense ignore
    --alpha and --seed."""
    prov = _build_provider(provider, dim, cache_path=cache_path)
    corpus = load_corpus(corpus_path).records
    queries = load_corpus(queries_path).records
    result = accuracy_at_k(corpus, queries, method=method, k_values=k_values,
                           alpha=alpha, seed=seed, provider=prov)
    _emit(result.to_csv(), out_path)


@eval_group.command(name="storage")
@click.option("--count", type=int, required=True)
@DIM
@click.option("--float-bytes", type=click.Choice(["4", "8"]), default="4",
              show_default=True)
@click.option("--measure", is_flag=True,
              help="Also build a random store snapshot and report its size.")
@SEED
@click.option("--out", "out_path", type=click.Path(dir_okay=False), default=None)
@_data_errors
def eval_storage(count, dim, float_bytes, measure, seed, out_path):
    """Dense vs binary storage accounting."""
    measured = None
    if measure:
        import tempfile

        store = bench_mod.make_random_store(count, dim, seed)
        with tempfile.TemporaryDirectory() as tmp:
            snap = Path(tmp) / "store.bsfp"
            store.save_snapshot(snap)
            measured = snap.stat().st_size
    result = storage_report(count, dim, float_bytes=int(float_bytes),
                            measured_binary_bytes=measured)
    _emit(result.to_csv(), out_path)


# -- bench ---------------------------------------------------------------------

@main.group()
def bench():
    """Performance benchmarks."""


@bench.command(name="scan")
@click.option("--size", type=int, default=100_000, show_default=True)
@click.option("--queries", "n_queries", type=int, default=968, show_default=True)
@DIM
@SEED
@click.option("--out", "out_path", type=click.Path(dir_okay=False), default=None)
@_data_errors
def bench_scan(size, n_queries, dim, seed, out_path):
    """Packed-Hamming vs dense-cosine per-query scan timing."""
    report = bench_mod.efficiency_run(size, n_queries, dim=dim, seed=seed)
    _emit(report.to_json() + "\n", out_path)
    click.echo(f"packed {report.packed.total_seconds:.3f}s, "
               f"dense {report.dense.total_seconds:.3f}s, "
               f"speedup {report.speedup:.1f}x", err=True)


# -- gen ---------------------------------------------------------------------

@main.group()
def gen():
    """Generate seeded synthetic datasets."""


@gen.command(name="pairs")
@click.option("--attack", "n_attack", type=int, default=500, show_default=True)
@click.option("--benign", "n_benign", type=int, default=500, show_default=True)
@click.option("--variant", type=click.Choice([v.value for v in VariantType
                                              if v is not VariantType.BENIGN_PAIR]),
              default="PARAPHRASE", show_default=True)
@click.option("--rate", type=float, default=0.7, show_default=True,
              help="eligible-token substitution rate for PARAPHRASE")
@SEED
@click.option("--out", "out_path", required=True, type=click.Path(dir_okay=False))
@_data_errors
def gen_pairs(n_attack, n_benign, variant, rate, seed, out_path):
    """Labeled attack-variant / benign pair JSONL."""
    pairs = SyntheticGenerator(seed).make_pairs(
        n_attack, n_benign, variant_type=VariantType(variant), rate=rate)
    with atomic_output(out_path) as fh:
        write_pairs_jsonl(pairs, fh)
    click.echo(f"wrote {len(pairs)} pairs to {out_path}")


@gen.command(name="corpus")
@click.option("--size", type=int, default=10_000, show_default=True)
@click.option("--groups", type=int, default=50, show_default=True)
@click.option("--variants-per-group", type=int, default=3, show_default=True)
@click.option("--queries-per-group", type=int, default=1, show_default=True)
@click.option("--rate", type=float, default=0.7, show_default=True)
@SEED
@click.option("--out", "out_path", required=True, type=click.Path(dir_okay=False))
@click.option("--queries-out", "queries_path", required=True,
              type=click.Path(dir_okay=False))
@_data_errors
def gen_corpus(size, groups, variants_per_group, queries_per_group, rate,
               seed, out_path, queries_path):
    """Hybrid corpus (sparse attacks in benign traffic) plus queries."""
    corpus, queries = SyntheticGenerator(seed).make_hybrid_corpus(
        size, groups, variants_per_group=variants_per_group,
        queries_per_group=queries_per_group, rate=rate)
    with atomic_output(out_path) as fh:
        write_corpus_jsonl(corpus, fh)
    with atomic_output(queries_path) as fh:
        write_corpus_jsonl(queries, fh)
    click.echo(f"wrote {len(corpus)} corpus records and {len(queries)} queries")


@gen.command(name="scenario")
@click.option("--out-dir", required=True, type=click.Path(file_okay=False))
@SEED
@DIM
@ALPHA
@_knob("--tau", type=int, default=280)
@_data_errors
def gen_scenario(out_dir, seed, dim, alpha, tau):
    """Three-service demo scenario with planted attack variants."""
    path = write_demo_scenario(out_dir, seed=seed, dim=dim, alpha=alpha, tau=tau)
    click.echo(f"wrote scenario to {path}")


if __name__ == "__main__":
    main()
