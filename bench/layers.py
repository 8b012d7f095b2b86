"""Which package functions the traced run wraps, and the per-layer metrics
derived from their spans.

Every workload reports every metric in ``PER_LAYER``; a layer the workload
does not reach reads zero.
"""

from __future__ import annotations

from spans import FAILED, NAME, Tracer, busy, durations, latency, self_times, top_level_time

KINDS = ("gb", "rf", "svr")
TIERS = ("vocabulary", "scaffold", "rank", "properties", "cas")


# Hooks and span names read results and arguments defensively: a later
# commit may change a signature or a result type, and the tracer must not
# break the program it observes.


def _count_nodes(node) -> int:
    if node is None:
        return 0
    if getattr(node, "is_leaf", True):
        return 1
    return 1 + _count_nodes(getattr(node, "left", None)) + _count_nodes(
        getattr(node, "right", None)
    )


def _on_classify(tracer, args, kwargs, result):
    tracer.counters["scaffold.known"] += bool(getattr(result, "known", False))


def _on_tree(tracer, args, kwargs, result):
    tracer.counters["models.tree.nodes"] += _count_nodes(getattr(result, "root", None))


def _on_fit(tracer, args, kwargs, result):
    vectors = getattr(result, "support_vectors", None)
    if vectors is not None:
        tracer.counters["models.svr.fits"] += 1
        tracer.counters["models.svr.support_vectors"] += len(vectors)
        tracer.counters["models.svr.converged"] += bool(getattr(result, "converged", False))


def _tier_hook(name):
    def hook(tracer, args, kwargs, result):
        tracer.counters[f"screening.tier.{name}.survivors"] += len(result[0])
    return hook


def _kind(args, kwargs, position, key) -> str:
    config = kwargs.get(key, args[position] if len(args) > position else None)
    return getattr(config, "kind", "other")


def _fit_name(*args, **kwargs):
    return f"models.fit.{_kind(args, kwargs, 2, 'config')}"


def _repeat_name(*args, **kwargs):
    return f"evaluation.repeat.{_kind(args, kwargs, 3, 'model_config')}"


TARGETS = [
    ("molscreen.cli", "main", "cli.main", None),
    ("molscreen.molgraph.parser", "parse_smiles", "molgraph.parse", None),
    ("molscreen.molgraph.rings", "find_sssr", "molgraph.sssr", None),
    ("molscreen.molgraph.canon", "canonical_smiles", "molgraph.canonicalize", None),
    ("molscreen.scaffold", "extract_scaffold", "scaffold.extract", None),
    ("molscreen.scaffold", "classify", "scaffold.classify", _on_classify),
    ("molscreen.scaffold", "load_registry", "scaffold.load_registry", None),
    ("molscreen.features.patterns", "fingerprint", "features.fingerprint", None),
    ("molscreen.features.descriptors", "descriptors", "features.descriptors", None),
    ("molscreen.features.matrix", "assemble", "features.assemble", None),
    ("molscreen.selection", "fit", "selection.fit", None),
    ("molscreen.selection", "apply", "selection.apply", None),
    ("molscreen.models", "fit_model", _fit_name, _on_fit),
    ("molscreen.models.tree", "fit_tree", "models.tree.fit", _on_tree),
    ("molscreen.models.boosting", "GBModel.predict", "models.predict", None),
    ("molscreen.models.forest", "RFModel.predict", "models.predict", None),
    ("molscreen.models.svr", "SVRModel.predict", "models.predict", None),
    ("molscreen.evaluation", "msc_split", "evaluation.split", None),
    ("molscreen.evaluation", "run_single", _repeat_name, None),
    ("molscreen.evaluation", "mae", "evaluation.score", None),
    ("molscreen.evaluation", "spearman", "evaluation.score", None),
    ("molscreen.screening", "load_pool", "screening.load_pool", None),
    ("molscreen.screening", "load_property_table", "screening.load_tables", None),
    ("molscreen.screening", "load_cas_table", "screening.load_tables", None),
    ("molscreen.screening", "tier_vocab", "screening.tier.vocabulary", _tier_hook("vocabulary")),
    ("molscreen.screening", "tier_scaffold", "screening.tier.scaffold", _tier_hook("scaffold")),
    ("molscreen.screening", "tier_rank", "screening.tier.rank", _tier_hook("rank")),
    ("molscreen.screening", "tier_properties", "screening.tier.properties",
     _tier_hook("properties")),
    ("molscreen.screening", "tier_cas", "screening.tier.cas", _tier_hook("cas")),
    ("molscreen.dataio", "load_dataset", "dataio.load_dataset", None),
    ("molscreen.dataio", "atomic_write_text", "cli.write", None),
]

S, MS, COUNT, RATIO = "s", "ms", "count", "ratio"

# (name, unit, better). Kept in step with BENCHMARK.json by the tests.
PER_LAYER = [
    ("molgraph.parse.calls", COUNT, "lower"),
    ("molgraph.parse.busy_s", S, "lower"),
    ("molgraph.parse.self_s", S, "lower"),
    ("molgraph.parse.failed", COUNT, "lower"),
    ("molgraph.sssr.calls", COUNT, "lower"),
    ("molgraph.sssr.busy_s", S, "lower"),
    ("molgraph.canonicalize.calls", COUNT, "lower"),
    ("molgraph.canonicalize.busy_s", S, "lower"),
    ("molgraph.canonicalize.p50_ms", MS, "lower"),
    ("molgraph.canonicalize.tail_ms", MS, "lower"),
    ("molgraph.canonicalize.max_ms", MS, "lower"),
    ("scaffold.extract.calls", COUNT, "lower"),
    ("scaffold.extract.busy_s", S, "lower"),
    ("scaffold.extract.self_s", S, "lower"),
    ("scaffold.known_ratio", RATIO, "higher"),
    ("scaffold.load_registry.busy_s", S, "lower"),
    ("features.fingerprint.calls", COUNT, "lower"),
    ("features.fingerprint.busy_s", S, "lower"),
    ("features.descriptors.busy_s", S, "lower"),
    ("features.assemble.self_s", S, "lower"),
    ("selection.fit.calls", COUNT, "lower"),
    ("selection.fit.busy_s", S, "lower"),
    ("selection.apply.busy_s", S, "lower"),
    *((f"models.fit.{k}.busy_s", S, "lower") for k in KINDS),
    ("models.fit.calls", COUNT, "lower"),
    ("models.tree.nodes", COUNT, "lower"),
    ("models.tree.us_per_node", "us", "lower"),
    ("models.svr.support_vectors", COUNT, "lower"),
    ("models.svr.converged_ratio", RATIO, "higher"),
    ("models.split_search.busy_s", S, "lower"),
    ("models.predict.busy_s", S, "lower"),
    ("evaluation.split.busy_s", S, "lower"),
    ("evaluation.score.busy_s", S, "lower"),
    *(
        (f"evaluation.repeat.{k}.{field}", unit, better)
        for k in KINDS
        for field, unit, better in (
            ("p50_ms", MS, "lower"), ("tail_ms", MS, "lower"), ("samples", COUNT, "higher"),
        )
    ),
    ("screening.load_pool.busy_s", S, "lower"),
    ("screening.load_tables.busy_s", S, "lower"),
    *(
        (f"screening.tier.{t}.{field}", unit, better)
        for t in TIERS
        for field, unit, better in (("busy_s", S, "lower"), ("survivors", COUNT, "higher"))
    ),
    ("dataio.load_dataset.busy_s", S, "lower"),
    ("cli.write.busy_s", S, "lower"),
    ("bench.spans", COUNT, "lower"),
    ("bench.top_level_coverage", RATIO, "higher"),
    ("bench.trace_overhead_frac", RATIO, "lower"),
]


def layer_metrics(tracer: Tracer, traced_wall: float, overhead: float,
                  split_search_s: float) -> dict[str, float]:
    """Every ``PER_LAYER`` metric from the spans and counters of a run."""
    spans, counters = tracer.spans, tracer.counters
    calls: dict[str, int] = {}
    failed: dict[str, int] = {}
    own: dict[str, float] = {}
    for span, self_s in zip(spans, self_times(spans)):
        calls[span[NAME]] = calls.get(span[NAME], 0) + 1
        failed[span[NAME]] = failed.get(span[NAME], 0) + bool(span[FAILED])
        own[span[NAME]] = own.get(span[NAME], 0.0) + self_s

    tree_s = busy(spans, "models.tree.fit")
    nodes = counters["models.tree.nodes"]
    svr_fits = counters["models.svr.fits"]
    classified = calls.get("scaffold.classify", 0)
    canon = latency(durations(spans, "molgraph.canonicalize"))

    out = {
        "molgraph.parse.calls": calls.get("molgraph.parse", 0),
        "molgraph.parse.self_s": own.get("molgraph.parse", 0.0),
        "molgraph.parse.failed": failed.get("molgraph.parse", 0),
        "molgraph.sssr.calls": calls.get("molgraph.sssr", 0),
        "molgraph.canonicalize.calls": calls.get("molgraph.canonicalize", 0),
        "molgraph.canonicalize.p50_ms": canon["p50_ms"],
        "molgraph.canonicalize.tail_ms": canon["tail_ms"],
        "molgraph.canonicalize.max_ms": canon["max_ms"],
        "scaffold.extract.calls": calls.get("scaffold.extract", 0),
        "scaffold.extract.self_s": own.get("scaffold.extract", 0.0),
        "scaffold.known_ratio": counters["scaffold.known"] / classified if classified else 0.0,
        "features.fingerprint.calls": calls.get("features.fingerprint", 0),
        "features.assemble.self_s": own.get("features.assemble", 0.0),
        "selection.fit.calls": calls.get("selection.fit", 0),
        "models.fit.calls": sum(calls.get(f"models.fit.{k}", 0) for k in KINDS),
        "models.tree.nodes": nodes,
        "models.tree.us_per_node": 1e6 * tree_s / nodes if nodes else 0.0,
        "models.svr.support_vectors": (
            counters["models.svr.support_vectors"] / svr_fits if svr_fits else 0.0
        ),
        "models.svr.converged_ratio": (
            counters["models.svr.converged"] / svr_fits if svr_fits else 0.0
        ),
        "models.split_search.busy_s": split_search_s,
        "bench.spans": len(spans),
        "bench.top_level_coverage": top_level_time(spans) / traced_wall,
        "bench.trace_overhead_frac": overhead,
    }
    for kind in KINDS:
        stats = latency(durations(spans, f"evaluation.repeat.{kind}"))
        out[f"evaluation.repeat.{kind}.p50_ms"] = stats["p50_ms"]
        out[f"evaluation.repeat.{kind}.tail_ms"] = stats["tail_ms"]
        out[f"evaluation.repeat.{kind}.samples"] = stats["samples"]
    for tier in TIERS:
        key = f"screening.tier.{tier}.survivors"
        out[key] = counters[key]
    for name, unit, _ in PER_LAYER:
        if name.endswith(".busy_s") and name not in out:
            out[name] = busy(spans, name[: -len(".busy_s")])
    return out


def latency_notes(tracer: Tracer) -> dict:
    """Sample counts and the percentile each ``tail_ms`` stands for."""
    names = ["molgraph.canonicalize"] + [f"evaluation.repeat.{k}" for k in KINDS]
    notes = {}
    for name in names:
        stats = latency(durations(tracer.spans, name))
        if stats["samples"]:
            notes[name] = {"samples": stats["samples"], "tail_pct": stats["tail_pct"]}
    return notes
