"""Command-line surface tying the pipeline together.

Subcommands: featurize, train, evaluate, screen, scaffold. Exit codes are a
stable contract: 0 success, 1 validation failure (bad input data), 2 usage
error. Every artifact embeds the resolved configuration and format version
and is written atomically, so re-running a command with the same inputs
reproduces the artifact byte for byte.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import io
import json
import sys
from pathlib import Path

from . import __version__, dataio, evaluation, selection
from .features import (
    FeatureError,
    PatternError,
    assemble,
    default_keyset,
    load_keyset,
    load_latents,
)
from .models import (
    MODEL_KINDS,
    ModelError,
    TrainConfig,
    fit_model,
    model_to_dict,
)
from .molgraph import MolGraphError
from .scaffold import ScaffoldError, classify, group_dataset, load_registry
from .screening import FunnelConfig, ScreeningError, run_funnel

USAGE_EXIT = 2
VALIDATION_EXIT = 1

_VALIDATION_ERRORS = (
    dataio.DataError,
    MolGraphError,
    ScaffoldError,
    FeatureError,
    PatternError,
    selection.SelectionError,
    ModelError,
    evaluation.EvaluationError,
    ScreeningError,
    OSError,
)


class UsageError(Exception):
    pass


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _apply_config_file(parser, args)
        return args.func(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return USAGE_EXIT
    except _VALIDATION_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return VALIDATION_EXIT


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="molscreen",
        description="Scaffold-aware screening pipeline for molecular additives",
    )
    parser.add_argument("--version", action="version", version=__version__)
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=int, default=0, help="master random seed")
    common.add_argument(
        "--threads",
        type=int,
        default=1,
        help=(
            "worker threads for evaluate's repeats; accepted and ignored by "
            "every other command (results never depend on it)"
        ),
    )
    common.add_argument(
        "--config",
        type=Path,
        default=None,
        help="JSON file with default values for this subcommand's options",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    # Path options are optional at parse time so a --config file can supply
    # them; _require() enforces presence after the overlay.
    p = sub.add_parser("featurize", parents=[common], help="write a feature matrix CSV")
    p.add_argument("--dataset", type=Path)
    p.add_argument("--blocks", default="D", help="comma-separated subset of K,D,Z")
    p.add_argument("--keyset", type=Path, default=None)
    p.add_argument("--latents", type=Path, default=None)
    p.add_argument(
        "--external-fingerprints",
        type=Path,
        default=None,
        help="precomputed fingerprint CSV used instead of the key set for the K block",
    )
    p.add_argument("--out", type=Path)
    p.add_argument(
        "--skip-bad",
        action="store_true",
        help="drop unparseable records with a warning instead of failing",
    )
    p.set_defaults(func=cmd_featurize, _required=("dataset", "out"))

    p = sub.add_parser("train", parents=[common], help="fit a model and its selection pipeline")
    p.add_argument("--dataset", type=Path)
    p.add_argument("--blocks", default="D")
    p.add_argument("--model", choices=MODEL_KINDS)
    p.add_argument("--keyset", type=Path, default=None)
    p.add_argument("--latents", type=Path, default=None)
    p.add_argument("--out", type=Path, help="model JSON path")
    p.add_argument("--pipeline-out", type=Path)
    p.add_argument("--n-estimators", type=int, default=None)
    p.add_argument("--max-depth", type=int, default=None)
    p.add_argument("--learning-rate", type=float, default=None)
    p.add_argument("--svr-c", type=float, default=None)
    p.add_argument("--svr-epsilon", type=float, default=None)
    p.add_argument("--kernel", choices=("rbf", "linear"), default=None)
    p.add_argument("--gamma", type=float, default=None)
    p.add_argument("--variance-threshold", type=float, default=selection.DEFAULT_VARIANCE_THRESHOLD)
    p.add_argument("--pcc-threshold", type=float, default=selection.DEFAULT_PCC_THRESHOLD)
    p.set_defaults(func=cmd_train, _required=("dataset", "model", "out", "pipeline_out"))

    p = sub.add_parser("evaluate", parents=[common], help="repeated split/fit/score evaluation")
    p.add_argument("--dataset", type=Path)
    p.add_argument("--registry", type=Path, default=None)
    p.add_argument("--blocks", default="D")
    p.add_argument("--model", choices=MODEL_KINDS, default="gb")
    p.add_argument("--splitter", choices=("msc", "random", "logo"), default="msc")
    p.add_argument("--repeats", type=int, default=200)
    p.add_argument("--test-fraction", type=float, default=0.1)
    p.add_argument("--keyset", type=Path, default=None)
    p.add_argument("--latents", type=Path, default=None)
    p.add_argument("--out-json", type=Path)
    p.add_argument("--out-text", type=Path)
    p.set_defaults(func=cmd_evaluate, _required=("dataset", "out_json", "out_text"))

    p = sub.add_parser("screen", parents=[common], help="run the five-tier screening funnel")
    p.add_argument("--funnel", type=Path, help="funnel config JSON")
    p.add_argument("--top-fraction", type=float, default=None, help="override the config value")
    p.add_argument("--out-json", type=Path)
    p.add_argument("--out-text", type=Path)
    p.set_defaults(func=cmd_screen, _required=("funnel", "out_json", "out_text"))

    p = sub.add_parser("scaffold", parents=[common], help="dump scaffold and group per molecule")
    p.add_argument("--dataset", type=Path)
    p.add_argument("--registry", type=Path)
    p.add_argument("--out", type=Path)
    p.set_defaults(func=cmd_scaffold, _required=("dataset", "registry", "out"))
    return parser


def _apply_config_file(parser: argparse.ArgumentParser, args) -> None:
    """Overlay values from --config: explicit command-line flags win."""
    config_path = getattr(args, "config", None)
    if config_path is not None:
        with Path(config_path).open(encoding="utf-8") as handle:
            overrides = json.load(handle)
        defaults = vars(parser.parse_args([args.command]))
        for key, value in overrides.items():
            dest = key.replace("-", "_")
            if dest.startswith("_") or not hasattr(args, dest):
                continue
            if getattr(args, dest) == defaults.get(dest):
                if isinstance(value, str) and (
                    dest in ("dataset", "registry", "keyset", "latents", "out",
                             "pipeline_out", "out_json", "out_text", "funnel")
                ):
                    value = Path(value)
                setattr(args, dest, value)
    missing = [
        "--" + name.replace("_", "-")
        for name in getattr(args, "_required", ())
        if getattr(args, name) is None
    ]
    if missing:
        raise UsageError(f"missing required options: {', '.join(missing)}")


def _parse_blocks(text: str) -> tuple[str, ...]:
    blocks = tuple(b.strip().upper() for b in text.split(",") if b.strip())
    if not blocks or any(b not in ("K", "D", "Z") for b in blocks):
        raise UsageError(f"--blocks must be a comma-separated subset of K,D,Z, got {text!r}")
    return blocks


def _load_feature_inputs(args, blocks, need_keyset: bool = True):
    keyset = None
    latents = None
    if "K" in blocks and need_keyset:
        keyset = load_keyset(args.keyset) if args.keyset else default_keyset()
    if "Z" in blocks:
        if not args.latents:
            raise UsageError("blocks include Z but --latents was not given")
        latents = load_latents(args.latents)
    return keyset, latents


def _echo(args, extra: dict) -> dict:
    # threads is an execution detail with no effect on results; echoing it
    # would break byte-identity between serial and parallel runs.
    skip = {"func", "config", "threads"}
    echo = {
        k: (str(v) if isinstance(v, Path) else v)
        for k, v in vars(args).items()
        if k not in skip and not k.startswith("_")
    }
    echo.update(extra)
    echo["format_version"] = dataio.FORMAT_VERSION
    echo["tool_version"] = __version__
    return echo


def cmd_featurize(args) -> int:
    blocks = _parse_blocks(args.blocks)
    external_k = None
    if args.external_fingerprints is not None:
        external_k = load_latents(args.external_fingerprints)
    keyset, latents = _load_feature_inputs(args, blocks, need_keyset=external_k is None)

    graphs, bad = [], []
    with dataio.read_molecules(args.dataset) as (_, rows):
        for row_no, row, graph in rows:
            if isinstance(graph, str):
                bad.append((row_no, row["smiles"], graph))
            else:
                graphs.append(graph)
    _print_bad_rows(bad, "warning" if args.skip_bad else "error")
    if bad and not args.skip_bad:
        return VALIDATION_EXIT

    matrix = assemble(graphs, blocks, keyset=keyset, latents=latents,
                      external_k=external_k)
    echo = _echo(args, {"command": "featurize", "rows": len(matrix.ids)})
    dataio.atomic_write_text(args.out, dataio.matrix_csv_text(matrix, echo))
    return 0


def _print_bad_rows(bad, level: str) -> None:
    for row_no, smiles, reason in bad:
        print(f"{level}: row {row_no} ({smiles!r}): {reason}", file=sys.stderr)


def _train_config(args) -> TrainConfig:
    return TrainConfig(
        kind=args.model,
        seed=args.seed,
        n_estimators=args.n_estimators,
        max_depth=args.max_depth,
        learning_rate=args.learning_rate,
        C=getattr(args, "svr_c", None),
        epsilon=getattr(args, "svr_epsilon", None),
        kernel=getattr(args, "kernel", None),
        gamma=getattr(args, "gamma", None),
    )


def cmd_train(args) -> int:
    blocks = _parse_blocks(args.blocks)
    keyset, latents = _load_feature_inputs(args, blocks)
    dataset = dataio.load_dataset(args.dataset)
    matrix = assemble(dataset.graphs(), blocks, keyset=keyset, latents=latents)

    pipeline = selection.fit(
        matrix,
        variance_threshold=args.variance_threshold,
        pcc_threshold=args.pcc_threshold,
    )
    X = selection.apply(pipeline, matrix).values
    model = fit_model(X, dataset.targets(), _train_config(args))

    echo = _echo(args, {"command": "train", "rows": len(dataset)})
    model_payload = model_to_dict(model)
    model_payload["run_config"] = echo
    dataio.atomic_write_text(args.out, dataio.dump_json(model_payload))

    pipeline_payload = pipeline.to_dict()
    pipeline_payload["format_version"] = dataio.FORMAT_VERSION
    pipeline_payload["run_config"] = echo
    dataio.atomic_write_text(args.pipeline_out, dataio.dump_json(pipeline_payload))
    return 0


def cmd_evaluate(args) -> int:
    if args.repeats < 1:
        raise UsageError("--repeats must be at least 1")
    blocks = _parse_blocks(args.blocks)
    keyset, latents = _load_feature_inputs(args, blocks)
    dataset = dataio.load_dataset(args.dataset)
    matrix = assemble(dataset.graphs(), blocks, keyset=keyset, latents=latents)

    groups = None
    if args.splitter in ("msc", "logo"):
        if args.registry is None:
            raise UsageError(f"--splitter {args.splitter} requires --registry")
        registry = load_registry(args.registry)
        groups = group_dataset(dataset.graphs(), registry)

    splitter = evaluation.SplitterSpec(kind=args.splitter, test_fraction=args.test_fraction)
    report = evaluation.repeated_eval(
        matrix,
        dataset.targets(),
        splitter,
        TrainConfig(kind=args.model, seed=0),
        repeats=args.repeats,
        master_seed=args.seed,
        groups=groups,
        threads=args.threads,
    )

    echo = _echo(args, {"command": "evaluate", "rows": len(dataset)})
    payload = report.to_dict()
    payload["run_config"] = echo
    payload["format_version"] = dataio.FORMAT_VERSION
    if args.splitter == "logo":
        payload["per_group"] = [
            {"group_id": gid, "mae": score.mae, "spearman": score.spearman}
            for gid, score in zip(sorted(groups), report.pairs)
        ]
    dataio.atomic_write_text(args.out_json, dataio.dump_json(payload))

    text = evaluation.render_report_text([report])
    if args.splitter == "logo":
        lines = [text, "per-group breakdown:"]
        for gid, score in zip(sorted(groups), report.pairs):
            rho = "n/a" if score.spearman is None else f"{score.spearman:.4f}"
            lines.append(f"  group {gid}: MAE {score.mae:.4f}  Spearman {rho}")
        text = "\n".join(lines) + "\n"
    dataio.atomic_write_text(args.out_text, text)
    return 0


def cmd_screen(args) -> int:
    config = FunnelConfig.load(args.funnel)
    if args.top_fraction is not None:
        if not (0.0 < args.top_fraction <= 1.0):
            raise UsageError("--top-fraction must be in (0, 1]")
        config = dataclasses.replace(
            config,
            top_fraction=args.top_fraction,
            raw={**config.raw, "top_fraction": args.top_fraction},
        )

    report = run_funnel(config)
    _print_bad_rows(report.failed_rows, "warning")
    echo = _echo(args, {"command": "screen"})
    payload = report.to_dict()
    payload["run_config"] = echo
    payload["format_version"] = dataio.FORMAT_VERSION
    dataio.atomic_write_text(args.out_json, dataio.dump_json(payload))
    dataio.atomic_write_text(args.out_text, report.render_text())
    return 0


def cmd_scaffold(args) -> int:
    dataset = dataio.load_dataset(args.dataset, require_pce=False)
    registry = load_registry(args.registry)
    echo = _echo(args, {"command": "scaffold", "rows": len(dataset)})
    out = io.StringIO()
    out.write("# " + json.dumps(echo, sort_keys=True) + "\n")
    # Group names are free text: csv quotes any name holding a comma or
    # quote, so every data row keeps the header's five fields.
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(["smiles", "canonical_smiles", "scaffold", "group_id", "group_name"])
    memo: dict = {}
    for record in dataset.records:
        gate = classify(record.graph, registry, memo=memo)
        if gate.known:
            gid = str(gate.group_id)
            name = registry.group_names[gate.group_id]
        else:
            gid, name = "", "novel"
        writer.writerow([record.smiles, record.canonical, gate.scaffold.canonical, gid, name])
    dataio.atomic_write_text(args.out, out.getvalue())
    return 0


if __name__ == "__main__":
    sys.exit(main())
