"""Command-line surface tying the pipeline together.

Subcommands: featurize, train, evaluate, screen, scaffold. Exit codes are a
stable contract: 0 success, 1 validation failure (bad input data), 2 usage
error. Every artifact embeds the resolved configuration and format version
and is written atomically, so re-running a command with the same inputs
reproduces the artifact byte for byte.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import dataclasses
import io
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
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.config is not None:
            args = _parse_with_config_file(parser, args.command, args.config, argv[1:])
        missing = [
            "--" + name.replace("_", "-")
            for name in args._required
            if getattr(args, name) is None
        ]
        if missing:
            raise UsageError(f"missing required options: {', '.join(missing)}")
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
            "accepted and ignored by every command: each runs serially, and "
            "results never depend on it"
        ),
    )
    common.add_argument(
        "--config",
        type=Path,
        default=None,
        help="JSON file with default values for this subcommand's options",
    )
    dataset = argparse.ArgumentParser(add_help=False)
    dataset.add_argument("--dataset", type=Path)
    features = argparse.ArgumentParser(add_help=False)
    features.add_argument("--blocks", default="D", help="comma-separated subset of K,D,Z")
    features.add_argument("--keyset", type=Path, default=None)
    features.add_argument("--latents", type=Path, default=None)
    reports = argparse.ArgumentParser(add_help=False)
    reports.add_argument("--out-json", type=Path)
    reports.add_argument("--out-text", type=Path)
    sub = parser.add_subparsers(dest="command", required=True)

    # Path options are optional at parse time so a --config file can supply
    # them; main() enforces each command's _required ones after the overlay.
    p = sub.add_parser("featurize", parents=[common, dataset, features],
                       help="write a feature matrix CSV")
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

    p = sub.add_parser("train", parents=[common, dataset, features],
                       help="fit a model and its selection pipeline")
    p.add_argument("--model", choices=MODEL_KINDS)
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

    p = sub.add_parser("evaluate", parents=[common, dataset, features, reports],
                       help="repeated split/fit/score evaluation")
    p.add_argument("--registry", type=Path, default=None)
    p.add_argument("--model", choices=MODEL_KINDS, default="gb")
    p.add_argument("--splitter", choices=("msc", "random", "logo"), default="msc")
    p.add_argument("--repeats", type=int, default=200)
    p.add_argument("--test-fraction", type=float, default=0.1)
    p.set_defaults(func=cmd_evaluate, _required=("dataset", "out_json", "out_text"))

    p = sub.add_parser("screen", parents=[common, reports],
                       help="run the five-tier screening funnel")
    p.add_argument("--funnel", type=Path, help="funnel config JSON")
    p.add_argument("--top-fraction", type=float, default=None, help="override the config value")
    p.set_defaults(func=cmd_screen, _required=("funnel", "out_json", "out_text"))

    p = sub.add_parser("scaffold", parents=[common, dataset],
                       help="dump scaffold and group per molecule")
    p.add_argument("--registry", type=Path)
    p.add_argument("--out", type=Path)
    p.set_defaults(func=cmd_scaffold, _required=("dataset", "registry", "out"))
    return parser


def _parse_with_config_file(parser, command: str, path: Path, flags: list[str]):
    """Parse ``command`` with the options of the JSON object in ``path``
    placed before the command-line ``flags``, so every value meets its
    option's type and choices and an explicit flag wins.

    Keys that are no option of ``command`` (an artifact's ``run_config``
    also holds ``command``, ``rows`` and the version fields) and null
    values are skipped.
    """
    try:
        values = dataio.read_json_object(path, dict, UsageError)
    except UsageError as exc:
        raise UsageError(f"--config {exc}") from None
    defaults = vars(parser.parse_args([command]))
    tokens = []
    for key, value in values.items():
        dest = key.replace("-", "_")
        if value is None or dest in ("command", "func", "_required") or dest not in defaults:
            continue
        option = "--" + dest.replace("_", "-")
        if isinstance(defaults[dest], bool):  # an on/off flag
            if not isinstance(value, bool):
                raise UsageError(f"--config {path}: {key} must be true or false")
            if value:
                tokens.append(option)
        elif isinstance(value, (str, int, float)) and not isinstance(value, bool):
            tokens.append(f"{option}={value}")
        else:
            raise UsageError(f"--config {path}: {key} must be a string or a number")
    # argparse reports a rejected value on stderr and exits; keep its
    # message and name the file it came from.
    errors = io.StringIO()
    try:
        with contextlib.redirect_stderr(errors):
            return parser.parse_args([command, *tokens, *flags])
    except SystemExit:
        reason = errors.getvalue().strip().splitlines()[-1].partition("error: ")[2]
        raise UsageError(f"--config {path}: {reason}") from None


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
    # threads has no effect; echoing it would make runs that differ only
    # in --threads write different bytes.
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

    graphs, seen, bad = [], {}, []
    with dataio.read_molecules(args.dataset) as (_, rows):
        for row_no, row, graph in rows:
            if isinstance(graph, str):
                bad.append((row_no, row["smiles"], graph))
            else:
                dataio.check_unique(seen, graph, row_no, row["smiles"])
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
        C=args.svr_c,
        epsilon=args.svr_epsilon,
        kernel=args.kernel,
        gamma=args.gamma,
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
    X = selection.apply(pipeline, matrix)
    model = fit_model(X, dataset.targets(), _train_config(args))

    echo = _echo(args, {"command": "train", "rows": len(dataset)})
    dataio.write_json_artifact(args.out, model_to_dict(model), echo)
    dataio.write_json_artifact(args.pipeline_out, pipeline.to_dict(), echo)
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
    )

    echo = _echo(args, {"command": "evaluate", "rows": len(dataset)})
    dataio.write_json_artifact(args.out_json, report.to_dict(), echo)
    dataio.atomic_write_text(args.out_text, evaluation.render_report_text([report]))
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
    dataio.write_json_artifact(args.out_json, report.to_dict(), echo)
    dataio.atomic_write_text(args.out_text, report.render_text())
    return 0


def cmd_scaffold(args) -> int:
    dataset = dataio.load_dataset(args.dataset, require_pce=False)
    registry = load_registry(args.registry)
    echo = _echo(args, {"command": "scaffold", "rows": len(dataset)})
    out = io.StringIO()
    out.write(dataio.config_comment(echo))
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
