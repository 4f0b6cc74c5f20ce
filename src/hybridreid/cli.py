"""Command line entry point with gen-data / cluster / train / evaluate /
ablate subcommands.  Every command that writes artifacts drops a
manifest.json (resolved config, seed, input hashes, output paths) into
the output directory before doing any real work."""

from __future__ import annotations

import argparse
import csv
import dataclasses
import hashlib
import itertools
import json
import logging
import os
import sys
from pathlib import Path

import numpy as np

from . import __version__, parallel
from .clustering import pseudo_label
from .core import (
    ClusteringCollapseError,
    ConfigError,
    FileFormatError,
    FileIOError,
    NumericError,
    TrainConfig,
    _CONFIG_RULES,
    _atomic_open,
    _check_fields,
    _labeling_rule,
    l2_normalize,
    load_features,
    save_features,
    validate_config,
)
from .encoder import load_checkpoint, save_checkpoint
from .evaluation import evaluate_retrieval
from .synthdata import SynthSpec, generate
from .trainer import embed_all, train

logger = logging.getLogger(__name__)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_IO = 3
EXIT_NUMERIC = 4
EXIT_COLLAPSE = 5

METRICS_HEADER = ["epoch", "C", "outliers", "loss", "loss_cls", "loss_ins"]
ABLATE_METRICS = ("mAP", "rank1", "rank5", "rank10")

def _write_csv(path, header, rows):
    with _atomic_open(path, newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def _write_json(path, obj):
    with _atomic_open(path) as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _sha256(path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def write_manifest(out_dir: Path, command: str, config: dict, seed, inputs: dict,
                   outputs: list, extra: dict | None = None) -> Path:
    """Record what a run is about to do; hashing the inputs up front also
    surfaces missing files before any compute happens."""
    manifest = {
        "tool": "hybridreid",
        "version": __version__,
        "command": command,
        "seed": seed,
        "config": config,
        "inputs": {
            name: {"path": str(path), "sha256": _sha256(path)}
            for name, path in inputs.items()
        },
        # relative to this manifest's directory, so reruns in a different
        # directory still produce an identical manifest
        "outputs": [os.path.basename(str(p)) for p in outputs],
        **(extra or {}),
    }
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / "manifest.json"
    _write_json(path, manifest)
    return path


# the TrainConfig fields that pseudo_label takes
CLUSTER_FIELDS = ("kreciprocal_k", "dbscan_eps", "dbscan_min_pts")


def _add_field_flags(sp: argparse.ArgumentParser, cls, names=None, sweep=False):
    """One flag per field of the dataclass ``cls`` (or per field in ``names``), typed by
    its default and, with ``sweep``, taking a list; left out, a flag reads None."""
    for field in dataclasses.fields(cls):
        if names is None or field.name in names:
            flag = "--" + field.name.replace("_", "-")
            kind = type(field.default)
            if kind is tuple:
                sp.add_argument(flag, type=int, nargs="+")
            else:
                sp.add_argument(flag, type=kind, nargs="+" if sweep else None)


def _given_fields(args, cls) -> dict:
    """The fields of the dataclass ``cls`` given as flags."""
    return {f.name: getattr(args, f.name) for f in dataclasses.fields(cls)
            if getattr(args, f.name, None) is not None}


def _merge_config(args, **fields) -> TrainConfig:
    """defaults < config file < explicit CLI flags < ``fields``."""
    cfg = TrainConfig() if args.config is None else TrainConfig.from_json(args.config)
    cfg = TrainConfig.from_dict({**cfg.to_dict(), **_given_fields(args, TrainConfig), **fields})
    validate_config(cfg)
    return cfg


def _write_metrics_csv(path, reports):
    _write_csv(path, METRICS_HEADER, (
        [r.epoch, r.num_clusters, r.num_outliers,
         *(f"{loss:.10g}" for loss in (r.loss, r.loss_cls, r.loss_ins))]
        for r in reports
    ))


def _load_inputs(args) -> list:
    """The training set, then the query and gallery sets if given, checked
    before any training to be equally wide."""
    sets = [load_features(path) for path in (args.features, args.query, args.gallery)
            if path is not None]
    widths = [fs.features.shape[1] for fs in sets]
    if len(set(widths)) > 1:
        raise ConfigError(f"--features, --query and --gallery must be equally wide, got {widths}")
    return sets


def _evaluate_sets(query, gallery, model=None, junk_filter=True):
    if model is not None:
        q_emb = embed_all(model, query.features)
        g_emb = embed_all(model, gallery.features)
    else:
        q_emb = l2_normalize(query.features)
        g_emb = l2_normalize(gallery.features)
    return evaluate_retrieval(q_emb, g_emb, query.ids, query.cams, gallery.ids,
                              gallery.cams, junk_filter=junk_filter)


def cmd_gen_data(args) -> int:
    spec = SynthSpec(**_given_fields(args, SynthSpec))
    spec.validate()
    out_dir = Path(args.out_dir)
    paths = {name: out_dir / f"{name}.feat" for name in ("train", "query", "gallery")}
    write_manifest(out_dir, "gen-data", dataclasses.asdict(spec), spec.seed,
                   inputs={}, outputs=list(paths.values()))
    train_s, query_s, gallery_s = generate(spec)
    for fs, path in zip((train_s, query_s, gallery_s), paths.values()):
        save_features(fs, path)
    print(f"wrote {train_s.ids.size} train, {query_s.ids.size} query, "
          f"{gallery_s.ids.size} gallery samples to {out_dir}")
    return EXIT_OK


def cmd_cluster(args) -> int:
    cfg = TrainConfig(**_given_fields(args, TrainConfig))
    out_dir = Path(args.out_dir)
    labels_path = out_dir / "labels.csv"
    params = {name: getattr(cfg, name) for name in CLUSTER_FIELDS}
    write_manifest(out_dir, "cluster", params, None,
                   inputs={"features": args.features}, outputs=[labels_path],
                   extra={"workers": parallel.workers()})
    features = load_features(args.features).features
    # clustering forms no batches, so only labeling's bound applies
    _check_fields(cfg, _CONFIG_RULES + (_labeling_rule(features.shape[0]),))
    labels = pseudo_label(l2_normalize(features), cfg.kreciprocal_k, cfg.dbscan_eps,
                          cfg.dbscan_min_pts)
    _write_csv(labels_path, ["sample_index", "cluster_id"],
               ([i, int(c)] for i, c in enumerate(labels.assignment)))
    print(f"clusters={labels.num_clusters} outliers={labels.num_outliers} "
          f"of {labels.num_samples} samples")
    return EXIT_OK


def cmd_train(args) -> int:
    if (args.query is None) != (args.gallery is None):
        raise ConfigError("--query and --gallery must be given together")
    cfg = _merge_config(args)
    out_dir = Path(args.out_dir)
    ckpt_path = out_dir / "checkpoint.ckpt"
    metrics_path = out_dir / "metrics.csv"
    timings_path = out_dir / "timings.csv"
    inputs = {"features": args.features}
    outputs = [ckpt_path, metrics_path, timings_path]
    if args.query is not None:
        inputs["query"] = args.query
        inputs["gallery"] = args.gallery
        outputs.append(out_dir / "eval.json")
    write_manifest(out_dir, "train", cfg.to_dict(), cfg.seed, inputs, outputs,
                   {"workers": parallel.workers(), "blas_threads_pinned": parallel.pin_blas()})
    features, *splits = _load_inputs(args)
    model, opt, reports = train(features.features, cfg)
    _write_metrics_csv(metrics_path, reports)
    _write_csv(timings_path, ["epoch", "seconds"],
               ([r.epoch, f"{r.seconds:.6f}"] for r in reports))
    save_checkpoint(ckpt_path, model, opt, epoch=len(reports))
    last = reports[-1]
    print(f"trained {len(reports)} epochs: C={last.num_clusters} "
          f"outliers={last.num_outliers} loss={last.loss:.4f}")
    if args.query is not None:
        metrics = _evaluate_sets(*splits, model=model).metrics()
        _write_json(out_dir / "eval.json", metrics)
        print("  ".join(f"{k}={v:.4f}" for k, v in sorted(metrics.items())))
    return EXIT_OK


def cmd_evaluate(args) -> int:
    if args.per_query and not args.out_dir:
        raise ConfigError("--per-query needs --out-dir to write per_query.csv into")
    if args.out_dir:
        out_dir = Path(args.out_dir)
        inputs = {"query": args.query, "gallery": args.gallery}
        if args.checkpoint:
            inputs["checkpoint"] = args.checkpoint
        metrics_path = out_dir / "eval.json"
        per_query_path = out_dir / "per_query.csv"
        outputs = [metrics_path, per_query_path] if args.per_query else [metrics_path]
        write_manifest(out_dir, "evaluate", {"junk_filter": not args.no_junk_filter},
                       None, inputs, outputs)
    model = None
    if args.checkpoint:
        model, _, _ = load_checkpoint(args.checkpoint)
    result = _evaluate_sets(load_features(args.query), load_features(args.gallery),
                            model=model, junk_filter=not args.no_junk_filter)
    metrics = result.metrics()
    if args.out_dir:
        _write_json(metrics_path, metrics)
        if args.per_query:
            _write_csv(per_query_path, ["query_index", "average_precision"], (
                [i, "" if np.isnan(ap) else f"{ap:.10g}"]
                for i, ap in enumerate(result.average_precisions)
            ))
    print(json.dumps(metrics, indent=2, sort_keys=True))
    return EXIT_OK


def _text(value) -> str:
    return f"{value:.10g}" if isinstance(value, float) else str(value)


def cmd_ablate(args) -> int:
    grid = _given_fields(args, TrainConfig)  # one axis per given flag,
    grid.pop("hidden_dims", None)  # but --hidden-dims is one tuple value
    for name, values in grid.items():
        if len(set(values)) < len(values):
            raise ConfigError(f"--{name.replace('_', '-')} repeats a value: {values}")
    cells = [_merge_config(args, **dict(zip(grid, values)))
             for values in itertools.product(*grid.values())]
    swept = [name for name, values in grid.items() if len(values) > 1]
    summary_path = Path(args.out_dir) / "summary.csv"
    # the manifest's config holds only the values that every cell shares
    shared = {k: v for k, v in cells[0].to_dict().items() if k not in swept}
    write_manifest(summary_path.parent, "ablate", shared, grid.get("seed", [cells[0].seed]),
                   {"features": args.features, "query": args.query, "gallery": args.gallery},
                   [summary_path], {"grid": grid, "workers": parallel.workers(),
                                    "blas_threads_pinned": parallel.pin_blas()})
    features, query, gallery = _load_inputs(args)
    # a later cell must not break the N-bound after the earlier ones trained
    for cell in cells:
        validate_config(cell, num_samples=features.features.shape[0])
    rows, groups = [], {}
    for cell in cells:
        model, _, reports = train(features.features, cell)
        metrics = _evaluate_sets(query, gallery, model=model).metrics()
        rows.append([*(_text(getattr(cell, name)) for name in grid), len(reports),
                     *(f"{metrics[k]:.10g}" for k in ABLATE_METRICS)])
        # the cells of one group differ only in seed
        label = " ".join(f"{n}={_text(getattr(cell, n))}" for n in swept if n != "seed")
        groups.setdefault((label, cell.epochs), []).append((metrics["mAP"], len(reports)))
    _write_csv(summary_path, [*grid, "trained_epochs", *ABLATE_METRICS], rows)
    for (label, epochs), runs in groups.items():
        maps, trained = zip(*runs)
        short = sum(n < epochs for n in trained)
        print(f"{label + ': ' if label else ''}mean mAP={np.mean(maps):.4f} over "
              f"{len(runs)} seeds, {short} trained fewer than {epochs} epochs")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hybridreid",
        description="Hybrid cluster/instance contrastive embedding trainer "
                    "with pseudo-label clustering and retrieval evaluation.",
    )
    parser.add_argument("--version", action="version",
                        version=f"hybridreid {__version__}")
    parser.add_argument("-v", "--verbose", action="store_true",
                        help="log per-epoch progress")
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("gen-data", help="generate a synthetic dataset")
    sp.add_argument("--out-dir", required=True)
    _add_field_flags(sp, SynthSpec)
    sp.set_defaults(func=cmd_gen_data)

    sp = sub.add_parser("cluster", help="pseudo-label a feature file")
    sp.add_argument("--features", required=True)
    sp.add_argument("--out-dir", required=True)
    _add_field_flags(sp, TrainConfig, CLUSTER_FIELDS)
    sp.set_defaults(func=cmd_cluster)

    sp = sub.add_parser("train", help="train an embedding model")
    sp.add_argument("--features", required=True)
    sp.add_argument("--out-dir", required=True)
    sp.add_argument("--query", default=None, help="evaluate after training")
    sp.add_argument("--gallery", default=None)
    sp.add_argument("--config", help="JSON file with training config fields")
    _add_field_flags(sp, TrainConfig)
    sp.set_defaults(func=cmd_train)

    sp = sub.add_parser("evaluate", help="score query/gallery retrieval")
    sp.add_argument("--query", required=True)
    sp.add_argument("--gallery", required=True)
    sp.add_argument("--checkpoint", default=None,
                    help="embed with this model instead of raw features")
    sp.add_argument("--out-dir", default=None)
    sp.add_argument("--per-query", action="store_true",
                    help="also write per-query AP (needs --out-dir)")
    sp.add_argument("--no-junk-filter", action="store_true",
                    help="keep same-identity same-camera gallery items")
    sp.set_defaults(func=cmd_evaluate)

    sp = sub.add_parser("ablate", help="train every combination of the given values")
    sp.add_argument("--features", required=True)
    sp.add_argument("--query", required=True)
    sp.add_argument("--gallery", required=True)
    sp.add_argument("--out-dir", required=True)
    sp.add_argument("--config", help="JSON file with training config fields")
    _add_field_flags(sp, TrainConfig, sweep=True)
    sp.set_defaults(func=cmd_ablate)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(
        level=logging.INFO if args.verbose else logging.WARNING,
        format="%(levelname)s %(name)s: %(message)s",
    )
    try:
        return args.func(args)
    except ClusteringCollapseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_COLLAPSE
    except NumericError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except (FileFormatError, FileIOError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except (ConfigError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except MemoryError as exc:
        # a size too large for this machine reads as a bad configuration
        print(f"error: out of memory: {str(exc) or 'an allocation failed'}",
              file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
