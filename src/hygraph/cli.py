"""Command-line interface.

Every subcommand reads canonical JSON datasets (resolved against the
working directory, then ``$HYGRAPH_DATA``), prints its resolved
configuration to stderr for reproducibility, and emits deterministic JSON:
reruns with the same inputs and seeds produce byte-identical output.

Options may come from ``--config FILE`` (a flat JSON object per
subcommand); explicit flags win over config values, which win over
defaults.  Exit status: 0 on success, 1 on failure, 2 on usage errors.
"""

import argparse
import json
import sys

import numpy as np

from . import __version__
from .construct import (
    INTERVAL_WINDOW,
    ball_hyperedges,
    cliques_to_hyperedges,
    interval_hyperedges,
)
from .graph import to_hypergraph, to_simple, to_two_level_hierarchy
from .io import (
    ParseError,
    SchemaError,
    load,
    load_file,
    resolve_dataset,
    save,
    save_file,
    split,
)
from .nn.models import ModelSpec
from .nn.train import TrainConfig, _experiment, evaluate, load_model, save_model
from .nn.layers import build_graph_tensors
from .sampling import SAMPLER_METHODS, SamplerSpec, run_sampler
from .stats import compute_stats, sampler_report
from .suite import file_checksum, format_metric, run_experiment_suite

__all__ = ["main"]


def _emit(payload: dict, out_path: str | None) -> None:
    text = json.dumps(payload, sort_keys=True, indent=2) + "\n"
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _announce(subcommand: str, resolved: dict) -> None:
    line = json.dumps({"command": subcommand, "config": resolved}, sort_keys=True)
    print(line, file=sys.stderr)


def _load_config(path: str | None) -> dict:
    if not path:
        return {}
    with open(path, encoding="utf-8") as fh:
        obj = json.load(fh)
    if not isinstance(obj, dict):
        raise SchemaError(f"{path}: config must be a JSON object")
    return obj


def _resolve(args, config: dict, key: str, default):
    flag = getattr(args, key.replace("-", "_"))
    if flag is not None:
        return flag
    if key in config:
        return config[key]
    return default


def _dataset_payload(path: str) -> dict:
    return {"dataset": path, "dataset_checksum": file_checksum(path)}


def cmd_stats(args) -> int:
    config = _load_config(args.config)
    fmt = _resolve(args, config, "format", "table")
    path = resolve_dataset(args.dataset)
    _announce("stats", {"dataset": path, "format": fmt})
    g = load(path)
    stats = compute_stats(g)
    if fmt == "json":
        payload = {"toolkit_version": __version__, **_dataset_payload(path),
                   "stats": stats.as_dict()}
        _emit(payload, args.out)
    else:
        rows = list(stats.as_dict().items())
        width = max(len(k) for k, _ in rows)
        lines = []
        for key, value in rows:
            shown = f"{value:.4f}" if isinstance(value, float) else str(value)
            lines.append(f"{key:<{width}}  {shown}")
        text = "\n".join(lines) + "\n"
        if args.out:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(text)
        else:
            sys.stdout.write(text)
    return 0


def cmd_convert(args) -> int:
    config = _load_config(args.config)
    target = _resolve(args, config, "to", None)
    if target not in ("simple", "hypergraph", "two-level"):
        raise SchemaError("convert needs --to simple|hypergraph|two-level")
    path = resolve_dataset(args.input)
    _announce("convert", {"in": path, "out": args.output, "to": target})
    ds = load_file(path)
    g = ds.to_graph()
    converted = {
        "simple": to_simple,
        "hypergraph": to_hypergraph,
        "two-level": to_two_level_hierarchy,
    }[target](g)
    save(converted, args.output, ds.name + f":{target}" if ds.name else target)
    return 0


def cmd_split(args) -> int:
    config = _load_config(args.config)
    seed = _resolve(args, config, "seed", 0)
    path = resolve_dataset(args.dataset)
    _announce("split", {"dataset": path, "seed": seed})
    masks = split(load(path), seed)
    payload = {
        "toolkit_version": __version__,
        **_dataset_payload(path),
        "seed": seed,
        **masks.as_dict(),
    }
    _emit(payload, args.out)
    return 0


def cmd_build_hyperedges(args) -> int:
    config = _load_config(args.config)
    method = _resolve(args, config, "method", None)
    if method not in ("clique", "interval", "ball"):
        raise SchemaError("build-hyperedges needs --method clique|interval|ball")
    path = resolve_dataset(args.input)
    ds = load_file(path)
    if method == "clique":
        min_size = _resolve(args, config, "min-size", 3)
        _announce("build-hyperedges", {"in": path, "method": method,
                                       "min_size": min_size})
        built = cliques_to_hyperedges(ds.num_nodes, ds.edges, min_size)
    elif method == "interval":
        window = _resolve(args, config, "window", INTERVAL_WINDOW)
        if ds.positions is None:
            raise SchemaError(f"{path}: interval construction needs 'positions'")
        _announce("build-hyperedges", {"in": path, "method": method,
                                       "window": window})
        built = interval_hyperedges(ds.positions, window)
    else:
        tau = _resolve(args, config, "threshold", None)
        metric = _resolve(args, config, "metric", "euclidean")
        if tau is None:
            raise SchemaError("ball construction needs --threshold")
        if ds.embeddings is None:
            raise SchemaError(f"{path}: ball construction needs 'embeddings'")
        _announce("build-hyperedges", {"in": path, "method": method,
                                       "threshold": tau, "metric": metric})
        built = ball_hyperedges(ds.embeddings, tau, metric)
    ds.hyperedges = tuple(built)
    ds.hyperedge_weights = None
    ds.hyperedge_features = None
    save_file(ds, args.output)
    print(f"built {len(built)} hyperedges", file=sys.stderr)
    return 0


def _sampler_spec_from(args, config) -> tuple[SamplerSpec, int]:
    method = _resolve(args, config, "method", None)
    if method not in SAMPLER_METHODS:
        raise SchemaError(f"sampler method must be one of {SAMPLER_METHODS}")
    spec = SamplerSpec(
        method,
        budget=_resolve(args, config, "budget", 0),
        roots=_resolve(args, config, "roots", 0),
        walk_length=_resolve(args, config, "walk-length", 0),
    )
    return spec, _resolve(args, config, "seed", 0)


def cmd_sample(args) -> int:
    config = _load_config(args.config)
    spec, seed = _sampler_spec_from(args, config)
    path = resolve_dataset(args.dataset)
    _announce("sample", {"dataset": path, "method": spec.method,
                         "budget": spec.budget, "roots": spec.roots,
                         "walk_length": spec.walk_length, "seed": seed})
    g = load(path)
    sub = run_sampler(g, spec, np.random.default_rng(seed))
    if args.out:
        save(sub, args.out, f"sample:{spec.method}")
        mapping = {
            "node_ids": sub.node_ids.tolist(),
            "hyperedge_ids": sub.hyperedge_ids.tolist(),
        }
        print(json.dumps(mapping, sort_keys=True), file=sys.stderr)
    else:
        payload = {
            "node_ids": sub.node_ids.tolist(),
            "hyperedge_ids": sub.hyperedge_ids.tolist(),
            "num_edges": int(sub.num_edges),
            "num_hyperedges": int(sub.num_hyperedges),
        }
        _emit(payload, None)
    return 0


def cmd_sampler_report(args) -> int:
    config = _load_config(args.config)
    spec, seed = _sampler_spec_from(args, config)
    trials = _resolve(args, config, "trials", 10)
    path = resolve_dataset(args.dataset)
    _announce("sampler-report", {"dataset": path, "method": spec.method,
                                 "budget": spec.budget, "roots": spec.roots,
                                 "walk_length": spec.walk_length,
                                 "trials": trials, "seed": seed})
    g = load(path)
    report = sampler_report(g, spec, trials, seed)
    payload = {"toolkit_version": __version__, **_dataset_payload(path), **report}
    _emit(payload, args.out)
    return 0


def cmd_train(args) -> int:
    config = _load_config(args.config)
    model_name = _resolve(args, config, "model", None)
    if not model_name:
        raise SchemaError("train needs --model")
    spec = ModelSpec(
        model_name,
        hidden=_resolve(args, config, "hidden", 32),
        dropout=_resolve(args, config, "dropout", 0.5),
    )
    saint_method = _resolve(args, config, "saint", None)
    saint = None
    if saint_method:
        saint = SamplerSpec(
            saint_method,
            budget=_resolve(args, config, "budget", 0),
            roots=_resolve(args, config, "roots", 0),
            walk_length=_resolve(args, config, "walk-length", 0),
        )
    cfg = TrainConfig(
        epochs=_resolve(args, config, "epochs", 50),
        lr=_resolve(args, config, "lr", 0.01),
        trials=_resolve(args, config, "trials", 5),
        saint=saint,
        batches_per_epoch=_resolve(args, config, "batches", 5),
    )
    seed = _resolve(args, config, "seed", 0)
    path = resolve_dataset(args.dataset)
    resolved = {
        "dataset": path, "model": spec.name, "hidden": spec.hidden,
        "dropout": spec.dropout, "epochs": cfg.epochs, "lr": cfg.lr,
        "trials": cfg.trials, "seed": seed,
        "saint": saint_method or None,
    }
    _announce("train", resolved)
    g = load(path)
    report, model = _experiment(g, spec, cfg, seed)
    payload = {
        "toolkit_version": __version__,
        **_dataset_payload(path),
        **report,
        "formatted": format_metric(report["mean"], report["std"]),
    }
    if args.save_model:
        save_model(model, spec, g.task, g.node_features.shape[1], args.save_model)
        payload["model_file"] = args.save_model
    _emit(payload, args.out)
    return 0


def cmd_eval(args) -> int:
    config = _load_config(args.config)
    which = _resolve(args, config, "split", "test")
    if which not in ("train", "val", "test"):
        raise SchemaError("eval needs --split train|val|test")
    seed = _resolve(args, config, "seed", 0)
    path = resolve_dataset(args.dataset)
    _announce("eval", {"dataset": path, "model_file": args.model_file,
                       "split": which, "seed": seed})
    g = load(path)
    model, spec, task = load_model(args.model_file)
    if task != g.task:
        raise SchemaError(
            f"model was trained for task {task.kind!r}; dataset has {g.task.kind!r}"
        )
    masks = split(g, seed)
    rows = getattr(masks, which)
    gt = build_graph_tensors(g)
    metric = evaluate(model, gt, np.asarray(g.node_features), g.labels, rows, task)
    payload = {
        "toolkit_version": __version__,
        **_dataset_payload(path),
        "model": spec.name,
        "model_file": args.model_file,
        "split": which,
        "seed": seed,
        "metric": "accuracy" if task.is_classification else "mse",
        "value": metric,
    }
    _emit(payload, args.out)
    return 0


def cmd_suite(args) -> int:
    with open(args.manifest, encoding="utf-8") as fh:
        manifest = json.load(fh)
    _announce("suite", {"manifest": args.manifest,
                        "master_seed": manifest.get("master_seed", 0)})
    report = run_experiment_suite(manifest)
    _emit(report, args.out)
    return 1 if report["num_incomplete"] else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hygraph",
        description="Hybrid-graph toolkit: stats, conversion, sampling, training.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="JSON file with default options")
        p.add_argument("--out", help="write JSON output to this file")

    p = sub.add_parser("stats", help="summary statistics of a dataset")
    p.add_argument("dataset")
    p.add_argument("--format", choices=("table", "json"))
    common(p)
    p.set_defaults(func=cmd_stats)

    p = sub.add_parser("convert", help="apply a graph transformation")
    p.add_argument("--in", dest="input", required=True)
    p.add_argument("--out", dest="output", required=True)
    p.add_argument("--to", choices=("simple", "hypergraph", "two-level"))
    p.add_argument("--config", help="JSON file with default options")
    p.set_defaults(func=cmd_convert)

    p = sub.add_parser("split", help="deterministic train/val/test node split")
    p.add_argument("dataset")
    p.add_argument("--seed", type=int)
    common(p)
    p.set_defaults(func=cmd_split)

    p = sub.add_parser("build-hyperedges", help="construct hyperedges from raw data")
    p.add_argument("--in", dest="input", required=True)
    p.add_argument("--out", dest="output", required=True)
    p.add_argument("--method", choices=("clique", "interval", "ball"))
    p.add_argument("--min-size", type=int, dest="min_size")
    p.add_argument("--window", type=int)
    p.add_argument("--threshold", type=float)
    p.add_argument("--metric", choices=("euclidean", "cosine"))
    p.add_argument("--config", help="JSON file with default options")
    p.set_defaults(func=cmd_build_hyperedges)

    def sampler_flags(p):
        p.add_argument("--method", choices=SAMPLER_METHODS)
        p.add_argument("--budget", type=int)
        p.add_argument("--roots", type=int)
        p.add_argument("--walk-length", type=int, dest="walk_length")
        p.add_argument("--seed", type=int)

    p = sub.add_parser("sample", help="draw one subgraph sample")
    p.add_argument("dataset")
    sampler_flags(p)
    common(p)
    p.set_defaults(func=cmd_sample)

    p = sub.add_parser("sampler-report", help="average subgraph stats over trials")
    p.add_argument("dataset")
    sampler_flags(p)
    p.add_argument("--trials", type=int)
    common(p)
    p.set_defaults(func=cmd_sampler_report)

    p = sub.add_parser("train", help="train a model over several seeds")
    p.add_argument("dataset")
    p.add_argument("--model")
    p.add_argument("--epochs", type=int)
    p.add_argument("--lr", type=float)
    p.add_argument("--hidden", type=int)
    p.add_argument("--dropout", type=float)
    p.add_argument("--trials", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--saint", choices=SAMPLER_METHODS,
                   help="train on sampled subgraphs with this sampler")
    p.add_argument("--budget", type=int)
    p.add_argument("--roots", type=int)
    p.add_argument("--walk-length", type=int, dest="walk_length")
    p.add_argument("--batches", type=int)
    p.add_argument("--save-model", dest="save_model",
                   help="write trained weights (base seed) to this npz file")
    common(p)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="evaluate a saved model on a split")
    p.add_argument("dataset")
    p.add_argument("--model-file", dest="model_file", required=True)
    p.add_argument("--split", choices=("train", "val", "test"))
    p.add_argument("--seed", type=int)
    common(p)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("suite", help="run a manifest of experiments")
    p.add_argument("manifest")
    common(p)
    p.set_defaults(func=cmd_suite)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ParseError, SchemaError, FileNotFoundError, ValueError, RuntimeError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
