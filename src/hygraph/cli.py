"""Command-line interface.

Every subcommand reads canonical JSON datasets (resolved against the
working directory, then ``$HYGRAPH_DATA``) and emits deterministic JSON:
reruns with the same inputs and seeds produce byte-identical output.

Each subcommand's options are declared once, in ``OPTIONS``.  An option's
value comes from its ``--flag``, else from ``--config FILE`` (a flat JSON
object keyed by the flag names without the leading dashes, such as
``walk-length``), else from its default.  Config values are checked against
the declared type and choices; a mismatch, or a key the subcommand does
not declare, is a ``SchemaError`` that names the key.  Before it runs, a
subcommand prints one JSON line to stderr whose ``config`` lists every
resolved option under its config-file key, plus the dataset and the files it
reads and writes; saved to a file, that object can be passed back with
``--config`` to rerun the same job.  ``suite`` declares no options and takes
no ``--config``.  Exit status: 0 on success, 1 on failure, 2 on usage errors.
"""

import argparse
import json
import sys
from dataclasses import dataclass

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
    read_json_object,
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

CONVERSIONS = {
    "simple": to_simple,
    "hypergraph": to_hypergraph,
    "two-level": to_two_level_hierarchy,
}


@dataclass(frozen=True)
class Option:
    """An option's type, default and, where the set is closed, its choices."""

    type: type
    default: object = None
    choices: tuple | None = None
    help: str | None = None

    def check(self, key: str, value):
        """Return a config-file value unconverted, or raise if it does not fit."""
        if value is None and self.default is None:
            return value
        accepted = (int, float) if self.type is float else self.type
        if isinstance(value, bool) or not isinstance(value, accepted):
            raise SchemaError(
                f"config key {key!r}: expected {self.type.__name__}, got {value!r}"
            )
        if self.choices is not None and value not in self.choices:
            raise SchemaError(
                f"config key {key!r}: expected one of {'|'.join(self.choices)}, "
                f"got {value!r}"
            )
        return value


_SEED = Option(int, 0)
_SAMPLER = {
    "budget": Option(int, SamplerSpec.budget),
    "roots": Option(int, SamplerSpec.roots),
    "walk-length": Option(int, SamplerSpec.walk_length),
}
_SAMPLE = {"method": Option(str, None, SAMPLER_METHODS), **_SAMPLER, "seed": _SEED}

# Subcommand -> config-file key -> declaration; the flag is ``--<key>``.
OPTIONS: dict[str, dict[str, Option]] = {
    "stats": {"format": Option(str, "table", ("table", "json"))},
    "convert": {"to": Option(str, None, tuple(CONVERSIONS))},
    "split": {"seed": _SEED},
    "build-hyperedges": {
        "method": Option(str, None, ("clique", "interval", "ball")),
        "min-size": Option(int, 3),
        "window": Option(int, INTERVAL_WINDOW),
        "threshold": Option(float),
        "metric": Option(str, "euclidean", ("euclidean", "cosine")),
    },
    "sample": _SAMPLE,
    "sampler-report": {**_SAMPLE, "trials": Option(int, 10)},
    "train": {
        "model": Option(str),
        "epochs": Option(int, TrainConfig.epochs),
        "lr": Option(float, TrainConfig.lr),
        "hidden": Option(int, ModelSpec.hidden),
        "dropout": Option(float, ModelSpec.dropout),
        "trials": Option(int, TrainConfig.trials),
        "seed": _SEED,
        "saint": Option(str, None, SAMPLER_METHODS,
                        "train on sampled subgraphs with this sampler"),
        **_SAMPLER,
        "batches": Option(int, TrainConfig.batches_per_epoch),
    },
    "eval": {"split": Option(str, "test", ("train", "val", "test")), "seed": _SEED},
    "suite": {},
}
# The announce line's inputs and outputs: accepted in a config file, so that
# a saved announce line replays, and ignored, since arguments set them.
PATH_KEYS = ("dataset", "in", "out", "model_file")


def _emit(payload: dict | str, out_path: str | None) -> None:
    """Write text, or a dict as sorted indented JSON, to ``out_path`` or stdout."""
    if not isinstance(payload, str):
        payload = json.dumps(payload, sort_keys=True, indent=2) + "\n"
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(payload)
    else:
        sys.stdout.write(payload)


def _announce(subcommand: str, resolved: dict) -> None:
    line = json.dumps({"command": subcommand, "config": resolved}, sort_keys=True)
    print(line, file=sys.stderr)


def _configure(args) -> dict:
    """Resolve ``args.command``'s options (flag > config > default) and announce them.

    The result also holds the resolved input path (under ``in`` for the
    file-to-file commands, ``dataset`` otherwise), ``out`` and, for
    ``eval``, ``model_file``.
    """
    config = read_json_object(args.config) if args.config else {}
    options = OPTIONS[args.command]
    for key in config:
        if key not in options and key not in PATH_KEYS:
            raise SchemaError(f"config key {key!r}: not an option of {args.command}, "
                              f"expected one of {'|'.join(options)}")
    resolved = {}
    for key, option in options.items():
        flag = getattr(args, key.replace("-", "_"))
        if flag is not None:
            resolved[key] = flag
        elif key in config:
            resolved[key] = option.check(key, config[key])
        else:
            resolved[key] = option.default
    resolved[COMMANDS[args.command][2]] = resolve_dataset(args.dataset)
    resolved["out"] = args.out
    if hasattr(args, "model_file"):
        resolved["model_file"] = args.model_file
    _announce(args.command, resolved)
    return resolved


def _dataset_payload(path: str) -> dict:
    return {"toolkit_version": __version__, "dataset": path,
            "dataset_checksum": file_checksum(path)}


def _sampler_spec(opts: dict, method: str) -> SamplerSpec:
    return SamplerSpec(method, budget=opts["budget"], roots=opts["roots"],
                       walk_length=opts["walk-length"])


def cmd_stats(args) -> int:
    opts = _configure(args)
    path = opts["dataset"]
    stats = compute_stats(load(path))
    if opts["format"] == "json":
        _emit({**_dataset_payload(path), "stats": stats.as_dict()}, args.out)
    else:
        rows = list(stats.as_dict().items())
        width = max(len(k) for k, _ in rows)
        lines = []
        for key, value in rows:
            shown = f"{value:.4f}" if isinstance(value, float) else str(value)
            lines.append(f"{key:<{width}}  {shown}")
        _emit("\n".join(lines) + "\n", args.out)
    return 0


def cmd_convert(args) -> int:
    opts = _configure(args)
    target = opts["to"]
    if target is None:
        raise SchemaError(f"convert needs --to {'|'.join(CONVERSIONS)}")
    ds = load_file(opts["in"])
    converted = CONVERSIONS[target](ds.to_graph())
    save(converted, args.out, ds.name + f":{target}" if ds.name else target)
    return 0


def cmd_split(args) -> int:
    opts = _configure(args)
    path, seed = opts["dataset"], opts["seed"]
    masks = split(load(path), seed)
    _emit({**_dataset_payload(path), "seed": seed, **masks.as_dict()}, args.out)
    return 0


def cmd_build_hyperedges(args) -> int:
    opts = _configure(args)
    method, path = opts["method"], opts["in"]
    if method is None:
        raise SchemaError("build-hyperedges needs --method clique|interval|ball")
    ds = load_file(path)
    if method == "clique":
        built = cliques_to_hyperedges(ds.num_nodes, ds.edges, opts["min-size"])
    elif method == "interval":
        if ds.positions is None:
            raise SchemaError(f"{path}: interval construction needs 'positions'")
        try:
            built = interval_hyperedges(ds.positions, opts["window"])
        except ValueError as e:
            raise SchemaError(f"--window: {e}") from None
    else:
        if opts["threshold"] is None:
            raise SchemaError("ball construction needs --threshold")
        if ds.embeddings is None:
            raise SchemaError(f"{path}: ball construction needs 'embeddings'")
        built = ball_hyperedges(ds.embeddings, opts["threshold"], opts["metric"])
    ds.hyperedges = tuple(built)
    ds.hyperedge_weights = None
    ds.hyperedge_features = None
    save_file(ds, args.out)
    print(f"built {len(built)} hyperedges", file=sys.stderr)
    return 0


def cmd_sample(args) -> int:
    opts = _configure(args)
    spec = _sampler_spec(opts, opts["method"])
    g = load(opts["dataset"])
    sub = run_sampler(g, spec, np.random.default_rng(opts["seed"]))
    ids = {"node_ids": sub.node_ids.tolist(), "hyperedge_ids": sub.hyperedge_ids.tolist()}
    if args.out:
        save(sub, args.out, f"sample:{spec.method}")
        print(json.dumps(ids, sort_keys=True), file=sys.stderr)
    else:
        sizes = {"num_edges": int(sub.num_edges), "num_hyperedges": int(sub.num_hyperedges)}
        _emit({**ids, **sizes}, None)
    return 0


def cmd_sampler_report(args) -> int:
    opts = _configure(args)
    spec = _sampler_spec(opts, opts["method"])
    path = opts["dataset"]
    report = sampler_report(load(path), spec, opts["trials"], opts["seed"])
    _emit({**_dataset_payload(path), **report}, args.out)
    return 0


def cmd_train(args) -> int:
    opts = _configure(args)
    if not opts["model"]:
        raise SchemaError("train needs --model")
    spec = ModelSpec(opts["model"], hidden=opts["hidden"], dropout=opts["dropout"])
    cfg = TrainConfig(
        epochs=opts["epochs"],
        lr=opts["lr"],
        trials=opts["trials"],
        saint=_sampler_spec(opts, opts["saint"]) if opts["saint"] else None,
        batches_per_epoch=opts["batches"],
    )
    path = opts["dataset"]
    g = load(path)
    report, model = _experiment(g, spec, cfg, opts["seed"])
    payload = {**_dataset_payload(path), **report,
               "formatted": format_metric(report["mean"], report["std"])}
    if args.save_model:
        save_model(model, spec, g.task, g.node_features.shape[1], args.save_model)
        payload["model_file"] = args.save_model
    _emit(payload, args.out)
    return 0


def cmd_eval(args) -> int:
    opts = _configure(args)
    path, which, seed = opts["dataset"], opts["split"], opts["seed"]
    g = load(path)
    model, spec, task = load_model(args.model_file)
    if task != g.task:
        raise SchemaError(
            f"model was trained for task {task.kind!r}; dataset has {g.task.kind!r}"
        )
    if model.d_in != g.node_features.shape[1]:
        raise SchemaError(f"node_features: {args.model_file} was trained on {model.d_in} "
                          f"features; {path} has {g.node_features.shape[1]}")
    rows = getattr(split(g, seed), which)
    metric = evaluate(model, build_graph_tensors(g), rows)
    payload = {
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
    manifest = read_json_object(args.manifest)
    _announce("suite", {"manifest": args.manifest,
                        "master_seed": manifest.get("master_seed", 0)})
    report = run_experiment_suite(manifest)
    _emit(report, args.out)
    return 1 if report["num_incomplete"] else 0


# Subcommand -> (handler, help, what it reads: a "dataset" positional, "in"
# as a required ``--in`` for the file-to-file commands, or a "manifest").
COMMANDS = {
    "stats": (cmd_stats, "summary statistics of a dataset", "dataset"),
    "convert": (cmd_convert, "apply a graph transformation", "in"),
    "split": (cmd_split, "deterministic train/val/test node split", "dataset"),
    "build-hyperedges": (cmd_build_hyperedges, "construct hyperedges from raw data",
                         "in"),
    "sample": (cmd_sample, "draw one subgraph sample", "dataset"),
    "sampler-report": (cmd_sampler_report, "average subgraph stats over trials",
                       "dataset"),
    "train": (cmd_train, "train a model over several seeds", "dataset"),
    "eval": (cmd_eval, "evaluate a saved model on a split", "dataset"),
    "suite": (cmd_suite, "run a manifest of experiments", "manifest"),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hygraph",
        description="Hybrid-graph toolkit: stats, conversion, sampling, training.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (func, help_text, source) in COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(func=func)
        if source == "in":
            p.add_argument("--in", dest="dataset", required=True)
        else:
            p.add_argument(source)
        p.add_argument("--out", required=source == "in",
                       help="write the output to this file")
        for key, option in OPTIONS[name].items():
            p.add_argument(f"--{key}", type=option.type, choices=option.choices,
                           help=option.help)
        if OPTIONS[name]:
            p.add_argument("--config", help="JSON file with default options")
    sub.choices["train"].add_argument(
        "--save-model", help="write trained weights (base seed) to this npz file")
    sub.choices["eval"].add_argument("--model-file", required=True)
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
