"""Batch experiment runner driven by a JSON manifest.

A manifest lists datasets and models to train, with shared defaults:

``{"master_seed": 0, "defaults": {"epochs": 50, ...},
   "runs": [{"dataset": "foo.json", "model": "gcn", ...}, ...]}``

Each run trains ``trials`` seeds and reports mean and standard deviation.
Run ``i`` uses base seed ``master_seed + 100 * i``, so reports are
byte-identical across invocations with the same manifest, and a single run
can be reproduced alone.  Missing dataset files mark the run ``skipped``
rather than aborting the whole suite.
"""

import hashlib

from . import __version__
from .io import load, resolve_dataset
from .nn.models import ModelSpec
from .nn.train import TrainConfig, run_experiment
from .sampling import SamplerSpec

__all__ = ["format_metric", "run_experiment_suite"]

RUN_SEED_STRIDE = 100


def format_metric(mean: float, std: float) -> str:
    return f"{mean:.3f} ± {std:.3f}"


def file_checksum(path: str) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


# Manifest keys beside "dataset", "model" and "saint", grouped by the spec
# that takes them; a key a run leaves out keeps that spec's default.
_MODEL_KEYS = ("hidden", "dropout")
_SAMPLER_KEYS = ("budget", "roots", "walk_length")
_TRAIN_KEYS = ("epochs", "lr", "trials", "batches_per_epoch")


# The JSON types each manifest key takes, and their name; a bool is none of them.
_KEY_TYPES = {**dict.fromkeys(_MODEL_KEYS + _SAMPLER_KEYS + _TRAIN_KEYS, (int, "an integer")),
              "lr": ((int, float), "a number"), "dropout": ((int, float), "a number"),
              "saint": ((str, type(None)), "a string or null"),
              **dict.fromkeys(("dataset", "model"), (str, "a string"))}


def _run_config(index: int, defaults: dict, overrides) -> dict:
    """Run ``index``'s config; errors name the run and the key."""
    if not isinstance(overrides, dict):
        raise ValueError(f"run {index}: each run must be a JSON object")
    cfg = {**defaults, **overrides}
    for key, value in cfg.items():
        if key not in _KEY_TYPES:
            raise ValueError(f"run {index}: unknown manifest key {key!r}")
        types, name = _KEY_TYPES[key]
        if isinstance(value, bool) or not isinstance(value, types):
            raise ValueError(f"run {index}: manifest key {key!r} must be {name}, got {value!r}")
    if not cfg.get("model") or not cfg.get("dataset"):
        raise ValueError(f"run {index}: every run needs 'dataset' and 'model'")
    return cfg


def _given(cfg: dict, keys: tuple[str, ...]) -> dict:
    return {key: cfg[key] for key in keys if key in cfg}


def _execute_run(cfg: dict, base_seed: int) -> dict:
    path = resolve_dataset(cfg["dataset"])
    g = load(path)
    spec = ModelSpec(cfg["model"], **_given(cfg, _MODEL_KEYS))
    saint = None
    if cfg.get("saint"):
        saint = SamplerSpec(cfg["saint"], **_given(cfg, _SAMPLER_KEYS))
    train_cfg = TrainConfig(saint=saint, **_given(cfg, _TRAIN_KEYS))
    report = run_experiment(g, spec, train_cfg, base_seed)
    report["dataset"] = cfg["dataset"]
    report["dataset_checksum"] = file_checksum(path)
    report["formatted"] = format_metric(report["mean"], report["std"])
    return report


def run_experiment_suite(manifest: dict) -> dict:
    """Run every entry in the manifest, all checked first; never raises on a missing dataset."""
    master_seed = manifest.get("master_seed", 0)
    if isinstance(master_seed, bool) or not isinstance(master_seed, int):
        raise ValueError(f"manifest key 'master_seed' must be an integer, got {master_seed!r}")
    defaults = manifest.get("defaults", {})
    if not isinstance(defaults, dict):
        raise ValueError("manifest key 'defaults' must be a JSON object")
    runs = manifest.get("runs", [])
    if not isinstance(runs, list) or not runs:
        raise ValueError("manifest needs a non-empty 'runs' list")
    configs = [_run_config(i, defaults, overrides) for i, overrides in enumerate(runs)]
    rows = []
    num_failed = 0
    for i, cfg in enumerate(configs):
        base_seed = master_seed + RUN_SEED_STRIDE * i
        row = {
            "index": i,
            "dataset": cfg["dataset"],
            "model": cfg["model"],
            "base_seed": base_seed,
        }
        try:
            row["report"] = _execute_run(cfg, base_seed)
            row["status"] = "ok"
        except FileNotFoundError as e:
            row["status"] = "skipped"
            row["reason"] = str(e)
            num_failed += 1
        except (ValueError, RuntimeError) as e:
            row["status"] = "failed"
            row["reason"] = str(e)
            num_failed += 1
        rows.append(row)
    return {
        "toolkit_version": __version__,
        "master_seed": master_seed,
        "num_runs": len(rows),
        "num_incomplete": num_failed,
        "runs": rows,
    }
