"""Training and evaluation harness for node prediction on hybrid graphs.

One trial = one seed: the seed fixes the split, the parameter init, dropout
masks and any subgraph sampling, so a trial is reproducible in isolation.
Classification trains binary cross-entropy on one-hot targets and reports
accuracy; regression trains and reports mean squared error.  Optimization
is Adam under a half-cosine learning-rate decay.

Training can run full-batch or on sampled subgraphs: a sampler spec draws a
few subgraphs per epoch, the loss is taken on the sampled training nodes,
and evaluation always runs on the full graph, with no tape (``autodiff.no_grad``).
The parent graph is validated on its first trial and then marked valid;
sampled batches are not checked again, because a subgraph that ``induce``
cuts from a valid graph is valid by construction (see ``sampling.induce``).
The graph's operators are built on its first trial that reads them and kept
on the graph object (see ``layers.GraphTensors``), so later trials and calls
on it build none; each batch's are freed with its subgraph.
"""

import json
from dataclasses import dataclass, field

import numpy as np

from ..graph import HybridGraph, Task
from ..io import SplitMasks, split
from ..sampling import SamplerSpec, run_sampler
from . import autodiff as ad
from .layers import build_graph_tensors
from .losses import bce_with_logits, mse, one_hot
from .models import ModelSpec, build_model

__all__ = [
    "Adam",
    "TrainConfig",
    "TrialResult",
    "cosine_lr",
    "evaluate",
    "load_model",
    "random_guess",
    "run_experiment",
    "save_model",
    "train_single",
]


@dataclass(frozen=True)
class TrainConfig:
    epochs: int = 50
    lr: float = 0.01
    trials: int = 5
    saint: SamplerSpec | None = None
    batches_per_epoch: int = 5

    def __post_init__(self):
        if self.epochs < 1:
            raise ValueError(f"epochs must be >= 1, got {self.epochs}")
        if self.lr <= 0:
            raise ValueError(f"lr must be positive, got {self.lr}")
        if self.trials < 1:
            raise ValueError(f"trials must be >= 1, got {self.trials}")
        if self.saint is not None and self.batches_per_epoch < 1:
            raise ValueError("batches_per_epoch must be >= 1")


ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


class Adam:
    """Adam with bias correction; beta1, beta2 and eps are the ``ADAM_*`` constants."""

    def __init__(self, params: list[ad.Tensor]):
        self.params = params
        self.m = [np.zeros_like(p.value) for p in params]
        self.v = [np.zeros_like(p.value) for p in params]
        self.t = 0

    def step(self, lr: float) -> None:
        self.t += 1
        b1, b2 = ADAM_BETA1, ADAM_BETA2
        for i, p in enumerate(self.params):
            g = p.grad if p.grad is not None else np.zeros_like(p.value)
            self.m[i] = b1 * self.m[i] + (1 - b1) * g
            self.v[i] = b2 * self.v[i] + (1 - b2) * g * g
            m_hat = self.m[i] / (1 - b1**self.t)
            v_hat = self.v[i] / (1 - b2**self.t)
            p.value = p.value - lr * m_hat / (np.sqrt(v_hat) + ADAM_EPS)

    def zero_grad(self) -> None:
        for p in self.params:
            p.grad = None


def cosine_lr(base: float, epoch: int, total: int) -> float:
    """Half-cosine decay from ``base`` at epoch 0 toward 0 at ``total``."""
    return base * (1.0 + np.cos(np.pi * epoch / total)) / 2.0


def _targets(labels: np.ndarray, task: Task) -> np.ndarray:
    if task.is_classification:
        return one_hot(labels, task.num_classes)
    return np.asarray(labels, dtype=np.float64).reshape(-1, 1)


def _out_dim(task: Task) -> int:
    return task.num_classes if task.is_classification else 1


def _loss_on(out: ad.Tensor, rows: np.ndarray, targets: np.ndarray,
             task: Task) -> ad.Tensor:
    picked = ad.take_rows(out, rows)
    if task.is_classification:
        return bce_with_logits(picked, targets[rows])
    return mse(picked, targets[rows])


@dataclass
class TrialResult:
    seed: int
    test_metric: float
    val_metric: float
    train_losses: list[float | None] = field(repr=False, default_factory=list)


def evaluate(model, gt, x: np.ndarray, labels: np.ndarray,
             rows: np.ndarray | tuple[np.ndarray, ...],
             task: Task) -> float | tuple[float, ...]:
    """Accuracy on ``rows`` for classification, mean squared error otherwise.

    ``rows`` may be a tuple of row sets: the model then runs forward once and
    the result is a tuple with one metric per set.  The forward records no tape.
    """
    with ad.no_grad():
        out = model.forward(gt, ad.Tensor(x), training=False).value
    if isinstance(rows, tuple):
        return tuple(_metric(out, labels, r, task) for r in rows)
    return _metric(out, labels, rows, task)


def _metric(out: np.ndarray, labels: np.ndarray, rows: np.ndarray, task: Task) -> float:
    if task.is_classification:
        pred = out[rows].argmax(axis=1)
        return float((pred == labels[rows]).mean())
    return float(((out[rows, 0] - labels[rows]) ** 2).mean())


def random_guess(task: Task) -> float | None:
    """Expected accuracy of a uniform guesser; undefined for regression."""
    return 1.0 / task.num_classes if task.is_classification else None


def train_single(g: HybridGraph, model_spec: ModelSpec, cfg: TrainConfig,
                 seed: int) -> tuple[object, SplitMasks, TrialResult]:
    """One seeded trial: split, init, optimize, measure val and test."""
    g.require_valid()
    task = g.task
    masks = split(g, seed)
    rng = np.random.default_rng(seed)
    model = build_model(model_spec, g.node_features.shape[1], _out_dim(task),
                        rng, task.is_classification)
    gt = build_graph_tensors(g)
    x = np.asarray(g.node_features)
    targets = _targets(g.labels, task)
    is_train = np.zeros(g.num_nodes, dtype=bool)
    is_train[masks.train] = True
    optimizer = Adam(model.params())
    losses: list[float | None] = []  # None for an epoch that trained no batch

    for epoch in range(cfg.epochs):
        lr = cosine_lr(cfg.lr, epoch, cfg.epochs)
        batch_losses = []
        for batch_gt, batch_x, batch_targets, rows in _batches(
                g, cfg, is_train, rng, (gt, x, targets, masks.train)):
            optimizer.zero_grad()
            out = model.forward(batch_gt, ad.Tensor(batch_x), rng, training=True)
            loss = _loss_on(out, rows, batch_targets, task)
            _check_finite(loss.value, model_spec.name, epoch)
            loss.backward()
            optimizer.step(lr)
            batch_losses.append(float(loss.value))
        losses.append(float(np.mean(batch_losses)) if batch_losses else None)

    test_metric, val_metric = evaluate(model, gt, x, g.labels, (masks.test, masks.val), task)
    result = TrialResult(
        seed=seed,
        test_metric=test_metric,
        val_metric=val_metric,
        train_losses=losses,
    )
    return model, masks, result


def _batches(g: HybridGraph, cfg: TrainConfig, is_train: np.ndarray,
             rng: np.random.Generator, full: tuple):
    """One epoch's ``(graph tensors, features, targets, training rows)`` batches.

    Full-batch training is the single batch ``full``, the whole graph.  SAINT
    draws each subgraph only when the previous batch has been trained on, so
    sampler draws and dropout masks take turns on ``rng`` in a fixed order;
    a subgraph that holds no training node is skipped.  ``is_train`` marks
    the trial's training nodes; a batch's training rows are the sampled
    nodes it marks, and its targets are gathered from ``full``'s.  ``g`` was
    validated by the caller, so ``build_graph_tensors`` finds each batch
    marked known valid by ``induce`` and checks nothing again.
    """
    if cfg.saint is None:
        yield full
        return
    targets = full[2]
    for _ in range(cfg.batches_per_epoch):
        sub = run_sampler(g, cfg.saint, rng)
        local_train = np.flatnonzero(is_train[sub.node_ids])
        if local_train.size:
            yield (build_graph_tensors(sub.to_graph(g.task)), sub.node_features,
                   targets[sub.node_ids], local_train)


def _check_finite(value, model_name: str, epoch: int) -> None:
    if not np.isfinite(value):
        raise RuntimeError(
            f"non-finite training loss for {model_name} at epoch {epoch}; "
            "lower the learning rate or check the input features"
        )


def run_experiment(g: HybridGraph, model_spec: ModelSpec, cfg: TrainConfig,
                   base_seed: int) -> dict:
    """Repeated trials with seeds ``base_seed + i``; mean and population std."""
    return _experiment(g, model_spec, cfg, base_seed)[0]


def _experiment(g: HybridGraph, model_spec: ModelSpec, cfg: TrainConfig,
                base_seed: int) -> tuple[dict, object]:
    """``run_experiment``'s report plus the model its first trial trained."""
    results = []
    for i in range(cfg.trials):
        model, _, result = train_single(g, model_spec, cfg, base_seed + i)
        if i == 0:
            first_model = model
        results.append(result)
    metrics = np.array([r.test_metric for r in results])
    task = g.task
    report = {
        "model": model_spec.name,
        "hidden": model_spec.hidden,
        "dropout": model_spec.dropout,
        "epochs": cfg.epochs,
        "lr": cfg.lr,
        "base_seed": base_seed,
        "metric": "accuracy" if task.is_classification else "mse",
        "per_seed": [
            {
                "seed": r.seed,
                "test": r.test_metric,
                "val": r.val_metric,
                "final_train_loss": r.train_losses[-1] if r.train_losses else None,
            }
            for r in results
        ],
        "mean": float(metrics.mean()),
        "std": float(metrics.std()),
    }
    guess = random_guess(task)
    if guess is not None:
        report["random_guess"] = guess
    if cfg.saint is not None:
        report["sampler"] = {
            "method": cfg.saint.method,
            "budget": cfg.saint.budget,
            "roots": cfg.saint.roots,
            "walk_length": cfg.saint.walk_length,
            "batches_per_epoch": cfg.batches_per_epoch,
        }
    return report, first_model


def save_model(model, model_spec: ModelSpec, task: Task, d_in: int,
               path: str) -> None:
    """Persist weights plus enough metadata to rebuild the network.

    Writes ``path`` as npz; the metadata rides along as a JSON string.
    """
    params = model.params()
    meta = {
        "name": model_spec.name,
        "hidden": model_spec.hidden,
        "dropout": model_spec.dropout,
        "d_in": d_in,
        "task": task.kind,
        "num_classes": task.num_classes,
        "num_params": len(params),
    }
    arrays = {f"param_{i}": p.value for i, p in enumerate(params)}
    np.savez(path, meta=json.dumps(meta, sort_keys=True), **arrays)


def load_model(path: str):
    """Rebuild a saved model; returns (model, model_spec, task)."""
    with np.load(path, allow_pickle=False) as data:
        meta = json.loads(str(data["meta"]))
        weights = [data[f"param_{i}"] for i in range(meta["num_params"])]
    task = (
        Task("classification", num_classes=meta["num_classes"])
        if meta["task"] == "classification"
        else Task("regression")
    )
    spec = ModelSpec(meta["name"], hidden=meta["hidden"], dropout=meta["dropout"])
    model = build_model(spec, meta["d_in"], _out_dim(task),
                        np.random.default_rng(0), task.is_classification)
    params = model.params()
    if len(params) != len(weights):
        raise ValueError(f"{path}: parameter count mismatch")
    for p, w in zip(params, weights):
        if p.value.shape != w.shape:
            raise ValueError(f"{path}: parameter shape mismatch")
        p.value = w
    return model, spec, task
