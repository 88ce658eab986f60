"""The four benchmark workloads: their inputs, operations and output checks.

Every workload cycles through one list of operations of three kinds, each a
call into hygraph's public API that a user would make:

* ``train``: ``run_experiment_suite`` or ``run_experiment``;
* ``sample``: ``sampler_report`` (each draw runs ``to_graph`` and
  ``compute_stats``);
* ``construct``: the ``hygraph build-hyperedges`` CLI path
  (``load_file`` -> construction -> ``save_file``).

Each workload runs all three kinds, because every end-to-end metric is
reported on every workload; the sizes put each workload in its own cost
regime (see README.md).  Constructing a workload class writes its seeded
input files (not timed); ``setup`` loads or generates the graphs through
hygraph, and ``warm_up`` runs each operation once at a small size.
"""

import contextlib
import hashlib
import io as _stdio
import json
import math
import os
from dataclasses import dataclass, field
from typing import Callable

import numpy as np
from scipy.spatial import cKDTree

from hygraph import cli, construct, io, sampling, stats, suite
from hygraph.graph import structurally_equal
from hygraph.nn import train
from hygraph.nn.models import ModelSpec
from hygraph.nn.train import TrainConfig
from hygraph.sampling import SamplerSpec
from hygraph.synthetic import make_classification_graph, make_regression_graph

SUITE_MANIFEST = os.path.join("manifests", "synthetic_suite.json")
# Criterion 08 holds full-batch gcn to >= 0.95 on separable synthetic data.
GCN_FLOOR = 0.95
# The large workloads train for only a few epochs; at this rate the scored
# models settle within them, which keeps accuracy steady across seeds.
LARGE_LR = 0.1
# Subgraphs checked per operation; later draws repeat the same code path.
MAX_CHECKED_DRAWS = 50


@dataclass
class OpResult:
    digest: str  # sha256 of the operation's output bytes
    epochs: int = 0
    draws: int = 0
    accuracies: list[float] = field(default_factory=list)
    mses: list[float] = field(default_factory=list)
    failures: list[str] = field(default_factory=list)


@dataclass
class Op:
    kind: str  # "train" | "sample" | "construct"
    name: str
    call: Callable[[], OpResult]
    # Output checks run once, untimed, after the first call; they get the
    # subgraphs the sampler drew during that call.
    verify: Callable[[OpResult, list], list[str]] | None = None
    warm: Callable[[], object] | None = None


@dataclass
class Workload:
    ops: list[Op]
    # Share of the measured seconds each kind gets: enough that the short
    # operations run many times, the rest to the kind whose calls are long.
    shares: dict[str, float]


def _digest(obj) -> str:
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode()).hexdigest()


def _write_json(path: str, obj: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh, separators=(",", ":"))


class CaptureDraws:
    """Keep every subgraph the sampler returns while the block runs."""

    def __init__(self):
        self.draws: list = []

    def __enter__(self):
        draw = sampling.run_sampler
        self._saved = (stats.run_sampler, train.run_sampler)

        def capturing(g, spec, rng):
            sub = draw(g, spec, rng)
            if len(self.draws) < MAX_CHECKED_DRAWS:
                self.draws.append((g, sub))
            return sub

        stats.run_sampler = train.run_sampler = capturing
        return self

    def __exit__(self, *exc):
        stats.run_sampler, train.run_sampler = self._saved
        return False


# -- inputs --------------------------------------------------------------

def write_point_cloud(path: str, n: int, group_size: int, seed: int) -> float:
    """Clustered 4-d points as one dataset file for all three constructions.

    Edges are the 6-nearest-neighbour graph, positions spread nodes over four
    chromosomes so that a default window holds about ``group_size`` nodes,
    and the embeddings are the points.  Returns the radius tau at which a
    ball holds ``group_size`` members on average.
    """
    rng = np.random.default_rng(seed)
    classes = 4
    labels = rng.integers(classes, size=n)
    points = 4.0 * np.eye(classes)[labels] + rng.standard_normal((n, 4))
    features = np.eye(classes)[labels] + 0.3 * rng.standard_normal((n, classes))
    tree = cKDTree(points)
    _, nbr = tree.query(points, k=7)
    u = np.repeat(np.arange(n), 6)
    v = nbr[:, 1:].ravel()
    edges = np.unique(np.stack([np.minimum(u, v), np.maximum(u, v)], axis=1), axis=0)
    span = int(2 * construct.INTERVAL_WINDOW * (n / classes) / group_size)
    chrom = rng.integers(classes, size=n)
    offsets = rng.integers(0, span, size=n)
    # Bisect for the radius whose balls hold group_size members on average
    # (count_neighbors counts ordered pairs, each point with itself too).
    lo, hi = 0.0, float(np.ptp(points, axis=0).max()) * 2
    for _ in range(25):
        tau = (lo + hi) / 2
        lo, hi = (tau, hi) if tree.count_neighbors(tree, tau) < group_size * n else (lo, tau)
    _write_json(path, {
        "name": "point-cloud", "num_nodes": n, "task": "classification",
        "num_classes": classes, "node_features": features.tolist(),
        "edges": edges.tolist(), "labels": labels.tolist(),
        "positions": [[f"chr{c}", int(o)] for c, o in zip(chrom, offsets)],
        "embeddings": points.tolist(),
    })
    return tau


# -- output checks -------------------------------------------------------

def check_draws(draws: list) -> list[str]:
    """Validity and the masking invariants of criterion 07 for each draw."""
    out = []
    for g, sub in draws:
        ids = sub.node_ids
        if ids.size and not np.all(np.diff(ids) > 0):
            out.append("sampled node_ids are not sorted and unique")
        violations = sub.to_graph(g.task).violations
        if violations:
            out.append(f"sampled subgraph is invalid: {violations[0]}")
        members, offsets = g.incidence_arrays
        edge_of = np.repeat(np.arange(g.num_hyperedges), np.diff(offsets))
        touched = np.zeros(g.num_hyperedges, dtype=bool)
        touched[edge_of[np.isin(members, ids)]] = True
        if not np.array_equal(np.flatnonzero(touched), sub.hyperedge_ids):
            out.append("kept hyperedges are not exactly those that meet the sample")
        sample = set(ids.tolist())
        for local, k in zip(sub.hyperedges, sub.hyperedge_ids):
            back = {int(ids[v]) for v in local}
            if not back or back != set(g.hyperedges[int(k)]) & sample:
                out.append(f"kept hyperedge {int(k)} is not its parent masked to the sample")
                break
    return out


def _train_result(report: dict) -> OpResult:
    trials = report["per_seed"]
    failures = [f"{report['model']}: non-finite final loss (seed {t['seed']})"
                for t in trials
                if t["final_train_loss"] is None or not math.isfinite(t["final_train_loss"])]
    tests = [t["test"] for t in trials]
    classify = report["metric"] == "accuracy"
    return OpResult(
        digest=_digest(report),
        epochs=report["epochs"] * len(trials),
        accuracies=tests if classify else [],
        mses=[] if classify else tests,
        failures=failures,
    )


# -- operations ----------------------------------------------------------

def train_op(g, model: str, cfg: TrainConfig, seed: int, banded: bool,
             scored: bool = True) -> Op:
    """One ``run_experiment``.

    ``banded`` requires a scored model to beat chance; an op that is not
    ``scored`` is timed and checked but left out of the accuracy metric.
    """
    spec = ModelSpec(model)
    chance = 1.0 / g.task.num_classes
    tag = f"{model}+{cfg.saint.method}" if cfg.saint else model

    def call():
        result = _train_result(train.run_experiment(g, spec, cfg, seed))
        mean = float(np.mean(result.accuracies))
        if banded and scored and not mean > chance:
            result.failures.append(f"{tag}: accuracy {mean:.3f} not above chance {chance:.3f}")
        if not scored:
            result.accuracies = []
        return result

    def warm():
        train.run_experiment(g, spec, TrainConfig(epochs=1, trials=1, lr=cfg.lr,
                                                  saint=cfg.saint, batches_per_epoch=1), seed)

    return Op("train", f"train:{tag}", call, lambda _r, draws: check_draws(draws), warm)


def sample_op(g, spec: SamplerSpec, trials: int, seed: int) -> Op:
    def call():
        report = stats.sampler_report(g, spec, trials, seed)
        return OpResult(digest=_digest(report), draws=trials)

    return Op("sample", f"sample:{spec.method}", call,
              lambda _r, draws: check_draws(draws),
              lambda: stats.sampler_report(g, spec, 1, seed))


def construct_ops(src: str, workdir: str, tau: float) -> list[Op]:
    """The three build-hyperedges runs over one point-cloud file."""
    methods = {
        "clique": [],
        "interval": [],
        "ball": ["--threshold", repr(tau)],
    }
    ops = []
    for method, extra in methods.items():
        out = os.path.join(workdir, f"built-{method}.json")
        argv = ["build-hyperedges", "--in", src, "--out", out, "--method", method, *extra]
        ops.append(Op("construct", f"construct:{method}", _cli_call(argv, out),
                      _construct_check(method, src, out, workdir)))
    return ops


def _cli_call(argv: list[str], out: str):
    def call():
        log = _stdio.StringIO()
        with contextlib.redirect_stderr(log):
            code = cli.main(argv)
        if code != 0:
            return OpResult(digest="", failures=[f"hygraph {argv[0]} exited {code}: {log.getvalue()}"])
        with open(out, "rb") as fh:
            return OpResult(digest=hashlib.sha256(fh.read()).hexdigest())
    return call


def _construct_check(method: str, src: str, out: str, workdir: str):
    def verify(_result, _draws) -> list[str]:
        built = io.load_file(out)
        failures = []
        if method == "clique":
            edges = {(int(u), int(v)) for u, v in io.load_file(src).edges}
            for e in built.hyperedges:
                pairs = ((a, b) for i, a in enumerate(e) for b in e[i + 1:])
                if len(e) < 3 or not all(p in edges for p in pairs):
                    failures.append(f"clique output {e[:5]} is not a clique of size >= 3")
                    break
        if method == "ball":
            missing = [i for i, e in enumerate(built.hyperedges) if i not in e]
            if missing:
                failures.append(f"ball {missing[0]} does not contain its anchor")
            g = io.load(out)
            again = os.path.join(workdir, "roundtrip.json")
            io.save(g, again)
            if not structurally_equal(g, io.load(again)):
                failures.append("save -> load round trip changed the ball graph")
        return failures
    return verify


# -- the four workloads ---------------------------------------------------

def _sample_ops(g, budgets: dict, trials: int, seed: int) -> list[Op]:
    specs = [
        SamplerSpec("node", budget=budgets["node"]),
        SamplerSpec("edge", budget=budgets["edge"]),
        SamplerSpec("rw", roots=budgets["roots"], walk_length=budgets["walk"]),
        SamplerSpec("rand-node", budget=budgets["node"]),
        SamplerSpec("rand-hyperedge", budget=budgets["hyperedge"]),
    ]
    return [sample_op(g, spec, trials, seed) for spec in specs]


def warm_up(workload: Workload) -> None:
    """Run each operation's small warm-up call once."""
    for op in workload.ops:
        if op.warm is not None:
            op.warm()


class SuiteSmall:
    """``synthetic_suite.json`` as committed, with the seed as master seed."""

    def __init__(self, seed: int, tiny: bool, workdir: str):
        self.seed, self.tiny, self.workdir = seed, tiny, workdir
        with open(SUITE_MANIFEST, encoding="utf-8") as fh:
            manifest = json.load(fh)
        # The suite's datasets, made as demos/make_datasets.py makes them.
        datasets = {
            "data/synthetic_classification.json": (
                make_classification_graph(num_nodes=300, num_hyperedges=60, seed=seed),
                "synthetic_classification"),
            "data/synthetic_regression.json": (
                make_regression_graph(num_nodes=200, seed=seed), "synthetic_regression"),
        }
        paths = {}
        self.target_var = {}
        for ref, (g, name) in datasets.items():
            paths[ref] = os.path.join(workdir, os.path.basename(ref))
            io.save(g, paths[ref], name=name)
            self.target_var[paths[ref]] = float(np.var(g.labels))
        manifest["master_seed"] = seed
        defaults = manifest["defaults"]
        defaults["dataset"] = paths[defaults["dataset"]]
        for row in manifest["runs"]:
            if "dataset" in row:
                row["dataset"] = paths[row["dataset"]]
        if tiny:
            defaults.update(epochs=2, trials=1)
        self.manifest = manifest
        self.class_path = paths["data/synthetic_classification.json"]
        self.points = os.path.join(workdir, "points.json")
        self.tau = write_point_cloud(self.points, 300 if not tiny else 60, 10, seed)

    def setup(self) -> Workload:
        g = io.load(self.class_path)
        ops = [self._row_op(i) for i in range(len(self.manifest["runs"]))]
        ops += _sample_ops(g, {"node": 100, "edge": 150, "roots": 30, "walk": 3,
                               "hyperedge": 20}, 2 if self.tiny else 10, self.seed)
        ops += construct_ops(self.points, self.workdir, self.tau)
        # One pass over the 13 rows outlasts any share; the sampler and
        # construction calls take milliseconds and need little time.
        return Workload(ops, shares={"train": 0.7, "sample": 0.15, "construct": 0.15})

    def _row_op(self, i: int) -> Op:
        m = self.manifest
        row = m["runs"][i]
        # A one-row manifest whose master seed is row i's base seed in the
        # full suite reproduces that row of the full report exactly.
        one = {"master_seed": m["master_seed"] + suite.RUN_SEED_STRIDE * i,
               "defaults": m["defaults"], "runs": [row]}
        warm = {**one, "defaults": {**m["defaults"], "epochs": 1, "trials": 1}}
        model = row["model"]

        def call():
            report = suite.run_experiment_suite(one)
            got = report["runs"][0]
            if got["status"] != "ok":
                return OpResult(digest=_digest(report),
                                failures=[f"suite row {i} ({model}) {got['status']}: {got.get('reason')}"])
            result = _train_result(got["report"])
            result.digest = _digest(report)
            if result.accuracies:
                mean = got["report"]["mean"]
                plain = model == "gcn" and not row.get("saint")
                floor = GCN_FLOOR if plain else got["report"]["random_guess"]
                if not self.tiny and not (mean >= floor if plain else mean > floor):
                    result.failures.append(f"suite row {i} ({model}): accuracy {mean:.3f} under {floor}")
            elif not self.tiny:
                if not np.mean(result.mses) < self.target_var[row.get("dataset", m["defaults"]["dataset"])]:
                    result.failures.append(f"suite row {i} ({model}): mse not below the target variance")
            return result

        return Op("train", f"suite:{i}:{model}", call, lambda _r, draws: check_draws(draws),
                  lambda: suite.run_experiment_suite(warm))


class TrainLarge:
    """20k nodes, d=32: six base layers plus a combiner, full batch."""

    MODELS = ("gcn", "sage", "gat", "gatv2", "hyperconv", "hyperatten")
    # After a few epochs at this rate the combiner's accuracy ranges from
    # chance to 0.99 across seeds, so it is trained but not scored.
    COMBINER = "lp:gcn+hyperconv"

    def __init__(self, seed: int, tiny: bool, workdir: str):
        self.seed, self.tiny, self.workdir = seed, tiny, workdir
        self.n = 500 if tiny else 20_000
        self.points = os.path.join(workdir, "points.json")
        self.tau = write_point_cloud(self.points, 60 if tiny else 1000, 10, seed)

    def setup(self) -> Workload:
        n = self.n
        g = make_classification_graph(num_nodes=n, feature_dim=32, avg_degree=6.0,
                                       num_hyperedges=n // 5, seed=self.seed)
        cfg = TrainConfig(epochs=2 if self.tiny else 3, lr=LARGE_LR, trials=1)
        ops = [train_op(g, model, cfg, self.seed, not self.tiny) for model in self.MODELS]
        ops.append(train_op(g, self.COMBINER, cfg, self.seed, not self.tiny, scored=False))
        ops += _sample_ops(g, {"node": n // 20, "edge": n // 20, "roots": n // 100,
                               "walk": 4, "hyperedge": n // 100}, 1, self.seed)
        ops += construct_ops(self.points, self.workdir, self.tau)
        return Workload(ops, shares={"train": 0.7, "sample": 0.15, "construct": 0.15})


class SampleLarge:
    """50k nodes read from a file: five samplers and SAINT gcn training."""

    def __init__(self, seed: int, tiny: bool, workdir: str):
        self.seed, self.tiny, self.workdir = seed, tiny, workdir
        self.n = 2000 if tiny else 50_000
        self.graph = os.path.join(workdir, "large.json")
        io.save(make_classification_graph(num_nodes=self.n, num_hyperedges=self.n // 5,
                                          seed=seed), self.graph, name="large")
        self.points = os.path.join(workdir, "points.json")
        self.tau = write_point_cloud(self.points, 60 if tiny else 1000, 10, seed)

    def setup(self) -> Workload:
        n = self.n
        g = io.load(self.graph)
        walks = SamplerSpec("rw", roots=n // 100, walk_length=4)
        nodes = SamplerSpec("node", budget=n // 20)
        ops = [train_op(g, "gcn", TrainConfig(epochs=2, lr=LARGE_LR, trials=1, saint=spec,
                                              batches_per_epoch=2), self.seed, not self.tiny)
               for spec in (walks, nodes)]
        ops += _sample_ops(g, {"node": n // 20, "edge": n // 40, "roots": n // 100,
                               "walk": 4, "hyperedge": n // 100}, 2, self.seed)
        ops += construct_ops(self.points, self.workdir, self.tau)
        return Workload(ops, shares={"train": 0.4, "sample": 0.4, "construct": 0.2})


class ConstructHyper:
    """5k points: clique, interval and ball construction, then hypergraph training."""

    def __init__(self, seed: int, tiny: bool, workdir: str):
        self.seed, self.tiny, self.workdir = seed, tiny, workdir
        self.n = 300 if tiny else 5000
        self.points = os.path.join(workdir, "points.json")
        self.tau = write_point_cloud(self.points, self.n, 10 if tiny else 40, seed)

    def setup(self) -> Workload:
        n = self.n
        building = construct_ops(self.points, self.workdir, self.tau)
        ball = building[-1]
        ball.call()  # the graph below is built from the ball hyperedges
        g = io.load(os.path.join(self.workdir, "built-ball.json"))
        stats.compute_stats(g)
        # After 3 epochs hyperconv stalls near 0.73 on some seeds; after 10
        # it reaches 0.99 on every seed tried.  hyperatten swings between
        # chance and 0.99 from seed to seed even after 10 epochs, too
        # erratic to guard against lost accuracy, so it is not scored.
        conv = TrainConfig(epochs=2 if self.tiny else 10, lr=LARGE_LR, trials=1)
        atten = TrainConfig(epochs=2 if self.tiny else 3, lr=LARGE_LR, trials=1)
        ops = building + [train_op(g, "hyperconv", conv, self.seed, not self.tiny),
                          train_op(g, "hyperatten", atten, self.seed, not self.tiny, scored=False)]
        ops += _sample_ops(g, {"node": n // 10, "edge": n // 10, "roots": n // 50,
                               "walk": 4, "hyperedge": n // 50}, 1, self.seed)
        return Workload(ops, shares={"train": 0.4, "sample": 0.15, "construct": 0.45})


WORKLOADS = {
    "suite-small": SuiteSmall,
    "train-large": TrainLarge,
    "sample-large": SampleLarge,
    "construct-hyper": ConstructHyper,
}
