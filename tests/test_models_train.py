import gc
import json
import weakref
from dataclasses import fields, replace
from functools import cached_property

import numpy as np
import pytest

import hygraph.graph
import hygraph.nn.train
from hygraph import HybridGraph, InvalidGraphError, Task
from hygraph.io import load, split
from hygraph.nn import autodiff as ad
from hygraph.nn.layers import build_graph_tensors
from hygraph.nn.models import GNN, LPModel, ModelSpec, build_model
from hygraph.nn.train import (
    Adam,
    TrainConfig,
    cosine_lr,
    evaluate,
    load_model,
    random_guess,
    run_experiment,
    save_model,
    train_single,
)
from hygraph.sampling import SampledSubgraph, SamplerSpec
from hygraph.stats import sampler_report
from hygraph.synthetic import make_classification_graph, make_regression_graph
from tests.test_array_oracles import DATA
from tests.test_sampling import TestPinnedStreams as Pinned  # a name pytest does not collect twice


class TestModelSpec:
    def test_base_names(self):
        for name in ("gcn", "sage", "gat", "gatv2", "hyperconv", "hyperatten"):
            assert ModelSpec(name).name == name

    def test_combiner_parse(self):
        spec = ModelSpec("lp:gcn+hyperconv")
        assert spec.is_lp
        assert spec.inner_names == ("gcn", "hyperconv")

    def test_unknown_name(self):
        with pytest.raises(ValueError):
            ModelSpec("transformer")

    def test_bad_combiner(self):
        with pytest.raises(ValueError):
            ModelSpec("lp:gcn")
        with pytest.raises(ValueError):
            ModelSpec("lp:gcn+mlp")

    def test_knob_validation(self):
        with pytest.raises(ValueError):
            ModelSpec("gcn", hidden=0)
        with pytest.raises(ValueError):
            ModelSpec("gcn", dropout=1.0)


def toy_graph():
    return make_classification_graph(num_nodes=40, num_hyperedges=12, seed=5)


class TestGNNForward:
    def test_output_shape(self):
        g = toy_graph()
        gt = build_graph_tensors(g)
        rng = np.random.default_rng(0)
        model = GNN("gcn", g.node_features.shape[1], 8, 2, 0.5, rng)
        out = model.forward(gt)
        assert out.value.shape == (g.num_nodes, 2)

    def test_eval_forward_deterministic(self):
        g = toy_graph()
        gt = build_graph_tensors(g)
        model = GNN("sage", g.node_features.shape[1], 8, 2, 0.5,
                    np.random.default_rng(1))
        a = model.forward(gt, training=False).value
        b = model.forward(gt, training=False).value
        np.testing.assert_array_equal(a, b)

    def test_dropout_only_in_training(self):
        g = toy_graph()
        gt = build_graph_tensors(g)
        model = GNN("gcn", g.node_features.shape[1], 8, 2, 0.5,
                    np.random.default_rng(2))
        rng = np.random.default_rng(3)
        a = model.forward(gt, rng=rng, training=True).value
        b = model.forward(gt, rng=rng, training=True).value
        assert not np.array_equal(a, b)

    @pytest.mark.parametrize("name", ["gcn", "lp:gcn+sage"])
    def test_rng_and_training_are_keyword_only(self, name):
        # A stale ``forward(gt, x)`` must not bind the features to ``rng``.
        g = toy_graph()
        model = build_model(ModelSpec(name, hidden=8), g.node_features.shape[1], 2,
                            np.random.default_rng(2), True)
        gt = build_graph_tensors(g)
        with pytest.raises(TypeError):
            model.forward(gt, g.node_features)
        with pytest.raises(TypeError):
            model.forward(gt, np.random.default_rng(3), True)


class TestLPModel:
    def test_identity_probe_reproduces_first_branch(self):
        g = make_regression_graph(num_nodes=30, seed=7)
        gt = build_graph_tensors(g)
        spec = ModelSpec("lp:gcn+sage", hidden=6, dropout=0.0)
        model = LPModel(spec, g.node_features.shape[1], 1,
                        np.random.default_rng(4), classification=False)
        model.theta.value = np.vstack([np.eye(1), np.zeros((1, 1))])
        model.bias.value = np.zeros((1, 1))
        combined = model.forward(gt, training=False).value
        alone = model.inner1.forward(gt, training=False).value
        np.testing.assert_array_equal(combined, alone)

    def test_params_cover_both_branches_and_head(self):
        spec = ModelSpec("lp:gcn+hyperconv", hidden=4)
        model = LPModel(spec, 3, 2, np.random.default_rng(5), classification=True)
        assert len(model.params()) == len(model.inner1.params()) + len(
            model.inner2.params()) + 2

    def test_build_model_dispatch(self):
        rng = np.random.default_rng(6)
        assert isinstance(build_model(ModelSpec("gat"), 3, 2, rng, True), GNN)
        assert isinstance(
            build_model(ModelSpec("lp:sage+gat"), 3, 2, rng, True), LPModel)


class TestAdam:
    def test_matches_hand_computed_updates(self):
        p = ad.Tensor(np.array([1.0, -2.0]))
        opt = Adam([p])
        grads = [np.array([0.5, 1.0]), np.array([-1.0, 0.25])]

        value = np.array([1.0, -2.0])
        m = np.zeros(2)
        v = np.zeros(2)
        for t, g in enumerate(grads, start=1):
            m = 0.9 * m + 0.1 * g
            v = 0.999 * v + 0.001 * g * g
            value = value - 0.05 * (m / (1 - 0.9**t)) / (
                np.sqrt(v / (1 - 0.999**t)) + 1e-8)

        for g in grads:
            p.grad = g.copy()
            opt.step(lr=0.05)
        np.testing.assert_allclose(p.value, value, rtol=1e-12)

    def test_first_step_size_is_lr(self):
        # bias correction makes the first update lr * sign(grad) almost exactly
        p = ad.Tensor(np.array([0.0]))
        opt = Adam([p])
        p.grad = np.array([3.0])
        opt.step(lr=0.01)
        np.testing.assert_allclose(p.value, [-0.01], rtol=1e-6)

    def test_minimizes_quadratic(self):
        p = ad.Tensor(np.array([5.0]))
        opt = Adam([p])
        for _ in range(500):
            p.grad = 2.0 * p.value
            opt.step(lr=0.05)
        assert abs(p.value[0]) < 1e-2


class TestSchedule:
    def test_endpoints_and_midpoint(self):
        assert cosine_lr(0.01, 0, 50) == pytest.approx(0.01)
        assert cosine_lr(0.01, 25, 50) == pytest.approx(0.005)
        assert cosine_lr(0.01, 50, 50) == pytest.approx(0.0, abs=1e-18)

    def test_monotone_decreasing(self):
        values = [cosine_lr(0.01, e, 50) for e in range(51)]
        assert all(a > b for a, b in zip(values, values[1:]))


class TestTrainConfig:
    @pytest.mark.parametrize("lr", [0.0, -0.1, float("nan"), float("inf")])
    def test_lr_must_be_finite_and_positive(self, lr):
        with pytest.raises(ValueError, match="lr must be finite and positive"):
            TrainConfig(lr=lr)


class TestTrainSingle:
    def test_deterministic_per_seed(self):
        g = toy_graph()
        spec = ModelSpec("gcn", hidden=8)
        cfg = TrainConfig(epochs=8, trials=1)
        _, _, a = train_single(g, spec, cfg, seed=3)
        _, _, b = train_single(g, spec, cfg, seed=3)
        assert a == b

    def test_seeds_differ(self):
        g = toy_graph()
        spec = ModelSpec("gcn", hidden=8)
        cfg = TrainConfig(epochs=8, trials=1)
        _, _, a = train_single(g, spec, cfg, seed=3)
        _, _, b = train_single(g, spec, cfg, seed=4)
        assert a.train_losses != b.train_losses

    def test_loss_decreases(self):
        g = toy_graph()
        _, _, result = train_single(
            g, ModelSpec("gcn", hidden=16, dropout=0.1),
            TrainConfig(epochs=30), seed=0)
        assert result.train_losses[-1] < result.train_losses[0]

    def test_regression_beats_predicting_zero(self):
        g = make_regression_graph(num_nodes=200, seed=11)
        _, masks, result = train_single(
            g, ModelSpec("sage", hidden=16, dropout=0.0),
            TrainConfig(epochs=60), seed=0)
        baseline = float((np.asarray(g.labels)[masks.test] ** 2).mean())
        assert result.test_metric < 0.5 * baseline

    def test_non_finite_loss_aborts_with_context(self):
        g = HybridGraph(
            node_features=np.ones((20, 3)),
            simple_edges=np.array([[i, i + 1] for i in range(19)]),
            labels=np.full(20, np.nan),
        )
        with pytest.raises(RuntimeError, match="epoch"):
            train_single(g, ModelSpec("gcn", hidden=4),
                         TrainConfig(epochs=2), seed=0)

    def test_one_evaluation_forward_per_trial(self, monkeypatch):
        g = toy_graph()
        forward = GNN.forward
        modes = []

        def counted(self, gt, *, rng=None, training=False):
            modes.append(training)
            return forward(self, gt, rng=rng, training=training)

        monkeypatch.setattr(GNN, "forward", counted)
        model, masks, result = train_single(
            g, ModelSpec("gatv2", hidden=8), TrainConfig(epochs=3, trials=1), seed=2)
        assert modes == [True, True, True, False]
        gt = build_graph_tensors(g)
        assert result.test_metric == evaluate(model, gt, masks.test)
        assert result.val_metric == evaluate(model, gt, masks.val)

    def test_saint_mode_trains(self):
        g = make_classification_graph(num_nodes=120, num_hyperedges=30, seed=9)
        spec = ModelSpec("gcn", hidden=16, dropout=0.1)
        cfg = TrainConfig(epochs=25, trials=1,
                          saint=SamplerSpec("node", budget=60),
                          batches_per_epoch=3)
        _, _, result = train_single(g, spec, cfg, seed=1)
        assert result.test_metric > 0.6

    def test_saint_rw_mode_trains(self):
        g = make_classification_graph(num_nodes=120, num_hyperedges=30, seed=10)
        cfg = TrainConfig(epochs=25, trials=1,
                          saint=SamplerSpec("rw", roots=12, walk_length=4),
                          batches_per_epoch=3)
        _, _, result = train_single(g, ModelSpec("gcn", hidden=16, dropout=0.1),
                                    cfg, seed=1)
        assert result.test_metric > 0.6


class TestValidateCount:
    # A SAINT trial validates its parent once.  Batches are induced from the
    # validated parent, so none is checked again.
    @pytest.mark.parametrize("spec", list(Pinned.SAINT), ids=lambda s: s.method)
    def test_saint_trial_validates_only_the_parent(self, spec, monkeypatch):
        g = Pinned.pinned_graph()  # built by replace: not yet validated
        checked = []
        validate = hygraph.graph.validate
        monkeypatch.setattr(hygraph.graph, "validate",
                            lambda h: (checked.append(h), validate(h))[1])
        cfg = TrainConfig(epochs=3, trials=1, saint=spec, batches_per_epoch=3)
        _, _, result = train_single(g, ModelSpec("gcn", hidden=8), cfg, seed=4)
        assert None not in result.train_losses  # every epoch trained on batches
        assert len(checked) == 1 and checked[0] is g

    def test_saint_trial_on_invalid_parent_raises(self):
        g = toy_graph()
        bad = replace(g, simple_edges=np.vstack([g.simple_edges, [[3, 3]]]))
        cfg = TrainConfig(epochs=2, trials=1, saint=SamplerSpec("node", budget=20))
        with pytest.raises(InvalidGraphError, match="self-loop"):
            train_single(bad, ModelSpec("gcn", hidden=8), cfg, seed=0)


class TestRunExperiment:
    def test_per_seed_bookkeeping(self):
        g = toy_graph()
        report = run_experiment(g, ModelSpec("gcn", hidden=8),
                                TrainConfig(epochs=5, trials=3), base_seed=20)
        assert [r["seed"] for r in report["per_seed"]] == [20, 21, 22]
        metrics = [r["test"] for r in report["per_seed"]]
        assert report["mean"] == pytest.approx(np.mean(metrics))
        assert report["std"] == pytest.approx(np.std(metrics))
        assert report["metric"] == "accuracy"
        assert report["random_guess"] == 0.5

    def test_trial_matches_isolated_run(self):
        g = toy_graph()
        spec = ModelSpec("sage", hidden=8)
        cfg = TrainConfig(epochs=5, trials=3)
        report = run_experiment(g, spec, cfg, base_seed=7)
        _, _, alone = train_single(g, spec, cfg, seed=8)
        assert report["per_seed"][1]["test"] == alone.test_metric

    def test_regression_report_has_no_guess(self):
        g = make_regression_graph(num_nodes=60, seed=2)
        report = run_experiment(g, ModelSpec("sage", hidden=8, dropout=0.0),
                                TrainConfig(epochs=5, trials=2), base_seed=0)
        assert report["metric"] == "mse"
        assert "random_guess" not in report


class TestOperatorsKeptOnTheGraph:
    RW = SamplerSpec("rw", roots=30, walk_length=3)
    ROWS = [(name, None) for name in ("gcn", "sage", "gat", "gatv2", "hyperconv",
                                      "hyperatten", "lp:sage+hyperatten")] + [("gcn", RW)]

    @staticmethod
    def report(g, name, saint):
        cfg = TrainConfig(epochs=3, trials=2, saint=saint, batches_per_epoch=2)
        return json.dumps(run_experiment(g, ModelSpec(name, hidden=8), cfg, 5), sort_keys=True)

    def test_reports_do_not_depend_on_operators_held(self):
        # Every model first runs once on ``shared``, so each row below finds
        # the operators of all the others already on the graph.
        path = str(DATA / "synthetic_classification.json")
        shared = load(path)
        for name, saint in self.ROWS:
            self.report(shared, name, saint)
        for name, saint in self.ROWS:
            assert self.report(shared, name, saint) == self.report(load(path), name, saint)

    @pytest.mark.parametrize("name", ["gcn", "lp:gcn+hyperatten"])
    def test_saint_batches_are_freed_by_reference_count(self, name, monkeypatch):
        # The operators sit in a map weakly keyed by each batch subgraph and
        # refer to nothing, so no cycle keeps a batch alive once training is
        # done with it.
        g = make_classification_graph(num_nodes=120, num_hyperedges=30, seed=9)
        batches = []
        to_graph = SampledSubgraph.to_graph

        def tracked(self, task=None):
            sub = to_graph(self, task)
            batches.append(weakref.ref(sub))
            return sub

        monkeypatch.setattr(SampledSubgraph, "to_graph", tracked)
        cfg = TrainConfig(epochs=3, trials=2, saint=self.RW, batches_per_epoch=2)
        gc.disable()
        try:
            run_experiment(g, ModelSpec(name, hidden=8), cfg, 0)
            assert len(batches) == 12
            assert all(ref() is None for ref in batches)
        finally:
            gc.enable()

    def test_graphs_hold_no_operator(self, monkeypatch):
        # After a SAINT trial, an evaluation and a sampler report, the parent
        # graph and each batch hold their fields, their cached properties
        # and the known_valid mark: their operators are kept beside them.
        g = load(str(DATA / "synthetic_classification.json"))
        built = []
        build = hygraph.nn.train.build_graph_tensors
        monkeypatch.setattr(hygraph.nn.train, "build_graph_tensors",
                            lambda h: (built.append(h), build(h))[1])
        cfg = TrainConfig(epochs=2, trials=1, saint=self.RW, batches_per_epoch=2)
        model, masks, _ = train_single(g, ModelSpec("lp:gatv2+hyperconv", hidden=8), cfg, 0)
        evaluate(model, build_graph_tensors(g), masks.test)
        sampler_report(g, self.RW, trials=2, seed=0)
        assert built[0] is g and len(built) > 1
        cached = {name for name, value in vars(HybridGraph).items()
                  if isinstance(value, cached_property)}
        for h in built:
            assert set(vars(h)) <= {f.name for f in fields(h)} | cached | {"known_valid"}


class TestEvaluate:
    def test_accuracy_by_hand(self):
        g = toy_graph()
        gt = build_graph_tensors(g)
        model = GNN("gcn", g.node_features.shape[1], 8, 2, 0.0,
                    np.random.default_rng(8))
        rows = np.arange(10)
        out = model.forward(gt, training=False).value
        expect = float((out[rows].argmax(axis=1) == g.labels[rows]).mean())
        assert evaluate(model, gt, rows) == expect

    def test_random_guess_values(self):
        assert random_guess(Task("classification", num_classes=2)) == 0.5
        assert random_guess(Task("classification", num_classes=3)) == pytest.approx(1 / 3)
        assert random_guess(Task("classification", num_classes=4)) == 0.25
        assert random_guess(Task("classification", num_classes=10)) == 0.1
        assert random_guess(Task("regression")) is None


class TestPersistence:
    def test_save_load_roundtrip_predictions(self, tmp_path):
        g = toy_graph()
        spec = ModelSpec("lp:gcn+hyperconv", hidden=8)
        cfg = TrainConfig(epochs=5, trials=1)
        model, _, _ = train_single(g, spec, cfg, seed=0)
        path = str(tmp_path / "model.npz")
        save_model(model, spec, g.task, g.node_features.shape[1], path)
        loaded, loaded_spec, task = load_model(path)
        assert loaded_spec == spec
        assert task == g.task
        gt = build_graph_tensors(g)
        np.testing.assert_array_equal(
            model.forward(gt, training=False).value,
            loaded.forward(gt, training=False).value,
        )

    def test_split_reproducible_for_eval(self):
        g = toy_graph()
        a = split(g, 5)
        b = split(g, 5)
        np.testing.assert_array_equal(a.test, b.test)
