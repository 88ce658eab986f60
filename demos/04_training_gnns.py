"""Training the bundled GNNs on a synthetic hybrid graph.

Runs the pairwise models, the hypergraph models, and a linear-probe
combination over several seeds, full-batch and subgraph-sampled, printing
mean and standard deviation of test accuracy for each.
"""

import argparse
import tempfile

from hygraph.nn.layers import build_graph_tensors
from hygraph.nn.models import ModelSpec
from hygraph.nn.train import (
    TrainConfig,
    evaluate,
    load_model,
    run_experiment,
    save_model,
    train_single,
)
from hygraph.sampling import SamplerSpec
from hygraph.suite import format_metric
from hygraph.synthetic import make_classification_graph


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--epochs", type=int, default=50)
    parser.add_argument("--trials", type=int, default=5)
    args = parser.parse_args()

    g = make_classification_graph(num_nodes=300, num_hyperedges=60,
                                  seed=args.seed)
    cfg = TrainConfig(epochs=args.epochs, lr=0.01, trials=args.trials)
    names = ["gcn", "sage", "gat", "gatv2", "hyperconv", "hyperatten",
             "lp:gcn+hyperconv"]
    print(f"{'model':<20} {'test accuracy':<16} random guess")
    for name in names:
        report = run_experiment(g, ModelSpec(name, hidden=32, dropout=0.5),
                                cfg, args.seed)
        line = format_metric(report["mean"], report["std"])
        print(f"{name:<20} {line:<16} {report['random_guess']:.2f}")

    saint = TrainConfig(epochs=args.epochs, lr=0.01, trials=args.trials,
                        saint=SamplerSpec("rw", roots=30, walk_length=3),
                        batches_per_epoch=4)
    report = run_experiment(g, ModelSpec("gcn", hidden=32, dropout=0.5),
                            saint, args.seed)
    print(f"{'gcn + rw sampler':<20} "
          f"{format_metric(report['mean'], report['std'])}")

    # Persist one trained model and evaluate the reloaded copy.
    spec = ModelSpec("hyperconv", hidden=32, dropout=0.5)
    model, masks, result = train_single(g, spec, cfg, args.seed)
    with tempfile.NamedTemporaryFile(suffix=".npz") as fh:
        save_model(model, spec, g.task, g.node_features.shape[1], fh.name)
        reloaded, _, _ = load_model(fh.name)
    again = evaluate(reloaded, build_graph_tensors(g), masks.test)
    print(f"\nsaved + reloaded hyperconv: test {again:.3f} "
          f"(freshly trained: {result.test_metric:.3f})")


if __name__ == "__main__":
    main()
