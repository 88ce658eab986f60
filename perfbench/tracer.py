"""Runtime span tracing of hygraph's public functions, from outside the package.

``Tracer.install()`` replaces hygraph's public functions and methods with
wrappers that record one span per call: name, start, end,
the index of the enclosing span and an optional tag.  Functions are replaced
in every loaded ``hygraph`` module that binds them, so ``from x import f``
call sites are traced too.  The tensor returned by each autodiff op and loss
gets its backward closure wrapped as well, so backward time is attributed to
the op that created it.  ``uninstall()`` puts every original back.

Spans stay in memory; ``layer_metrics()`` folds them into the per-layer
metrics named in BENCHMARK.json.  Self time is a span's duration minus the
time its direct children cover, so nested spans (op inside layer inside
step) are never counted twice.
"""

import os
import sys
import time
import weakref

import numpy as np

AUTODIFF_OPS = ("matmul", "add", "concat", "relu", "leaky_relu", "log_softmax",
                "segment_softmax", "take_rows", "edge_mix", "dropout")
LAYERS = ("gcn", "sage", "gat", "gatv2", "hyperconv", "hyperatten")
SAMPLERS = {
    "sample_nodes_by_degree": "node",
    "sample_edges": "edge",
    "sample_random_walk": "rw",
    "sample_uniform_nodes": "rand-node",
    "sample_uniform_hyperedges": "rand-hyperedge",
}
CONSTRUCTIONS = {
    "cliques_to_hyperedges": "clique",
    "interval_hyperedges": "interval",
    "ball_hyperedges": "ball",
}
MODULES = ("graph", "io", "construct", "sampling", "stats", "suite",
           "nn.autodiff", "nn.layers", "nn.losses", "nn.models", "nn.train")


def _module_of(span_name: str) -> str:
    parts = span_name.split(".")
    return ".".join(parts[:2]) if parts[0] == "nn" else parts[0]


def _percentile(values, q: float) -> float:
    return float(np.percentile(values, q)) if values else 0.0


class Tracer:
    def __init__(self):
        # Each span is [name, start, end, parent index, tag].
        self.spans: list[list] = []
        self.counters: dict[str, float] = {
            "hyper_prop_nnz": 0, "io_bytes": 0, "draw_nodes": 0, "draws": 0,
            "he_kept": 0, "he_total": 0, "construct_hyperedges": 0,
            "construct_members": 0,
        }
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []
        self._sampled_graphs: weakref.WeakSet = weakref.WeakSet()

    # -- recording -------------------------------------------------------

    def _wrap(self, name, fn, after=None, tag_of=None):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            idx = len(spans)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1,
                    tag_of(args, kwargs) if tag_of else None]
            spans.append(span)
            stack.append(idx)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if after is not None:
                after(result, args)
            return result

        traced.__wrapped__ = fn
        return traced

    def _wrap_backward(self, name):
        def after(tensor, _args):
            if tensor._backward is not None:
                tensor._backward = self._wrap(name, tensor._backward)
        return after

    def _set(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def _patch_everywhere(self, original, wrapper) -> None:
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "hygraph" or mod_name.startswith("hygraph.")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._set(mod, attr, wrapper)

    # -- installation ----------------------------------------------------

    def install(self) -> None:
        from hygraph import construct, graph, io, sampling, stats, suite
        from hygraph.nn import autodiff, layers, losses, models, train

        c = self.counters

        def count_gt(gt, _args):
            c["hyper_prop_nnz"] = max(c["hyper_prop_nnz"], gt.hyper_prop.nnz)

        def count_read(_ds, args):
            c["io_bytes"] += os.path.getsize(args[0])

        def count_written(_none, args):
            c["io_bytes"] += os.path.getsize(args[1])

        def count_draw(sub, args):
            c["draws"] += 1
            c["draw_nodes"] += sub.num_nodes
            c["he_kept"] += len(sub.hyperedge_ids)
            c["he_total"] += args[0].num_hyperedges

        def count_built(built, _args):
            c["construct_hyperedges"] += len(built)
            c["construct_members"] += sum(len(e) for e in built)

        def remember_sampled(g, _args):
            self._sampled_graphs.add(g)

        def batch_tag(args, _kwargs):
            return "batch" if args[0] in self._sampled_graphs else None

        def forward_tag(args, kwargs):
            training = kwargs.get("training", args[4] if len(args) > 4 else False)
            return "train" if training else "eval"

        plain = {
            graph.validate: "graph.validate",
            sampling.induce: "sampling.induce",
            sampling.run_sampler: "sampling.run_sampler",
            stats.compute_stats: "stats.compute_stats",
            stats._clustering_mean: "stats.clustering",
            stats.sampler_report: "stats.sampler_report",
            suite.run_experiment_suite: "suite.run_experiment_suite",
            train.train_single: "nn.train.train_single",
            train.run_experiment: "nn.train.run_experiment",
            train.evaluate: "nn.train.evaluate",
        }
        for fn, name in plain.items():
            self._patch_everywhere(fn, self._wrap(name, fn))
        self._patch_everywhere(io.load_file, self._wrap("io.load", io.load_file, count_read))
        self._patch_everywhere(io.save_file, self._wrap("io.save", io.save_file, count_written))
        self._patch_everywhere(
            layers.build_graph_tensors,
            self._wrap("nn.layers.build_graph_tensors", layers.build_graph_tensors,
                       count_gt, batch_tag))
        for fn_name, method in SAMPLERS.items():
            fn = getattr(sampling, fn_name)
            self._patch_everywhere(fn, self._wrap(f"sampling.draw.{method}", fn, count_draw))
        for fn_name, method in CONSTRUCTIONS.items():
            fn = getattr(construct, fn_name)
            self._patch_everywhere(fn, self._wrap(f"construct.{method}", fn, count_built))
        for op in AUTODIFF_OPS:
            fn = getattr(autodiff, op)
            self._patch_everywhere(fn, self._wrap(
                f"nn.autodiff.{op}.fwd", fn, self._wrap_backward(f"nn.autodiff.{op}.bwd")))
        for loss, fn in (("bce", losses.bce_with_logits), ("mse", losses.mse)):
            self._patch_everywhere(fn, self._wrap(
                f"nn.losses.{loss}", fn, self._wrap_backward(f"nn.losses.{loss}")))

        self._set(autodiff.Tensor, "backward",
                  self._wrap("nn.autodiff.backward", autodiff.Tensor.backward))
        self._set(train.Adam, "step", self._wrap("nn.train.adam", train.Adam.step))
        self._set(graph.HybridGraph, "__post_init__",
                  self._wrap("graph.init", graph.HybridGraph.__post_init__))
        for prop in ("adjacency_sets", "incidence_arrays"):
            cached = vars(graph.HybridGraph)[prop]
            self._set(cached, "func", self._wrap(f"graph.{prop}", cached.func))
        self._set(sampling.SampledSubgraph, "to_graph",
                  self._wrap("sampling.to_graph", sampling.SampledSubgraph.to_graph,
                             remember_sampled))
        for name, layer_type in layers.LAYER_TYPES.items():
            self._set(layer_type, "forward",
                      self._wrap(f"nn.layers.{name}.forward", layer_type.forward))
        depth = [0]
        for model_type in (models.GNN, models.LPModel):
            self._set(model_type, "forward", self._outermost(
                self._wrap("nn.models.forward", model_type.forward, tag_of=forward_tag),
                depth))

    @staticmethod
    def _outermost(wrapper, depth: list[int]):
        """Record only the outermost model forward (an LP model nests two)."""
        inner = wrapper.__wrapped__

        def once(*args, **kwargs):
            depth[0] += 1
            try:
                return (wrapper if depth[0] == 1 else inner)(*args, **kwargs)
            finally:
                depth[0] -= 1

        return once

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    # -- aggregation -----------------------------------------------------

    def layer_metrics(self) -> dict[str, float]:
        spans = self.spans
        n = len(spans)
        dur = [s[2] - s[1] for s in spans]
        child = [0.0] * n
        for i, s in enumerate(spans):
            if s[3] >= 0:
                child[s[3]] += dur[i]
        total: dict[str, float] = {}
        calls: dict[str, int] = {}
        durations: dict[str, list[float]] = {}
        self_by_module = dict.fromkeys(MODULES, 0.0)
        for i, s in enumerate(spans):
            name = s[0]
            total[name] = total.get(name, 0.0) + dur[i]
            calls[name] = calls.get(name, 0) + 1
            durations.setdefault(name, []).append(dur[i])
            module = _module_of(name)
            if module in self_by_module:
                self_by_module[module] += dur[i] - child[i]

        def ms(name):
            return 1e3 * total.get(name, 0.0)

        m: dict[str, float] = {}
        for op in AUTODIFF_OPS:
            m[f"nn.autodiff.{op}.calls"] = calls.get(f"nn.autodiff.{op}.fwd", 0)
            m[f"nn.autodiff.{op}.fwd_ms"] = ms(f"nn.autodiff.{op}.fwd")
            m[f"nn.autodiff.{op}.bwd_ms"] = ms(f"nn.autodiff.{op}.bwd")
        m["nn.autodiff.backward_self_ms"] = 1e3 * sum(
            dur[i] - child[i] for i, s in enumerate(spans) if s[0] == "nn.autodiff.backward")

        m["nn.layers.build_graph_tensors_ms"] = ms("nn.layers.build_graph_tensors")
        m["nn.layers.hyper_prop_nnz"] = self.counters["hyper_prop_nnz"]
        for layer in LAYERS:
            m[f"nn.layers.{layer}.forward_ms"] = ms(f"nn.layers.{layer}.forward")
        m["nn.losses.bce_ms"] = ms("nn.losses.bce")
        m["nn.losses.mse_ms"] = ms("nn.losses.mse")

        m.update(self._train_metrics(dur))

        for method in SAMPLERS.values():
            m[f"sampling.{method}.draw_ms_p50"] = 1e3 * _percentile(
                durations.get(f"sampling.draw.{method}", []), 50)
        m["sampling.induce_ms"] = ms("sampling.induce")
        c = self.counters
        m["sampling.nodes_per_draw"] = c["draw_nodes"] / c["draws"] if c["draws"] else 0.0
        m["sampling.hyperedges_kept_frac"] = c["he_kept"] / c["he_total"] if c["he_total"] else 0.0

        for part in ("init", "validate", "adjacency_sets", "incidence_arrays"):
            m[f"graph.{part}_ms"] = ms(f"graph.{part}")
        m["stats.compute_stats_ms"] = ms("stats.compute_stats")
        m["stats.clustering_ms"] = ms("stats.clustering")
        for method in CONSTRUCTIONS.values():
            m[f"construct.{method}_ms"] = ms(f"construct.{method}")
        m["construct.hyperedges"] = c["construct_hyperedges"]
        m["construct.members"] = c["construct_members"]
        m["io.load_ms"] = ms("io.load")
        m["io.save_ms"] = ms("io.save")
        m["io.bytes"] = c["io_bytes"]
        for module, seconds in self_by_module.items():
            m[f"{module}.self_ms"] = 1e3 * seconds
        return m

    def _train_metrics(self, dur: list[float]) -> dict[str, float]:
        spans = self.spans
        ancestors_trial: list[int] = [-1] * len(spans)
        forward = adam = evaluate = data_wait = 0.0
        steps: list[float] = []
        draws_in: dict[int, int] = {}
        steps_in: dict[int, int] = {}
        last_forward_start = None
        for i, s in enumerate(spans):
            name, start, end, parent, tag = s
            if name == "nn.train.train_single":
                ancestors_trial[i] = i
            elif parent >= 0:
                ancestors_trial[i] = ancestors_trial[parent]
            trial = ancestors_trial[i]
            if name == "nn.models.forward" and tag == "train":
                forward += dur[i]
                last_forward_start = start
            elif name == "nn.train.adam":
                adam += dur[i]
                steps_in[trial] = steps_in.get(trial, 0) + 1
                if last_forward_start is not None:
                    steps.append(end - last_forward_start)
            elif name == "nn.train.evaluate":
                evaluate += dur[i]
            elif trial >= 0 and name in ("sampling.run_sampler", "sampling.to_graph"):
                data_wait += dur[i]
                if name == "sampling.run_sampler":
                    draws_in[trial] = draws_in.get(trial, 0) + 1
            elif name == "nn.layers.build_graph_tensors" and tag == "batch":
                data_wait += dur[i]
        # A full-batch trial attempts one batch per step; a sampled one
        # attempts one per draw and skips draws that hold no training node.
        attempted = sum(draws_in.get(t, n_steps) for t, n_steps in steps_in.items())
        useful = sum(steps_in.values())
        backward = sum(dur[i] for i, s in enumerate(spans) if s[0] == "nn.autodiff.backward")
        return {
            "nn.train.forward_ms": 1e3 * forward,
            "nn.train.backward_ms": 1e3 * backward,
            "nn.train.adam_ms": 1e3 * adam,
            "nn.train.evaluate_ms": 1e3 * evaluate,
            "nn.train.data_wait_ms": 1e3 * data_wait,
            "nn.train.step_ms_p50": 1e3 * _percentile(steps, 50),
            "nn.train.step_ms_p90": 1e3 * _percentile(steps, 90),
            "nn.train.useful_batch_frac": useful / attempted if attempted else 0.0,
        }
