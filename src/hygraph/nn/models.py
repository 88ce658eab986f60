"""Model assembly: two-layer message-passing networks and label propagation.

Every base network is dropout -> layer -> ReLU -> dropout -> layer, with a
linear final layer.  Its input ``x`` is ``gt.graph.node_features``, a
constant that takes no gradient, so its dropout is a plain product.  The
label-probing combiner runs two base networks side by side and mixes their
outputs (log-probabilities for classification) through a single trained
affine head:

    out = [f1(x) || f2(x)] @ theta + bias
"""

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .layers import LAYER_TYPES, GraphTensors, glorot

__all__ = ["GNN", "LPModel", "MODEL_NAMES", "ModelSpec", "build_model"]

MODEL_NAMES = tuple(LAYER_TYPES)


@dataclass(frozen=True)
class ModelSpec:
    """A model name plus its width and regularization knobs.

    ``name`` is one of the base layer names or ``lp:<first>+<second>``.
    """

    name: str
    hidden: int = 32
    dropout: float = 0.5

    def __post_init__(self):
        names = self.inner_names if self.is_lp else (self.name,)
        for name in names:
            if name not in MODEL_NAMES:
                raise ValueError(
                    f"unknown model {name!r}, expected one of {MODEL_NAMES} "
                    "or lp:<a>+<b>"
                )
        if self.hidden < 1:
            raise ValueError(f"hidden must be >= 1, got {self.hidden}")
        if not 0.0 <= self.dropout < 1.0:
            raise ValueError(f"dropout must be in [0, 1), got {self.dropout}")

    @property
    def is_lp(self) -> bool:
        return self.name.startswith("lp:")

    @property
    def inner_names(self) -> tuple[str, str]:
        body = self.name[3:]
        parts = body.split("+")
        if len(parts) != 2 or not all(parts):
            raise ValueError(f"combiner spec must be lp:<a>+<b>, got {self.name!r}")
        return (parts[0], parts[1])


class GNN:
    """Two message-passing layers with ReLU between and dropout before each."""

    def __init__(self, name: str, d_in: int, hidden: int, d_out: int,
                 dropout: float, rng: np.random.Generator):
        layer_type = LAYER_TYPES[name]
        self.name = name
        self.d_in = d_in
        self.dropout = dropout
        self.layer1 = layer_type(d_in, hidden, rng)
        self.layer2 = layer_type(hidden, d_out, rng)

    def params(self) -> list[ad.Tensor]:
        return self.layer1.params() + self.layer2.params()

    def forward(self, gt: GraphTensors, *, rng=None, training: bool = False) -> ad.Tensor:
        x = gt.graph.node_features
        keep = 1.0 - self.dropout
        if training and self.dropout > 0:
            x = x * (ad.random_mask(rng, x.shape, self.dropout) / keep)
        h = ad.relu(self.layer1.forward(gt, x))
        if training and self.dropout > 0:
            h = ad.dropout(h, ad.random_mask(rng, h.shape, self.dropout), keep)
        return self.layer2.forward(gt, h)


class LPModel:
    """Two base networks mixed by one affine head.

    For classification each branch emits log-probabilities before mixing;
    for regression branches feed through raw.  With ``theta`` set to
    ``[I; 0]`` and zero bias the head reproduces the first branch exactly,
    which the tests use as a probe.
    """

    def __init__(self, spec: ModelSpec, d_in: int, d_out: int,
                 rng: np.random.Generator, classification: bool):
        first, second = spec.inner_names
        self.inner1 = GNN(first, d_in, spec.hidden, d_out, spec.dropout, rng)
        self.inner2 = GNN(second, d_in, spec.hidden, d_out, spec.dropout, rng)
        self.d_in = d_in
        self.classification = classification
        self.theta = ad.Tensor(glorot(rng, 2 * d_out, d_out))
        self.bias = ad.Tensor(np.zeros((1, d_out)))
        self.name = spec.name

    def params(self) -> list[ad.Tensor]:
        return self.inner1.params() + self.inner2.params() + [self.theta, self.bias]

    def forward(self, gt: GraphTensors, *, rng=None, training: bool = False) -> ad.Tensor:
        h1 = self.inner1.forward(gt, rng=rng, training=training)
        h2 = self.inner2.forward(gt, rng=rng, training=training)
        if self.classification:
            h1 = ad.log_softmax(h1)
            h2 = ad.log_softmax(h2)
        mixed = ad.matmul(ad.concat([h1, h2], axis=1), self.theta)
        return ad.add(mixed, self.bias)


def build_model(spec: ModelSpec, d_in: int, d_out: int,
                rng: np.random.Generator, classification: bool):
    if spec.is_lp:
        return LPModel(spec, d_in, d_out, rng, classification)
    return GNN(spec.name, d_in, spec.hidden, d_out, spec.dropout, rng)
