"""Small dense networks with adapter-aware manual backprop.

Models are stacks of linear layers (frozen base weight, optional trainable
bias, optional adapter) and elementwise activations, closed by MSE or
softmax cross-entropy. Batches are column-major: an input is d_in x batch
and every example occupies one column.

Gradients are computed by hand in reverse order, each adapter's by
``SvdAdapter.backward``; an adapted layer shares its adapter's read-only base.
Parameters travel as name-keyed dicts, an adapter's factors under the names
``SvdAdapter.factors`` gives them and a bias as "layer<i>.bias".
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .adapter import SvdAdapter, _check_id
from .errors import ConfigError, ParameterError, ShapeError, StalenessError
from .linalg import gaussian_matrix

__all__ = [
    "ACTIVATION_KINDS",
    "LOSS_KINDS",
    "AdapterSpec",
    "LayerSpec",
    "LinearLayer",
    "ActivationLayer",
    "ToyModel",
    "build_model",
    "mse_loss",
    "softmax_ce_loss",
]

ACTIVATION_KINDS = ("tanh", "relu")
LOSS_KINDS = ("mse", "softmax_ce")


@dataclass(frozen=True)
class AdapterSpec:
    adapter_id: str
    r_init: int
    r_max: int
    alpha: float = 16.0

    def __post_init__(self):
        _check_id(self.adapter_id)
        if not 1 <= self.r_init <= self.r_max:
            raise ParameterError(f"need 1 <= r_init <= r_max, got {self.r_init} and {self.r_max}")
        if not (math.isfinite(self.alpha) and self.alpha > 0.0):
            raise ParameterError("alpha must be positive and finite")


@dataclass(frozen=True)
class LayerSpec:
    """Declarative layer description used to build models from config."""

    kind: str
    d_in: int = 0
    d_out: int = 0
    bias: bool = True
    adapter: AdapterSpec | None = None

    def __post_init__(self):
        if self.kind == "linear":
            if self.d_in < 1 or self.d_out < 1:
                raise ParameterError(
                    f"linear layer needs d_in >= 1 and d_out >= 1, got {self.d_in}x{self.d_out}")
        elif self.kind not in ACTIVATION_KINDS:
            raise ParameterError(f"unknown layer kind {self.kind!r}")


class LinearLayer:
    def __init__(self, base_w, bias=None, adapter=None):
        # A plain layer keeps a read-only copy of ``base_w``; an adapted one
        # only compares it with the adapter's base, so it reads it in place.
        if adapter is None:
            base = np.array(base_w, dtype=np.float64)
        else:
            base = np.asarray(base_w, dtype=np.float64)
        if base.ndim != 2:
            raise ShapeError("base weight must be 2-D")
        if adapter is None:
            base.flags.writeable = False
        else:
            if adapter.base_w.shape != base.shape:
                raise ShapeError("adapter base shape differs from layer shape")
            if not np.array_equal(adapter.base_w, base):
                raise ParameterError(f"base weight differs from adapter {adapter.id!r}'s base")
            base = adapter.base_w
        self.base_w = base
        self.bias = None if bias is None else np.array(bias, dtype=np.float64).reshape(-1)
        if self.bias is not None and self.bias.size != base.shape[0]:
            raise ShapeError(f"bias length {self.bias.size} != d_out {base.shape[0]}")
        self.adapter = adapter

    @property
    def d_out(self):
        return self.base_w.shape[0]

    @property
    def d_in(self):
        return self.base_w.shape[1]

    def forward(self, x):
        y = self.adapter.forward(x) if self.adapter is not None else self.base_w @ x
        if self.bias is not None:
            y = y + self.bias[:, None]
        return y


class ActivationLayer:
    def __init__(self, kind):
        if kind not in ACTIVATION_KINDS:
            raise ParameterError(f"unknown activation {kind!r}")
        self.kind = kind

    def forward(self, x):
        return np.tanh(x) if self.kind == "tanh" else np.maximum(x, 0.0)


def mse_loss(y, targets):
    """Mean squared error over all output entries; returns (loss, dL/dy)."""
    y = np.asarray(y, dtype=np.float64)
    t = np.asarray(targets, dtype=np.float64)
    if y.shape != t.shape:
        raise ShapeError(f"prediction shape {y.shape} != target shape {t.shape}")
    d = y - t
    # np.mean's own sum and division, without its Python-level wrapper.
    return float(np.add.reduce(d * d, axis=None)) / d.size, (2.0 / d.size) * d


def softmax_ce_loss(y, labels):
    """Mean cross-entropy of column-wise softmax against integer labels."""
    y = np.asarray(y, dtype=np.float64)
    labels = np.asarray(labels)
    if y.ndim != 2 or labels.ndim != 1 or labels.size != y.shape[1]:
        raise ShapeError("need logits (classes x batch) and one label per column")
    labels = labels.astype(np.int64)
    if labels.min() < 0 or labels.max() >= y.shape[0]:
        raise ParameterError("label outside class range")
    z = y - y.max(axis=0, keepdims=True)
    ez = np.exp(z)
    p = ez / ez.sum(axis=0, keepdims=True)
    batch = y.shape[1]
    picked = p[labels, np.arange(batch)]
    loss = float(np.mean(-np.log(np.maximum(picked, 1e-300))))
    grad = p.copy()
    grad[labels, np.arange(batch)] -= 1.0
    grad /= batch
    return loss, grad


class ToyModel:
    """Layer stack plus a loss kind; owns the forward/backward pair."""

    def __init__(self, layers, loss):
        if loss not in LOSS_KINDS:
            raise ParameterError(f"unknown loss {loss!r}")
        layers = list(layers)
        if not layers:
            raise ParameterError("model needs at least one layer")
        width = None
        seen_ids = set()
        for layer in layers:
            if isinstance(layer, LinearLayer):
                if width is not None and layer.d_in != width:
                    raise ShapeError(f"layer expects {layer.d_in} inputs, previous produces {width}")
                width = layer.d_out
                if layer.adapter is not None:
                    if layer.adapter.id in seen_ids:
                        raise ConfigError(f"duplicate adapter id {layer.adapter.id!r}")
                    seen_ids.add(layer.adapter.id)
            elif not isinstance(layer, ActivationLayer):
                raise ParameterError(f"unsupported layer object {layer!r}")
        if width is None:
            raise ParameterError("model needs at least one linear layer")
        self.layers = layers
        self.loss = loss

    def adapters(self):
        """Adapters in depth order."""
        return [l.adapter for l in self.layers if isinstance(l, LinearLayer) and l.adapter is not None]

    def adapter_depths(self):
        """Map adapter id -> index of its layer in the stack."""
        return {
            l.adapter.id: i
            for i, l in enumerate(self.layers)
            if isinstance(l, LinearLayer) and l.adapter is not None
        }

    def trainable_params(self):
        """Live parameter arrays keyed by name; re-collect after rank surgery."""
        params = {}
        for i, layer in enumerate(self.layers):
            if not isinstance(layer, LinearLayer):
                continue
            if layer.adapter is not None:
                params.update((name, arr) for name, arr, _ in layer.adapter.factors())
            if layer.bias is not None:
                params[f"layer{i}.bias"] = layer.bias
        return params

    def param_count(self):
        return int(sum(p.size for p in self.trainable_params().values()))

    def forward(self, x):
        """Run the stack; returns (output, caches) for a later backward."""
        h = np.asarray(x, dtype=np.float64)
        if h.ndim != 2:
            raise ShapeError("input batch must be 2-D (d_in x batch)")
        caches = []
        for layer in self.layers:
            if isinstance(layer, LinearLayer):
                if h.shape[0] != layer.d_in:
                    raise ShapeError(f"input rows {h.shape[0]} != layer d_in {layer.d_in}")
                caches.append({"input": h, "rank": getattr(layer.adapter, "rank", 0)})
                h = layer.forward(h)
            else:
                out = layer.forward(h)
                caches.append({"input": h, "output": out})
                h = out
        return h, caches

    def loss_and_grad(self, y, targets):
        if self.loss == "mse":
            return mse_loss(y, targets)
        return softmax_ce_loss(y, targets)

    def backward(self, caches, grad_out, gamma=0.0):
        """Gradients of loss (+ gamma * orthogonality penalty) by name.

        ``caches`` must come from a forward pass against the current model
        structure; a rank change in between raises StalenessError.
        """
        if len(caches) != len(self.layers):
            raise StalenessError("cache layer count differs from model")
        if not gamma >= 0.0:
            raise ParameterError("gamma must be >= 0")
        g = np.asarray(grad_out, dtype=np.float64)
        grads = {}
        for i in reversed(range(len(self.layers))):
            layer = self.layers[i]
            cache = caches[i]
            if isinstance(layer, ActivationLayer):
                if layer.kind == "tanh":
                    g = (1.0 - cache["output"] ** 2) * g
                else:
                    g = (cache["input"] > 0.0) * g
                continue
            x = cache["input"]
            if g.shape != (layer.d_out, x.shape[1]):
                raise ShapeError(f"upstream grad shape {g.shape} unexpected")
            if layer.bias is not None:
                grads[f"layer{i}.bias"] = g.sum(axis=1)
            a = layer.adapter
            if a is None:
                g = layer.base_w.T @ g
                continue
            if cache["rank"] != a.rank:
                raise StalenessError(f"adapter {a.id!r} rank changed since forward")
            factor_grads, g = a.backward(x, g, gamma)
            for (name, _, _), d in zip(a.factors(), factor_grads):
                grads[name] = d
        return grads


def build_model(layer_specs, loss, rng, init_std=0.02):
    """Materialize a ToyModel from LayerSpecs with a frozen Gaussian base.

    Base weights draw from N(0, 1/d_in) so activations stay O(1); biases
    start at zero; adapters are created with rank r_init and zero lam.
    Consumption order of ``rng`` is layer by layer (base, then adapter),
    making the build a pure function of the generator state.
    """
    layers = []
    for spec in layer_specs:
        if spec.kind != "linear":
            layers.append(ActivationLayer(spec.kind))
            continue
        base = gaussian_matrix(spec.d_out, spec.d_in, 1.0 / np.sqrt(spec.d_in), rng)
        adapter = None
        if spec.adapter is not None:
            a = spec.adapter
            adapter = SvdAdapter.create(
                a.adapter_id,
                base,
                r_init=a.r_init,
                r_max=a.r_max,
                alpha=a.alpha,
                rng=rng,
                init_std=init_std,
            )
        bias = np.zeros(spec.d_out) if spec.bias else None
        layers.append(LinearLayer(base, bias=bias, adapter=adapter))
    return ToyModel(layers, loss)
