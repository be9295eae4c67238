"""Batched multi-seed network kernels: fit B networks in one stacked pass.

The paper's pipelines are small numpy MLPs, so the per-fit cost is dominated
by Python dispatch (one forward/backward per mini-batch per seed), not by
BLAS time.  :class:`BatchedNetwork` stacks B identically-shaped networks
into ``(B, fan_in, fan_out)`` weight tensors and runs forward, backward
and optimizer updates for all B seeds in one pass per mini-batch, cutting
the dispatch count by a factor of B.  It is the only training kernel: a
single fit is a stack of one.

**Bitwise contract.**  Every batched operation is per-slice identical to
its :class:`~repro.pipelines.nn.network.MLPNetwork` counterpart, so a
network trained in a stack of B gets bitwise the same weights as in a
stack of one:

* ``np.matmul`` on a 3-D stack runs the same BLAS kernel per 2-D slice as
  the 2-D ``(n, d) @ (d, h)`` product — also when the stack is a strided
  mini-batch slice of an epoch's gathered inputs, whose 2-D slices have
  the same row layout as a contiguous copy;
* element-wise ops (activations, optimizer updates, weight decay) are
  trivially per-slice identical — which is also why the optimizer may
  update every parameter through one flat buffer, and why per-item
  hyperparameters (learning rate, weight decay, momentum) may be arrays
  laid out like :attr:`BatchedNetwork.flat` (:meth:`BatchedNetwork.per_item`):
  an element-wise op with a per-element scalar is bitwise the scalar op;
* in-place ops and ``out=`` arguments compute exactly what their
  allocating forms compute: weight and bias gradients are written into
  one buffer laid out like ``flat`` (:attr:`BatchedNetwork.flat_grad`), and
  the softmax and its gradient are computed in place on one fresh array,
  never on the caller's logits;
* reductions run over the same contiguous axis per item — the bias
  gradient ``delta.sum(axis=1)`` of a ``(B, n, h)`` stack accumulates rows
  exactly like ``delta.sum(axis=0)`` of one item, and the loss reductions
  stay over the last (contiguous) axis, the mean as ``add.reduce / n``
  (what ``np.mean`` computes);
* the label's probability is picked as ``(p * onehot).sum(-1)``, which
  adds only exact zeros to it, and the gradient subtracts the one-hot
  labels, which subtracts only exact zeros elsewhere;
* random draws stay *per item*: initialization, dropout masks and the
  numerical perturbation are drawn from each seed's own generator, in
  the order one item's fit consumes them — only the arithmetic between
  draws is stacked.  ``Generator.random(out=...)`` fills a buffer with
  the draws ``Generator.random(shape)`` returns.

``tests/test_batched.py`` checks the kernels slice by slice against
:meth:`MLPNetwork.loss_and_gradients` and the :mod:`repro.pipelines.nn.losses`
functions, and pins whole-fit outputs to recorded values;
``tests/test_stacked_fits.py`` checks per-item hyperparameters, the
gradient buffer, untouched inputs and strided slices.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.pipelines.nn.network import MLPNetwork

__all__ = [
    "BatchedNetwork",
    "batched_softmax",
    "batched_cross_entropy_loss",
    "batched_mse_loss",
    "one_hot",
]

#: Numerical floor to keep logarithms finite (same as ``nn.losses``).
_EPS = 1e-12


def one_hot(labels: np.ndarray, n_classes: int) -> np.ndarray:
    """Float one-hot encoding of integer ``labels`` along a new last axis."""
    return np.eye(n_classes)[np.asarray(labels, dtype=int)]


def batched_softmax(logits: np.ndarray) -> np.ndarray:
    """Row-wise softmax over the last axis of a ``(B, n, C)`` stack."""
    shifted = logits - logits.max(axis=-1, keepdims=True)
    exp = np.exp(shifted)
    return exp / exp.sum(axis=-1, keepdims=True)


def batched_cross_entropy_loss(
    logits: np.ndarray, labels: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """Softmax cross-entropy per item of a ``(B, n, C)`` logits stack.

    ``labels`` are integer classes ``(B, n)`` or their :func:`one_hot`
    encoding ``(B, n, C)``; neither argument is modified.  Returns the
    ``(B,)`` per-item mean losses and the ``(B, n, C)`` gradient, each
    slice bitwise-equal to
    :func:`repro.pipelines.nn.losses.cross_entropy_loss` on that item.
    """
    labels = np.asarray(labels)
    if labels.ndim != logits.ndim:
        labels = one_hot(labels, logits.shape[-1])
    n = logits.shape[1]
    # Softmax, then its gradient, in place on one fresh array.
    probabilities = logits - logits.max(axis=-1, keepdims=True)
    np.exp(probabilities, out=probabilities)
    probabilities /= probabilities.sum(axis=-1, keepdims=True)
    picked = (probabilities * labels).sum(axis=-1)
    picked += _EPS
    np.log(picked, out=picked)
    losses = np.add.reduce(picked, axis=1)
    losses /= n
    np.negative(losses, out=losses)
    probabilities -= labels
    probabilities /= n
    return losses, probabilities


def batched_mse_loss(
    predictions: np.ndarray, targets: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """Mean squared error per item of a ``(B, n, k)`` prediction stack."""
    predictions = np.asarray(predictions, dtype=float)
    targets = np.asarray(targets, dtype=float).reshape(predictions.shape)
    n = predictions.shape[1]
    residuals = predictions - targets
    losses = (residuals**2).mean(axis=tuple(range(1, residuals.ndim)))
    gradient = 2.0 * residuals / n
    return losses, gradient


def _views(buffer: np.ndarray, shapes: Sequence[tuple]) -> List[np.ndarray]:
    """Consecutive views of ``buffer`` with the given shapes."""
    views, offset = [], 0
    for shape in shapes:
        size = int(np.prod(shape))
        views.append(buffer[offset : offset + size].reshape(shape))
        offset += size
    return views


class BatchedNetwork:
    """B identically-shaped :class:`MLPNetwork`\\ s trained in lockstep.

    Built from per-item networks whose weights were already drawn from each
    seed's own ``init`` generator (batched init = per-seed draws, stacked),
    so initialization is bitwise-identical to each network's own by
    construction.  The stacked parameters returned by :meth:`parameters`
    are shaped ``[(B, in, out), (B, out), ...]`` and are views into the
    one contiguous buffer :attr:`flat`, laid out in that order.
    :meth:`loss_and_gradients` writes the gradients into :attr:`flat_grad`,
    laid out the same way.  An element-wise optimizer
    (:class:`~repro.pipelines.nn.optimizers.SGD` /
    :class:`~repro.pipelines.nn.optimizers.Adam`) therefore steps every
    seed's every tensor at once on ``[flat]`` and ``[flat_grad]``, with
    per-item hyperparameters from :meth:`per_item`.
    """

    def __init__(self, networks: Sequence[MLPNetwork]) -> None:
        networks = list(networks)
        if not networks:
            raise ValueError("BatchedNetwork needs at least one network")
        base = networks[0]
        for net in networks[1:]:
            if net.layer_sizes != base.layer_sizes:
                raise ValueError("all networks must share layer sizes")
            if net.task_type != base.task_type:
                raise ValueError("all networks must share the task type")
            if net.activation is not base.activation:
                raise ValueError("all networks must share the activation")
            if net.dropout_rate != base.dropout_rate:
                raise ValueError("all networks must share the dropout rate")
        self.networks = networks
        self.layer_sizes = list(base.layer_sizes)
        self.activation = base.activation
        self.task_type = base.task_type
        self.dropout_rate = base.dropout_rate
        self.n_items = len(networks)
        stacks = [
            np.stack(params) for params in zip(*(net.parameters() for net in networks))
        ]
        shapes = [stack.shape for stack in stacks]
        self.flat = np.concatenate(stacks, axis=None)
        self.flat_grad = np.empty_like(self.flat)
        views = _views(self.flat, shapes)
        self.weights = views[0::2]
        self.biases = views[1::2]
        self._gradients = _views(self.flat_grad, shapes)
        self._bias_rows = [b[:, None, :] for b in self.biases]
        self._weights_t = [w.transpose(0, 2, 1) for w in self.weights]
        #: Item index of every element of ``flat``.
        self._item_of = np.concatenate(
            [np.repeat(np.arange(self.n_items), stack[0].size) for stack in stacks]
        )
        #: Dropout draw buffers, by ``(layer, shape)``.
        self._draws: Dict[tuple, np.ndarray] = {}

    @property
    def n_layers(self) -> int:
        """Number of weight layers (same for every stacked network)."""
        return len(self.weights)

    def parameters(self) -> List[np.ndarray]:
        """Stacked parameter list (weights then biases, per layer)."""
        params: List[np.ndarray] = []
        for w, b in zip(self.weights, self.biases):
            params.extend([w, b])
        return params

    def per_item(self, values: Sequence[float]) -> np.ndarray:
        """One scalar per item, laid out like :attr:`flat`.

        Element ``j`` holds the value of the item that owns ``flat[j]``, so
        an optimizer hyperparameter given this way acts on each item as
        its own scalar would.
        """
        values = np.asarray(values, dtype=float)
        if values.shape != (self.n_items,):
            raise ValueError(
                f"expected {self.n_items} per-item values, got shape {values.shape}"
            )
        return values[self._item_of]

    def _dropout_mask(
        self, layer: int, shape: tuple, rngs: Sequence[np.random.Generator]
    ) -> np.ndarray:
        """Inverted-dropout mask stack, each item's draws from its own rng."""
        draws = self._draws.get((layer, shape))
        if draws is None:
            draws = self._draws[(layer, shape)] = np.empty(shape)
        for rng, item in zip(rngs, draws):
            rng.random(out=item)
        keep = np.greater_equal(draws, self.dropout_rate)
        return np.divide(keep, 1.0 - self.dropout_rate)

    def forward(
        self,
        X: np.ndarray,
        *,
        dropout_rngs: Optional[Sequence[np.random.Generator]] = None,
    ) -> tuple[np.ndarray, list[np.ndarray], list[np.ndarray]]:
        """Forward pass over a ``(B, n, d)`` input stack.

        Dropout masks are drawn *per item* from each seed's generator in
        layer order — the exact draw sequence of B
        :meth:`MLPNetwork.forward` passes — and only the mask arithmetic is
        stacked.  ``masks`` holds one mask per hidden layer when dropout
        is active and is empty otherwise.
        """
        dropout = dropout_rngs is not None and self.dropout_rate > 0
        activations = [X]
        masks: list[np.ndarray] = []
        hidden = X
        for layer in range(self.n_layers - 1):
            pre = hidden @ self.weights[layer]
            pre += self._bias_rows[layer]
            hidden = self.activation.forward(pre)
            if dropout:
                mask = self._dropout_mask(layer, hidden.shape, dropout_rngs)
                hidden *= mask
                masks.append(mask)
            activations.append(hidden)
        output = hidden @ self.weights[-1]
        output += self._bias_rows[-1]
        return output, activations, masks

    def loss_and_gradients(
        self,
        X: np.ndarray,
        y: np.ndarray,
        *,
        dropout_rngs: Optional[Sequence[np.random.Generator]] = None,
    ) -> tuple[np.ndarray, List[np.ndarray]]:
        """Per-item losses and stacked gradients for a mini-batch stack.

        ``y`` holds integer labels or their :func:`one_hot` encoding for a
        classifier, targets for a regressor.  Returns the ``(B,)`` loss
        vector and gradients ordered like :meth:`parameters`, each slice
        bitwise-equal to :meth:`MLPNetwork.loss_and_gradients` on that
        item.  The gradients are views into :attr:`flat_grad`, which the
        next call overwrites.
        """
        output, activations, masks = self.forward(X, dropout_rngs=dropout_rngs)
        if self.task_type == "classification":
            losses, delta = batched_cross_entropy_loss(output, y)
        else:
            losses, delta = batched_mse_loss(output, y)
        weight_grads, bias_grads = self._gradients[0::2], self._gradients[1::2]
        for layer in range(self.n_layers - 1, -1, -1):
            np.matmul(
                activations[layer].transpose(0, 2, 1), delta, out=weight_grads[layer]
            )
            np.add.reduce(delta, axis=1, out=bias_grads[layer])
            if layer > 0:
                delta = delta @ self._weights_t[layer]
                if masks:
                    delta *= masks[layer - 1]
                delta *= self.activation.derivative(activations[layer])
        return losses, list(self._gradients)

    def perturb_parameters(
        self, scale: float, rngs: Sequence[np.random.Generator]
    ) -> None:
        """Per-item numerical-noise perturbation, in each item's draw order."""
        if scale < 0:
            raise ValueError("scale must be non-negative")
        if scale == 0:
            return
        for index, rng in enumerate(rngs):
            for param in self.parameters():
                slice_ = param[index]
                slice_ += scale * rng.normal(size=slice_.shape) * (
                    np.abs(slice_) + 1e-8
                )

    def unstack(self) -> List[MLPNetwork]:
        """Write the trained slices back into the per-item networks."""
        for index, net in enumerate(self.networks):
            net.weights = [w[index].copy() for w in self.weights]
            net.biases = [b[index].copy() for b in self.biases]
        return self.networks
