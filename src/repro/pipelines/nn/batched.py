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
  the 2-D ``(n, d) @ (d, h)`` product;
* element-wise ops (activations, optimizer updates, weight decay) are
  trivially per-slice identical — which is also why the optimizer may
  update every parameter through one flat buffer;
* reductions run over the same contiguous axis per item — the bias
  gradient ``delta.sum(axis=1)`` of a ``(B, n, h)`` stack accumulates rows
  exactly like ``delta.sum(axis=0)`` of one item, and the loss reductions
  stay over the last (contiguous) axis;
* random draws stay *per item*: initialization, dropout masks and the
  numerical perturbation are drawn from each seed's own generator, in
  the order one item's fit consumes them — only the arithmetic between
  draws is stacked.

``tests/test_batched.py`` checks the kernels slice by slice against
:meth:`MLPNetwork.loss_and_gradients` and the :mod:`repro.pipelines.nn.losses`
functions, and pins whole-fit outputs to recorded values.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.pipelines.nn.network import MLPNetwork

__all__ = [
    "BatchedNetwork",
    "batched_softmax",
    "batched_cross_entropy_loss",
    "batched_mse_loss",
]

#: Numerical floor to keep logarithms finite (same as ``nn.losses``).
_EPS = 1e-12


def batched_softmax(logits: np.ndarray) -> np.ndarray:
    """Row-wise softmax over the last axis of a ``(B, n, C)`` stack."""
    shifted = logits - logits.max(axis=-1, keepdims=True)
    exp = np.exp(shifted)
    return exp / exp.sum(axis=-1, keepdims=True)


def batched_cross_entropy_loss(
    logits: np.ndarray, labels: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """Softmax cross-entropy per item of a ``(B, n, C)`` logits stack.

    Returns the ``(B,)`` per-item mean losses and the ``(B, n, C)``
    gradient, each slice bitwise-equal to
    :func:`repro.pipelines.nn.losses.cross_entropy_loss` on that item.
    """
    labels = np.asarray(labels, dtype=int)
    probabilities = batched_softmax(logits)
    n_items, n = labels.shape
    # A 2-index gather on the (B*n, C) view costs less than a 3-array index.
    rows = np.arange(n_items * n)
    flat_labels = labels.reshape(-1)
    n_classes = logits.shape[-1]
    picked = probabilities.reshape(-1, n_classes)[rows, flat_labels]
    losses = -np.mean(np.log(picked.reshape(n_items, n) + _EPS), axis=1)
    gradient = probabilities.copy()
    gradient.reshape(-1, n_classes)[rows, flat_labels] -= 1.0
    gradient /= n
    return losses, gradient


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


class BatchedNetwork:
    """B identically-shaped :class:`MLPNetwork`\\ s trained in lockstep.

    Built from per-item networks whose weights were already drawn from each
    seed's own ``init`` generator (batched init = per-seed draws, stacked),
    so initialization is bitwise-identical to each network's own by
    construction.  The stacked parameters returned by :meth:`parameters`
    are shaped ``[(B, in, out), (B, out), ...]`` and are views into the
    one contiguous buffer :attr:`flat`, laid out in that order.  An
    element-wise optimizer (:class:`~repro.pipelines.nn.optimizers.SGD` /
    :class:`~repro.pipelines.nn.optimizers.Adam`) therefore steps every
    seed's every tensor at once on ``[flat]``, given the gradients
    concatenated in the same order.
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
        self.flat = np.concatenate(stacks, axis=None)
        bounds = np.cumsum([stack.size for stack in stacks])[:-1]
        views = [
            part.reshape(stack.shape)
            for part, stack in zip(np.split(self.flat, bounds), stacks)
        ]
        self.weights = views[0::2]
        self.biases = views[1::2]

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
        stacked.
        """
        activations = [X]
        masks: list[np.ndarray] = []
        hidden = X
        for layer in range(self.n_layers - 1):
            pre = hidden @ self.weights[layer] + self.biases[layer][:, None, :]
            hidden = self.activation.forward(pre)
            if dropout_rngs is not None and self.dropout_rate > 0:
                item_shape = hidden.shape[1:]
                mask = np.stack(
                    [
                        (rng.random(item_shape) >= self.dropout_rate).astype(float)
                        / (1.0 - self.dropout_rate)
                        for rng in dropout_rngs
                    ]
                )
                hidden = hidden * mask
            else:
                mask = np.ones_like(hidden)
            masks.append(mask)
            activations.append(hidden)
        output = hidden @ self.weights[-1] + self.biases[-1][:, None, :]
        return output, activations, masks

    def loss_and_gradients(
        self,
        X: np.ndarray,
        y: np.ndarray,
        *,
        dropout_rngs: Optional[Sequence[np.random.Generator]] = None,
    ) -> tuple[np.ndarray, List[np.ndarray]]:
        """Per-item losses and stacked gradients for a mini-batch stack.

        Returns the ``(B,)`` loss vector and gradients ordered like
        :meth:`parameters`, each slice bitwise-equal to
        :meth:`MLPNetwork.loss_and_gradients` on that item.
        """
        output, activations, masks = self.forward(X, dropout_rngs=dropout_rngs)
        if self.task_type == "classification":
            losses, grad_output = batched_cross_entropy_loss(output, y)
        else:
            losses, grad_output = batched_mse_loss(output, y)
        weight_grads: List[np.ndarray] = [np.empty(0)] * self.n_layers
        bias_grads: List[np.ndarray] = [np.empty(0)] * self.n_layers
        delta = grad_output
        for layer in range(self.n_layers - 1, -1, -1):
            weight_grads[layer] = activations[layer].transpose(0, 2, 1) @ delta
            bias_grads[layer] = delta.sum(axis=1)
            if layer > 0:
                delta = delta @ self.weights[layer].transpose(0, 2, 1)
                delta = delta * masks[layer - 1]
                delta = delta * self.activation.derivative(activations[layer])
        gradients: List[np.ndarray] = []
        for wg, bg in zip(weight_grads, bias_grads):
            gradients.extend([wg, bg])
        return losses, gradients

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
