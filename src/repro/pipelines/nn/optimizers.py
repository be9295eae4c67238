"""First-order optimizers: SGD with momentum, and Adam.

Weight decay is applied as an L2 penalty added to the gradients (coupled
weight decay), matching the formulation of the regularized objective in
Equation 1 of the paper.

The learning rate, weight decay and momentum may each be a scalar or an
array that broadcasts against every parameter — the stacked kernel passes
per-item values laid out like
:attr:`~repro.pipelines.nn.batched.BatchedNetwork.flat`.  An element-wise
op with a per-element scalar is bitwise the scalar op, so an array of
equal values steps exactly like the scalar.  Each update keeps the
operation order of the textbook formula; only where the temporaries live
changes.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import List, Union

import numpy as np

__all__ = ["Optimizer", "SGD", "Adam"]

#: A hyperparameter value: one scalar, or per-element values.
Value = Union[float, np.ndarray]


def _value(value) -> Value:
    """A scalar as ``float``, anything else as a float array."""
    return float(value) if np.ndim(value) == 0 else np.asarray(value, dtype=float)


class Optimizer(ABC):
    """Base class holding per-parameter state for in-place updates."""

    def __init__(self, learning_rate: Value, weight_decay: Value = 0.0) -> None:
        learning_rate, weight_decay = _value(learning_rate), _value(weight_decay)
        if np.any(np.less_equal(learning_rate, 0)):
            raise ValueError("learning_rate must be positive")
        if np.any(np.less(weight_decay, 0)):
            raise ValueError("weight_decay must be non-negative")
        # Decided once: with decay off the gradient is used as given, since
        # adding ``0.0 * p`` could turn a -0.0 gradient into +0.0.
        self._decays = bool(np.any(np.greater(weight_decay, 0)))
        if self._decays and not np.all(np.greater(weight_decay, 0)):
            raise ValueError(
                "weight_decay must be zero everywhere or positive everywhere"
            )
        self.learning_rate = learning_rate
        self.weight_decay = weight_decay

    @abstractmethod
    def update(
        self,
        parameters: List[np.ndarray],
        gradients: List[np.ndarray],
        learning_rate: Value,
    ) -> None:
        """Apply one in-place update of ``parameters`` given ``gradients``."""

    def step(
        self,
        parameters: List[np.ndarray],
        gradients: List[np.ndarray],
        learning_rate: Value | None = None,
    ) -> None:
        """Update parameters, adding the weight-decay term to the gradients.

        ``gradients`` are left unchanged.
        """
        lr = self.learning_rate if learning_rate is None else learning_rate
        if self._decays:
            decayed = []
            for grad, param in zip(gradients, parameters):
                term = param * self.weight_decay
                term += grad
                decayed.append(term)
            gradients = decayed
        self.update(parameters, gradients, lr)


class SGD(Optimizer):
    """Stochastic gradient descent with classical momentum."""

    def __init__(
        self,
        learning_rate: Value,
        momentum: Value = 0.0,
        weight_decay: Value = 0.0,
    ) -> None:
        super().__init__(learning_rate, weight_decay)
        momentum = _value(momentum)
        if not np.all((np.greater_equal(momentum, 0.0)) & np.less(momentum, 1.0)):
            raise ValueError("momentum must be in [0, 1)")
        self.momentum = momentum
        self._velocities: List[np.ndarray] | None = None
        self._scratch: List[np.ndarray] | None = None

    def update(
        self,
        parameters: List[np.ndarray],
        gradients: List[np.ndarray],
        learning_rate: Value,
    ) -> None:
        if self._velocities is None or self._scratch is None:
            self._velocities = [np.zeros_like(p) for p in parameters]
            self._scratch = [np.empty_like(p) for p in parameters]
        for param, grad, velocity, scratch in zip(
            parameters, gradients, self._velocities, self._scratch
        ):
            velocity *= self.momentum
            np.multiply(grad, learning_rate, out=scratch)
            velocity -= scratch
            param += velocity


class Adam(Optimizer):
    """Adam optimizer (Kingma & Ba), used for the BERT-like pipelines."""

    def __init__(
        self,
        learning_rate: Value,
        beta1: float = 0.9,
        beta2: float = 0.999,
        epsilon: float = 1e-8,
        weight_decay: Value = 0.0,
    ) -> None:
        super().__init__(learning_rate, weight_decay)
        if not 0.0 <= beta1 < 1.0 or not 0.0 <= beta2 < 1.0:
            raise ValueError("beta1 and beta2 must be in [0, 1)")
        self.beta1 = float(beta1)
        self.beta2 = float(beta2)
        self.epsilon = float(epsilon)
        self._m: List[np.ndarray] | None = None
        self._v: List[np.ndarray] | None = None
        self._scratch: List[tuple] | None = None
        self._t = 0

    def update(
        self,
        parameters: List[np.ndarray],
        gradients: List[np.ndarray],
        learning_rate: Value,
    ) -> None:
        if self._m is None or self._v is None or self._scratch is None:
            self._m = [np.zeros_like(p) for p in parameters]
            self._v = [np.zeros_like(p) for p in parameters]
            self._scratch = [(np.empty_like(p), np.empty_like(p)) for p in parameters]
        self._t += 1
        bias1 = 1.0 - self.beta1**self._t
        bias2 = 1.0 - self.beta2**self._t
        for param, grad, m, v, (step, denom) in zip(
            parameters, gradients, self._m, self._v, self._scratch
        ):
            # m = b1*m + (1-b1)*g;  v = b2*v + (1-b2)*g**2
            m *= self.beta1
            np.multiply(grad, 1.0 - self.beta1, out=step)
            m += step
            v *= self.beta2
            np.square(grad, out=denom)
            denom *= 1.0 - self.beta2
            v += denom
            # param -= lr * (m / bias1) / (sqrt(v / bias2) + eps)
            np.divide(m, bias1, out=step)
            step *= learning_rate
            np.divide(v, bias2, out=denom)
            np.sqrt(denom, out=denom)
            denom += self.epsilon
            step /= denom
            param -= step
