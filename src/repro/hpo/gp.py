"""Gaussian-process regression used by the Bayesian optimizer.

A compact, from-scratch GP with an RBF (squared-exponential) kernel and a
constant-mean prior.  The paper used the RoBO library for its Bayesian
optimizer; this implementation plays the same role on the unit hypercube of
the search space.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

__all__ = ["rbf_kernel", "GaussianProcess"]


def rbf_kernel(
    a: np.ndarray,
    b: np.ndarray,
    length_scale: float = 0.2,
    signal_variance: float = 1.0,
) -> np.ndarray:
    """Squared-exponential kernel matrix between row vectors of ``a`` and ``b``."""
    if length_scale <= 0 or signal_variance <= 0:
        raise ValueError("length_scale and signal_variance must be positive")
    a = np.atleast_2d(np.asarray(a, dtype=float))
    b = np.atleast_2d(np.asarray(b, dtype=float))
    sq_dist = (
        np.sum(a**2, axis=1)[:, None]
        + np.sum(b**2, axis=1)[None, :]
        - 2.0 * a @ b.T
    )
    sq_dist = np.maximum(sq_dist, 0.0)
    return signal_variance * np.exp(-0.5 * sq_dist / length_scale**2)


class GaussianProcess:
    """Gaussian-process regressor with an RBF kernel.

    Parameters
    ----------
    length_scale:
        Kernel length scale on the unit hypercube.
    signal_variance:
        Kernel output variance.
    noise_variance:
        Observation-noise variance added to the kernel diagonal — benchmark
        objectives are noisy, so this should not be zero.
    normalize_targets:
        Standardize targets before fitting (recommended since objective
        scales vary wildly across tasks).
    """

    def __init__(
        self,
        length_scale: float = 0.2,
        signal_variance: float = 1.0,
        noise_variance: float = 1e-4,
        normalize_targets: bool = True,
    ) -> None:
        if noise_variance <= 0:
            raise ValueError("noise_variance must be positive")
        self.length_scale = float(length_scale)
        self.signal_variance = float(signal_variance)
        self.noise_variance = float(noise_variance)
        self.normalize_targets = bool(normalize_targets)
        self._X: Optional[np.ndarray] = None
        self._alpha: Optional[np.ndarray] = None
        self._cholesky: Optional[np.ndarray] = None
        self._y_mean = 0.0
        self._y_std = 1.0

    @property
    def is_fitted(self) -> bool:
        """Whether :meth:`fit` has been called with at least one point."""
        return self._X is not None

    def fit(self, X: np.ndarray, y: np.ndarray) -> "GaussianProcess":
        """Fit the GP to observations ``(X, y)``.

        Parameters
        ----------
        X:
            Points in the unit hypercube, shape ``(n, d)``.
        y:
            Observed objective values, shape ``(n,)``.
        """
        X = np.atleast_2d(np.asarray(X, dtype=float))
        y = np.asarray(y, dtype=float).ravel()
        if X.shape[0] != y.shape[0]:
            raise ValueError("X and y must have the same number of rows")
        if self.normalize_targets:
            self._y_mean = float(np.mean(y))
            self._y_std = float(np.std(y))
            if self._y_std == 0:
                self._y_std = 1.0
        else:
            self._y_mean, self._y_std = 0.0, 1.0
        y_normalized = (y - self._y_mean) / self._y_std
        K = rbf_kernel(X, X, self.length_scale, self.signal_variance)
        K[np.diag_indices_from(K)] += self.noise_variance
        from scipy import linalg

        self._cholesky = linalg.cholesky(K, lower=True)
        self._alpha = linalg.cho_solve((self._cholesky, True), y_normalized)
        self._X = X
        return self

    def predict(self, X: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Posterior mean and standard deviation at query points ``X``."""
        if not self.is_fitted:
            raise RuntimeError("GaussianProcess must be fitted before predicting")
        X = np.atleast_2d(np.asarray(X, dtype=float))
        K_star = rbf_kernel(X, self._X, self.length_scale, self.signal_variance)
        mean = K_star @ self._alpha
        from scipy import linalg

        v = linalg.solve_triangular(self._cholesky, K_star.T, lower=True)
        prior_var = self.signal_variance
        variance = np.maximum(prior_var - np.sum(v**2, axis=0), 1e-12)
        std = np.sqrt(variance)
        return mean * self._y_std + self._y_mean, std * self._y_std
