"""Normal models of estimator realizations (Section 4.2).

Two generative models of performance measurements are used to simulate
benchmark outcomes:

* **ideal estimator** — the ``k`` empirical risks are i.i.d.
  :math:`\\hat{R}_e \\sim \\mathcal{N}(\\mu, \\sigma^2)` where
  :math:`\\sigma^2` is the variance measured with the ideal estimator on a
  case study;
* **biased estimator** — a two-stage model: first a bias
  :math:`b \\sim \\mathcal{N}(0, \\mathrm{Var}(\\tilde{\\mu}_{(k)}|\\xi))`
  representing the arbitrary fixed hyperparameters/seeds, then ``k``
  empirical risks
  :math:`\\hat{R}_e \\sim \\mathcal{N}(\\mu + b, \\mathrm{Var}(\\hat{R}_e|\\xi))`.

The true probability of outperforming between two simulated algorithms
follows from the normal model, which lets the detection-rate experiments
sweep :math:`P(A>B)` exactly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.stats._ndtri import norm_ppf
from repro.utils.validation import check_positive_int, check_probability, check_random_state

__all__ = [
    "SimulatedTask",
    "simulate_ideal_measurements",
    "simulate_biased_measurements",
    "simulate_layered_measurements",
    "true_probability_of_outperforming",
    "mean_shift_for_probability",
]


@dataclass(frozen=True)
class SimulatedTask:
    """Statistics of one case study used to parameterize the simulation.

    Attributes
    ----------
    name:
        Case-study name.
    mean:
        Mean performance :math:`\\mu` of the reference algorithm B.
    sigma:
        Standard deviation of a single measurement under the ideal
        estimator.
    biased_bias_std:
        Standard deviation of the biased estimator's bias term,
        :math:`\\sqrt{\\mathrm{Var}(\\tilde{\\mu}_{(k)}|\\xi)}`.
    biased_measurement_std:
        Standard deviation of a single measurement conditional on fixed
        hyperparameters, :math:`\\sqrt{\\mathrm{Var}(\\hat{R}_e|\\xi)}`.
    """

    name: str
    mean: float
    sigma: float
    biased_bias_std: float
    biased_measurement_std: float

    def __post_init__(self) -> None:
        for field_name in ("sigma", "biased_bias_std", "biased_measurement_std"):
            if getattr(self, field_name) < 0:
                raise ValueError(f"{field_name} must be non-negative")


#: Default simulated tasks, parameterized from the scale of the paper's
#: case-study variances (standard deviations of a fraction of a percent to
#: a few percents of accuracy).
DEFAULT_SIMULATED_TASKS = (
    SimulatedTask("image-classification", mean=0.91, sigma=0.004, biased_bias_std=0.002, biased_measurement_std=0.0035),
    SimulatedTask("sentiment", mean=0.95, sigma=0.006, biased_bias_std=0.003, biased_measurement_std=0.005),
    SimulatedTask("entailment", mean=0.66, sigma=0.025, biased_bias_std=0.012, biased_measurement_std=0.022),
    SimulatedTask("segmentation", mean=0.55, sigma=0.012, biased_bias_std=0.006, biased_measurement_std=0.010),
    SimulatedTask("peptide-binding", mean=0.80, sigma=0.02, biased_bias_std=0.01, biased_measurement_std=0.018),
)


def simulate_ideal_measurements(
    task: SimulatedTask,
    k: int,
    *,
    mean_shift: float = 0.0,
    random_state=None,
) -> np.ndarray:
    """Draw ``k`` i.i.d. measurements under the ideal-estimator model."""
    k = check_positive_int(k, "k")
    rng = check_random_state(random_state)
    return rng.normal(task.mean + mean_shift, task.sigma, size=k)


def simulate_biased_measurements(
    task: SimulatedTask,
    k: int,
    *,
    mean_shift: float = 0.0,
    random_state=None,
) -> np.ndarray:
    """Draw ``k`` correlated measurements under the biased-estimator model.

    The shared bias term models the arbitrary fixed hyperparameters: all
    ``k`` measurements move together, which is exactly the correlation that
    inflates the biased estimator's variance (Equation 7).
    """
    k = check_positive_int(k, "k")
    rng = check_random_state(random_state)
    bias = rng.normal(0.0, task.biased_bias_std) if task.biased_bias_std > 0 else 0.0
    return rng.normal(
        task.mean + mean_shift + bias, task.biased_measurement_std, size=k
    )


def simulate_layered_measurements(
    task: SimulatedTask,
    k: int,
    *,
    layer_sigmas,
    enabled=None,
    mean_shift: float = 0.0,
    random_state=None,
) -> np.ndarray:
    """Draw ``k`` measurements as a sum of toggleable noise layers.

    The normal-model analogue of the pipeline stack's counterfactual noise
    layers (:mod:`repro.pipelines.layers`): each layer contributes additive
    Gaussian noise drawn from its *own* seed stream, derived from the
    layer's name under a :class:`~repro.utils.rng.SeedScope`.  Disabling a
    layer removes its term without consuming its stream, so the enabled
    layers' draws are bitwise identical across any toggle combination at a
    fixed ``random_state`` — a layer-off simulation is a true
    counterfactual of the layer-on one.

    Parameters
    ----------
    task:
        Simulated case study supplying the mean performance.
    k:
        Number of measurements.
    layer_sigmas:
        Mapping from layer name to that layer's noise standard deviation.
    enabled:
        Layer names contributing noise; ``None`` enables every layer in
        ``layer_sigmas``.
    mean_shift:
        Mean improvement of the simulated algorithm over the reference.
    random_state:
        Seed, generator or :class:`~repro.utils.rng.SeedScope` anchoring
        the per-layer streams.
    """
    from repro.utils.rng import SeedScope

    k = check_positive_int(k, "k")
    unknown = set() if enabled is None else set(enabled) - set(layer_sigmas)
    if unknown:
        raise ValueError(
            f"enabled layers {sorted(unknown)} not in layer_sigmas "
            f"{sorted(layer_sigmas)}"
        )
    enabled_set = set(layer_sigmas) if enabled is None else set(enabled)
    scope = SeedScope.from_state(random_state)
    measurements = np.full(k, task.mean + mean_shift, dtype=float)
    for name in sorted(layer_sigmas):
        if name not in enabled_set:
            continue
        sigma = float(layer_sigmas[name])
        if sigma < 0:
            raise ValueError(f"sigma of layer {name!r} must be non-negative")
        measurements += scope.child("layer", name).rng().normal(0.0, sigma, size=k)
    return measurements


def true_probability_of_outperforming(mean_shift: float, sigma: float) -> float:
    """Exact :math:`P(A>B)` when both algorithms follow the normal model.

    With :math:`\\hat{R}^A \\sim \\mathcal{N}(\\mu + \\Delta, \\sigma^2)` and
    :math:`\\hat{R}^B \\sim \\mathcal{N}(\\mu, \\sigma^2)` independent,
    :math:`P(A>B) = \\Phi(\\Delta / (\\sqrt{2}\\sigma))`.
    """
    if sigma <= 0:
        raise ValueError("sigma must be positive")
    from scipy import stats as sps

    return float(sps.norm.cdf(mean_shift / (np.sqrt(2.0) * sigma)))


def mean_shift_for_probability(p_a_gt_b: float, sigma: float) -> float:
    """Inverse of :func:`true_probability_of_outperforming`.

    Returns the mean improvement :math:`\\Delta` of algorithm A over B that
    yields the requested true probability of outperforming — this is how
    the x-axis of Figure 6 is swept.
    """
    p_a_gt_b = check_probability(p_a_gt_b, "p_a_gt_b")
    if sigma <= 0:
        raise ValueError("sigma must be positive")
    if p_a_gt_b in (0.0, 1.0):
        raise ValueError("p_a_gt_b must be strictly inside (0, 1)")
    return float(np.sqrt(2.0) * sigma * norm_ppf(p_a_gt_b))
