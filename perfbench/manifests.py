"""Suite manifests of the benchmark workloads, generated from the seed.

The benchmark decides every size and seed here; the program only ever
receives the resulting JSON manifests (through ``SuiteSpec.from_dict`` or
``POST /v1/suites``).  Every member uses the workload seed as its
``random_state``, so one seed fixes every measurement of a workload.

``cold`` covers the paper's studies: Fig. 1 variance sources with their
HOpt part on two tasks, Fig. 2 binomial noise, the layer ablation, Fig. 5
estimators and Fig. 6 detection rates.  Its datasets are small, so a
measuring window holds many repetitions.  ``fleet`` submits the same
members at twice the dataset sizes: its repetition also pays a worker
start and the service's polling, and more work keeps those a smaller
share of its time.  ``warm`` keeps only the members whose replay
reads every measurement back from the store: the estimator study's biased
HOpt and the detection simulations recompute on replay, so they would
turn a store-read workload back into a fitting one.
"""

from __future__ import annotations

from typing import Any, Dict, List, Tuple

#: Seed used when ``--seed`` is not given; recorded with every result.
DEFAULT_SEED = 20210401

#: ``(member name, study, params)`` of the cold manifest, in run order.
COLD_MEMBERS: Tuple[Tuple[str, str, Dict[str, Any]], ...] = (
    (
        "fig1-variance",
        "variance",
        {
            "task_names": ["entailment", "sentiment"],
            "n_seeds": 3,
            "n_hpo_repetitions": 2,
            "hpo_budget": 3,
            "dataset_size": 100,
        },
    ),
    (
        "fig2-binomial",
        "binomial",
        {"task_names": ["entailment"], "n_splits": 6, "dataset_size": 120},
    ),
    (
        "layer-ablation",
        "layer_ablation",
        {
            "task_names": ["entailment"],
            "combos": ["none", "dropout", "order", "all"],
            "n_seeds": 3,
            "dataset_size": 80,
        },
    ),
    (
        "fig5-estimator",
        "estimator",
        {
            "task_names": ["entailment"],
            "k_max": 3,
            "n_repetitions": 2,
            "hpo_budget": 3,
            "dataset_size": 100,
        },
    ),
    (
        "fig6-detection",
        "detection",
        {"probabilities": [0.4, 0.9], "k": 5, "n_simulations": 5},
    ),
)

#: fleet's dataset sizes, as a multiple of cold's.
FLEET_SIZE_FACTOR = 2

#: Members of the cold manifest whose replay never refits.
WARM_MEMBERS = ("fig1-variance", "fig2-binomial", "layer-ablation")


def _manifest(name: str, members, seed: int) -> Dict[str, Any]:
    specs: List[Dict[str, Any]] = [
        {
            "name": member,
            "spec": {"study": study, "params": params, "random_state": seed},
        }
        for member, study, params in members
    ]
    return {"name": name, "specs": specs}


def cold_manifest(seed: int) -> Dict[str, Any]:
    """The manifest ``cold`` runs in-process."""
    return _manifest("perfbench-cold", COLD_MEMBERS, seed)


def fleet_manifest(seed: int) -> Dict[str, Any]:
    """The cold members at ``FLEET_SIZE_FACTOR`` times their dataset
    sizes, which ``fleet`` submits (and runs in-process as its reference)."""
    members = []
    for name, study, params in COLD_MEMBERS:
        if "dataset_size" in params:
            size = params["dataset_size"] * FLEET_SIZE_FACTOR
            params = dict(params, dataset_size=size)
        members.append((name, study, params))
    return _manifest("perfbench-fleet", members, seed)


def warm_manifest(seed: int) -> Dict[str, Any]:
    """The cacheable subset of the cold manifest that ``warm`` replays."""
    members = [entry for entry in COLD_MEMBERS if entry[0] in WARM_MEMBERS]
    return _manifest("perfbench-warm", members, seed)
