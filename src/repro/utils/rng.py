"""Seed management for independently controllable sources of variance.

The paper's central experimental device is to *fix* every source of
randomness except one, and measure the variance contributed by that single
source (Section 2.2).  Doing this correctly requires that each source draws
from its own random stream: re-seeding a single global generator would
couple the sources together.

``SeedBundle`` maps a source name (``"data"``, ``"init"``, ``"order"``,
``"dropout"``, ``"augment"``, ``"hopt"``, ``"numerical"``, ...) to an integer
seed, and can produce a dedicated :class:`numpy.random.Generator` per source.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field, replace
from typing import Dict, Iterable, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.utils.validation import check_random_state

__all__ = [
    "derive_seed",
    "rng_from_seed",
    "SeedBundle",
    "SeedScope",
]

#: Largest seed value we hand out.  Kept below 2**32 so seeds remain valid
#: inputs for ``numpy.random.SeedSequence`` and are easy to serialize.
MAX_SEED = 2**32 - 1


def derive_seed(base_seed: int, *keys: object) -> int:
    """Deterministically derive a child seed from a base seed and keys.

    Uses ``numpy.random.SeedSequence`` entropy mixing so that distinct keys
    give statistically independent child seeds.

    Parameters
    ----------
    base_seed:
        Root seed.
    *keys:
        Arbitrary hashable objects (typically strings or ints) identifying
        the child stream.

    Returns
    -------
    int
        A seed in ``[0, 2**32)``.
    """
    # A cryptographic digest (rather than Python's built-in hash) keeps the
    # derivation stable across processes regardless of PYTHONHASHSEED.
    key_ints = [
        int.from_bytes(hashlib.sha256(str(k).encode("utf-8")).digest()[:4], "big")
        % MAX_SEED
        for k in keys
    ]
    seq = np.random.SeedSequence([int(base_seed) % MAX_SEED, *key_ints])
    return int(seq.generate_state(1, dtype=np.uint32)[0])


def rng_from_seed(seed: Optional[int]) -> np.random.Generator:
    """Build a :class:`numpy.random.Generator` from an integer seed.

    ``None`` gives a non-deterministic generator (fresh OS entropy), which
    corresponds to the paper's recommendation of simply *not seeding* a
    source when it should be randomized (Appendix C.1).
    """
    return np.random.default_rng(seed)


#: Canonical variance-source names used throughout the library.  They match
#: the rows of Figure 1 in the paper.
KNOWN_SOURCES = (
    "data",        # bootstrap / split sampling of the finite dataset
    "augment",     # stochastic data augmentation
    "order",       # data visit order in SGD
    "init",        # weight initialization
    "dropout",     # dropout masks / other model stochasticity
    "numerical",   # residual numerical noise
    "hopt",        # hyperparameter-optimization procedure (xi_H)
)


@dataclass(frozen=True)
class SeedBundle:
    """Immutable mapping from variance-source name to seed.

    A ``SeedBundle`` fully determines the stochastic behaviour of one
    training run.  The estimators in :mod:`repro.core.estimators` manipulate
    bundles to hold some sources fixed while randomizing others.

    Parameters
    ----------
    seeds:
        Mapping from source name to integer seed.  Missing sources default
        to a seed derived from ``base_seed``.
    base_seed:
        Seed used to fill in sources not explicitly listed.
    """

    base_seed: int = 0
    seeds: Mapping[str, int] = field(default_factory=dict)

    def seed_for(self, source: str) -> int:
        """Return the seed assigned to ``source``."""
        if source in self.seeds:
            return int(self.seeds[source])
        return derive_seed(self.base_seed, source)

    def rng_for(self, source: str) -> np.random.Generator:
        """Return a dedicated generator for ``source``."""
        return rng_from_seed(self.seed_for(source))

    def with_seeds(self, **updates: int) -> "SeedBundle":
        """Return a copy with some source seeds replaced."""
        merged: Dict[str, int] = dict(self.seeds)
        merged.update({k: int(v) for k, v in updates.items()})
        return replace(self, seeds=merged)

    def randomized(
        self,
        sources: Iterable[str],
        rng: np.random.Generator,
    ) -> "SeedBundle":
        """Return a copy where ``sources`` get fresh seeds drawn from ``rng``.

        All other sources keep their current seeds — this is exactly the
        "randomize a subset of :math:`\\xi`" operation used by the biased
        estimator ``FixHOptEst(k, subset)``.
        """
        updates = {
            source: int(rng.integers(0, MAX_SEED)) for source in sources
        }
        return self.with_seeds(**updates)

    def as_dict(self) -> Dict[str, int]:
        """Return the explicit seed for every known source."""
        return {source: self.seed_for(source) for source in KNOWN_SOURCES}

    @classmethod
    def random(cls, rng: np.random.Generator) -> "SeedBundle":
        """Draw a bundle with every known source randomized."""
        seeds = {
            source: int(rng.integers(0, MAX_SEED)) for source in KNOWN_SOURCES
        }
        return cls(base_seed=int(rng.integers(0, MAX_SEED)), seeds=seeds)


@dataclass(frozen=True)
class SeedScope:
    """Hierarchical, order-independent seed derivation by scope path.

    A scope names a *position* in an experiment — e.g. ``task=entailment /
    rep=3`` — and derives its seed purely from that path and the root seed,
    never from how many other seeds were drawn before it.  This is the
    property that makes sharded execution bitwise-equal to monolithic
    execution: a shard that only runs ``task=sentiment`` derives exactly
    the seeds the full run would have assigned to that task, because no
    shared rng stream is consumed along the way.

    Examples
    --------
    >>> scope = SeedScope.from_state(0)
    >>> a = scope.child("task", "entailment").child("rep", 3)
    >>> b = SeedScope.from_state(0).child("task", "entailment").child("rep", 3)
    >>> a.seed() == b.seed()
    True

    Path segments are encoded losslessly (a JSON list per segment), so
    ``child("a", "b=c")`` and ``child("a=b", "c")`` can never collide, nor
    can ``child("a").child("b")`` and ``child("a", "b")``.
    """

    root_seed: int
    path: Tuple[str, ...] = ()

    @classmethod
    def from_state(cls, random_state) -> "SeedScope":
        """Build a root scope from any ``random_state``-style value.

        An existing :class:`SeedScope` passes through unchanged (so drivers
        can hand their scope to sub-studies); an int in ``[0, MAX_SEED)``
        becomes the root seed; a :class:`numpy.random.Generator` contributes
        one draw; ``None`` uses fresh OS entropy.  A bool, float or string
        raises ``TypeError``, and an int outside ``[0, MAX_SEED)`` raises
        ``ValueError`` rather than aliasing another seed.
        """
        if isinstance(random_state, SeedScope):
            return random_state
        if random_state is None:
            return cls(int(np.random.default_rng().integers(0, MAX_SEED)))
        if isinstance(random_state, (np.random.Generator, np.random.RandomState)):
            rng = check_random_state(random_state)
            return cls(int(rng.integers(0, MAX_SEED)))
        if isinstance(random_state, bool) or not isinstance(
            random_state, (int, np.integer)
        ):
            raise TypeError(
                f"random_state must be an int, a numpy Generator, a SeedScope "
                f"or None, got {type(random_state).__name__}: {random_state!r}"
            )
        if not 0 <= random_state < MAX_SEED:
            raise ValueError(
                f"random_state must be in [0, {MAX_SEED}), got {random_state!r}"
            )
        return cls(int(random_state))

    def child(self, kind: object, name: object = None) -> "SeedScope":
        """Return the sub-scope addressed by one more path segment."""
        parts = [str(kind)] if name is None else [str(kind), str(name)]
        # One JSON-encoded key per segment keeps the path unambiguous.
        segment = json.dumps(parts, separators=(",", ":"))
        return replace(self, path=self.path + (segment,))

    def seed(self) -> int:
        """The seed assigned to this scope (pure function of root + path)."""
        return derive_seed(self.root_seed, *self.path)

    def rng(self) -> np.random.Generator:
        """A dedicated generator seeded by this scope."""
        return rng_from_seed(self.seed())

    def seeds_for(self, sources: Iterable[str]) -> Dict[str, int]:
        """Per-source seeds addressed under this scope."""
        return {
            str(source): self.child("source", source).seed() for source in sources
        }

    def bundle(self, sources: Sequence[str] = KNOWN_SOURCES) -> SeedBundle:
        """A :class:`SeedBundle` whose every seed is derived from this scope."""
        return SeedBundle(base_seed=self.seed(), seeds=self.seeds_for(sources))

    def path_str(self) -> str:
        """Human-readable rendition of the path (``task=entailment/rep=3``)."""
        return "/".join("=".join(json.loads(segment)) for segment in self.path)
