"""Tests for seed derivation, SeedScope and SeedBundle behaviour."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.pairing import paired_seed_bundles
from repro.utils.rng import (
    KNOWN_SOURCES,
    MAX_SEED,
    SeedBundle,
    SeedScope,
    derive_seed,
    rng_from_seed,
)


class TestDeriveSeed:
    def test_deterministic(self):
        assert derive_seed(0, "data") == derive_seed(0, "data")

    def test_different_keys_differ(self):
        assert derive_seed(0, "data") != derive_seed(0, "init")

    def test_different_base_differ(self):
        assert derive_seed(0, "data") != derive_seed(1, "data")

    def test_in_range(self):
        seed = derive_seed(42, "x", 3)
        assert 0 <= seed < 2**32


class TestRngFromSeed:
    def test_reproducible(self):
        a = rng_from_seed(7).random(5)
        b = rng_from_seed(7).random(5)
        np.testing.assert_array_equal(a, b)

    def test_none_gives_generator(self):
        assert isinstance(rng_from_seed(None), np.random.Generator)


class TestSeedBundle:
    def test_seed_for_default_derivation(self):
        bundle = SeedBundle(base_seed=5)
        assert bundle.seed_for("data") == derive_seed(5, "data")

    def test_explicit_seed_wins(self):
        bundle = SeedBundle(base_seed=5, seeds={"data": 99})
        assert bundle.seed_for("data") == 99

    def test_with_seeds_does_not_mutate(self):
        bundle = SeedBundle(base_seed=0)
        updated = bundle.with_seeds(init=3)
        assert updated.seed_for("init") == 3
        assert bundle.seed_for("init") != 3 or bundle.seed_for("init") == derive_seed(0, "init")

    def test_randomized_changes_only_requested(self, rng):
        bundle = SeedBundle(base_seed=0)
        updated = bundle.randomized(["init"], rng)
        assert updated.seed_for("data") == bundle.seed_for("data")
        assert updated.seed_for("init") != bundle.seed_for("init")

    def test_rng_for_reproducible(self):
        bundle = SeedBundle(base_seed=1)
        np.testing.assert_array_equal(
            bundle.rng_for("order").random(3), bundle.rng_for("order").random(3)
        )

    def test_as_dict_covers_known_sources(self):
        bundle = SeedBundle(base_seed=2)
        assert set(bundle.as_dict()) == set(KNOWN_SOURCES)

    def test_random_bundle_sets_all_sources(self, rng):
        bundle = SeedBundle.random(rng)
        assert set(bundle.seeds) == set(KNOWN_SOURCES)


_segment = st.tuples(st.text(min_size=1, max_size=8), st.text(max_size=8))
_paths = st.lists(_segment, min_size=0, max_size=4)


def _scope_at(root: "SeedScope", path) -> "SeedScope":
    for kind, name in path:
        root = root.child(kind, name)
    return root


class TestSeedScope:
    def test_pure_function_of_path(self):
        a = SeedScope.from_state(0).child("task", "entailment").child("rep", 3)
        b = SeedScope.from_state(0).child("task", "entailment").child("rep", 3)
        assert a.seed() == b.seed()
        assert a == b

    def test_order_independent(self):
        """A scope's seed never depends on which siblings were derived first.

        This is the property stream-based seeding lacks: under streams, the
        second task's seeds depend on how many draws the first consumed.
        """
        root = SeedScope.from_state(7)
        forward = [root.child("task", name).seed() for name in ("a", "b", "c")]
        backward = [root.child("task", name).seed() for name in ("c", "b", "a")]
        assert forward == backward[::-1]
        # Deriving unrelated scopes in between changes nothing either.
        root.child("other", "x").child("rep", 0).seed()
        assert root.child("task", "b").seed() == forward[1]

    def test_roots_differ(self):
        assert (
            SeedScope.from_state(0).child("a").seed()
            != SeedScope.from_state(1).child("a").seed()
        )

    def test_path_encoding_unambiguous(self):
        root = SeedScope.from_state(0)
        assert root.child("a", "b=c").seed() != root.child("a=b", "c").seed()
        assert root.child("a").child("b").seed() != root.child("a", "b").seed()
        assert root.child("a", "1/2").seed() != root.child("a", "1").child("2").seed()

    def test_from_state_passthrough_and_generator(self):
        scope = SeedScope.from_state(3)
        assert SeedScope.from_state(scope) is scope
        gen_scope = SeedScope.from_state(np.random.default_rng(3))
        assert gen_scope == SeedScope.from_state(np.random.default_rng(3))
        assert isinstance(SeedScope.from_state(None), SeedScope)

    @pytest.mark.parametrize("value", [1.5, "7", True])
    def test_from_state_rejects_non_integer_seeds(self, value):
        with pytest.raises(TypeError, match="random_state must be an int"):
            SeedScope.from_state(value)

    @pytest.mark.parametrize("value", [-1, MAX_SEED, 2**40])
    def test_from_state_rejects_out_of_range_seeds(self, value):
        """Out-of-range seeds raise instead of folding onto another seed."""
        with pytest.raises(ValueError, match=f"got {value}"):
            SeedScope.from_state(value)

    def test_from_state_takes_in_range_numpy_integers(self):
        assert SeedScope.from_state(np.int64(3)) == SeedScope.from_state(3)
        assert SeedScope.from_state(np.uint32(MAX_SEED - 1)).root_seed == MAX_SEED - 1
        with pytest.raises(ValueError):
            SeedScope.from_state(np.uint32(MAX_SEED))

    def test_entry_points_reject_aliasing_seeds(self):
        """``2**32 - 1`` once returned exactly the bundles of seed 0."""
        with pytest.raises(ValueError):
            paired_seed_bundles(2, random_state=2**32 - 1)

    def test_bundle_is_scope_derived(self):
        scope = SeedScope.from_state(5).child("task", "t")
        bundle = scope.bundle()
        assert set(bundle.seeds) == set(KNOWN_SOURCES)
        assert bundle.base_seed == scope.seed()
        assert bundle.seeds["data"] == scope.child("source", "data").seed()
        assert bundle == scope.bundle()

    def test_path_str_human_readable(self):
        scope = SeedScope.from_state(0).child("task", "entailment").child("rep", 3)
        assert scope.path_str() == "task=entailment/rep=3"

    @settings(max_examples=200, deadline=None)
    @given(path_a=_paths, path_b=_paths)
    def test_property_distinct_paths_distinct_seeds(self, path_a, path_b):
        """Collision check: distinct paths address distinct seeds."""
        root = SeedScope.from_state(42)
        a, b = _scope_at(root, path_a), _scope_at(root, path_b)
        if path_a == path_b:
            assert a.seed() == b.seed()
        else:
            assert a.seed() != b.seed()

    @settings(max_examples=100, deadline=None)
    @given(path=_paths, extra=_paths)
    def test_property_derivation_is_stateless(self, path, extra):
        """Order independence: deriving other scopes never perturbs a path."""
        root = SeedScope.from_state(9)
        before = _scope_at(root, path).seed()
        for kind, name in extra:
            root.child(kind, name).seed()  # unrelated derivations
        assert _scope_at(root, path).seed() == before
