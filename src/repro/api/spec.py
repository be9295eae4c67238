"""Declarative descriptions of study runs: :class:`StudySpec` and
:class:`SuiteSpec`.

A :class:`StudySpec` captures *everything* needed to launch a registered
study — the study name, its study-specific parameters, the execution knobs
of the measurement engine (``n_jobs``, ``backend``, cache participation)
and the ``random_state`` — as a frozen value object with a lossless JSON
round-trip.  Studies therefore become launchable from config files,
queueable across processes, and hashable into experiment manifests::

    spec = StudySpec(
        study="variance",
        params={"task_names": ["entailment"], "n_seeds": 50},
        n_jobs=4,
        random_state=0,
    )
    assert StudySpec.from_json(spec.to_json()) == spec

For a fixed ``random_state`` every registered study is bitwise-identical
at any ``n_jobs``/``backend`` (seeds are pre-drawn before execution), so a
spec fully determines its results, not just its configuration.

A :class:`SuiteSpec` lifts that property to a whole *figure suite*: an
ordered list of named specs plus the shared session configuration
(``n_jobs``, ``backend``, ``cache_dir``, store byte budget), with the same
lossless JSON round-trip.  One manifest file drives every study behind a
set of paper artefacts through one shared cache — see
:meth:`repro.api.session.Session.run_suite` and ``python -m repro suite``.
"""

from __future__ import annotations

import dataclasses
import heapq
import json
import re
from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Any, Dict, Iterator, List, Mapping, Optional, Sequence, Tuple

from repro.utils.rng import MAX_SEED

__all__ = ["StudySpec", "SuiteSpec"]

#: Backends understood by the measurement engine (mirrors
#: :data:`repro.engine.executor._BACKENDS`).
VALID_BACKENDS = ("serial", "thread", "process")


def _freeze(value: Any) -> Any:
    """Convert a params value to a JSON-stable, comparison-stable form.

    Tuples become lists (what JSON would produce anyway) so that a spec
    built in Python compares equal to the same spec after a round-trip.
    """
    if isinstance(value, tuple):
        value = list(value)
    if isinstance(value, list):
        return [_freeze(v) for v in value]
    if isinstance(value, Mapping):
        return {str(k): _freeze(v) for k, v in value.items()}
    if isinstance(value, bool) or value is None or isinstance(value, str):
        return value
    if isinstance(value, int):
        return int(value)
    if isinstance(value, float):
        return float(value)
    raise TypeError(
        f"study parameter values must be JSON-representable "
        f"(None/bool/int/float/str/list/dict), got {type(value).__name__}: {value!r}"
    )


@dataclass(frozen=True)
class StudySpec:
    """Immutable, validated, JSON-serializable description of a study run.

    Parameters
    ----------
    study:
        Registered study name (see :func:`repro.api.registry.list_studies`).
    params:
        Study-specific keyword arguments for the underlying
        ``run_*_study`` driver (e.g. ``task_names``, ``n_seeds``,
        ``hpo_budget``).  Values must be JSON-representable; tuples are
        normalized to lists.
    n_jobs:
        Worker count for the measurement engine.  ``None`` inherits the
        :class:`~repro.api.session.Session` default; ``-1`` uses all
        cores.  Results are identical for any value at a fixed
        ``random_state``.
    backend:
        ``"serial"``, ``"thread"`` or ``"process"``.  ``None`` inherits
        the session default.
    cache:
        ``True`` (default) joins the session's shared
        :class:`~repro.engine.cache.MeasurementCache`; ``False`` runs
        uncached.  Where measurements persist is the session's
        ``cache_dir``, never the spec's.
    random_state:
        Integer seed in ``[0, 2**32 - 1)``, or ``None`` for fresh entropy.
        Kept as a plain int (never a generator) so the spec stays
        serializable.
    """

    study: str
    params: Mapping[str, Any] = field(default_factory=dict)
    n_jobs: Optional[int] = None
    backend: Optional[str] = None
    cache: bool = True
    random_state: Optional[int] = None

    def __post_init__(self) -> None:
        if not isinstance(self.study, str) or not self.study:
            raise ValueError("study must be a non-empty string")
        if not isinstance(self.params, Mapping):
            raise TypeError(
                f"params must be a mapping of driver kwargs, got "
                f"{type(self.params).__name__}"
            )
        object.__setattr__(
            self,
            "params",
            MappingProxyType({str(k): _freeze(v) for k, v in self.params.items()}),
        )
        if self.n_jobs is not None:
            if isinstance(self.n_jobs, bool) or not isinstance(self.n_jobs, int):
                raise TypeError("n_jobs must be an int or None")
        if self.backend is not None and self.backend not in VALID_BACKENDS:
            raise ValueError(
                f"backend must be one of {VALID_BACKENDS} or None, got {self.backend!r}"
            )
        if not isinstance(self.cache, bool):
            raise TypeError(
                f"cache must be a bool (join or skip the session's cache), "
                f"got {self.cache!r}; a store directory is the session's "
                f"cache_dir"
            )
        if self.random_state is not None:
            if isinstance(self.random_state, bool) or not isinstance(
                self.random_state, (int,)
            ):
                raise TypeError(
                    "random_state must be an int or None (generators are not "
                    "serializable; seed them outside the spec)"
                )
            if not 0 <= self.random_state < MAX_SEED:
                raise ValueError(
                    f"random_state must be in [0, {MAX_SEED}), "
                    f"got {self.random_state}"
                )

    def __hash__(self) -> int:
        # The generated dataclass __hash__ would choke on the params
        # mapping; the canonical JSON form is hash-stable and consistent
        # with __eq__ (params are normalized at construction), so specs
        # work in sets and as manifest keys.
        return hash(
            (
                self.study,
                self.n_jobs,
                self.backend,
                self.cache,
                self.random_state,
                json.dumps(dict(self.params), sort_keys=True),
            )
        )

    # ------------------------------------------------------------------
    # Derivation
    # ------------------------------------------------------------------
    def replace(self, **changes: Any) -> "StudySpec":
        """Return a copy with some fields replaced (re-validated)."""
        return dataclasses.replace(self, **changes)

    def with_params(self, **updates: Any) -> "StudySpec":
        """Return a copy with some study parameters merged in."""
        merged = dict(self.params)
        merged.update(updates)
        return self.replace(params=merged)

    # ------------------------------------------------------------------
    # Serialization
    # ------------------------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        """Plain-dict form, suitable for ``json``/``yaml`` dumping."""
        return {
            "study": self.study,
            "params": {k: _freeze(v) for k, v in self.params.items()},
            "n_jobs": self.n_jobs,
            "backend": self.backend,
            "cache": self.cache,
            "random_state": self.random_state,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "StudySpec":
        """Rebuild a spec from :meth:`to_dict` output (extra keys rejected)."""
        known = {f.name for f in dataclasses.fields(cls)}
        unknown = set(data) - known
        if unknown:
            raise ValueError(
                f"unknown StudySpec fields {sorted(unknown)}; valid fields are "
                f"{sorted(known)}"
            )
        return cls(**dict(data))

    def to_json(self, *, indent: Optional[int] = None) -> str:
        """JSON form; ``StudySpec.from_json`` inverts it losslessly."""
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    @classmethod
    def from_json(cls, payload: str) -> "StudySpec":
        """Parse a spec from :meth:`to_json` output."""
        return cls.from_dict(json.loads(payload))


#: Spec/suite names end up as file names of resume records, so they are
#: restricted to a filesystem-safe alphabet.
_NAME_PATTERN = re.compile(r"^[A-Za-z0-9][A-Za-z0-9._-]{0,63}$")


def _normalize_suite_specs(
    specs: Any,
) -> Tuple[
    Tuple[Tuple[str, StudySpec], ...], Dict[str, int], Dict[str, Tuple[str, ...]]
]:
    """Coerce the accepted ``specs`` shapes to an ordered name->spec tuple.

    Accepted inputs: a mapping ``{name: StudySpec|dict}``, a sequence of
    ``(name, StudySpec|dict)`` pairs, or a sequence of
    ``{"name": ..., "spec": {...}}`` entries (the JSON manifest form).
    Manifest entries may additionally carry scheduling metadata —
    ``"priority"`` (int) and ``"depends_on"`` (list of member names) —
    which is returned as the second and third elements so
    :class:`SuiteSpec` can fold it into its ``priorities``/``depends_on``
    fields.
    """
    inline_priorities: Dict[str, int] = {}
    inline_depends: Dict[str, Tuple[str, ...]] = {}
    if isinstance(specs, Mapping):
        pairs = list(specs.items())
    elif isinstance(specs, Sequence) and not isinstance(specs, (str, bytes)):
        pairs = []
        for position, entry in enumerate(specs):
            if isinstance(entry, Mapping):
                extra = set(entry) - {"name", "spec", "priority", "depends_on"}
                if "name" not in entry or "spec" not in entry or extra:
                    raise ValueError(
                        f"suite spec entry #{position} must be an object with "
                        f"the keys 'name' and 'spec' (plus optional "
                        f"'priority'/'depends_on'), got keys {sorted(entry)}"
                    )
                pairs.append((entry["name"], entry["spec"]))
                if entry.get("priority") is not None:
                    inline_priorities[entry["name"]] = entry["priority"]
                if entry.get("depends_on"):
                    depends = entry["depends_on"]
                    if isinstance(depends, str) or not isinstance(
                        depends, Sequence
                    ):
                        raise ValueError(
                            f"suite spec entry #{position}: depends_on must "
                            f"be a list of member names, got {depends!r}"
                        )
                    inline_depends[entry["name"]] = tuple(depends)
            elif isinstance(entry, (list, tuple)) and len(entry) == 2:
                pairs.append((entry[0], entry[1]))
            else:
                raise ValueError(
                    f"suite spec entry #{position} must be a (name, spec) "
                    f"pair or a {{'name', 'spec'}} object, got {entry!r}"
                )
    else:
        raise TypeError(
            f"specs must be a mapping or sequence of named StudySpecs, got "
            f"{type(specs).__name__}"
        )
    if not pairs:
        raise ValueError("a suite must contain at least one spec")
    normalized: List[Tuple[str, StudySpec]] = []
    seen = set()
    for name, spec in pairs:
        if not isinstance(name, str) or not _NAME_PATTERN.match(name):
            raise ValueError(
                f"invalid suite spec name {name!r}: names must match "
                f"{_NAME_PATTERN.pattern}"
            )
        if name in seen:
            raise ValueError(f"duplicate suite spec name {name!r}")
        seen.add(name)
        if isinstance(spec, Mapping) and not isinstance(spec, StudySpec):
            try:
                spec = StudySpec.from_dict(spec)
            except (TypeError, ValueError) as error:
                raise ValueError(f"suite spec {name!r}: {error}") from error
        if not isinstance(spec, StudySpec):
            raise TypeError(
                f"suite spec {name!r} must be a StudySpec or its dict form, "
                f"got {type(spec).__name__}"
            )
        normalized.append((name, spec))
    return tuple(normalized), inline_priorities, inline_depends


def _normalize_priorities(
    declared: Any, inline: Mapping[str, int], members: Sequence[str]
) -> "MappingProxyType[str, int]":
    """Merge field-style and manifest-inline priorities into one canonical
    mapping (member order, zero entries dropped so equality is stable)."""
    if not isinstance(declared, Mapping):
        raise TypeError(
            f"priorities must be a mapping of member name -> int, got "
            f"{type(declared).__name__}"
        )
    overlap = set(declared) & set(inline)
    if overlap:
        raise ValueError(
            f"priority for {sorted(overlap)} given both inline in the specs "
            f"entries and in the priorities field; pick one place"
        )
    merged = {**dict(declared), **dict(inline)}
    known = set(members)
    canonical: Dict[str, int] = {}
    for name in members:
        if name not in merged:
            continue
        value = merged.pop(name)
        if isinstance(value, bool) or not isinstance(value, int):
            raise ValueError(
                f"suite spec {name!r}: priority must be an int, got {value!r}"
            )
        if value != 0:  # zero is the default; dropping it keeps to_dict canonical
            canonical[name] = int(value)
    unknown = [name for name in merged if name not in known]
    if unknown:
        raise ValueError(
            f"priorities reference unknown suite members {sorted(unknown)}; "
            f"members: {list(members)}"
        )
    return MappingProxyType(canonical)


def _normalize_depends_on(
    declared: Any, inline: Mapping[str, Tuple[str, ...]], members: Sequence[str]
) -> "MappingProxyType[str, Tuple[str, ...]]":
    """Merge field-style and manifest-inline dependency edges into one
    canonical mapping (member order, duplicate edges deduped, empty edge
    lists dropped).  Unknown targets are structural errors; cycle
    detection is deferred to :meth:`SuiteSpec.validate`."""
    if not isinstance(declared, Mapping):
        raise TypeError(
            f"depends_on must be a mapping of member name -> list of member "
            f"names, got {type(declared).__name__}"
        )
    overlap = set(declared) & set(inline)
    if overlap:
        raise ValueError(
            f"depends_on for {sorted(overlap)} given both inline in the specs "
            f"entries and in the depends_on field; pick one place"
        )
    merged = {**dict(declared), **dict(inline)}
    known = set(members)
    unknown_members = [name for name in merged if name not in known]
    if unknown_members:
        raise ValueError(
            f"depends_on references unknown suite members "
            f"{sorted(unknown_members)}; members: {list(members)}"
        )
    canonical: Dict[str, Tuple[str, ...]] = {}
    for name in members:
        if name not in merged:
            continue
        edges = merged[name]
        if isinstance(edges, str) or not isinstance(edges, Sequence):
            raise ValueError(
                f"suite spec {name!r}: depends_on must be a list of member "
                f"names, got {edges!r}"
            )
        deduped: List[str] = []
        for target in edges:
            if target not in known:
                raise ValueError(
                    f"suite spec {name!r}: depends on unknown member "
                    f"{target!r}; members: {list(members)}"
                )
            if target not in deduped:
                deduped.append(target)
        if deduped:
            canonical[name] = tuple(deduped)
    return MappingProxyType(canonical)


@dataclass(frozen=True)
class SuiteSpec:
    """Immutable, JSON-round-trippable manifest of a whole figure suite.

    One suite names an ordered list of :class:`StudySpec` runs plus the
    session configuration they share — so a single JSON file drives, say,
    every study behind Figures 1–5 through one cache and one executor
    (``python -m repro suite manifest.json``).

    Parameters
    ----------
    name:
        Suite identity (filesystem-safe; resume records live under it).
    specs:
        The member studies, in canonical order: a mapping
        ``{name: StudySpec}``, a sequence of ``(name, spec)`` pairs, or
        the JSON manifest form (a list of ``{"name", "spec"}`` objects).
        Names are unique and filesystem-safe.
    n_jobs, backend:
        Session defaults inherited by every member spec that does not set
        its own (``None`` keeps the Session's built-in defaults).
    cache_dir:
        Shared per-key measurement store.  All member studies write
        through to (and replay from) this directory, and suite resume
        records are kept under ``<cache_dir>/suites/<name>/``.
    max_store_bytes, max_store_entries:
        Garbage-collection budgets for the ``cache_dir`` object tree,
        enforced LRU-by-last-use after every write-through (see
        :meth:`repro.engine.cache.FileStore.gc`).
    priorities:
        Optional ``{member_name: int}`` scheduling weights.  Higher
        priority members run first (both the in-process
        :meth:`~repro.api.session.Session.run_suite` fan-out and the
        distributed work queue honor them); omitted members default to 0
        and keep their manifest position as the tie-break.  May also be
        written inline in the JSON manifest as a per-entry ``"priority"``
        key.
    depends_on:
        Optional ``{member_name: [member_name, ...]}`` dependency edges: a
        member never starts before every member it depends on has
        completed.  Cycles are rejected by :meth:`validate` (naming the
        offending member); unknown dependency targets are rejected at
        construction.  May also be written inline in the JSON manifest as
        a per-entry ``"depends_on"`` list.
    """

    name: str
    specs: Tuple[Tuple[str, StudySpec], ...]
    n_jobs: Optional[int] = None
    backend: Optional[str] = None
    cache_dir: Optional[str] = None
    max_store_bytes: Optional[int] = None
    max_store_entries: Optional[int] = None
    priorities: Mapping[str, int] = field(default_factory=dict)
    depends_on: Mapping[str, Tuple[str, ...]] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not isinstance(self.name, str) or not _NAME_PATTERN.match(self.name):
            raise ValueError(
                f"invalid suite name {self.name!r}: names must match "
                f"{_NAME_PATTERN.pattern}"
            )
        pairs, inline_priorities, inline_depends = _normalize_suite_specs(
            self.specs
        )
        object.__setattr__(self, "specs", pairs)
        members = [name for name, _ in pairs]
        object.__setattr__(
            self,
            "priorities",
            _normalize_priorities(self.priorities, inline_priorities, members),
        )
        object.__setattr__(
            self,
            "depends_on",
            _normalize_depends_on(self.depends_on, inline_depends, members),
        )
        if self.n_jobs is not None:
            if isinstance(self.n_jobs, bool) or not isinstance(self.n_jobs, int):
                raise TypeError("n_jobs must be an int or None")
        if self.backend is not None and self.backend not in VALID_BACKENDS:
            raise ValueError(
                f"backend must be one of {VALID_BACKENDS} or None, got "
                f"{self.backend!r}"
            )
        if self.cache_dir is not None and not isinstance(self.cache_dir, str):
            raise TypeError("cache_dir must be a path string or None")
        for attribute in ("max_store_bytes", "max_store_entries"):
            value = getattr(self, attribute)
            if value is None:
                continue
            if isinstance(value, bool) or not isinstance(value, int) or value < 1:
                raise ValueError(
                    f"{attribute} must be a positive integer or None, got "
                    f"{value!r}"
                )
            if self.cache_dir is None:
                raise ValueError(
                    f"{attribute} bounds the on-disk object tree and "
                    f"therefore requires cache_dir"
                )

    def __hash__(self) -> int:
        return hash((self.name, json.dumps(self.to_dict(), sort_keys=True)))

    # ------------------------------------------------------------------
    # Container protocol
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self.specs)

    def __iter__(self) -> Iterator[Tuple[str, StudySpec]]:
        return iter(self.specs)

    def __getitem__(self, name: str) -> StudySpec:
        for spec_name, spec in self.specs:
            if spec_name == name:
                return spec
        raise KeyError(
            f"suite {self.name!r} has no spec {name!r}; members: {self.names}"
        )

    @property
    def names(self) -> List[str]:
        """Member spec names, in canonical (manifest) order."""
        return [name for name, _ in self.specs]

    # ------------------------------------------------------------------
    # Derivation and validation
    # ------------------------------------------------------------------
    def replace(self, **changes: Any) -> "SuiteSpec":
        """Return a copy with some fields replaced (re-validated)."""
        return dataclasses.replace(self, **changes)

    def validate(self) -> None:
        """Check every member against the study registry.

        Raises :class:`ValueError` naming the offending member when a spec
        references an unknown study or passes parameters its driver does
        not accept — so a malformed manifest fails before any study runs.
        ``depends_on`` cycles are rejected here too, naming the first
        member (in manifest order) caught in one.
        """
        from repro.api.registry import get_study  # local: avoid cycle

        for name, spec in self.specs:
            try:
                get_study(spec.study).validate_params(spec.params)
            except (KeyError, ValueError) as error:
                message = error.args[0] if error.args else error
                raise ValueError(f"suite spec {name!r}: {message}") from error
        self.schedule_order()  # raises on dependency cycles

    def schedule_order(self) -> List[str]:
        """Member names in execution order: dependencies first, then
        priority (higher first), manifest position as the tie-break.

        The same order drives the in-process
        :meth:`~repro.api.session.Session.run_suite` fan-out and the
        enqueue order of the distributed work queue, so scheduling policy
        lives in exactly one place.  Raises :class:`ValueError` naming a
        member caught in a ``depends_on`` cycle.
        """
        position = {name: index for index, (name, _) in enumerate(self.specs)}
        blocking = {
            name: set(self.depends_on.get(name, ())) for name in position
        }
        dependents: Dict[str, List[str]] = {name: [] for name in position}
        for name, edges in blocking.items():
            for target in edges:
                dependents[target].append(name)
        # Min-heap keyed by (-priority, manifest position): among members
        # whose dependencies are all scheduled, the highest-priority
        # earliest-declared member runs next — a deterministic topological
        # order, never influenced by dict iteration or scheduling.
        ready = [
            (-self.priorities.get(name, 0), index, name)
            for name, index in position.items()
            if not blocking[name]
        ]
        heapq.heapify(ready)
        order: List[str] = []
        while ready:
            _, _, name = heapq.heappop(ready)
            order.append(name)
            for dependent in dependents[name]:
                blocking[dependent].discard(name)
                if not blocking[dependent]:
                    heapq.heappush(
                        ready,
                        (
                            -self.priorities.get(dependent, 0),
                            position[dependent],
                            dependent,
                        ),
                    )
        if len(order) != len(position):
            stuck = min(
                (name for name in position if name not in set(order)),
                key=position.__getitem__,
            )
            cycle = [stuck]
            cursor = stuck
            while True:
                cursor = min(blocking[cursor], key=position.__getitem__)
                if cursor in cycle:
                    cycle = cycle[cycle.index(cursor):]
                    break
                cycle.append(cursor)
            path = " -> ".join(cycle + [cycle[0]])
            raise ValueError(
                f"suite spec {stuck!r}: dependency cycle {path}"
            )
        return order

    # ------------------------------------------------------------------
    # Serialization
    # ------------------------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        """Plain-dict manifest form, suitable for ``json`` dumping.

        Scheduling metadata serializes *inline* — each member entry gains
        ``"priority"``/``"depends_on"`` keys when set — so a manifest
        reads as one list of members and the round-trip through
        :meth:`from_dict` is lossless either way it was declared.
        """
        entries: List[Dict[str, Any]] = []
        for name, spec in self.specs:
            entry: Dict[str, Any] = {"name": name, "spec": spec.to_dict()}
            if name in self.priorities:
                entry["priority"] = self.priorities[name]
            if name in self.depends_on:
                entry["depends_on"] = list(self.depends_on[name])
            entries.append(entry)
        return {
            "name": self.name,
            "specs": entries,
            "n_jobs": self.n_jobs,
            "backend": self.backend,
            "cache_dir": self.cache_dir,
            "max_store_bytes": self.max_store_bytes,
            "max_store_entries": self.max_store_entries,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "SuiteSpec":
        """Rebuild a suite from :meth:`to_dict` output (extra keys rejected)."""
        if not isinstance(data, Mapping):
            raise TypeError(
                f"a suite manifest must be a JSON object, got "
                f"{type(data).__name__}"
            )
        known = {f.name for f in dataclasses.fields(cls)}
        unknown = set(data) - known
        if unknown:
            raise ValueError(
                f"unknown SuiteSpec fields {sorted(unknown)}; valid fields "
                f"are {sorted(known)}"
            )
        missing = {"name", "specs"} - set(data)
        if missing:
            raise ValueError(f"suite manifest is missing {sorted(missing)}")
        return cls(**dict(data))

    def to_json(self, *, indent: Optional[int] = None) -> str:
        """JSON manifest; ``SuiteSpec.from_json`` inverts it losslessly."""
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    @classmethod
    def from_json(cls, payload: str) -> "SuiteSpec":
        """Parse a suite from :meth:`to_json` (or hand-written) JSON."""
        return cls.from_dict(json.loads(payload))
