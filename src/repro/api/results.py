"""Uniform result envelope for every study: :class:`StudyResult`.

Each experiment driver returns its own result dataclass
(``VarianceStudyResult``, ``DetectionStudyResult``, ...) with
study-specific attributes plus the two shared methods ``rows()`` and
``report()``.  :class:`StudyResult` adapts any of them behind one
interface so benchmarks, examples and downstream tooling consume a single
shape:

* :meth:`to_rows` — the flat row dicts of the paper artefact;
* :meth:`summary` — human-readable report with provenance header;
* :meth:`to_json` — rows + spec + engine statistics, JSON-encoded.

The underlying result object stays reachable as ``.raw`` (and attribute
access transparently falls through to it), so study-specific analysis
never has to leave the unified API.  Merged shard results (a suite member
the work queue's coordinator ran as ``shard_members`` shards) expose only
the uniform interface; their study-specific attributes live on the
per-shard results under ``.raw.parts``.
"""

from __future__ import annotations

import json
from collections import OrderedDict
from typing import (
    TYPE_CHECKING,
    Any,
    Dict,
    Iterator,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.api.spec import StudySpec, SuiteSpec

__all__ = ["StudyResult", "SuiteResult", "merge_results"]


def _jsonable(value: Any) -> Any:
    """Recursively convert numpy scalars/arrays so ``json`` can encode them."""
    if isinstance(value, np.ndarray):
        return [_jsonable(v) for v in value.tolist()]
    if isinstance(value, (np.bool_,)):
        return bool(value)
    if isinstance(value, np.integer):
        return int(value)
    if isinstance(value, np.floating):
        return float(value)
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    return value


class StudyResult:
    """Adapter giving every study result one uniform interface.

    Parameters
    ----------
    raw:
        The driver's native result object (must expose ``rows()`` and
        ``report()``).
    spec:
        The :class:`~repro.api.spec.StudySpec` that produced it (optional
        for ad-hoc adaptation of a bare result object).
    artefact:
        Paper figure/table label, from the registry.
    elapsed_seconds:
        Wall-clock time of the run.
    cache_stats:
        Snapshot delta of the session cache counters over this run.
    """

    def __init__(
        self,
        raw: Any,
        *,
        spec: Optional["StudySpec"] = None,
        artefact: str = "",
        elapsed_seconds: float = float("nan"),
        cache_stats: Optional[Dict[str, float]] = None,
        replayed: bool = False,
    ) -> None:
        for required in ("rows", "report"):
            if not callable(getattr(raw, required, None)):
                raise TypeError(
                    f"raw result {type(raw).__name__} does not implement "
                    f"{required}(); cannot adapt it into a StudyResult"
                )
        self.raw = raw
        self.spec = spec
        self.artefact = artefact
        self.elapsed_seconds = elapsed_seconds
        self.cache_stats = dict(cache_stats or {})
        self._replayed = bool(replayed)

    def __getattr__(self, name: str) -> Any:
        # Fall through to the native result so study-specific attributes
        # (e.g. ``.decompositions``, ``.curves``) remain one hop away.
        # __getattr__ only fires for names not found on StudyResult itself.
        return getattr(self.raw, name)

    def __repr__(self) -> str:
        study = self.spec.study if self.spec is not None else type(self.raw).__name__
        return f"StudyResult(study={study!r}, rows={len(self.to_rows())})"

    # ------------------------------------------------------------------
    # The uniform protocol
    # ------------------------------------------------------------------
    def to_rows(self) -> List[dict]:
        """Flat row dicts of the paper artefact (one per figure point)."""
        return list(self.raw.rows())

    def summary(self) -> str:
        """Human-readable report prefixed with a provenance header."""
        header_parts = []
        if self.spec is not None:
            header_parts.append(f"study={self.spec.study}")
        if self.artefact:
            header_parts.append(f"artefact={self.artefact}")
        if np.isfinite(self.elapsed_seconds):
            header_parts.append(f"elapsed={self.elapsed_seconds:.2f}s")
        if self.cache_stats:
            header_parts.append(
                f"cache hits/misses={self.cache_stats.get('hits', 0)}"
                f"/{self.cache_stats.get('misses', 0)}"
            )
            if "evictions" in self.cache_stats:
                header_parts.append(
                    f"evictions={self.cache_stats.get('evictions', 0)}"
                )
        header = f"[{', '.join(header_parts)}]\n" if header_parts else ""
        return header + self.raw.report()

    def to_json(self, *, indent: Optional[int] = None) -> str:
        """Rows plus provenance (spec, timing, cache stats) as JSON."""
        payload = {
            "study": self.spec.study if self.spec is not None else None,
            "artefact": self.artefact or None,
            "spec": self.spec.to_dict() if self.spec is not None else None,
            "elapsed_seconds": (
                self.elapsed_seconds if np.isfinite(self.elapsed_seconds) else None
            ),
            "cache_stats": _jsonable(self.cache_stats) or None,
            "rows": _jsonable(self.to_rows()),
        }
        return json.dumps(payload, indent=indent, sort_keys=True)

    # ------------------------------------------------------------------
    # Resume records (suite manifests)
    # ------------------------------------------------------------------
    @property
    def replayed(self) -> bool:
        """True when this result was loaded from a suite resume record
        rather than executed (see :meth:`from_record`).

        Purely the constructor flag: a distributed member adapted from a
        worker's committed record with ``replayed=False`` was genuinely
        executed and must not read as a replay, even when its native
        result didn't survive pickling and rows replay from the record.
        """
        return self._replayed

    def to_record(self) -> Dict[str, Any]:
        """JSON-safe completion record for suite resume.

        Captures everything :meth:`from_record` needs to stand in for this
        result without re-running the study: the spec (resume invalidates
        on any change), the artefact rows and the rendered report.  JSON
        float round-trips are lossless (shortest-repr), so replayed rows
        compare bitwise-equal to freshly computed ones.
        """
        return {
            "record": 1,
            "study": self.spec.study if self.spec is not None else None,
            "spec": self.spec.to_dict() if self.spec is not None else None,
            "artefact": self.artefact,
            "elapsed_seconds": (
                self.elapsed_seconds if np.isfinite(self.elapsed_seconds) else None
            ),
            "cache_stats": _jsonable(self.cache_stats),
            "rows": _jsonable(self.to_rows()),
            "report": self.raw.report(),
        }

    @classmethod
    def from_record(
        cls,
        record: Mapping[str, Any],
        *,
        raw: Any = None,
        replayed: bool = True,
    ) -> "StudyResult":
        """Rebuild a result from :meth:`to_record` output.

        By default the returned result replays the recorded rows and
        report without touching the engine; ``replayed`` is true,
        ``elapsed_seconds`` is 0 (nothing ran) and ``cache_stats`` is
        empty (no lookups happened — a resumed spec contributes zero hits
        *and* zero misses).

        ``raw`` restores *full fidelity*: pass the driver's native result
        object (e.g. unpickled from the ``.raw.pkl`` written alongside the
        record) and study-specific attributes survive the round-trip
        instead of degrading to rows + report.  ``replayed=False`` marks a
        result that was genuinely executed elsewhere — how the distributed
        coordinator adapts worker-committed records without tagging them
        as resume replays.
        """
        from repro.api.spec import StudySpec  # local: results <- spec only here

        spec = None
        if record.get("spec") is not None:
            spec = StudySpec.from_dict(record["spec"])
        if raw is None:
            raw = _ReplayedRaw(
                record.get("rows") or [], record.get("report") or ""
            )
        elapsed = record.get("elapsed_seconds") if not replayed else 0.0
        return cls(
            raw,
            spec=spec,
            artefact=record.get("artefact") or "",
            elapsed_seconds=float(elapsed) if elapsed is not None else 0.0,
            cache_stats={} if replayed else dict(record.get("cache_stats") or {}),
            replayed=replayed,
        )


class _ReplayedRaw:
    """Native-result stand-in for a suite resume record: recorded rows and
    report text, replayed verbatim (study-specific attributes are gone —
    re-run the spec without ``--resume`` to recompute them)."""

    __slots__ = ("_rows", "_report")

    def __init__(self, rows: Sequence[Mapping[str, Any]], report: str) -> None:
        self._rows = [dict(row) for row in rows]
        self._report = report

    def rows(self) -> List[dict]:
        return [dict(row) for row in self._rows]

    def report(self) -> str:
        return self._report


class _MergedRaw:
    """Native-result stand-in concatenating several shard results.

    Study-specific attributes cannot be merged generically, so they stay
    on the per-shard results, reachable through ``.parts``.
    """

    def __init__(self, parts: Sequence[Any]) -> None:
        self.parts = list(parts)

    def rows(self) -> List[dict]:
        rows: List[dict] = []
        for part in self.parts:
            rows.extend(part.rows())
        return rows

    def report(self) -> str:
        return "\n\n".join(part.report() for part in self.parts)

    def __getattr__(self, name: str) -> Any:
        raise AttributeError(
            f"merged result of {len(self.parts)} shards has no attribute "
            f"{name!r}; study-specific attributes live on the per-shard "
            f"results — access them via .parts (e.g. result.parts[0].{name})"
        )


def merge_results(
    results: Sequence[StudyResult],
    *,
    spec: Optional["StudySpec"] = None,
) -> StudyResult:
    """Merge per-shard results into one, in the order given.

    Rows concatenate in that order (the spec's shard order, however the
    shards were scheduled); timings sum; cache-stat counters sum.  One
    result is returned as it is.
    """
    if not results:
        raise ValueError("no shard results to merge")
    if len(results) == 1:
        return results[0]
    cache_stats: Dict[str, float] = {}
    for result in results:
        for key, value in result.cache_stats.items():
            if key == "entries":  # a snapshot, not a counter: don't sum
                cache_stats[key] = max(cache_stats.get(key, 0), value)
            else:
                cache_stats[key] = cache_stats.get(key, 0) + value
    elapsed = float(sum(r.elapsed_seconds for r in results))
    return StudyResult(
        _MergedRaw([r.raw for r in results]),
        spec=spec if spec is not None else results[0].spec,
        artefact=results[0].artefact,
        elapsed_seconds=elapsed,
        cache_stats=cache_stats,
    )


class SuiteResult:
    """Envelope over one suite run: per-spec results plus aggregates.

    Results are keyed by their manifest names, in canonical (manifest)
    order regardless of completion interleaving.  ``cache_stats``
    aggregates the per-spec engine counters (a replayed spec contributes
    zero lookups), ``cache`` snapshots the shared session cache at
    completion, and :meth:`to_json` renders the full output manifest —
    rows, provenance and timing for every member study.
    """

    def __init__(
        self,
        suite: "SuiteSpec",
        results: "Mapping[str, StudyResult]",
        *,
        elapsed_seconds: float = float("nan"),
        cache: Optional[Mapping[str, Any]] = None,
    ) -> None:
        self.suite = suite
        self.results: "OrderedDict[str, StudyResult]" = OrderedDict(
            (name, results[name]) for name in suite.names
        )
        self.elapsed_seconds = elapsed_seconds
        self.cache = dict(cache or {})

    # ------------------------------------------------------------------
    # Container protocol
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self.results)

    def __iter__(self) -> Iterator[Tuple[str, StudyResult]]:
        return iter(self.results.items())

    def __getitem__(self, name: str) -> StudyResult:
        return self.results[name]

    def __repr__(self) -> str:
        return (
            f"SuiteResult(suite={self.suite.name!r}, specs={len(self)}, "
            f"replayed={len(self.replayed)})"
        )

    @property
    def names(self) -> List[str]:
        """Member names in canonical manifest order."""
        return list(self.results)

    @property
    def replayed(self) -> List[str]:
        """Names of the members replayed from resume records (not run)."""
        return [name for name, result in self.results.items() if result.replayed]

    @property
    def cache_stats(self) -> Dict[str, float]:
        """Per-spec engine counters summed across the suite."""
        totals: Dict[str, float] = {}
        for result in self.results.values():
            for key, value in result.cache_stats.items():
                if key == "entries":  # snapshot, not a counter
                    totals[key] = max(totals.get(key, 0), value)
                else:
                    totals[key] = totals.get(key, 0) + value
        return totals

    # ------------------------------------------------------------------
    # The uniform protocol
    # ------------------------------------------------------------------
    def summary(self) -> str:
        """Suite header plus every member's provenance-tagged report."""
        totals = self.cache_stats
        header = (
            f"[suite={self.suite.name}, specs={len(self)}, "
            f"replayed={len(self.replayed)}"
        )
        if np.isfinite(self.elapsed_seconds):
            header += f", elapsed={self.elapsed_seconds:.2f}s"
        if totals:
            header += (
                f", cache hits/misses={int(totals.get('hits', 0))}"
                f"/{int(totals.get('misses', 0))}"
            )
        header += "]"
        blocks = [header]
        for name, result in self.results.items():
            tag = " (replayed)" if result.replayed else ""
            blocks.append(f"== {name}{tag} ==\n{result.summary()}")
        return "\n\n".join(blocks)

    def to_json(self, *, indent: Optional[int] = None) -> str:
        """The output manifest: suite provenance + every member's record."""
        payload = {
            "suite": self.suite.to_dict(),
            "elapsed_seconds": (
                self.elapsed_seconds if np.isfinite(self.elapsed_seconds) else None
            ),
            "cache": _jsonable(self.cache) or None,
            "cache_stats": _jsonable(self.cache_stats) or None,
            "replayed": self.replayed,
            "results": [
                dict(result.to_record(), name=name)
                for name, result in self.results.items()
            ],
        }
        return json.dumps(payload, indent=indent, sort_keys=True)
