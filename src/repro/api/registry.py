"""Registry of every experiment driver behind one declarative name.

Each ``run_*_study`` driver registers itself with :func:`register_study`,
attaching the metadata a front door needs: which paper figure/table the
study reproduces, which parameters control its size, a tiny smoke-scale
parameter set (used by CI and the API tests), which parameter the work
queue can shard a suite member along, and the benchmark script that
regenerates the artefact at paper-like scale.

The registry is the single source of truth consumed by
:class:`~repro.api.session.Session`, ``EXPERIMENTS.md`` and the test
suite's completeness checks::

    from repro.api import list_studies, get_study

    for name in list_studies():
        info = get_study(name)
        print(f"{name:15s} {info.artefact:12s} {info.benchmark}")
"""

from __future__ import annotations

import inspect
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable, Dict, List, Mapping, Optional, Tuple

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.api.spec import StudySpec, SuiteSpec

__all__ = [
    "StudyInfo",
    "register_study",
    "get_study",
    "list_studies",
    "iter_studies",
    "smoke_suite",
]

#: Execution knobs injected by the Session rather than carried in
#: ``StudySpec.params``; every registered driver accepts all of them.
ENGINE_PARAMS = ("n_jobs", "backend", "cache", "executor", "random_state")


@dataclass(frozen=True)
class StudyInfo:
    """Metadata describing one registered study driver.

    Attributes
    ----------
    name:
        Registry name used in :class:`~repro.api.spec.StudySpec`.
    func:
        The underlying ``run_*_study`` callable.
    artefact:
        Paper figure/table the study reproduces (e.g. ``"Figure 1"``).
    description:
        One-line summary (defaults to the driver docstring's first line).
    size_params:
        Parameter names that scale the study up or down.
    smoke_params:
        Tiny-scale parameters that finish in seconds — what CI smoke runs
        and the API equivalence tests use.
    shard_param:
        Name of a list-valued parameter a suite member may be split along,
        one task per element (``repro suite --distributed
        --shard-members``; ``None`` when the study has no natural shard
        axis).
    benchmark:
        Benchmark script regenerating the artefact at larger scale.
    """

    name: str
    func: Callable[..., Any]
    artefact: str
    description: str = ""
    size_params: Tuple[str, ...] = ()
    smoke_params: Mapping[str, Any] = field(default_factory=dict)
    shard_param: Optional[str] = None
    benchmark: str = ""

    def valid_params(self) -> Tuple[str, ...]:
        """Names of all keyword parameters the driver accepts."""
        signature = inspect.signature(self.func)
        return tuple(
            name
            for name, parameter in signature.parameters.items()
            if parameter.kind
            in (parameter.POSITIONAL_OR_KEYWORD, parameter.KEYWORD_ONLY)
        )

    def to_dict(self) -> Dict[str, Any]:
        """JSON-safe registry entry — the machine-readable catalogue
        behind ``python -m repro list --json`` and the study service's
        ``GET /v1/studies``, so clients discover studies (and their shard
        axes and smoke parameters) without scraping text output."""
        return {
            "name": self.name,
            "artefact": self.artefact,
            "description": self.description,
            "size_params": list(self.size_params),
            "smoke_params": dict(self.smoke_params),
            "shard_param": self.shard_param,
            "benchmark": self.benchmark,
        }

    def smoke_spec(self, *, random_state: Optional[int] = 7) -> "StudySpec":
        """A tiny-scale :class:`~repro.api.spec.StudySpec` for this study.

        Uses the registered ``smoke_params`` — the same configuration the
        CI smoke benches and the API equivalence tests run — so the spec
        finishes in seconds while still exercising the full driver path.
        """
        from repro.api.spec import StudySpec  # local: avoid cycle

        return StudySpec(
            study=self.name,
            params=dict(self.smoke_params),
            random_state=random_state,
        )

    def validate_params(self, params: Mapping[str, Any]) -> None:
        """Reject parameter names the driver does not accept.

        Engine knobs (``n_jobs``, ``cache``, ...) are also rejected here:
        they belong on the :class:`~repro.api.spec.StudySpec` itself, not
        in ``params``, so a spec cannot silently override the session's
        execution policy.
        """
        valid = set(self.valid_params()) - set(ENGINE_PARAMS)
        misplaced = [name for name in params if name in ENGINE_PARAMS]
        if misplaced:
            raise ValueError(
                f"engine knobs {sorted(misplaced)} must be set as StudySpec "
                f"fields, not inside params"
            )
        unknown = [name for name in params if name not in valid]
        if unknown:
            raise ValueError(
                f"study {self.name!r} does not accept parameters "
                f"{sorted(unknown)}; valid parameters: {sorted(valid)}"
            )


_REGISTRY: Dict[str, StudyInfo] = {}


def register_study(
    name: str,
    *,
    artefact: str,
    description: Optional[str] = None,
    size_params: Tuple[str, ...] = (),
    smoke_params: Optional[Mapping[str, Any]] = None,
    shard_param: Optional[str] = None,
    benchmark: str = "",
) -> Callable[[Callable], Callable]:
    """Class decorator registering a study driver under ``name``.

    The driver itself is returned unchanged — registration is metadata
    only, so direct calls to ``run_*_study`` keep working exactly as
    before the registry existed.
    """

    def decorator(func: Callable) -> Callable:
        if name in _REGISTRY and _REGISTRY[name].func is not func:
            raise ValueError(f"study name {name!r} is already registered")
        doc = (inspect.getdoc(func) or "").strip().splitlines()
        info = StudyInfo(
            name=name,
            func=func,
            artefact=artefact,
            description=description or (doc[0] if doc else ""),
            size_params=tuple(size_params),
            smoke_params=dict(smoke_params or {}),
            shard_param=shard_param,
            benchmark=benchmark,
        )
        missing = [k for k in ENGINE_PARAMS if k not in info.valid_params()]
        if missing:
            raise TypeError(
                f"driver {func.__name__} cannot be registered: it does not "
                f"accept the uniform engine parameters {missing}"
            )
        if shard_param is not None and shard_param not in info.valid_params():
            raise TypeError(
                f"driver {func.__name__} has no parameter {shard_param!r} to shard on"
            )
        _REGISTRY[name] = info
        return func

    return decorator


def _ensure_registered() -> None:
    """Import the experiment layer so its decorators have run."""
    import repro.experiments  # noqa: F401  (import triggers registration)


def get_study(name: str) -> StudyInfo:
    """Look up a registered study, with a helpful error for typos."""
    _ensure_registered()
    try:
        return _REGISTRY[name]
    except KeyError:
        raise KeyError(
            f"unknown study {name!r}; registered studies: {list_studies()}"
        ) from None


def list_studies() -> List[str]:
    """Sorted names of every registered study."""
    _ensure_registered()
    return sorted(_REGISTRY)


def iter_studies() -> List[StudyInfo]:
    """Every registered :class:`StudyInfo`, sorted by name."""
    _ensure_registered()
    return [_REGISTRY[name] for name in sorted(_REGISTRY)]


def smoke_suite(
    name: str = "smoke",
    *,
    random_state: Optional[int] = 7,
    **config: Any,
) -> "SuiteSpec":
    """A suite manifest running every registered study at smoke scale.

    One member per registry entry, each at its ``smoke_params``
    configuration — the whole-catalogue plumbing check CI runs against a
    budgeted shared store::

        python -c "from repro.api import smoke_suite; \\
                   print(smoke_suite(cache_dir='.repro-cache',
                                     max_store_bytes=64 << 20).to_json())"

    ``config`` forwards to :class:`~repro.api.spec.SuiteSpec` (``n_jobs``,
    ``backend``, ``cache_dir``, store budgets).
    """
    from repro.api.spec import SuiteSpec  # local: avoid cycle

    return SuiteSpec(
        name=name,
        specs=[
            (info.name, info.smoke_spec(random_state=random_state))
            for info in iter_studies()
        ],
        **config,
    )
