"""Unified Study API: the declarative front door to every experiment.

The paper's thesis is that benchmark conclusions should come from one
principled, repeatable procedure.  This package gives the codebase the
same property: every experiment behind every figure/table of the paper is
launched the same way —

* :mod:`repro.api.spec` — :class:`StudySpec`, a frozen, validated,
  JSON-round-trippable description of one study run, and
  :class:`SuiteSpec`, the manifest form of a whole figure suite;
* :mod:`repro.api.registry` — :func:`register_study` metadata registry
  over the ten ``run_*_study`` drivers (:func:`list_studies`,
  :func:`get_study`, :func:`smoke_suite`);
* :mod:`repro.api.session` — :class:`Session`, the facade owning one
  shared measurement cache and executor across studies, with
  :meth:`~Session.run`, the one way to run a study, and the in-process
  suite loop :meth:`~Session.run_suite` (a suite shared with
  worker processes runs through
  :class:`~repro.sched.coordinator.Coordinator` instead, see
  :mod:`repro.sched`);
* :mod:`repro.api.results` — :class:`StudyResult` and
  :class:`SuiteResult`, the uniform result envelopes
  (``to_rows`` / ``summary`` / ``to_json``).

Quickstart::

    from repro.api import Session, StudySpec, list_studies

    print(list_studies())
    with Session(n_jobs=4) as session:
        result = session.run(StudySpec(
            study="variance",
            params={"task_names": ["entailment"], "n_seeds": 20},
            random_state=0,
        ))
        print(result.summary())
"""

from repro.api.registry import (
    StudyInfo,
    get_study,
    iter_studies,
    list_studies,
    register_study,
    smoke_suite,
)
from repro.api.results import StudyResult, SuiteResult, merge_results
from repro.api.session import Session
from repro.api.spec import StudySpec, SuiteSpec

__all__ = [
    "StudyInfo",
    "get_study",
    "iter_studies",
    "list_studies",
    "register_study",
    "smoke_suite",
    "StudyResult",
    "SuiteResult",
    "merge_results",
    "Session",
    "StudySpec",
    "SuiteSpec",
]
