"""Tests for suite manifests (SuiteSpec / run_suite).

Covers the workflow-as-data contract end to end:

* ``SuiteSpec`` — validation and the lossless JSON round-trip
  (property-tested over every accepted input shape);
* suite execution — a manifest run through one shared session/cache is
  bitwise-identical to the same specs run individually through
  ``Session.run`` against the same ``cache_dir``, at ``n_jobs`` 1 and 4;
* resume — completed members replay from their records with zero cache
  lookups, a changed spec invalidates its record, and the shared on-disk
  store never exceeds its configured byte budget;
* records — the in-process loop and the queue ``Coordinator`` each write
  and load every member's completion record once;
* the CLI acceptance path: ``python -m repro suite manifest.json`` cold,
  then ``--resume`` with zero misses.
"""

import inspect
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.__main__ import main
from repro.api import (
    Session,
    StudySpec,
    SuiteSpec,
    get_study,
    list_studies,
    smoke_suite,
)
from repro.engine.cache import FileStore, atomic_write
from repro.sched import Coordinator

ALL_STUDIES = list_studies()

# The canonical three-member suite, its store budget and the row
# canonicalizer are shared with test_sched/test_serve via conftest.
from suite_fixtures import STORE_BUDGET, SUITE_MEMBERS, canonical_rows, make_suite


def _make_suite(directory, *, n_jobs=None, members=SUITE_MEMBERS):
    return make_suite(
        directory, members=members, n_jobs=n_jobs, max_store_bytes=STORE_BUDGET
    )


_rows = canonical_rows


# ----------------------------------------------------------------------
# SuiteSpec: round-trip and validation
# ----------------------------------------------------------------------
_names = st.from_regex(r"[A-Za-z0-9][A-Za-z0-9._-]{0,8}", fullmatch=True)

_param_values = st.recursive(
    st.none()
    | st.booleans()
    | st.integers(min_value=-(2**31), max_value=2**31)
    | st.floats(allow_nan=False, allow_infinity=False)
    | st.text(max_size=8),
    lambda children: st.lists(children, max_size=2),
    max_leaves=4,
)

_member_specs = st.builds(
    StudySpec,
    study=st.sampled_from(ALL_STUDIES),
    params=st.dictionaries(st.text(min_size=1, max_size=8), _param_values, max_size=3),
    n_jobs=st.none() | st.integers(min_value=-1, max_value=8),
    backend=st.none() | st.sampled_from(["serial", "thread", "process"]),
    random_state=st.none() | st.integers(min_value=0, max_value=2**31),
)


@st.composite
def _suites(draw):
    members = draw(
        st.dictionaries(_names, _member_specs, min_size=1, max_size=4)
    )
    cache_dir = draw(st.none() | st.just(".cache"))
    budgets = {}
    if cache_dir is not None:
        budgets["max_store_bytes"] = draw(
            st.none() | st.integers(min_value=1, max_value=2**40)
        )
        budgets["max_store_entries"] = draw(
            st.none() | st.integers(min_value=1, max_value=10**6)
        )
    names = list(members)
    priorities = {
        name: draw(
            st.integers(min_value=-5, max_value=5), label=f"priority-{name}"
        )
        for name in names
        if draw(st.booleans(), label=f"has-priority-{name}")
    }
    # Acyclic by construction: members may only depend on earlier ones.
    depends_on = {}
    for index, name in enumerate(names[1:], start=1):
        if draw(st.booleans(), label=f"has-deps-{name}"):
            targets = draw(
                st.lists(
                    st.sampled_from(names[:index]), min_size=1, unique=True
                ),
                label=f"deps-{name}",
            )
            depends_on[name] = targets
    return SuiteSpec(
        name=draw(_names),
        specs=members,
        n_jobs=draw(st.none() | st.integers(min_value=-1, max_value=8)),
        backend=draw(st.none() | st.sampled_from(["serial", "thread", "process"])),
        cache_dir=cache_dir,
        priorities=priorities,
        depends_on=depends_on,
        **budgets,
    )


class TestSuiteSpec:
    @settings(max_examples=150, deadline=None)
    @given(suite=_suites())
    def test_json_round_trip_property(self, suite):
        assert SuiteSpec.from_json(suite.to_json()) == suite
        assert SuiteSpec.from_dict(suite.to_dict()) == suite
        assert json.loads(suite.to_json())["name"] == suite.name

    def test_accepted_input_shapes_are_equivalent(self):
        spec = StudySpec(study="sample_size", params={"gammas": [0.7]})
        from_mapping = SuiteSpec(name="s", specs={"a": spec})
        from_pairs = SuiteSpec(name="s", specs=[("a", spec)])
        from_manifest = SuiteSpec(
            name="s", specs=[{"name": "a", "spec": spec.to_dict()}]
        )
        assert from_mapping == from_pairs == from_manifest

    def test_container_protocol(self):
        suite = _make_suite("d")
        assert len(suite) == 3
        assert suite.names == [name for name, _ in SUITE_MEMBERS]
        assert suite["fig1-variance"].study == "variance"
        assert list(suite) == list(SUITE_MEMBERS)
        with pytest.raises(KeyError, match="members"):
            suite["absent"]

    def test_empty_suite_rejected(self):
        with pytest.raises(ValueError, match="at least one spec"):
            SuiteSpec(name="s", specs=[])

    def test_duplicate_names_rejected(self):
        spec = StudySpec(study="sample_size")
        with pytest.raises(ValueError, match="duplicate"):
            SuiteSpec(name="s", specs=[("a", spec), ("a", spec)])

    def test_unsafe_names_rejected(self):
        spec = StudySpec(study="sample_size")
        for bad in ("", "a/b", "../up", ".hidden", "a b"):
            with pytest.raises(ValueError, match="name"):
                SuiteSpec(name="s", specs=[(bad, spec)])
        with pytest.raises(ValueError, match="suite name"):
            SuiteSpec(name="bad/name", specs=[("a", spec)])

    def test_malformed_entries_rejected_with_position(self):
        with pytest.raises(ValueError, match="entry #0"):
            SuiteSpec(name="s", specs=[{"nome": "a", "spec": {}}])
        with pytest.raises(ValueError, match="entry #1"):
            SuiteSpec(
                name="s",
                specs=[
                    {"name": "a", "spec": {"study": "sample_size"}},
                    42,
                ],
            )

    def test_member_spec_errors_carry_the_member_name(self):
        with pytest.raises(ValueError, match="suite spec 'broken'"):
            SuiteSpec(name="s", specs=[("broken", {"study": ""})])

    def test_unknown_fields_rejected(self):
        with pytest.raises(ValueError, match="unknown SuiteSpec fields"):
            SuiteSpec.from_dict(
                {"name": "s", "specs": [], "jobs": 2}
            )
        with pytest.raises(ValueError, match="missing"):
            SuiteSpec.from_dict({"name": "s"})

    def test_store_budgets_require_cache_dir(self):
        spec = StudySpec(study="sample_size")
        with pytest.raises(ValueError, match="cache_dir"):
            SuiteSpec(name="s", specs=[("a", spec)], max_store_bytes=1024)

    def test_validate_names_offending_member(self):
        suite = SuiteSpec(
            name="s", specs=[("bad", StudySpec(study="nope"))]
        )
        with pytest.raises(ValueError, match="suite spec 'bad'.*unknown study"):
            suite.validate()
        suite = SuiteSpec(
            name="s",
            specs=[("bad", StudySpec(study="variance", params={"bogus": 1}))],
        )
        with pytest.raises(ValueError, match="suite spec 'bad'"):
            suite.validate()

    def test_replace_revalidates(self):
        suite = _make_suite("d")
        assert suite.replace(n_jobs=4).n_jobs == 4
        with pytest.raises(ValueError):
            suite.replace(backend="mpi")

    def test_smoke_suite_covers_every_registered_study(self):
        suite = smoke_suite(cache_dir=".c", max_store_bytes=STORE_BUDGET)
        assert suite.names == ALL_STUDIES
        suite.validate()
        for name, spec in suite:
            assert spec.study == name
            assert dict(spec.params) == dict(get_study(name).smoke_params)


# ----------------------------------------------------------------------
# Suite execution == individual execution, bitwise (the tentpole contract)
# ----------------------------------------------------------------------
class TestSuiteEqualsIndividualRuns:
    @pytest.mark.parametrize("n_jobs", [1, 4])
    def test_suite_matches_individual_runs_bitwise(self, tmp_path, n_jobs):
        directory = tmp_path / "store"
        suite = _make_suite(directory, n_jobs=n_jobs)
        with Session.for_suite(suite) as session:
            suite_result = session.run_suite(suite)
        assert suite_result.names == suite.names
        assert not suite_result.replayed
        # The same specs, run one at a time through plain Session.run
        # against the same cache_dir, must reproduce every row bitwise.
        for name, spec in SUITE_MEMBERS:
            with Session(n_jobs=n_jobs, cache_dir=str(directory)) as session:
                individual = session.run(spec)
            assert _rows(suite_result[name]) == _rows(individual), name
            assert suite_result[name].to_rows(), name
        # The shared store stayed within its configured byte budget.
        assert FileStore(str(directory)).total_bytes <= STORE_BUDGET

    def test_members_share_one_cache(self, tmp_path):
        # Two members with identical measurement work: the second replays
        # the first's measurements from the shared session cache.
        spec = StudySpec(
            study="binomial",
            params={"task_names": ["entailment"], "n_splits": 2, "dataset_size": 150},
            random_state=4,
        )
        suite = SuiteSpec(
            name="twins",
            specs=[("first", spec), ("second", spec.replace())],
            cache_dir=str(tmp_path / "store"),
        )
        with Session.for_suite(suite) as session:
            result = session.run_suite(suite)
        assert result["first"].cache_stats["misses"] > 0
        assert result["second"].cache_stats["misses"] == 0
        assert result["second"].cache_stats["hits"] > 0
        assert _rows(result["first"]) == _rows(result["second"])


# ----------------------------------------------------------------------
# Resume
# ----------------------------------------------------------------------
class TestSuiteResume:
    def test_resume_replays_every_member_with_zero_lookups(self, tmp_path):
        suite = _make_suite(tmp_path / "store")
        with Session.for_suite(suite) as session:
            cold = session.run_suite(suite)
        with Session.for_suite(suite) as session:
            resumed = session.run_suite(suite, resume=True)
        assert resumed.replayed == suite.names
        # Nothing ran, nothing was even looked up: zero misses *and* hits.
        assert resumed.cache_stats.get("misses", 0) == 0
        assert resumed.cache_stats.get("hits", 0) == 0
        for name in suite.names:
            assert resumed[name].replayed
            assert _rows(resumed[name]) == _rows(cold[name]), name

    def test_changed_spec_invalidates_its_record(self, tmp_path):
        suite = _make_suite(tmp_path / "store")
        with Session.for_suite(suite) as session:
            session.run_suite(suite)
        changed = [
            (name, spec.replace(random_state=99) if name == "fig2-binomial" else spec)
            for name, spec in SUITE_MEMBERS
        ]
        suite2 = suite.replace(specs=changed)
        with Session.for_suite(suite2) as session:
            resumed = session.run_suite(suite2, resume=True)
        assert resumed.replayed == ["fig1-variance", "figC1-sample-size"]
        assert not resumed["fig2-binomial"].replayed

    def test_undecodable_record_reruns_only_that_member(self, tmp_path):
        suite = _make_suite(tmp_path / "store")
        with Session.for_suite(suite) as session:
            cold = session.run_suite(suite)
        records = tmp_path / "store" / "suites" / suite.name
        (records / "fig2-binomial.json").write_bytes(b"\xff\xfe\x00\x81 not utf-8")
        with Session.for_suite(suite) as session:
            resumed = session.run_suite(suite, resume=True)
        assert resumed.replayed == ["fig1-variance", "figC1-sample-size"]
        assert _rows(resumed["fig2-binomial"]) == _rows(cold["fig2-binomial"])

    def test_resume_without_cache_dir_rejected(self):
        suite = SuiteSpec(name="s", specs=SUITE_MEMBERS)
        with Session() as session:
            with pytest.raises(ValueError, match="cache_dir"):
                session.run_suite(suite, resume=True)

    def test_progress_events_stream_in_order(self, tmp_path):
        suite = _make_suite(tmp_path / "store")
        events = []
        with Session.for_suite(suite) as session:
            session.run_suite(
                suite,
                progress=lambda event, name, i, total, result: events.append(
                    (event, name, i, total, result is not None)
                ),
            )
        assert events == [
            ("start", "fig1-variance", 0, 3, False),
            ("done", "fig1-variance", 0, 3, True),
            ("start", "fig2-binomial", 1, 3, False),
            ("done", "fig2-binomial", 1, 3, True),
            ("start", "figC1-sample-size", 2, 3, False),
            ("done", "figC1-sample-size", 2, 3, True),
        ]
        with Session.for_suite(suite) as session:
            session.run_suite(
                suite,
                resume=True,
                progress=lambda event, name, *rest: events.append((event, name)),
            )
        assert events[-3:] == [
            ("replay", "fig1-variance"),
            ("replay", "fig2-binomial"),
            ("replay", "figC1-sample-size"),
        ]

    def test_manifest_written_alongside_records(self, tmp_path):
        directory = tmp_path / "store"
        suite = _make_suite(directory)
        with Session.for_suite(suite) as session:
            session.run_suite(suite)
        records = directory / "suites" / suite.name
        for name in suite.names:
            assert (records / f"{name}.json").exists()
        manifest = json.loads((records / "manifest.json").read_text())
        assert [entry["name"] for entry in manifest["results"]] == suite.names

    @pytest.mark.parametrize("executor", ["run", "distributed"])
    def test_every_executor_writes_and_loads_each_record_once(
        self, tmp_path, monkeypatch, executor
    ):
        # The counts perfbench reads as api.record.writes / api.resume.
        writes, loads, manifests = [], [], []
        write, load = Session._write_suite_record, Session._load_suite_result

        def counting_write(records_dir, name, result):
            writes.append(name)
            return write(records_dir, name, result)

        def counting_load(records_dir, name, spec):
            loads.append(name)
            return load(records_dir, name, spec)

        def counting_atomic_write(path, payload):
            if path.endswith("manifest.json"):
                manifests.append(path)
            return atomic_write(path, payload)

        monkeypatch.setattr(
            Session, "_write_suite_record", staticmethod(counting_write)
        )
        monkeypatch.setattr(
            Session, "_load_suite_result", staticmethod(counting_load)
        )
        monkeypatch.setattr(
            "repro.api.session.atomic_write", counting_atomic_write
        )

        def run(suite, resume):
            with Session.for_suite(suite) as session:
                if executor == "distributed":
                    coordinator = Coordinator(session, suite, poll_seconds=0.05)
                    return coordinator.run(resume=resume)
                return session.run_suite(suite, resume=resume)

        suite = _make_suite(tmp_path / "store")
        run(suite, resume=False)
        assert sorted(writes) == sorted(suite.names)
        assert loads == [] and len(manifests) == 1
        resumed = run(suite, resume=True)
        assert sorted(loads) == sorted(suite.names)
        assert sorted(writes) == sorted(suite.names)  # nothing re-written
        assert resumed.replayed == suite.names


# ----------------------------------------------------------------------
# In-process scheduling: priorities and dependencies
# ----------------------------------------------------------------------
class TestInProcessScheduling:
    def test_run_suite_orders_fanout_by_priority(self, tmp_path):
        # The analytic member outranks everything: it runs first even
        # though it is declared last, and results still assemble in
        # canonical manifest order.
        suite = _make_suite(tmp_path / "store").replace(
            priorities={"figC1-sample-size": 10, "fig2-binomial": 5}
        )
        events = []
        with Session.for_suite(suite) as session:
            result = session.run_suite(
                suite,
                progress=lambda event, name, *rest: events.append((event, name)),
            )
        started = [name for event, name in events if event == "start"]
        assert started == ["figC1-sample-size", "fig2-binomial", "fig1-variance"]
        assert result.names == suite.names  # canonical, not execution, order

    def test_run_suite_runs_dependencies_first(self, tmp_path):
        suite = _make_suite(tmp_path / "store").replace(
            priorities={"fig1-variance": 10},
            depends_on={"fig1-variance": ["figC1-sample-size"]},
        )
        events = []
        with Session.for_suite(suite) as session:
            session.run_suite(
                suite,
                progress=lambda event, name, *rest: events.append((event, name)),
            )
        started = [name for event, name in events if event == "start"]
        # Highest priority, but gated on its dependency.
        assert started.index("figC1-sample-size") < started.index(
            "fig1-variance"
        )

    def test_run_suite_takes_no_scheduler_knobs(self, tmp_path):
        # run_suite is only the in-process loop; the queue's one way in
        # is Coordinator, so a scheduler keyword is an error that
        # enqueues nothing.
        suite = _make_suite(tmp_path / "store")
        with Session.for_suite(suite) as session:
            with pytest.raises(TypeError, match="distributed"):
                session.run_suite(suite, distributed=True)
        assert not (tmp_path / "store" / "queue").exists()
        parameters = inspect.signature(Session.run_suite).parameters
        assert list(parameters) == ["self", "suite", "resume", "progress"]
        assert parameters["resume"].kind is inspect.Parameter.KEYWORD_ONLY
        assert parameters["progress"].kind is inspect.Parameter.KEYWORD_ONLY

    def test_bitwise_identical_regardless_of_scheduling(self, tmp_path):
        plain = _make_suite(tmp_path / "a")
        scheduled = _make_suite(tmp_path / "b").replace(
            priorities={"figC1-sample-size": 3},
            depends_on={"fig2-binomial": ["figC1-sample-size"]},
        )
        with Session.for_suite(plain) as session:
            first = session.run_suite(plain)
        with Session.for_suite(scheduled) as session:
            second = session.run_suite(scheduled)
        for name in plain.names:
            assert _rows(first[name]) == _rows(second[name]), name


# ----------------------------------------------------------------------
# Full-fidelity resume: native result objects survive the round-trip
# ----------------------------------------------------------------------
class TestFullFidelityResume:
    def test_resume_restores_native_attributes(self, tmp_path):
        suite = _make_suite(tmp_path / "store")
        with Session.for_suite(suite) as session:
            cold = session.run_suite(suite)
        with Session.for_suite(suite) as session:
            resumed = session.run_suite(suite, resume=True)
        assert resumed.replayed == suite.names
        variance = resumed["fig1-variance"]
        # Not the rows-only stand-in: the driver's own result class, with
        # its study-specific attributes intact.
        assert type(variance.raw).__name__ == "VarianceStudyResult"
        assert variance.raw.decompositions
        assert type(resumed["fig2-binomial"].raw).__name__ == type(
            cold["fig2-binomial"].raw
        ).__name__
        for name in suite.names:
            assert _rows(resumed[name]) == _rows(cold[name]), name

    def test_stale_pickle_degrades_to_recorded_rows(self, tmp_path):
        suite = _make_suite(tmp_path / "store")
        with Session.for_suite(suite) as session:
            cold = session.run_suite(suite)
        records = tmp_path / "store" / "suites" / suite.name
        # Corrupt one member's pickle: resume must fall back to the JSON
        # record (rows + report) rather than fail or resurrect stale raw.
        (records / "fig1-variance.raw.pkl").write_bytes(b"not a pickle")
        with Session.for_suite(suite) as session:
            resumed = session.run_suite(suite, resume=True)
        assert resumed.replayed == suite.names
        assert type(resumed["fig1-variance"].raw).__name__ == "_ReplayedRaw"
        assert _rows(resumed["fig1-variance"]) == _rows(cold["fig1-variance"])


# ----------------------------------------------------------------------
# CLI acceptance: cold suite run, then --resume with zero misses
# ----------------------------------------------------------------------
@pytest.mark.slow
class TestSuiteCLIAcceptance:
    def test_cold_run_matches_individual_then_resume_zero_miss(
        self, tmp_path, capsys
    ):
        directory = tmp_path / "store"
        suite = _make_suite(directory)
        manifest = tmp_path / "manifest.json"
        manifest.write_text(suite.to_json(indent=2))

        assert main(["suite", str(manifest), "--json"]) == 0
        captured = capsys.readouterr()
        cold = json.loads(captured.out)
        assert [r["name"] for r in cold["results"]] == suite.names
        assert cold["replayed"] == []
        for line in ("[1/3]", "[2/3]", "[3/3]"):
            assert line in captured.err  # per-member streaming progress

        # Bitwise-identical to the same specs run individually.
        by_name = {r["name"]: r for r in cold["results"]}
        for name, spec in SUITE_MEMBERS:
            with Session(cache_dir=str(directory)) as session:
                individual = json.loads(session.run(spec).to_json())
            assert json.dumps(by_name[name]["rows"], sort_keys=True) == json.dumps(
                individual["rows"], sort_keys=True
            ), name

        # Second invocation resumes: everything replays, zero misses, and
        # the store stayed within its byte budget throughout.
        assert main(["suite", str(manifest), "--resume", "--json"]) == 0
        resumed = json.loads(capsys.readouterr().out)
        assert resumed["replayed"] == suite.names
        assert (resumed["cache_stats"] or {}).get("misses", 0) == 0
        assert [r["rows"] for r in resumed["results"]] == [
            r["rows"] for r in cold["results"]
        ]
        assert FileStore(str(directory)).total_bytes <= STORE_BUDGET

    def test_member_naming_a_cache_path_is_rejected(self, tmp_path, capsys):
        # Where measurements persist is the suite's cache_dir; a member
        # spec that names its own directory fails before anything runs.
        elsewhere = tmp_path / "elsewhere"
        payload = _make_suite(tmp_path / "store").to_dict()
        payload["specs"][1]["spec"]["cache"] = str(elsewhere)
        manifest = tmp_path / "manifest.json"
        manifest.write_text(json.dumps(payload))
        assert main(["suite", str(manifest)]) == 2
        err = capsys.readouterr().err
        assert "malformed suite manifest" in err
        assert "'fig2-binomial'" in err and "cache_dir" in err
        assert not elsewhere.exists()
        assert not (tmp_path / "store").exists()
