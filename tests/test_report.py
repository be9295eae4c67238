"""Variance-provenance reports: budgets, rendering, and cache-path parity.

Reports are a pure function of the completion records a suite leaves
behind — zero re-execution, byte-identical regardless of which execution
path (in-process ``run``, ``run_suite``, or the distributed queue)
produced the cache.  Golden files under ``tests/golden/`` pin the exact
bytes; regenerate them with ``REPRO_UPDATE_GOLDEN=1 pytest
tests/test_report.py``.
"""

import json
import os
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import Session, StudySpec, SuiteSpec
from repro.report import (
    ReportError,
    budgets_from_rows,
    build_member_report,
    build_suite_report,
    list_report_suites,
    load_suite_records,
    render_member_markdown,
    render_suite_markdown,
    write_suite_reports,
)
from repro.report.builder import _dump
from repro.sched import Coordinator

GOLDEN_DIR = os.path.join(os.path.dirname(__file__), "golden")

ABLATION_PARAMS = {
    "task_names": ["entailment"],
    "combos": ["none", "dropout", "order", "all"],
    "n_seeds": 3,
    "dataset_size": 150,
}


def _ablation_row(combo, layers_on, variance, task="entailment", n_seeds=3):
    return {
        "combo": combo,
        "task": task,
        "layers_on": list(layers_on),
        "n_seeds": n_seeds,
        "mean": 0.8,
        "std": variance**0.5,
        "variance": variance,
    }


#: A fixed, synthetic completion record — no training required, so the
#: golden bytes only change when the report code changes.
SYNTHETIC_RECORD = {
    "record": 1,
    "study": "layer_ablation",
    "artefact": "Variance provenance",
    "spec": {
        "study": "layer_ablation",
        "params": {"combos": ["none", "dropout", "order", "all"], "n_seeds": 3},
        "random_state": 7,
    },
    "elapsed_seconds": 12.5,
    "cache_stats": {"hits": 9, "misses": 3},
    "rows": [
        _ablation_row("none", (), 0.0),
        _ablation_row("dropout", ("dropout",), 0.0025),
        _ablation_row("order", ("order",), 0.01),
        _ablation_row("all", ("dropout", "order"), 0.02),
    ],
    "report": "Layer ablation\n==============\nfour rows\n",
}


def _check_golden(name: str, data: bytes) -> None:
    path = os.path.join(GOLDEN_DIR, name)
    if os.environ.get("REPRO_UPDATE_GOLDEN"):
        os.makedirs(GOLDEN_DIR, exist_ok=True)
        with open(path, "wb") as handle:
            handle.write(data)
    with open(path, "rb") as handle:
        expected = handle.read()
    assert data == expected, (
        f"{name} drifted from tests/golden/ — if the change is intended, "
        f"regenerate with REPRO_UPDATE_GOLDEN=1"
    )


# ----------------------------------------------------------------------
# Budget extraction (hypothesis)
# ----------------------------------------------------------------------
_VAR = st.floats(min_value=0.0, max_value=1e3, allow_nan=False, allow_infinity=False)


class TestBudgetsFromRows:
    @given(
        components=st.dictionaries(
            st.sampled_from(("augment", "dropout", "init", "order")),
            _VAR,
            min_size=1,
        ),
        total=_VAR,
        floor=_VAR,
    )
    @settings(max_examples=200, deadline=None)
    def test_fractions_bounded_and_budget_closes(self, components, total, floor):
        rows = [_ablation_row("none", (), floor)]
        for layer, variance in sorted(components.items()):
            rows.append(_ablation_row(layer, (layer,), variance))
        rows.append(_ablation_row("all", tuple(sorted(components)), total))
        (budget,) = budgets_from_rows(rows)
        assert set(budget["fractions"]) == set(components)
        for fraction in budget["fractions"].values():
            assert 0.0 <= fraction <= 1.0
        assert sum(budget["fractions"].values()) + budget[
            "residual_fraction"
        ] == pytest.approx(1.0, abs=1e-9)
        assert budget["floor_variance"] == floor
        assert json.loads(json.dumps(budget)) == budget  # JSON-safe

    def test_non_ablation_rows_yield_no_budgets(self):
        assert budgets_from_rows([]) == []
        assert budgets_from_rows([{"task": "a", "n_seeds": 5, "mean": 0.5}]) == []

    def test_grid_without_all_combo_yields_no_budget(self):
        rows = [_ablation_row("dropout", ("dropout",), 0.1)]
        assert budgets_from_rows(rows) == []

    def test_tasks_sorted_deterministically(self):
        rows = []
        for task in ("zeta", "alpha"):
            rows.append(_ablation_row("dropout", ("dropout",), 0.1, task=task))
            rows.append(_ablation_row("all", ("dropout", "order"), 0.3, task=task))
        assert [b["task"] for b in budgets_from_rows(rows)] == ["alpha", "zeta"]


# ----------------------------------------------------------------------
# Golden files
# ----------------------------------------------------------------------
class TestGoldenSnapshots:
    def test_member_payload_json(self):
        member = build_member_report(SYNTHETIC_RECORD, name="ablation-demo")
        _check_golden("member_report.json", _dump(member))

    def test_member_payload_markdown(self):
        member = build_member_report(SYNTHETIC_RECORD, name="ablation-demo")
        _check_golden("member_report.md", render_member_markdown(member).encode())

    def test_suite_index_markdown(self):
        member = build_member_report(SYNTHETIC_RECORD, name="ablation-demo")
        payload = {"format": 1, "suite": "golden-suite", "members": [member]}
        _check_golden("suite_index.md", render_suite_markdown(payload).encode())

    def test_volatile_provenance_excluded(self):
        member = build_member_report(SYNTHETIC_RECORD, name="ablation-demo")
        blob = _dump(member).decode()
        assert "elapsed_seconds" not in blob
        assert "cache_stats" not in blob


# ----------------------------------------------------------------------
# Record loading / error paths
# ----------------------------------------------------------------------
class TestLoadSuiteRecords:
    def test_missing_cache_dir(self, tmp_path):
        with pytest.raises(ReportError, match="does not exist"):
            load_suite_records(str(tmp_path / "nope"), "s")
        with pytest.raises(ReportError, match="does not exist"):
            list_report_suites(str(tmp_path / "nope"))

    def test_no_records_for_suite(self, tmp_path):
        assert list_report_suites(str(tmp_path)) == []
        with pytest.raises(ReportError, match="no completion records"):
            load_suite_records(str(tmp_path), "missing-suite")

    def test_empty_records_dir(self, tmp_path):
        (tmp_path / "suites" / "s").mkdir(parents=True)
        with pytest.raises(ReportError, match="no member records"):
            load_suite_records(str(tmp_path), "s")

    def test_corrupted_record(self, tmp_path):
        records = tmp_path / "suites" / "s"
        records.mkdir(parents=True)
        (records / "m.json").write_text("{not json")
        with pytest.raises(ReportError, match="corrupted completion record"):
            load_suite_records(str(tmp_path), "s")

    def test_record_missing_rows(self, tmp_path):
        records = tmp_path / "suites" / "s"
        records.mkdir(parents=True)
        (records / "m.json").write_text('{"study": "x"}')
        with pytest.raises(ReportError, match="missing 'rows'"):
            load_suite_records(str(tmp_path), "s")

    def test_manifest_member_without_record_is_incomplete(self, tmp_path):
        records = tmp_path / "suites" / "s"
        records.mkdir(parents=True)
        (records / "a.json").write_text(json.dumps({"rows": []}))
        manifest = {"suite": {"specs": [{"name": "a"}, {"name": "b"}]}}
        (records / "manifest.json").write_text(json.dumps(manifest))
        with pytest.raises(ReportError, match="incomplete: member 'b'"):
            load_suite_records(str(tmp_path), "s")

    def test_corrupted_manifest(self, tmp_path):
        records = tmp_path / "suites" / "s"
        records.mkdir(parents=True)
        (records / "manifest.json").write_text("{broken")
        with pytest.raises(ReportError, match="corrupted suite manifest"):
            load_suite_records(str(tmp_path), "s")

    def test_manifest_orders_members(self, tmp_path):
        records = tmp_path / "suites" / "s"
        records.mkdir(parents=True)
        for name in ("alpha", "zebra"):
            (records / f"{name}.json").write_text(json.dumps({"rows": []}))
        manifest = {"suite": {"specs": [{"name": "zebra"}, {"name": "alpha"}]}}
        (records / "manifest.json").write_text(json.dumps(manifest))
        assert list(load_suite_records(str(tmp_path), "s")) == ["zebra", "alpha"]


# ----------------------------------------------------------------------
# Report tree generation
# ----------------------------------------------------------------------
def _suite(tmp_path, name="prov-suite"):
    spec = StudySpec(study="layer_ablation", params=ABLATION_PARAMS, random_state=7)
    return SuiteSpec(name=name, specs=[("ablation", spec)], cache_dir=str(tmp_path))


class TestWriteSuiteReports:
    def test_regeneration_is_byte_identical(self, tmp_path):
        session = Session.for_suite(_suite(tmp_path))
        session.run_suite(_suite(tmp_path))
        _, first_paths = write_suite_reports(str(tmp_path), "prov-suite")
        snapshots = {path: Path(path).read_bytes() for path in first_paths}
        _, second_paths = write_suite_reports(str(tmp_path), "prov-suite")
        assert second_paths == first_paths
        for path in first_paths:
            with open(path, "rb") as handle:
                assert handle.read() == snapshots[path], path

    def test_tree_layout(self, tmp_path):
        session = Session.for_suite(_suite(tmp_path))
        session.run_suite(_suite(tmp_path))
        payload, paths = write_suite_reports(str(tmp_path), "prov-suite")
        names = sorted(os.path.basename(path) for path in paths)
        assert names == ["ablation.json", "ablation.md", "index.json", "index.md"]
        assert all("reports" in path for path in paths)
        assert payload["members"][0]["name"] == "ablation"
        assert payload["members"][0]["budgets"], "ablation rows must yield a budget"


# ----------------------------------------------------------------------
# Cross-path parity: run vs run_suite vs distributed queue
# ----------------------------------------------------------------------
class TestCrossPathParity:
    def test_reports_byte_identical_across_execution_paths(self, tmp_path):
        spec = StudySpec(
            study="layer_ablation", params=ABLATION_PARAMS, random_state=7
        )

        # Path 1: plain in-process run, report from the in-memory record.
        direct = Session().run(spec)
        from_run = _dump(build_member_report(direct.to_record(), name="ablation"))

        # Path 2: run_suite writes completion records to disk.
        suite_dir = tmp_path / "suite"
        session = Session.for_suite(_suite(suite_dir))
        session.run_suite(_suite(suite_dir))
        suite_payload = build_suite_report(str(suite_dir), "prov-suite")
        from_suite = _dump(suite_payload["members"][0])

        # Path 3: distributed queue (in-process participant drains it).
        dist_dir = tmp_path / "dist"
        dist_session = Session.for_suite(_suite(dist_dir))
        Coordinator(dist_session, _suite(dist_dir), poll_seconds=0.05).run()
        dist_payload = build_suite_report(str(dist_dir), "prov-suite")
        from_queue = _dump(dist_payload["members"][0])

        assert from_run == from_suite
        assert from_suite == from_queue

    def test_suite_index_byte_identical_from_run_suite_and_coordinator(
        self, tmp_path
    ):
        """Both executors write the suite manifest, so the index lists
        members in declaration order (``zeta`` first) either way."""

        def suite(cache_dir):
            spec = StudySpec(
                study="sample_size", params={"gammas": [0.7]}, random_state=3
            )
            return SuiteSpec(
                name="order-suite",
                specs=[("zeta", spec), ("alpha", spec.with_params(gammas=[0.75]))],
                cache_dir=str(cache_dir),
            )

        run_dir, queue_dir = tmp_path / "run", tmp_path / "queue"
        with Session.for_suite(suite(run_dir)) as session:
            session.run_suite(suite(run_dir))
        with Session.for_suite(suite(queue_dir)) as session:
            Coordinator(session, suite(queue_dir), poll_seconds=0.05).run()
        indexes = {}
        for cache_dir in (run_dir, queue_dir):
            payload, paths = write_suite_reports(str(cache_dir), "order-suite")
            names = [member["name"] for member in payload["members"]]
            assert names == ["zeta", "alpha"]
            indexes[cache_dir] = {
                os.path.basename(path): Path(path).read_bytes()
                for path in paths
                if os.path.basename(path).startswith("index.")
            }
        assert sorted(indexes[run_dir]) == ["index.json", "index.md"]
        assert indexes[run_dir] == indexes[queue_dir]
