"""Direct coverage of the CLI front door (``python -m repro``).

Exit-code contract: 0 on success (including a ``BrokenPipeError`` from a
closed pager), 2 for unreadable or malformed specs/manifests — with a
human ``error: ...`` message on stderr naming the problem, never a
traceback.  Success-path payload shapes (``run --json``, ``suite
--json``, ``gc --json``) are asserted structurally.
"""

import argparse
import json

import pytest

from repro.__main__ import _build_parser, main
from repro.api import StudySpec, SuiteSpec, list_studies
from repro.engine.cache import FileStore


def _spec_file(tmp_path, spec: StudySpec):
    path = tmp_path / "spec.json"
    path.write_text(spec.to_json())
    return str(path)


def _suite_file(tmp_path, suite: SuiteSpec, name="manifest.json"):
    path = tmp_path / name
    path.write_text(suite.to_json(indent=2))
    return str(path)


SPEC = StudySpec(
    study="sample_size", params={"gammas": [0.7, 0.75]}, random_state=0
)


class TestRunCommand:
    def test_json_payload_shape_and_exit_code(self, tmp_path, capsys):
        assert main(["run", _spec_file(tmp_path, SPEC), "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["study"] == "sample_size"
        assert payload["spec"] == SPEC.to_dict()
        assert payload["rows"]

    def test_missing_file_exits_2_with_message(self, tmp_path, capsys):
        assert main(["run", str(tmp_path / "absent.json")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "absent.json" in err

    def test_invalid_json_exits_2(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        assert main(["run", str(path)]) == 2
        assert "not valid JSON" in capsys.readouterr().err

    def test_unknown_study_exits_2(self, tmp_path, capsys):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps({"study": "nope", "params": {}}))
        assert main(["run", str(path)]) == 2
        err = capsys.readouterr().err
        assert "unknown study" in err and "registered studies" in err

    def test_invalid_params_exit_2(self, tmp_path, capsys):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps({"study": "variance", "params": {"bogus": 1}}))
        assert main(["run", str(path)]) == 2
        assert "valid parameters" in capsys.readouterr().err

    def test_unknown_spec_field_exits_2(self, tmp_path, capsys):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps({"study": "variance", "jobs": 4}))
        assert main(["run", str(path)]) == 2
        assert "unknown StudySpec fields" in capsys.readouterr().err


class TestSuiteCommand:
    def test_summary_and_exit_code(self, tmp_path, capsys):
        suite = SuiteSpec(name="s", specs=[("only", SPEC)])
        assert main(["suite", _suite_file(tmp_path, suite)]) == 0
        captured = capsys.readouterr()
        assert "suite=s" in captured.out and "== only ==" in captured.out
        assert "[1/1] only" in captured.err

    def test_cache_dir_override_enables_resume(self, tmp_path, capsys):
        suite = SuiteSpec(name="s", specs=[("only", SPEC)])
        path = _suite_file(tmp_path, suite)
        store = str(tmp_path / "store")
        assert main(["suite", path, "--cache-dir", store]) == 0
        capsys.readouterr()
        assert main(["suite", path, "--cache-dir", store, "--resume", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["replayed"] == ["only"]

    def test_resume_without_cache_dir_exits_2(self, tmp_path, capsys):
        suite = SuiteSpec(name="s", specs=[("only", SPEC)])
        assert main(["suite", _suite_file(tmp_path, suite), "--resume"]) == 2
        assert "--resume requires a cache_dir" in capsys.readouterr().err

    def test_manifest_must_be_an_object(self, tmp_path, capsys):
        path = tmp_path / "list.json"
        path.write_text("[1, 2, 3]")
        assert main(["suite", str(path)]) == 2
        assert "JSON object" in capsys.readouterr().err

    def test_missing_required_keys_exit_2(self, tmp_path, capsys):
        path = tmp_path / "partial.json"
        path.write_text(json.dumps({"name": "s"}))
        assert main(["suite", str(path)]) == 2
        assert "missing ['specs']" in capsys.readouterr().err

    def test_duplicate_member_names_exit_2(self, tmp_path, capsys):
        path = tmp_path / "dups.json"
        path.write_text(
            json.dumps(
                {
                    "name": "s",
                    "specs": [
                        {"name": "a", "spec": SPEC.to_dict()},
                        {"name": "a", "spec": SPEC.to_dict()},
                    ],
                }
            )
        )
        assert main(["suite", str(path)]) == 2
        assert "duplicate suite spec name" in capsys.readouterr().err

    def test_unknown_member_study_exits_2_naming_the_member(
        self, tmp_path, capsys
    ):
        path = tmp_path / "unknown.json"
        path.write_text(
            json.dumps(
                {
                    "name": "s",
                    "specs": [{"name": "m1", "spec": {"study": "nope"}}],
                }
            )
        )
        assert main(["suite", str(path)]) == 2
        err = capsys.readouterr().err
        assert "suite spec 'm1'" in err and "unknown study" in err

    def test_malformed_entry_shape_exits_2(self, tmp_path, capsys):
        path = tmp_path / "shape.json"
        path.write_text(json.dumps({"name": "s", "specs": [{"nome": "x"}]}))
        assert main(["suite", str(path)]) == 2
        assert "entry #0" in capsys.readouterr().err

    def test_missing_manifest_exits_2(self, tmp_path, capsys):
        assert main(["suite", str(tmp_path / "absent.json")]) == 2
        assert capsys.readouterr().err.startswith("error:")


class TestGCCommand:
    def test_prunes_to_budget_and_reports(self, tmp_path, capsys):
        store = FileStore(str(tmp_path / "store"))
        for key in ("aa11", "bb22", "cc33"):
            store.write(key, "x" * 64)
        assert main(
            ["gc", str(tmp_path / "store"), "--max-entries", "1", "--json"]
        ) == 0
        stats = json.loads(capsys.readouterr().out)
        assert stats["removed_entries"] == 2
        assert stats["entries"] == 1
        assert len(FileStore(str(tmp_path / "store"))) == 1

    def test_human_output(self, tmp_path, capsys):
        store = FileStore(str(tmp_path / "store"))
        store.write("aa11", "x")
        assert main(["gc", str(tmp_path / "store")]) == 0
        out = capsys.readouterr().out
        assert "removed 0 entries" in out and "1 entries" in out

    def test_missing_directory_exits_2(self, tmp_path, capsys):
        assert main(["gc", str(tmp_path / "nowhere")]) == 2
        assert "no cache directory" in capsys.readouterr().err


class TestListCommand:
    def test_lists_every_registered_study(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        for name in list_studies():
            assert name in out

    def test_json_catalogue_is_machine_readable(self, capsys):
        assert main(["list", "--json"]) == 0
        catalogue = json.loads(capsys.readouterr().out)
        assert [entry["name"] for entry in catalogue] == list_studies()
        for entry in catalogue:
            assert set(entry) == {
                "name",
                "artefact",
                "description",
                "size_params",
                "smoke_params",
                "shard_param",
                "benchmark",
            }
            # smoke_params must round-trip into a runnable StudySpec.
            StudySpec(study=entry["name"], params=entry["smoke_params"])


class TestReportCommand:
    def _ran_suite(self, tmp_path):
        """Run a tiny suite against a cache dir; return (store, records)."""
        suite = SuiteSpec(name="s", specs=[("only", SPEC)])
        store = tmp_path / "store"
        assert main(
            ["suite", _suite_file(tmp_path, suite), "--cache-dir", str(store)]
        ) == 0
        return store, store / "suites" / "s"

    def test_generates_reports_from_cache_alone(self, tmp_path, capsys):
        store, _ = self._ran_suite(tmp_path)
        capsys.readouterr()
        assert main(["report", str(store)]) == 0
        out = capsys.readouterr().out
        assert "suite s: 1 member report(s)" in out
        for name in ("index.json", "index.md", "only.json", "only.md"):
            assert (store / "reports" / "s" / name).exists()

    def test_json_payload_shape(self, tmp_path, capsys):
        store, _ = self._ran_suite(tmp_path)
        capsys.readouterr()
        assert main(["report", str(store), "--suite", "s", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["suite"] == "s"
        assert [m["name"] for m in payload["members"]] == ["only"]
        assert payload["members"][0]["rows"]

    def test_missing_cache_dir_exits_2(self, tmp_path, capsys):
        assert main(["report", str(tmp_path / "nowhere")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "no cache directory" in err

    def test_empty_cache_dir_exits_2(self, tmp_path, capsys):
        assert main(["report", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "no suite completion records" in err

    def test_unknown_suite_exits_2(self, tmp_path, capsys):
        store, _ = self._ran_suite(tmp_path)
        capsys.readouterr()
        assert main(["report", str(store), "--suite", "ghost"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "no completion records" in err

    def test_partial_suite_exits_2(self, tmp_path, capsys):
        store, records = self._ran_suite(tmp_path)
        (records / "only.json").unlink()
        capsys.readouterr()
        assert main(["report", str(store), "--suite", "s"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "incomplete" in err
        assert "re-run the suite" in err

    def test_corrupted_record_exits_2(self, tmp_path, capsys):
        store, records = self._ran_suite(tmp_path)
        (records / "only.json").write_text("{broken")
        capsys.readouterr()
        assert main(["report", str(store), "--suite", "s"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "corrupted completion record" in err

    def test_report_writes_nothing_to_the_object_store(self, tmp_path, capsys):
        """Zero re-execution: reporting never stores a new measurement."""
        store, _ = self._ran_suite(tmp_path)
        objects = FileStore(str(store))
        before = (len(objects), objects.total_bytes)
        capsys.readouterr()
        assert main(["report", str(store), "--suite", "s"]) == 0
        objects = FileStore(str(store))
        assert (len(objects), objects.total_bytes) == before


BACKENDS = ("serial", "thread", "process")
STORE, FLAG = "_StoreAction", "_StoreTrueAction"

#: The CLI's interface contract, which scripts and CI jobs depend on:
#: every subcommand's positionals and its options, option string ->
#: (default, type name, choices, action class).
INTERFACE = {
    "run": (
        ["spec"],
        {
            "--backend": (None, None, BACKENDS, STORE),
            "--batch-size": (None, "int", None, STORE),
            "--cache-dir": (None, None, None, STORE),
            "--json": (False, None, None, FLAG),
            "--log-level": (None, None, None, STORE),
            "--n-jobs": (None, "int", None, STORE),
        },
    ),
    "suite": (
        ["manifest"],
        {
            "--backend": (None, None, BACKENDS, STORE),
            "--batch-size": (None, "int", None, STORE),
            "--cache-dir": (None, None, None, STORE),
            "--distributed": (False, None, None, FLAG),
            "--json": (False, None, None, FLAG),
            "--lease-seconds": (None, "float", None, STORE),
            "--log-level": (None, None, None, STORE),
            "--max-attempts": (None, "int", None, STORE),
            "--n-jobs": (None, "int", None, STORE),
            "--resume": (False, None, None, FLAG),
            "--shard-members": (False, None, None, FLAG),
            "--stall-seconds": (None, "float", None, STORE),
        },
    ),
    "worker": (
        ["cache_dir"],
        {
            "--backend": (None, None, BACKENDS, STORE),
            "--batch-size": (None, "int", None, STORE),
            "--exit-when-done": (False, None, None, FLAG),
            "--lease-seconds": (None, "float", None, STORE),
            "--log-level": (None, None, None, STORE),
            "--max-attempts": (None, "int", None, STORE),
            "--max-tasks": (None, "int", None, STORE),
            "--n-jobs": (None, "int", None, STORE),
            "--poll-seconds": (None, "float", None, STORE),
            "--stall-seconds": (None, "float", None, STORE),
            "--suite": (None, None, None, STORE),
            "--timeout": (None, "float", None, STORE),
            "--worker-id": (None, None, None, STORE),
        },
    ),
    "queue": (
        ["cache_dir"],
        {
            "--json": (False, None, None, FLAG),
            "--lease-seconds": (None, "float", None, STORE),
            "--suite": (None, None, None, STORE),
        },
    ),
    "gc": (
        ["cache_dir"],
        {
            "--json": (False, None, None, FLAG),
            "--max-bytes": (None, "int", None, STORE),
            "--max-entries": (None, "int", None, STORE),
        },
    ),
    "serve": (
        ["cache_dir"],
        {
            "--backend": (None, None, BACKENDS, STORE),
            "--batch-size": (None, "int", None, STORE),
            "--host": ("127.0.0.1", None, None, STORE),
            "--lease-seconds": (None, "float", None, STORE),
            "--log-level": (None, None, None, STORE),
            "--max-attempts": (None, "int", None, STORE),
            "--n-jobs": (None, "int", None, STORE),
            "--no-participate": (False, None, None, FLAG),
            "--port": (8321, "int", None, STORE),
            "--quiet": (False, None, None, FLAG),
            "--shard-members": (False, None, None, FLAG),
            "--stall-seconds": (None, "float", None, STORE),
        },
    ),
    "trace": (
        ["cache_dir"],
        {
            "--json": (False, None, None, FLAG),
            "--suite": (None, None, None, STORE),
        },
    ),
    "report": (
        ["cache_dir"],
        {
            "--json": (False, None, None, FLAG),
            "--suite": (None, None, None, STORE),
        },
    ),
    "list": (
        [],
        {
            "--json": (False, None, None, FLAG),
        },
    ),
}


def _subcommands():
    parser = _build_parser()
    (commands,) = [
        action
        for action in parser._actions
        if isinstance(action, argparse._SubParsersAction)
    ]
    return commands.choices


class TestInterface:
    def test_every_subcommand_keeps_its_options_and_defaults(self):
        built = {}
        for name, parser in _subcommands().items():
            positionals, options = [], {}
            for action in parser._actions:
                if isinstance(action, argparse._HelpAction):
                    continue
                if not action.option_strings:
                    positionals.append(action.dest)
                    continue
                for option in action.option_strings:
                    options[option] = (
                        action.default,
                        None if action.type is None else action.type.__name__,
                        None if action.choices is None else tuple(action.choices),
                        type(action).__name__,
                    )
            built[name] = (positionals, options)
        assert built == INTERFACE

    def test_unset_lease_and_poll_resolve_to_the_declared_defaults(
        self, tmp_path, monkeypatch, capsys
    ):
        """The lease is declared once (``TaskQueue.LEASE_SECONDS``) and the
        worker's idle poll once (``Worker.POLL_SECONDS``): every
        constructor and subcommand given neither resolves to them."""
        from repro.api import Session
        from repro.sched import Coordinator, TaskQueue, Worker
        from repro.serve import StudyServer
        from repro.serve.jobs import JobRegistry

        lease, poll = TaskQueue.LEASE_SECONDS, Worker.POLL_SECONDS
        store = str(tmp_path / "store")
        suite = SuiteSpec(name="s", specs=[("only", SPEC)])
        with Session(cache_dir=store) as session:
            coordinator = Coordinator(session, suite)
            coordinator.enqueue()
            registry = JobRegistry(session)
            assert coordinator.queue.lease_seconds == lease
            assert registry._coordinator(suite).queue.lease_seconds == lease
        assert TaskQueue(str(tmp_path / "q")).lease_seconds == lease
        worker = Worker(store)
        assert worker.poll_seconds == poll
        assert [queue.lease_seconds for queue in worker.queues()] == [lease]

        resolved = []

        def record_worker(self, **kwargs):
            resolved.append(
                ("worker", [q.lease_seconds for q in self.queues()], self.poll_seconds)
            )
            return self.stats

        def record_server(self, **kwargs):
            coordinator = self.registry._coordinator(suite)
            resolved.append(("serve", [coordinator.queue.lease_seconds], None))
            raise KeyboardInterrupt

        monkeypatch.setattr(Worker, "run", record_worker)
        monkeypatch.setattr(StudyServer, "serve_forever", record_server)
        assert main(["worker", store]) == 0
        assert main(["serve", store, "--port", "0", "--quiet"]) == 0
        capsys.readouterr()
        assert main(["queue", store, "--json"]) == 0
        (status,) = json.loads(capsys.readouterr().out)
        resolved.append(("queue", [status["lease_seconds"]], None))
        assert resolved == [
            ("worker", [lease], poll),
            ("serve", [lease], None),
            ("queue", [lease], None),
        ]
        # The help text names the same values.
        helps = {
            name: " ".join(parser.format_help().split())
            for name, parser in _subcommands().items()
        }
        for name in ("suite", "worker", "queue", "serve"):
            assert f"default {lease:g}" in helps[name]
        assert f"default {poll:g}" in helps["worker"]

    @pytest.mark.parametrize("command", sorted(INTERFACE))
    def test_help_formats_for_every_subcommand(self, command, capsys):
        # argparse only %-formats help strings when --help runs.
        with pytest.raises(SystemExit) as exit_info:
            main([command, "--help"])
        assert exit_info.value.code == 0
        out = capsys.readouterr().out
        for option in INTERFACE[command][1]:
            assert option in out


#: What each range-checked flag's rejection says after the flag name.
RANGE_MESSAGES = {
    "--batch-size": "must be a positive integer",
    "--max-attempts": "must be at least 1",
    "--stall-seconds": "must be positive",
    "--lease-seconds": "must be positive",
    "--poll-seconds": "must be positive",
    "--port": "must be between 0 and 65535",
    "--max-bytes": "must be a positive integer",
    "--max-entries": "must be a positive integer",
}

#: (subcommand, flag, value) for every range-checked flag on every
#: subcommand that takes it.
RANGE_CASES = [
    ("run", "--batch-size", "0"),
    *[
        (command, flag, "0")
        for command in ("suite", "worker", "serve")
        for flag in ("--batch-size", "--max-attempts", "--stall-seconds")
    ],
    *[
        (command, "--lease-seconds", "0")
        for command in ("suite", "worker", "queue", "serve")
    ],
    ("worker", "--poll-seconds", "0"),
    ("worker", "--poll-seconds", "-1"),
    ("serve", "--port", "65536"),
    ("serve", "--port", "-1"),
    ("gc", "--max-bytes", "0"),
    ("gc", "--max-bytes", "-5"),
    ("gc", "--max-entries", "0"),
    ("gc", "--max-entries", "-1"),
]


class TestRangeChecks:
    @pytest.mark.parametrize("command,flag,value", RANGE_CASES)
    def test_out_of_range_flag_exits_2_with_its_message(
        self, tmp_path, capsys, command, flag, value
    ):
        store = FileStore(str(tmp_path / "store"))
        for key in ("aa11", "bb22", "cc33", "dd44", "ee55"):
            store.write(key, "x" * 64)
        if command == "run":
            argv = ["run", _spec_file(tmp_path, SPEC)]
        elif command == "suite":
            suite = SuiteSpec(name="s", specs=[("only", SPEC)])
            argv = ["suite", _suite_file(tmp_path, suite), "--cache-dir", store.directory]
            if flag != "--batch-size":
                argv.append("--distributed")  # the scheduler flags require it
        else:
            # --timeout bounds a worker that wrongly starts serving.
            argv = [command, store.directory]
            if command == "worker":
                argv += ["--timeout", "1"]
        assert main(argv + [flag, value]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert f"{flag} {RANGE_MESSAGES[flag]}" in err
        # Rejected before touching the store: gc deleted nothing.
        assert len(FileStore(store.directory)) == 5
