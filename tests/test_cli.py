"""End-to-end tests of the command-line interface."""

import json

import pytest

from repro.cli import main


@pytest.fixture(scope="module")
def world_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("cliworld")
    code = main(["generate", "--out", str(out), "--scale", "0.3", "--seed", "5"])
    assert code == 0
    return out


@pytest.fixture(scope="module")
def model_dir(world_dir, tmp_path_factory):
    out = tmp_path_factory.mktemp("models")
    code = main(
        [
            "fit",
            "--db", str(world_dir),
            "--out", str(out),
            "--positive", "150",
            "--negative", "150",
            "--svm-c", "10",
        ]
    )
    assert code == 0
    return out


class TestGenerate:
    def test_writes_database_and_truth(self, world_dir):
        assert (world_dir / "schema.json").exists()
        assert (world_dir / "Publish.csv").exists()
        assert (world_dir / "truth.json").exists()
        names = json.loads((world_dir / "ambiguous_names.json").read_text())
        assert "Wei Wang" in names

    def test_stats_runs(self, world_dir, capsys):
        assert main(["stats", "--db", str(world_dir)]) == 0
        out = capsys.readouterr().out
        assert "Publish" in out
        assert "Wei Wang" in out


class TestFit:
    def test_writes_models_and_report(self, model_dir):
        assert (model_dir / "resem_model.json").exists()
        assert (model_dir / "walk_model.json").exists()
        report = json.loads((model_dir / "fit_report.json").read_text())
        assert report["n_training_pairs"] == 300
        assert report["n_paths"] > 10


class TestResolve:
    def test_resolve_without_truth(self, world_dir, model_dir, capsys):
        code = main(
            [
                "resolve",
                "--db", str(world_dir),
                "--models", str(model_dir),
                "--name", "Rakesh Kumar",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "'Rakesh Kumar'" in out
        assert "object 0" in out

    def test_resolve_with_truth_renders_diagram(self, world_dir, model_dir, capsys):
        code = main(
            [
                "resolve",
                "--db", str(world_dir),
                "--models", str(model_dir),
                "--name", "Rakesh Kumar",
                "--truth", str(world_dir / "truth.json"),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "real entities" in out
        assert "cluster" in out

    def test_min_sim_override(self, world_dir, model_dir, capsys):
        code = main(
            [
                "resolve",
                "--db", str(world_dir),
                "--models", str(model_dir),
                "--name", "Rakesh Kumar",
                "--min-sim", "99.0",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        # Impossible threshold -> every reference its own cluster.
        assert "36 references -> 36 objects" in out


class TestExperiment:
    def test_distinct_table(self, world_dir, model_dir, capsys):
        code = main(
            [
                "experiment",
                "--db", str(world_dir),
                "--models", str(model_dir),
                "--truth", str(world_dir / "truth.json"),
                "--names", "Rakesh Kumar,Hui Fang",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "DISTINCT accuracy" in out
        assert "average" in out

    def test_default_names_come_from_saved_world(self, world_dir, model_dir, capsys):
        code = main(
            [
                "experiment",
                "--db", str(world_dir),
                "--models", str(model_dir),
                "--truth", str(world_dir / "truth.json"),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "Wei Wang" in out


class TestExplainCommand:
    def test_explains_a_pair(self, world_dir, model_dir, capsys):
        import json

        rows = json.loads((world_dir / "truth.json").read_text())["rows_of_name"][
            "Rakesh Kumar"
        ][:2]
        code = main(
            [
                "explain",
                "--db", str(world_dir),
                "--models", str(model_dir),
                "--name", "Rakesh Kumar",
                "--rows", f"{rows[0]},{rows[1]}",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "composite similarity" in out

    def test_bad_rows_argument(self, world_dir, model_dir, capsys):
        code = main(
            [
                "explain",
                "--db", str(world_dir),
                "--models", str(model_dir),
                "--name", "Rakesh Kumar",
                "--rows", "1,2,3",
            ]
        )
        assert code == 2


class TestCandidatesCommand:
    def test_prints_ranked_names(self, world_dir, capsys):
        code = main(
            ["candidates", "--db", str(world_dir), "--min-refs", "5", "--limit", "10"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "candidate ambiguous names" in out
        assert "score" in out

    def test_no_candidates_message(self, world_dir, capsys):
        code = main(
            ["candidates", "--db", str(world_dir), "--min-score", "0.999"]
        )
        assert code == 0
        assert "no candidate" in capsys.readouterr().out


class TestCalibrateCommand:
    def test_prints_threshold_table(self, world_dir, model_dir, capsys):
        code = main(
            [
                "calibrate",
                "--db", str(world_dir),
                "--models", str(model_dir),
                "--names", "4",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "best min-sim:" in out
        assert "synthetic" in out


class TestObservabilityFlags:
    def test_trace_out_writes_valid_span_tree(self, world_dir, model_dir, tmp_path):
        from repro.obs.export import load_trace

        trace_path = tmp_path / "trace.json"
        code = main(
            [
                "resolve",
                "--db", str(world_dir),
                "--models", str(model_dir),
                "--name", "Rakesh Kumar",
                "--trace-out", str(trace_path),
            ]
        )
        assert code == 0
        payload = load_trace(trace_path)

        (root,) = payload["spans"]
        assert root["name"] == "resolve"
        assert root["duration_s"] > 0

        def find(node, name):
            if node["name"] == name:
                return node
            for child in node["children"]:
                found = find(child, name)
                if found is not None:
                    return found
            return None

        # The trace covers profiles -> similarity -> clustering with
        # per-stage wall times.
        for stage in ("resolve.prepare", "resolve.profiles",
                      "resolve.similarity", "resolve.cluster",
                      "cluster.agglomerative"):
            node = find(root, stage)
            assert node is not None, stage
            assert node["duration_s"] >= 0
        assert find(root, "resolve.prepare")["attrs"]["name"] == "Rakesh Kumar"

        counters = payload["metrics"]["counters"]
        for name in ("pairs.scored", "propagation.tuples_visited",
                     "cluster.merges", "paths.enumerated"):
            assert counters[name] > 0, name

    def test_tracing_disabled_after_run(self, world_dir, model_dir, tmp_path):
        from repro.obs import tracing_enabled

        code = main(
            [
                "resolve",
                "--db", str(world_dir),
                "--models", str(model_dir),
                "--name", "Rakesh Kumar",
                "--trace-out", str(tmp_path / "t.json"),
            ]
        )
        assert code == 0
        assert not tracing_enabled()

    def test_sample_resources_feeds_sampler_metrics_into_trace(
        self, world_dir, model_dir, tmp_path
    ):
        from repro.obs.export import load_trace

        trace_path = tmp_path / "trace.json"
        code = main(
            [
                "resolve",
                "--db", str(world_dir),
                "--models", str(model_dir),
                "--name", "Rakesh Kumar",
                "--trace-out", str(trace_path),
                "--sample-resources", "0.01",
            ]
        )
        assert code == 0
        metrics = load_trace(trace_path)["metrics"]
        assert metrics["counters"]["obs.sampler.ticks"] >= 1
        assert metrics["gauges"]["obs.sampler.rss_bytes"] > 0
        assert metrics["gauges"]["obs.sampler.cpu_seconds"] > 0

    def test_flags_accepted_before_subcommand(self, world_dir, capsys):
        code = main(["--log-level", "ERROR", "stats", "--db", str(world_dir)])
        assert code == 0
        assert "Publish" in capsys.readouterr().out

    def test_json_logs_flag_parses(self, world_dir, capsys):
        code = main(["stats", "--db", str(world_dir), "--json-logs"])
        assert code == 0


class TestParser:
    def test_missing_command_errors(self):
        with pytest.raises(SystemExit):
            main([])

    def test_unknown_command_errors(self):
        with pytest.raises(SystemExit):
            main(["frobnicate"])


class TestResilienceFlags:
    """--on-error / --resume / --deadline on the long-running commands."""

    def _experiment(self, world_dir, model_dir, *extra):
        return main(
            [
                "experiment",
                "--db", str(world_dir),
                "--models", str(model_dir),
                "--truth", str(world_dir / "truth.json"),
                "--names", "Rakesh Kumar,Hui Fang",
                *extra,
            ]
        )

    def test_on_error_collect_reports_poisoned_name(
        self, world_dir, model_dir, capsys
    ):
        from repro.resilience import FaultPlan, fault_plan

        with fault_plan(FaultPlan().fail_at("profile", item="Hui Fang", times=-1)):
            code = self._experiment(
                world_dir, model_dir, "--on-error", "collect"
            )
        assert code == 0
        out = capsys.readouterr().out
        assert "1 error(s) collected" in out
        assert "[experiment.score] Hui Fang" in out
        assert "Rakesh Kumar" in out  # the healthy name was still scored

    def test_deadline_exit_code_and_resume(
        self, world_dir, model_dir, tmp_path, capsys
    ):
        from repro.cli import EXIT_DEADLINE

        ckpt = tmp_path / "exp.ckpt.json"
        code = self._experiment(
            world_dir, model_dir,
            "--resume", str(ckpt), "--deadline", "0.000001",
        )
        assert code == EXIT_DEADLINE
        out = capsys.readouterr().out
        assert "deadline exceeded" in out
        assert str(ckpt) in out
        assert ckpt.exists()

        code = self._experiment(world_dir, model_dir, "--resume", str(ckpt))
        assert code == 0
        out = capsys.readouterr().out
        assert "Rakesh Kumar" in out and "Hui Fang" in out

    def test_on_error_raise_is_default(self, world_dir, model_dir):
        from repro.resilience import FaultInjected, FaultPlan, fault_plan

        with fault_plan(FaultPlan().fail_at("profile", item="Hui Fang")):
            with pytest.raises(FaultInjected):
                self._experiment(world_dir, model_dir)

    def test_calibrate_accepts_resilience_flags(
        self, world_dir, model_dir, tmp_path, capsys
    ):
        ckpt = tmp_path / "cal.ckpt.json"
        code = main(
            [
                "calibrate",
                "--db", str(world_dir),
                "--models", str(model_dir),
                "--names", "3",
                "--on-error", "skip",
                "--resume", str(ckpt),
            ]
        )
        assert code == 0
        assert ckpt.exists()
        assert "best min-sim:" in capsys.readouterr().out

class TestIngest:
    @pytest.fixture(scope="class")
    def delta_world(self, tmp_path_factory):
        out = tmp_path_factory.mktemp("deltaworld")
        code = main(
            [
                "generate", "--out", str(out), "--scale", "0.3", "--seed", "5",
                "--delta-papers", "12",
            ]
        )
        assert code == 0
        models = out / "models"
        code = main(
            [
                "fit", "--db", str(out), "--out", str(models),
                "--positive", "150", "--negative", "150", "--svm-c", "10",
            ]
        )
        assert code == 0
        return out

    def _ingest_args(self, world):
        return [
            "ingest",
            "--db", str(world),
            "--models", str(world / "models"),
            "--truth", str(world / "truth.json"),
            "--delta", str(world / "delta.json"),
            "--names", "Rakesh Kumar,Wei Wang",
        ]

    def test_writes_scored_results_and_stats(self, delta_world, tmp_path, capsys):
        out = tmp_path / "ingest.json"
        assert main([*self._ingest_args(delta_world), "--output", str(out)]) == 0
        assert "replayed" not in capsys.readouterr().out
        payload = json.loads(out.read_text())
        assert [r["name"] for r in payload["names"]] == ["Rakesh Kumar", "Wei Wang"]
        assert payload["epoch"] == 1
        assert "merges_replayed" not in payload["stats"]
        assert payload["stats"]["names_refreshed"] + payload["stats"]["names_clean"] == 2

    def test_workers_flag_rejected(self, delta_world, capsys):
        with pytest.raises(SystemExit) as exc:
            main([*self._ingest_args(delta_world), "--workers", "2"])
        assert exc.value.code == 2
        assert "--workers" in capsys.readouterr().err


class TestReportCommand:
    @pytest.fixture(scope="class")
    def trace_path(self, world_dir, model_dir, tmp_path_factory):
        path = tmp_path_factory.mktemp("report") / "trace.json"
        code = main(
            [
                "resolve",
                "--db", str(world_dir),
                "--models", str(model_dir),
                "--name", "Rakesh Kumar",
                "--trace-out", str(path),
            ]
        )
        assert code == 0
        return path

    def test_no_inputs_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["report"])
        assert exc.value.code == 2
        assert "--trace" in capsys.readouterr().err

    def test_trace_summary_prints_hot_spans_and_timeline(
        self, trace_path, capsys
    ):
        assert main(["report", "--trace", str(trace_path), "--top", "5"]) == 0
        out = capsys.readouterr().out
        assert "top 5 spans by total wall time:" in out
        assert "resolve.prepare" in out
        assert "#" in out  # timeline bars

    def test_exporter_outputs(self, trace_path, tmp_path, capsys):
        from repro.obs import parse_openmetrics

        chrome = tmp_path / "chrome.json"
        om = tmp_path / "metrics.om"
        code = main(
            [
                "report",
                "--trace", str(trace_path),
                "--chrome-out", str(chrome),
                "--openmetrics-out", str(om),
            ]
        )
        assert code == 0
        doc = json.loads(chrome.read_text())
        assert any(e["ph"] == "X" for e in doc["traceEvents"])
        text = om.read_text()
        assert text.rstrip().endswith("# EOF")
        parsed = parse_openmetrics(text)
        assert parsed["counters"]["repro_pairs_scored"] > 0

    def test_unreadable_trace_is_exit_2(self, tmp_path, capsys):
        missing = tmp_path / "nope.json"
        assert main(["report", "--trace", str(missing)]) == 2
        assert "cannot read trace" in capsys.readouterr().err
