"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main


@pytest.fixture(scope="module")
def log_path(tmp_path_factory):
    path = tmp_path_factory.mktemp("cli") / "log.txt"
    code = main(
        ["generate", str(path), "--users", "15", "--sessions", "8",
         "--seed", "3"]
    )
    assert code == 0
    return path


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["frobnicate"])

    def test_perplexity_model_choices(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["perplexity", "x", "--models", "GPT"])

    @pytest.mark.parametrize(
        "argv",
        [
            ["suggest", "log.tsv", "q", "--workers", "0"],
            ["suggest", "log.tsv", "q", "--k", "0"],
            ["serve", "log.tsv", "--workers", "0"],
            ["serve", "log.tsv", "--k", "0"],
            ["serve", "log.tsv", "--rounds", "0"],
            ["ingest", "log.tsv", "--batch-size", "0"],
            ["ingest", "log.tsv", "--epoch-every", "-3"],
            ["ingest", "log.tsv", "--k", "0"],
            ["suggest", "log.tsv", "q", "--compact-size", "0"],
            ["suggest", "log.tsv", "q", "--topics", "0"],
            ["suggest", "log.tsv", "q", "--max-records", "-5"],
            ["ingest", "log.tsv", "--compact-size", "-1"],
            ["ingest", "log.tsv", "--max-records", "0"],
            ["serve", "log.tsv", "--compact-size", "0"],
            ["serve", "log.tsv", "--personalize", "--topics", "0"],
            ["serve", "log.tsv", "--personalize", "--upm-iterations", "0"],
            ["serve", "log.tsv", "--max-records", "0"],
            ["perplexity", "log.tsv", "--topics", "0"],
            ["perplexity", "log.tsv", "--iterations", "0"],
            ["perplexity", "log.tsv", "--max-records", "0"],
            ["stats", "log.tsv", "--max-records", "0"],
        ],
        ids=lambda argv: f"{argv[0]}{argv[-2]}",
    )
    def test_count_flags_reject_values_below_one(self, argv, capsys):
        with pytest.raises(SystemExit) as raised:
            main(argv)
        assert raised.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith(f"usage: repro {argv[0]} ")
        assert "Traceback" not in err
        assert err.strip().splitlines()[-1] == (
            f"repro {argv[0]}: error: argument {argv[-2]}: "
            f"must be at least 1, got {argv[-1]}"
        )


class TestGenerate:
    def test_writes_aol_file(self, log_path):
        text = log_path.read_text()
        assert text.startswith("AnonID\tQuery\tQueryTime")
        assert len(text.splitlines()) > 100

    def test_deterministic(self, tmp_path):
        a, b = tmp_path / "a.txt", tmp_path / "b.txt"
        main(["generate", str(a), "--users", "5", "--seed", "9"])
        main(["generate", str(b), "--users", "5", "--seed", "9"])
        assert a.read_text() == b.read_text()


class TestStats(object):
    def test_prints_summary(self, log_path, capsys):
        assert main(["stats", str(log_path)]) == 0
        out = capsys.readouterr().out
        assert "users" in out
        assert "sessions" in out

    def test_max_records(self, log_path, capsys):
        assert main(["stats", str(log_path), "--max-records", "10"]) == 0
        assert "records          10" in capsys.readouterr().out


class TestSuggest:
    def test_suggests_for_known_query(self, log_path, capsys):
        from repro.logs.aol import read_aol

        log = read_aol(log_path)
        probe = max(log.unique_queries, key=log.query_frequency)
        code = main(
            [
                "suggest", str(log_path), probe,
                "--no-personalize", "--k", "5", "--compact-size", "60",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert " 1. " in out

    def test_personalized_suggest(self, log_path, capsys):
        from repro.logs.aol import read_aol

        log = read_aol(log_path)
        probe = max(log.unique_queries, key=log.query_frequency)
        user = log.users[0]
        code = main(
            [
                "suggest", str(log_path), probe,
                "--user", user, "--k", "5", "--topics", "4",
                "--compact-size", "60",
            ]
        )
        assert code == 0
        assert " 1. " in capsys.readouterr().out

    def test_verbose_prints_fit_stats(self, log_path, capsys):
        from repro.logs.aol import read_aol

        log = read_aol(log_path)
        probe = max(log.unique_queries, key=log.query_frequency)
        code = main(
            [
                "suggest", str(log_path), probe,
                "--k", "5", "--topics", "3", "--compact-size", "60",
                "--verbose",
            ]
        )
        assert code == 0
        err = capsys.readouterr().err
        assert "UPM fit: engine=fast 30 sweeps in " in err
        assert "ms/sweep sampling" in err
        assert "UPM fit: final pseudo-log-likelihood -" in err

    def test_unknown_query_message(self, log_path, capsys):
        code = main(
            ["suggest", str(log_path), "zzzz qqqq", "--no-personalize"]
        )
        assert code == 0
        assert "no suggestions" in capsys.readouterr().out

    def test_empty_log_error(self, tmp_path, capsys):
        empty = tmp_path / "empty.txt"
        empty.write_text("AnonID\tQuery\tQueryTime\tItemRank\tClickURL\n")
        code = main(["suggest", str(empty), "sun"])
        assert code == 1


class TestIngest:
    def test_streams_tail_and_reports(self, log_path, capsys):
        code = main(
            [
                "ingest", str(log_path),
                "--batch-size", "32",
                "--epoch-every", "2",
                "--k", "5",
                "--compact-size", "40",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "epoch 0 published" in out
        assert "records/s" in out
        assert "invalidated by epoch swaps" in out
        assert "after the stream" in out

    def test_rejects_bad_bootstrap_fraction(self, log_path, capsys):
        assert main(["ingest", str(log_path), "--bootstrap", "1.5"]) == 1
        assert "--bootstrap" in capsys.readouterr().err

    def test_empty_log_error(self, tmp_path):
        empty = tmp_path / "empty.txt"
        empty.write_text("AnonID\tQuery\tQueryTime\tItemRank\tClickURL\n")
        assert main(["ingest", str(empty)]) == 1


class TestReport:
    def test_report_wiring(self, tmp_path, capsys, monkeypatch):
        # Stub the heavy battery: this test checks only the CLI plumbing
        # (config selection, file output); the battery itself is covered by
        # tests/eval/test_report.py.
        import repro.eval.report as report_module

        captured = {}

        def fake_run_report(config):
            captured["config"] = config
            return report_module.Report(config=config)

        monkeypatch.setattr(report_module, "run_report", fake_run_report)
        out_path = tmp_path / "report.md"
        code = main(["report", "--quick", "--output", str(out_path)])
        assert code == 0
        assert captured["config"].n_users == 15  # the --quick scale
        assert "# PQS-DA evaluation report" in out_path.read_text()

    def test_report_prints_to_stdout(self, capsys, monkeypatch):
        import repro.eval.report as report_module

        monkeypatch.setattr(
            report_module,
            "run_report",
            lambda config: report_module.Report(config=config),
        )
        assert main(["report", "--quick"]) == 0
        assert "# PQS-DA evaluation report" in capsys.readouterr().out


class TestMetricsFlow:
    @pytest.fixture(scope="class")
    def snapshot_path(self, log_path, tmp_path_factory):
        """Run ``suggest --metrics-out`` once; reuse the snapshot file."""
        from repro.logs.aol import read_aol

        log = read_aol(log_path)
        probe = max(log.unique_queries, key=log.query_frequency)
        path = tmp_path_factory.mktemp("metrics") / "metrics.json"
        code = main(
            [
                "suggest", str(log_path), probe,
                "--no-personalize", "--k", "5", "--compact-size", "60",
                "--metrics-out", str(path),
            ]
        )
        assert code == 0
        return path

    def test_suggest_writes_loadable_snapshot(self, snapshot_path, capsys):
        import json

        capsys.readouterr()
        snapshot = json.loads(snapshot_path.read_text())
        names = {entry["name"] for entry in snapshot["metrics"]}
        assert "serving.cache.misses" in names
        assert "trace.span.seconds" in names

    def test_stats_renders_metrics_table(self, snapshot_path, capsys):
        assert main(["stats", "--metrics", str(snapshot_path)]) == 0
        out = capsys.readouterr().out
        assert "serving.cache.misses" in out
        assert "counter" in out

    def test_stats_metrics_prometheus(self, snapshot_path, capsys):
        code = main(
            ["stats", "--metrics", str(snapshot_path),
             "--format", "prometheus"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "repro_serving_cache_misses_total" in out
        assert "# TYPE" in out

    def test_stats_metrics_json_round_trips(self, snapshot_path, capsys):
        import json

        code = main(
            ["stats", "--metrics", str(snapshot_path), "--format", "json"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert json.loads(out) == json.loads(snapshot_path.read_text())

    def test_stats_requires_log_or_metrics(self, capsys):
        assert main(["stats"]) == 1
        assert "--metrics" in capsys.readouterr().err

    def test_ingest_metrics_out(self, log_path, tmp_path, capsys):
        import json

        path = tmp_path / "stream_metrics.json"
        code = main(
            [
                "ingest", str(log_path),
                "--batch-size", "32", "--epoch-every", "2",
                "--k", "5", "--compact-size", "40",
                "--metrics-out", str(path),
            ]
        )
        assert code == 0
        names = {
            entry["name"]
            for entry in json.loads(path.read_text())["metrics"]
        }
        assert "stream.ingest.records_ingested" in names
        assert "stream.epochs.current" in names
        assert "serving.cache.invalidations" in names


class TestServe:
    def test_serves_from_worker_pool(self, log_path, tmp_path, capsys):
        import json

        path = tmp_path / "serve_metrics.json"
        code = main(
            [
                "serve", str(log_path), "amazon",
                "--workers", "1", "--k", "5", "--compact-size", "40",
                "--quiet", "--metrics-out", str(path),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "1 workers" in out
        assert "shared views: True" in out
        names = {
            entry["name"]
            for entry in json.loads(path.read_text())["metrics"]
        }
        assert "serve.pool.requests" in names
        assert "serving.cache.hits" in names

    def test_hot_top_reports_tier_hits(self, log_path, capsys):
        code = main(
            [
                "serve", str(log_path),
                "--workers", "1", "--k", "5", "--compact-size", "40",
                "--hot-top", "5", "--rounds", "2", "--quiet",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "hot tier: 5 precomputed head queries" in out
        assert "answered in the parent without a worker round trip" in out

    def test_personalize_serves_profiled_users(self, log_path, capsys):
        code = main(
            [
                "serve", str(log_path),
                "--workers", "1", "--k", "5", "--compact-size", "40",
                "--personalize", "--topics", "3", "--upm-iterations", "4",
                "--quiet",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "profile plane:" in out
        assert "profile views: True" in out


class TestPerplexity:
    def test_runs_selected_models(self, log_path, capsys):
        code = main(
            [
                "perplexity", str(log_path),
                "--models", "LDA", "UPM",
                "--topics", "4", "--iterations", "5",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "LDA" in out
        assert "UPM" in out
