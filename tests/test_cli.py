"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["nope"])

    def test_platform_choices(self):
        args = build_parser().parse_args(["fig3", "--platform", "kaby-lake"])
        assert args.platform == "kaby-lake"
        with pytest.raises(SystemExit):
            build_parser().parse_args(["fig3", "--platform", "alderlake"])


class TestCommands:
    def test_fig3(self, capsys):
        assert main(["fig3", "--seed", "3"]) == 0
        out = capsys.readouterr().out
        assert "in-order fraction: 1.00" in out

    def test_fig4(self, capsys):
        assert main(["fig4", "--repetitions", "10"]) == 0
        out = capsys.readouterr().out
        assert "100%" in out

    def test_fig5(self, capsys):
        assert main(["fig5", "--repetitions", "40"]) == 0
        out = capsys.readouterr().out
        assert "l1_hit" in out and "dram" in out

    def test_fig2(self, capsys):
        assert main(["fig2", "--repetitions", "10"]) == 0
        out = capsys.readouterr().out
        assert "evicted" in out

    def test_send_roundtrip(self, capsys):
        assert main(["send", "hi", "--interval", "1500"]) == 0
        out = capsys.readouterr().out
        assert "b'hi'" in out and "CRC OK" in out

    def test_send_reports_failure_exit_code(self, capsys):
        # An interval far past the cliff garbles the frame.
        code = main(["send", "hello", "--interval", "700"])
        assert code == 1

    def test_directory(self, capsys):
        assert main(["directory"]) == 0
        out = capsys.readouterr().out
        assert "True" in out and "False" in out

    def test_fig11(self, capsys):
        assert main(["fig11", "--repetitions", "25"]) == 0
        out = capsys.readouterr().out
        assert "Prime+Prefetch+Scope" in out

    def test_evset_small(self, capsys):
        assert main(["evset", "--size", "4", "--seed", "2"]) == 0
        out = capsys.readouterr().out
        assert "reference ratio" in out

    def test_pollution(self, capsys):
        assert main(["pollution"]) == 0
        out = capsys.readouterr().out
        assert "1/w bound" in out

    def test_stats(self, capsys):
        assert main(["stats"]) == 0
        out = capsys.readouterr().out
        assert "LLC" in out and "memory references" in out

    def test_fig6_walkthrough(self, capsys):
        assert main(["fig6"]) == 0
        out = capsys.readouterr().out
        assert "candidate=dr" in out and "candidate=ds" in out

    def test_fig8_sweep_small(self, capsys):
        assert main(["fig8", "--bits", "48"]) == 0
        out = capsys.readouterr().out
        assert "capacity" in out and "ntp+ntp" in out

    def test_spy_small(self, capsys):
        assert main(["spy", "--bits", "24", "--traces", "2"]) == 0
        out = capsys.readouterr().out
        assert "recovered" in out

    def test_compare_small(self, capsys):
        assert main(["compare", "--bits", "32"]) == 0
        out = capsys.readouterr().out
        assert "NTP+NTP" in out and "occupancy" in out


class TestFaultInjection:
    def test_chaos_smoke(self, capsys):
        # ISSUE acceptance: a fault-injected sweep with retries completes
        # with zero unrecovered failures and merges bit-identically.
        assert main(["chaos", "--bits", "8", "--no-cache", "--jobs", "2"]) == 0
        out = capsys.readouterr().out
        assert "bit-identical" in out
        assert "0 unrecovered shard(s)" in out
        assert "fault rate" in out

    def test_chaos_records_one_run_into_store(self, capsys, tmp_path,
                                              monkeypatch):
        """Only act 2 records: the baseline and act 1 add no run."""
        from repro.store import STORE_ENV, CampaignStore

        monkeypatch.delenv(STORE_ENV, raising=False)
        db = tmp_path / "chaos.sqlite"
        assert main(["chaos", "--bits", "8", "--no-cache", "--jobs", "2",
                     "--store", str(db)]) == 0
        assert "store write failed" not in capsys.readouterr().err
        with CampaignStore(db) as store:
            campaigns = store.campaigns()
        assert [(c.name, c.runs) for c in campaigns] == [("chaos_sweep", 1)]

    def test_chaos_defaults(self):
        args = build_parser().parse_args(["chaos"])
        assert args.retries == 3  # chaos retries by default; sweeps don't
        assert args.crash == 0.2
        assert build_parser().parse_args(["fig8"]).retries == 0

    def test_faults_plan_flag_loads_and_validates(self, capsys, tmp_path):
        from repro.faults import FaultPlan

        plan = tmp_path / "plan.json"
        plan.write_text(FaultPlan(seed=1, crash_probability=0.2).to_json())
        assert main(["noise", "--bits", "8", "--no-cache",
                     "--faults", str(plan), "--retries", "3"]) == 0
        captured = capsys.readouterr()
        assert "retried attempt(s)" in captured.err

        plan.write_text('{"crash_probability": 2.0}')
        from repro.errors import ReproError

        with pytest.raises(ReproError):
            main(["noise", "--bits", "8", "--no-cache", "--faults", str(plan)])


class TestObservability:
    def test_stats_json_emits_all_layers(self, capsys):
        import json

        assert main(["stats", "--json"]) == 0
        snapshot = json.loads(capsys.readouterr().out)
        counters = snapshot["counters"]
        assert counters["channel.sends.total"] == 1
        assert counters["runner.shards.total"] == 2
        assert counters["runner.retries"] == 0  # materialized even fault-free
        assert counters["runner.failures"] == 0
        assert any(name.startswith("engine.ops.") for name in counters)
        gauges = snapshot["gauges"]
        assert any(name.startswith("cache.LLC.") for name in gauges)
        assert any(name.startswith("core.") for name in gauges)
        assert "runner.shard.seconds" in snapshot["histograms"]

    def test_stats_plain_text_unchanged(self, capsys):
        assert main(["stats"]) == 0
        out = capsys.readouterr().out
        assert "level" in out and "LLC" in out

    def test_sweep_trace_exports_jsonl(self, capsys, tmp_path):
        from repro.obs import EventTrace

        path = tmp_path / "noise.trace.jsonl"
        assert main(["noise", "--bits", "8", "--no-cache",
                     "--trace", str(path)]) == 0
        captured = capsys.readouterr()
        # Telemetry goes to stderr; stdout stays the deterministic table.
        assert "[runner]" in captured.err and "[trace]" in captured.err
        assert "[runner]" not in captured.out
        trace = EventTrace.from_jsonl(path)
        assert any(e.name == "runner.shard" for e in trace.events)
        assert trace.events[-1].name == "runner.sweep"

    def test_sweep_without_trace_prints_runner_summary(self, capsys):
        assert main(["noise", "--bits", "8", "--no-cache"]) == 0
        captured = capsys.readouterr()
        assert "[runner] 20 shard(s)" in captured.err
        assert "[trace]" not in captured.err
        assert "[runner]" not in captured.out


class TestStoreCommands:
    """``--store``/``--no-store`` on sweeps; ``campaigns`` and ``report``."""

    @pytest.fixture(autouse=True)
    def _isolated_store_env(self, monkeypatch):
        from repro.store import STORE_ENV

        monkeypatch.delenv(STORE_ENV, raising=False)

    def _sweep(self, db):
        return main(["fig2-sweep", "--trials", "2", "--no-cache",
                     "--store", str(db)])

    def test_store_flag_records_the_run(self, capsys, tmp_path):
        from repro.store import CampaignStore

        db = tmp_path / "runs.sqlite"
        assert self._sweep(db) == 0
        capsys.readouterr()
        with CampaignStore(db) as store:
            campaigns = store.campaigns()
        assert [c.name for c in campaigns] == ["insertion_sweep/Core i7-6700"]
        assert campaigns[0].runs == 1

    def test_env_store_records_the_run(self, capsys, tmp_path, monkeypatch):
        from repro.store import STORE_ENV, CampaignStore

        db = tmp_path / "env.sqlite"
        monkeypatch.setenv(STORE_ENV, str(db))
        assert main(["fig2-sweep", "--trials", "2", "--no-cache"]) == 0
        capsys.readouterr()
        with CampaignStore(db) as store:
            assert len(store.runs("insertion_sweep/Core i7-6700")) == 1

    @pytest.mark.parametrize("value", ["0", "off", "none"])
    def test_disabling_env_values_record_nothing(self, capsys, tmp_path,
                                                 monkeypatch, value):
        from repro.store import STORE_ENV

        monkeypatch.chdir(tmp_path)
        monkeypatch.setenv(STORE_ENV, value)
        assert main(["fig2-sweep", "--trials", "2", "--no-cache"]) == 0
        capsys.readouterr()
        assert list(tmp_path.iterdir()) == []  # no store file anywhere

    def test_no_store_overrides_env(self, capsys, tmp_path, monkeypatch):
        from repro.store import STORE_ENV

        db = tmp_path / "env.sqlite"
        monkeypatch.setenv(STORE_ENV, str(db))
        assert main(["fig2-sweep", "--trials", "2", "--no-cache",
                     "--no-store"]) == 0
        capsys.readouterr()
        assert not db.exists()

    def test_campaigns_lists_recorded_runs(self, capsys, tmp_path):
        db = tmp_path / "runs.sqlite"
        assert self._sweep(db) == 0
        capsys.readouterr()
        assert main(["campaigns", "--store", str(db)]) == 0
        out = capsys.readouterr().out
        assert "insertion_sweep/Core i7-6700" in out

    def test_campaigns_without_store_exits_2(self, capsys):
        assert main(["campaigns"]) == 2
        assert "no campaign store" in capsys.readouterr().err

    def test_report_regenerates_tables_and_gates(self, capsys, tmp_path):
        db = tmp_path / "runs.sqlite"
        assert self._sweep(db) == 0
        assert self._sweep(db) == 0  # second run -> a comparable diff
        capsys.readouterr()
        assert main(["report", "--store", str(db)]) == 0
        out = capsys.readouterr().out
        assert "Figure 2 — insertion policy" in out
        assert "identical ✅" in out
        assert "No gated regressions" in out

    def test_report_output_file(self, capsys, tmp_path):
        db = tmp_path / "runs.sqlite"
        assert self._sweep(db) == 0
        capsys.readouterr()
        report_path = tmp_path / "report.md"
        assert main(["report", "--store", str(db),
                     "-o", str(report_path)]) == 0
        captured = capsys.readouterr()
        assert "[report]" in captured.err
        assert "Figure 2" in report_path.read_text()

    def test_report_exits_nonzero_on_gated_regression(self, capsys, tmp_path):
        from repro.store import CampaignStore

        db = tmp_path / "runs.sqlite"
        with CampaignStore(db) as store:
            store.record_artifact("batch_speedup",
                                  {"speedup": 1.0, "gate": 10.0})
        assert main(["report", "--store", str(db)]) == 1
        captured = capsys.readouterr()
        assert "[regression]" in captured.err
        assert main(["report", "--store", str(db), "--no-gate"]) == 0


class TestSearchCommand:
    def test_search_runs_and_prints_deterministic_summary(self, capsys):
        argv = ["search", "--strategy", "halving", "--budget", "8",
                "--seed", "5", "--no-cache", "--no-store"]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert "Search — toy-cliff via halving" in first
        assert "winner: interval=" in first
        assert "fingerprint: " in first
        # Same seed, different --jobs: stdout must be bit-identical.
        assert main(argv[:-2] + ["--jobs", "2", "--no-cache", "--no-store"]) == 0
        assert capsys.readouterr().out == first

    def test_search_records_campaign_rounds(self, capsys, tmp_path):
        db = tmp_path / "runs.sqlite"
        assert main(["search", "--strategy", "mutate", "--budget", "12",
                     "--no-cache", "--store", str(db)]) == 0
        capsys.readouterr()
        from repro.store import CampaignStore

        with CampaignStore(db) as store:
            campaigns = store.campaigns()
            assert [c.name for c in campaigns] == ["search/toy-cliff/mutate"]
            rows = store.shard_rows(store.runs(campaigns[0].name)[0].id)
        assert all("score" in row.result for row in rows)
        assert all(row.params["round"] == 0 for row in rows)

    def test_search_report_renders_convergence(self, capsys, tmp_path):
        db = tmp_path / "runs.sqlite"
        assert main(["search", "--strategy", "bandit", "--budget", "8",
                     "--no-cache", "--store", str(db)]) == 0
        capsys.readouterr()
        assert main(["report", "--store", str(db), "--no-gate"]) == 0
        out = capsys.readouterr().out
        assert "Search convergence" in out
        assert "search/toy-cliff/bandit" in out

    def test_bad_strategy_rejected_by_parser(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["search", "--strategy", "simulated-annealing"])


class TestEnvironmentReads:
    def test_only_the_edges_read_the_environment(self):
        """Below the CLI, only the store, engine and cache env helpers look."""
        import re
        from pathlib import Path

        import repro

        root = Path(repro.__file__).parent
        readers = {
            path.relative_to(root).as_posix()
            for path in root.rglob("*.py")
            if re.search(r"os\.environ|os\.getenv", path.read_text())
        }
        assert readers <= {
            "cli.py", "store/ingest.py", "engine/__init__.py", "runner/cache.py",
        }
