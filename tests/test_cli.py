"""Tests for the command-line interface."""

from __future__ import annotations

import hashlib
import io
import json
import os
import subprocess
import sys

import pytest

from repro.campaign import CampaignRunner, variant_grid
from repro.cli import EXPERIMENTS, build_parser, main
from repro.fleet import DevicePopulation, FleetSimulator, ShardedFleetSimulator


class TestParser:
    def test_requires_a_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_run_requires_known_experiment(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "fig99"])

    def test_run_defaults(self):
        args = build_parser().parse_args(["run", "table1"])
        assert args.scale == "quick"
        assert args.seed == 2020

    def test_simulate_defaults(self):
        args = build_parser().parse_args(["simulate"])
        assert args.setting == "low"
        assert args.controller == "spot_confidence"

    def test_train_requires_output(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["train"])

    def test_fleet_defaults(self):
        args = build_parser().parse_args(["fleet"])
        assert args.devices == 100
        assert args.duration == 600.0
        assert args.engine == "batched"
        assert args.out is None


class TestExperimentsCommand:
    def test_lists_every_experiment(self):
        out = io.StringIO()
        assert main(["experiments"], out=out) == 0
        text = out.getvalue()
        for name in EXPERIMENTS:
            assert name in text


class TestRunCommand:
    def test_run_table1_prints_configurations(self):
        out = io.StringIO()
        assert main(["run", "table1"], out=out) == 0
        text = out.getvalue()
        assert "F100_A128" in text
        assert "F6.25_A8" in text

    def test_run_memory_prints_savings(self):
        out = io.StringIO()
        assert main(["run", "memory"], out=out) == 0
        assert "memory saving vs IbA" in out.getvalue()


class TestTrainAndSimulate:
    def test_train_writes_model_file(self, tmp_path):
        out = io.StringIO()
        model_path = tmp_path / "model.json"
        code = main(
            ["train", "--output", str(model_path), "--windows", "6", "--seed", "1"],
            out=out,
        )
        assert code == 0
        assert model_path.exists()
        assert "trained shared classifier" in out.getvalue()

    def test_simulate_with_saved_model(self, tmp_path):
        model_path = tmp_path / "model.json"
        main(["train", "--output", str(model_path), "--windows", "6", "--seed", "1"],
             out=io.StringIO())
        out = io.StringIO()
        code = main(
            [
                "simulate",
                "--model", str(model_path),
                "--setting", "low",
                "--duration", "120",
                "--controller", "spot",
                "--threshold", "5",
                "--seed", "3",
            ],
            out=out,
        )
        assert code == 0
        text = out.getvalue()
        assert "accuracy" in text
        assert "power saving" in text

    def test_fleet_runs_and_exports_json(self, tmp_path):
        out = io.StringIO()
        report_path = tmp_path / "fleet.json"
        code = main(
            [
                "fleet",
                "--devices", "4",
                "--duration", "15",
                "--windows", "6",
                "--seed", "5",
                "--out", str(report_path),
            ],
            out=out,
        )
        assert code == 0
        text = out.getvalue()
        assert "engine             : batched" in text
        assert "device-seconds/s" in text
        assert "config dwell" in text
        report = json.loads(report_path.read_text())
        assert report["fleet"]["num_devices"] == 4
        assert len(report["devices"]) == 4

    def test_fleet_sequential_engine_matches_batched(self, tmp_path):
        outputs = {}
        for engine in ("batched", "sequential"):
            path = tmp_path / f"{engine}.json"
            code = main(
                [
                    "fleet",
                    "--devices", "3",
                    "--duration", "10",
                    "--windows", "6",
                    "--seed", "5",
                    "--engine", engine,
                    "--out", str(path),
                ],
                out=io.StringIO(),
            )
            assert code == 0
            outputs[engine] = json.loads(path.read_text())
        assert outputs["batched"]["devices"] == outputs["sequential"]["devices"]

    def test_fleet_sharded_engine_matches_batched(self, tmp_path):
        outputs = {}
        for engine, extra in (
            ("batched", []),
            ("sharded", ["--shards", "2"]),
        ):
            path = tmp_path / f"{engine}.json"
            out = io.StringIO()
            code = main(
                [
                    "fleet",
                    "--devices", "4",
                    "--duration", "10",
                    "--windows", "6",
                    "--seed", "5",
                    "--engine", engine,
                    "--out", str(path),
                ]
                + extra,
                out=out,
            )
            assert code == 0
            if engine == "sharded":
                assert "sharded (2 shards" in out.getvalue()
            outputs[engine] = json.loads(path.read_text())
        assert outputs["sharded"] == outputs["batched"]

    def test_fleet_exact_features_flag(self):
        out = io.StringIO()
        code = main(
            [
                "fleet",
                "--devices", "2",
                "--duration", "8",
                "--windows", "6",
                "--seed", "5",
                "--features", "exact",
            ],
            out=out,
        )
        assert code == 0
        assert "features           : exact" in out.getvalue()

    def test_simulate_trains_fresh_model_when_none_given(self):
        out = io.StringIO()
        code = main(
            [
                "simulate",
                "--setting", "high",
                "--duration", "90",
                "--controller", "static",
                "--windows", "6",
                "--seed", "4",
            ],
            out=out,
        )
        assert code == 0
        assert "average current    : 180.0 uA" in out.getvalue()


class TestModuleEntryPoint:
    def test_python_dash_m_repro_invokes_cli(self):
        """``python -m repro`` must reach the same main()."""
        env = dict(os.environ)
        src = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        completed = subprocess.run(
            [sys.executable, "-m", "repro", "experiments"],
            capture_output=True,
            text=True,
            env=env,
            timeout=120,
        )
        assert completed.returncode == 0
        assert "table1" in completed.stdout


class TestObservabilityFlags:
    def test_flags_parsed_with_defaults(self):
        args = build_parser().parse_args(["fleet"])
        assert args.metrics is None
        assert args.trace_events is None
        assert args.prometheus is None
        assert args.log_level is None

    def test_log_level_accepted_after_subcommand(self):
        args = build_parser().parse_args(["fleet", "--log-level", "debug"])
        assert args.log_level == "debug"
        with pytest.raises(SystemExit):
            build_parser().parse_args(["fleet", "--log-level", "loud"])

    def test_fleet_exports_metrics_trace_and_prometheus(self, tmp_path):
        metrics_path = tmp_path / "metrics.json"
        trace_path = tmp_path / "trace.json"
        prom_path = tmp_path / "prom.txt"
        out = io.StringIO()
        code = main(
            [
                "fleet",
                "--devices", "3",
                "--duration", "10",
                "--windows", "6",
                "--seed", "5",
                "--metrics", str(metrics_path),
                "--trace-events", str(trace_path),
                "--prometheus", str(prom_path),
            ],
            out=out,
        )
        assert code == 0
        text = out.getvalue()
        assert f"metrics            -> {metrics_path}" in text
        assert f"trace events       -> {trace_path}" in text

        metrics = json.loads(metrics_path.read_text())
        assert metrics["counters"]["engine.ticks"] == 10.0
        assert metrics["counters"]["engine.windows_classified"] == 30.0
        assert metrics["meta"]["engine"] == "batched"
        assert "tick.sense" in metrics["histograms"]

        trace = json.loads(trace_path.read_text())
        spans = [e for e in trace["traceEvents"] if e["ph"] == "X"]
        assert spans
        assert all("ts" in e and "dur" in e for e in spans)

        prom = prom_path.read_text()
        assert "# TYPE repro_engine_ticks counter" in prom

    def test_metered_fleet_telemetry_matches_unmetered(self, tmp_path):
        """--metrics must not perturb the simulated fleet."""
        outputs = {}
        for name, extra in (
            ("plain", []),
            ("metered", ["--metrics", str(tmp_path / "m.json")]),
        ):
            path = tmp_path / f"{name}.json"
            code = main(
                [
                    "fleet",
                    "--devices", "3",
                    "--duration", "10",
                    "--windows", "6",
                    "--seed", "5",
                    "--out", str(path),
                ]
                + extra,
                out=io.StringIO(),
            )
            assert code == 0
            outputs[name] = json.loads(path.read_text())
        assert outputs["metered"] == outputs["plain"]

    def test_sharded_fleet_prints_per_shard_lines_and_merges_metrics(
        self, tmp_path
    ):
        metrics_path = tmp_path / "metrics.json"
        out = io.StringIO()
        code = main(
            [
                "fleet",
                "--devices", "4",
                "--duration", "10",
                "--windows", "6",
                "--seed", "5",
                "--engine", "sharded",
                "--shards", "2",
                "--metrics", str(metrics_path),
            ],
            out=out,
        )
        assert code == 0
        text = out.getvalue()
        assert "shard 0" in text and "shard 1" in text
        assert "shard skew" in text
        metrics = json.loads(metrics_path.read_text())
        # Two worker runs merged, plus the coordinator's heartbeats.
        assert metrics["counters"]["engine.runs"] == 2.0
        assert metrics["counters"]["engine.windows_classified"] == 40.0
        assert metrics["histograms"]["shard.elapsed_s"]["count"] == 2
        assert metrics["gauges"]["shard.count"] == 2.0


class TestFleetFaultTolerance:
    def test_resilience_flags_parsed(self):
        args = build_parser().parse_args(
            [
                "fleet",
                "--engine", "sharded",
                "--max-retries", "5",
                "--shard-timeout", "30",
                "--checkpoint", "ckpts",
                "--round", "120",
                "--resume",
            ]
        )
        assert args.max_retries == 5
        assert args.shard_timeout == 30.0
        assert args.checkpoint == "ckpts"
        assert args.round_s == 120.0
        assert args.resume is True
        defaults = build_parser().parse_args(["fleet"])
        assert defaults.max_retries == 2
        assert defaults.shard_timeout is None
        assert defaults.checkpoint is None
        assert defaults.resume is False

    def test_injected_kill_recovers_and_reports(self, tmp_path, monkeypatch):
        """REPRO_FAULT_PLAN-driven worker kill: the CLI run retries,
        prints the recovery line and exports the failure counters."""
        monkeypatch.setenv("REPRO_FAULT_PLAN", "kill:shard=1,round=0")
        metrics_path = tmp_path / "metrics.json"
        faulty = io.StringIO()
        code = main(
            [
                "fleet",
                "--devices", "4",
                "--duration", "10",
                "--windows", "6",
                "--seed", "5",
                "--engine", "sharded",
                "--shards", "2",
                "--out", str(tmp_path / "faulty.json"),
                "--metrics", str(metrics_path),
            ],
            out=faulty,
        )
        assert code == 0
        assert "recovery         : 1 retries" in faulty.getvalue()
        metrics = json.loads(metrics_path.read_text())
        assert metrics["counters"]["shard.retries"] == 1.0
        assert metrics["counters"]["shard.failures"] == 1.0

        monkeypatch.delenv("REPRO_FAULT_PLAN")
        clean = io.StringIO()
        code = main(
            [
                "fleet",
                "--devices", "4",
                "--duration", "10",
                "--windows", "6",
                "--seed", "5",
                "--engine", "sharded",
                "--shards", "2",
                "--out", str(tmp_path / "clean.json"),
            ],
            out=clean,
        )
        assert code == 0
        assert "recovery" not in clean.getvalue()
        faulty_report = json.loads((tmp_path / "faulty.json").read_text())
        clean_report = json.loads((tmp_path / "clean.json").read_text())
        assert faulty_report == clean_report

    def test_checkpoint_and_resume_round_trip(self, tmp_path):
        """A fresh checkpointed campaign and its resume produce the
        same telemetry report."""
        directory = tmp_path / "campaign"
        reports = {}
        for name, extra in (
            ("fresh", []),
            ("resumed", ["--resume"]),
        ):
            path = tmp_path / f"{name}.json"
            out = io.StringIO()
            code = main(
                [
                    "fleet",
                    "--devices", "4",
                    "--duration", "10",
                    "--windows", "6",
                    "--seed", "5",
                    "--engine", "sharded",
                    "--shards", "2",
                    "--checkpoint", str(directory),
                    "--round", "4",
                    "--out", str(path),
                ]
                + extra,
                out=out,
            )
            assert code == 0
            assert "checkpoints      :" in out.getvalue()
            reports[name] = json.loads(path.read_text())
        assert reports["fresh"] == reports["resumed"]
        assert (directory / "manifest.json").is_file()


class TestFleetNoiseMode:
    def test_noise_flag_parsed(self):
        args = build_parser().parse_args(["fleet", "--noise", "batched"])
        assert args.noise == "batched"
        assert build_parser().parse_args(["fleet"]).noise == "per_device"

    def test_batched_noise_engines_agree(self, tmp_path):
        """The batched acquisition layer must give identical telemetry
        from the lock-step and sharded engines (same-mode bit-identity),
        through the CLI plumbing."""
        outputs = {}
        for engine, extra in (
            ("batched", []),
            ("sharded", ["--shards", "2"]),
        ):
            path = tmp_path / f"{engine}.json"
            out = io.StringIO()
            code = main(
                [
                    "fleet",
                    "--devices", "4",
                    "--duration", "10",
                    "--windows", "6",
                    "--seed", "5",
                    "--engine", engine,
                    "--noise", "batched",
                    "--out", str(path),
                ]
                + extra,
                out=out,
            )
            assert code == 0
            assert "noise              : batched" in out.getvalue()
            outputs[engine] = json.loads(path.read_text())
        assert outputs["batched"]["devices"] == outputs["sharded"]["devices"]


class TestResumeRequiresCheckpoint:
    @pytest.mark.parametrize("command", ["fleet", "campaign"])
    def test_resume_without_checkpoint_fails_fast(self, command, capsys):
        """--resume without --checkpoint DIR is an argparse error (exit
        code 2) before any training or simulation starts."""
        with pytest.raises(SystemExit) as excinfo:
            main([command, "--resume"])
        assert excinfo.value.code == 2
        assert "--resume requires --checkpoint" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["fleet", "campaign"])
    def test_resume_with_checkpoint_parses(self, command):
        args = build_parser().parse_args(
            [command, "--resume", "--checkpoint", "ckpts"]
        )
        assert args.resume is True
        assert args.checkpoint == "ckpts"


class TestArgumentValidation:
    @pytest.mark.parametrize(
        "argv, message",
        [
            (["fleet", "--duration", "0.5"], "--duration: must cover at least one"),
            (["campaign", "--duration", "0.5"], "--duration: must cover at least one"),
            (["fleet", "--devices", "0"], "--devices: must be at least 1"),
            (["campaign", "--devices", "-3"], "--devices: must be at least 1"),
            (["fleet", "--shards", "0"], "--shards: must be at least 1"),
            (["campaign", "--shards", "0"], "--shards: must be at least 1"),
            (["fleet", "--round", "0"], "--round: must be a positive finite"),
            (["campaign", "--round", "nan"], "--round: must be a positive finite"),
            (["fleet", "--devices", "ten"], "--devices: expected an integer"),
            (
                ["campaign", "--confidences", "0.8,1.5"],
                "--confidences: confidence threshold must lie in [0, 1]",
            ),
            (
                ["campaign", "--confidences", "1.5"],
                "--confidences: confidence threshold must lie in [0, 1]",
            ),
            (
                ["campaign", "--thresholds", "-3"],
                "--thresholds: stability threshold must be a non-negative integer",
            ),
            (["campaign", "--thresholds", "10,x"], "--thresholds: cannot parse 'x'"),
            (
                ["campaign", "--thresholds", ","],
                "--thresholds: expected a comma-separated list",
            ),
            (
                ["campaign", "--kinds", "bogus"],
                "--kinds: controller kind must be one of",
            ),
            (
                ["campaign", "--kinds", "spot,intensity"],
                "--kinds: controller kind 'intensity' cannot be forced",
            ),
            (
                ["campaign", "--tables", "F100_A128+bogus"],
                "--tables: malformed configuration name",
            ),
            (["fleet", "--windows", "0"], "--windows: must be at least 1"),
            (["campaign", "--windows", "0"], "--windows: must be at least 1"),
            (["fleet", "--heartbeat", "-1"], "--heartbeat: must be a positive finite"),
            (
                ["campaign", "--heartbeat", "0"],
                "--heartbeat: must be a positive finite",
            ),
            (["fleet", "--max-retries", "-1"], "--max-retries: must be at least 0"),
            (
                ["fleet", "--shard-timeout", "-2"],
                "--shard-timeout: must be a positive finite",
            ),
        ],
    )
    def test_bad_values_are_argparse_errors(self, argv, message, capsys):
        """Bad values exit like any argparse error — code 2 and a
        one-line message naming the command and flag, no traceback —
        before any training or simulation starts."""
        with pytest.raises(SystemExit) as excinfo:
            main(argv, out=io.StringIO())
        assert excinfo.value.code == 2
        error = capsys.readouterr().err
        last = error.strip().splitlines()[-1]
        assert last.startswith(f"adasense-repro {argv[0]}: error: argument ")
        assert message in last
        assert "Traceback" not in error

    def test_grid_axes_stay_raw_strings(self):
        """Validated grid axes keep their comma text: callers (the
        campaign command, the benchmark child) split it themselves."""
        args = build_parser().parse_args(
            [
                "campaign", "--thresholds", "5,10", "--confidences", "0.7,0.9",
                "--kinds", "spot,spot_confidence",
                "--tables", "F100_A128+F12.5_A8,F50_A16",
            ]
        )
        assert args.thresholds == "5,10"
        assert args.confidences == "0.7,0.9"
        assert args.kinds == "spot,spot_confidence"
        assert args.tables == "F100_A128+F12.5_A8,F50_A16"

    @pytest.mark.parametrize(
        "axes, message",
        [
            (dict(confidence_thresholds=[0.8, 1.5]), "confidence threshold"),
            (dict(stability_thresholds=[-3]), "stability threshold"),
            (dict(stability_thresholds=[2.5]), "stability threshold"),
            (dict(controller_kinds=["bogus"]), "controller kind"),
            (
                dict(controller_kinds=["spot", "intensity"]),
                "calibrated per population",
            ),
            (dict(config_tables=[("F100_A128", "bogus")]), "malformed"),
            (dict(config_tables=[()]), "at least one configuration"),
        ],
    )
    def test_variant_grid_validates_values(self, axes, message):
        """Library callers fail when they build the grid, not when a
        device of some population first reads the bad value."""
        with pytest.raises(ValueError, match=message):
            variant_grid(**axes)

    def test_sub_tick_duration_rejected_by_the_library(self, trained_pipeline):
        population = DevicePopulation.generate(2, duration_s=5.0, master_seed=1)
        simulator = FleetSimulator(trained_pipeline)
        for run in (
            simulator.run,
            simulator.run_sequential,
            ShardedFleetSimulator(trained_pipeline, num_shards=1).run,
            CampaignRunner(trained_pipeline, variant_grid()).run,
        ):
            with pytest.raises(ValueError, match="shorter than one 1.0 s tick"):
                run(population, duration_s=0.4)


class TestGoldenReport:
    #: SHA-256 of the report below, recorded before the per-device-noise
    #: lane moved onto the cached acquisition layer; any drift in that
    #: lane (the CLI default) changes it.
    GOLDEN_SHA256 = (
        "f0edd7c8dca32aa6fb6ffb944c9020801730f9d5bcfe168d0b8dabb7a74b1403"
    )

    def test_default_fleet_report_is_pinned(self, tmp_path):
        path = tmp_path / "fleet.json"
        code = main(
            [
                "fleet",
                "--devices", "12",
                "--duration", "20",
                "--windows", "6",
                "--seed", "5",
                "--out", str(path),
            ],
            out=io.StringIO(),
        )
        assert code == 0
        digest = hashlib.sha256(path.read_bytes()).hexdigest()
        assert digest == self.GOLDEN_SHA256

    #: SHA-256s of a batched-noise fleet report and of a small campaign
    #: report (host-time fields removed), recorded before the chunk
    #: kernel moved to its time-major spelling and before windows that
    #: straddle a bout boundary joined the fused synthesis pass.  Both
    #: runs cross bout boundaries mid-window, and the reference loop
    #: shares the chunk kernel, so only these pins catch a drift there.
    BATCHED_FLEET_SHA256 = (
        "c375cc20beef0828b6cd33cedbb750e7a1560dfb73cc5940823a81019a1234b7"
    )
    CAMPAIGN_SHA256 = (
        "5a2e8046e766e6b2ca3ca8beba56baacf2b606cd583e996f0121084227b65b97"
    )

    def test_batched_fleet_report_is_pinned(self, tmp_path):
        path = tmp_path / "fleet.json"
        code = main(
            [
                "fleet",
                "--devices", "16",
                "--duration", "40",
                "--windows", "6",
                "--seed", "5",
                "--noise", "batched",
                "--out", str(path),
            ],
            out=io.StringIO(),
        )
        assert code == 0
        digest = hashlib.sha256(path.read_bytes()).hexdigest()
        assert digest == self.BATCHED_FLEET_SHA256

    def test_campaign_report_is_pinned(self, tmp_path):
        path = tmp_path / "campaign.json"
        code = main(
            [
                "campaign",
                "--devices", "6",
                "--duration", "30",
                "--windows", "6",
                "--seed", "5",
                "--thresholds", "10,30",
                "--confidences", "0.75,0.9",
                "--out", str(path),
            ],
            out=io.StringIO(),
        )
        assert code == 0
        report = json.loads(path.read_bytes())
        del report["meta"]["elapsed_s"]
        del report["meta"]["throughput_device_seconds_per_s"]
        data = json.dumps(report, sort_keys=True).encode()
        assert hashlib.sha256(data).hexdigest() == self.CAMPAIGN_SHA256


class TestCampaignCommand:
    def test_campaign_defaults(self):
        args = build_parser().parse_args(["campaign"])
        assert args.devices == 100
        assert args.duration == 600.0
        assert args.noise == "batched"
        assert args.trace == "summary"
        assert args.shards is None
        assert args.thresholds is None

    def test_campaign_runs_and_exports_report(self, tmp_path):
        out = io.StringIO()
        report_path = tmp_path / "campaign.json"
        metrics_path = tmp_path / "metrics.json"
        code = main(
            [
                "campaign",
                "--devices", "4",
                "--duration", "15",
                "--windows", "6",
                "--seed", "5",
                "--thresholds", "10,30",
                "--confidences", "0.75,0.9",
                "--out", str(report_path),
                "--metrics", str(metrics_path),
            ],
            out=out,
        )
        assert code == 0
        text = out.getvalue()
        assert "variants           : 4" in text
        assert "pareto fronts" in text
        report = json.loads(report_path.read_text())
        assert report["schema"] == "repro.campaign/v1"
        assert report["meta"]["num_variants"] == 4
        assert report["meta"]["virtual_devices"] == 16
        assert "fleet" in report["pareto_fronts"]
        metrics = json.loads(metrics_path.read_text())
        assert metrics["gauges"]["campaign.variants"] == 4.0
        assert metrics["counters"]["campaign.shared_group_hits"] > 0.0

    def test_campaign_sharded_matches_in_process(self, tmp_path):
        reports = {}
        for label, extra in (
            ("inline", []),
            ("sharded", ["--shards", "2"]),
        ):
            path = tmp_path / f"{label}.json"
            code = main(
                [
                    "campaign",
                    "--devices", "4",
                    "--duration", "10",
                    "--windows", "6",
                    "--seed", "5",
                    "--thresholds", "10,30",
                    "--out", str(path),
                ]
                + extra,
                out=io.StringIO(),
            )
            assert code == 0
            reports[label] = json.loads(path.read_text())
        inline = dict(reports["inline"])
        sharded = dict(reports["sharded"])
        # Wall-clock and shard count legitimately differ; everything
        # else (variant telemetry, Pareto fronts) must be identical.
        for report in (inline, sharded):
            report["meta"] = {
                key: value
                for key, value in report["meta"].items()
                if key
                not in ("elapsed_s", "throughput_device_seconds_per_s",
                        "num_shards")
            }
        assert inline == sharded


class TestLiveTelemetry:
    def test_live_flags_parsed(self):
        args = build_parser().parse_args(
            [
                "fleet",
                "--engine", "sharded",
                "--watch",
                "--events", "events.ndjson",
                "--heartbeat", "5",
                "--flight", "flightdir",
            ]
        )
        assert args.watch is True
        assert args.events == "events.ndjson"
        assert args.heartbeat_s == 5.0
        assert args.flight == "flightdir"
        defaults = build_parser().parse_args(["fleet"])
        assert defaults.watch is False
        assert defaults.events is None
        assert defaults.heartbeat_s is None
        assert defaults.flight is None

    @pytest.mark.parametrize(
        "flag", [["--watch"], ["--events", "e"], ["--heartbeat", "5"],
                 ["--flight", "f"]]
    )
    def test_fleet_live_flags_require_sharded_engine(self, flag, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["fleet", "--devices", "4"] + flag, out=io.StringIO())
        assert excinfo.value.code == 2
        assert "requires --engine sharded" in capsys.readouterr().err

    def test_monitored_fleet_matches_unmonitored(self, tmp_path):
        """--events/--heartbeat leave the exported telemetry report
        bit-identical and write a schema-valid NDJSON stream."""
        from repro.obs import validate_events_file

        events_path = tmp_path / "events.ndjson"
        reports = {}
        for label, extra in (
            ("plain", []),
            (
                "monitored",
                ["--events", str(events_path), "--heartbeat", "2"],
            ),
        ):
            path = tmp_path / f"{label}.json"
            out = io.StringIO()
            code = main(
                [
                    "fleet",
                    "--devices", "4",
                    "--duration", "10",
                    "--windows", "6",
                    "--seed", "5",
                    "--engine", "sharded",
                    "--shards", "2",
                    "--out", str(path),
                ]
                + extra,
                out=out,
            )
            assert code == 0
            reports[label] = json.loads(path.read_text())
        assert reports["plain"] == reports["monitored"]
        counts = validate_events_file(events_path)
        assert counts["run_start"] == 1
        assert counts["run_complete"] == 1
        assert counts["heartbeat"] >= 2

    def test_campaign_events_stream(self, tmp_path):
        from repro.obs import validate_events_file

        events_path = tmp_path / "campaign.ndjson"
        out = io.StringIO()
        code = main(
            [
                "campaign",
                "--devices", "4",
                "--duration", "10",
                "--windows", "6",
                "--seed", "5",
                "--thresholds", "10,30",
                "--events", str(events_path),
            ],
            out=out,
        )
        assert code == 0
        assert "event stream" in out.getvalue()
        counts = validate_events_file(events_path)
        assert counts["run_start"] == 1 and counts["run_complete"] == 1
