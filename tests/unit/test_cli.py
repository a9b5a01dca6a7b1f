"""Unit tests for the command-line interface."""

import pytest

from repro.cli import EXPERIMENTS, build_parser, build_serve_parser, main


class TestServeParser:
    def test_defaults(self):
        args = build_serve_parser().parse_args([])
        assert args.host == "127.0.0.1"
        assert args.port == 8080
        assert args.mechanism == "hhc_4"
        assert args.epsilon == pytest.approx(1.1)
        assert args.domain == 1 << 10
        assert args.shards == 2
        assert args.queue_size == 8

    @pytest.mark.parametrize(
        "flag",
        [
            ["--router", "round-robin"],
            ["--parallelism", "1"],
            ["--autoscale"],
            ["--min-shards", "1"],
            ["--max-shards", "8"],
            ["--grow-at", "0.5"],
            ["--shrink-at", "0.2"],
            ["--check-interval", "8"],
        ],
    )
    def test_removed_placement_flags_are_rejected(self, flag, capsys):
        with pytest.raises(SystemExit) as exit_info:
            build_serve_parser().parse_args(flag)
        assert exit_info.value.code == 2
        assert flag[0] in capsys.readouterr().err


class TestParser:
    def test_serve_demo_is_gone(self, capsys):
        assert "serve-demo" not in EXPERIMENTS
        with pytest.raises(SystemExit) as exit_info:
            build_parser().parse_args(["serve-demo"])
        assert exit_info.value.code == 2
        assert "serve-demo" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flag",
        [
            ["--producers", "2"],
            ["--router", "hash"],
            ["--queue-size", "4"],
            ["--parallelism", "1"],
        ],
    )
    def test_removed_serve_demo_flags_are_rejected(self, flag, capsys):
        with pytest.raises(SystemExit) as exit_info:
            build_parser().parse_args(["streaming", *flag])
        assert exit_info.value.code == 2
        assert flag[0] in capsys.readouterr().err

    def test_all_experiments_accepted(self):
        parser = build_parser()
        for experiment in EXPERIMENTS:
            args = parser.parse_args([experiment])
            assert args.experiment == experiment

    def test_defaults(self):
        args = build_parser().parse_args(["table5"])
        assert args.domain == 1 << 10
        assert args.users == 1 << 17
        assert args.epsilon == pytest.approx(1.1)

    def test_overrides(self):
        args = build_parser().parse_args(
            ["fig9", "--domain", "128", "--users", "5000", "--centers", "0.2", "0.6"]
        )
        assert args.domain == 128
        assert args.users == 5000
        assert args.centers == [0.2, 0.6]

    def test_unknown_experiment_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["table99"])

    def test_bench_subcommand_removed(self):
        assert "bench" not in EXPERIMENTS
        with pytest.raises(SystemExit):
            main(["bench"])

    @pytest.mark.parametrize(
        "flag", ["--suite", "--backend", "--transport", "--out", "--compare", "--fail-threshold"]
    )
    def test_bench_only_flags_removed(self, flag):
        # Perf records come from perfbench; no experiment takes these.
        with pytest.raises(SystemExit):
            build_parser().parse_args(["table5", flag, "1"])


TINY = ["--users", "20000", "--repetitions", "1", "--max-queries", "400", "--domain", "64"]


class TestMain:
    def test_table5_runs_and_prints(self, capsys):
        assert main(["table5", *TINY, "--epsilons", "0.4", "1.1"]) == 0
        output = capsys.readouterr().out
        assert "Table 5" in output and "haar" in output

    def test_table6_runs(self, capsys):
        assert main(["table6", *TINY, "--epsilons", "1.1"]) == 0
        assert "Table 6" in capsys.readouterr().out

    def test_fig4_runs(self, capsys):
        assert main(["fig4", *TINY]) == 0
        output = capsys.readouterr().out
        assert "Figure 4" in output and "flat_oue" in output

    def test_fig8_runs(self, capsys):
        assert main(["fig8", *TINY, "--centers", "0.3", "0.7"]) == 0
        assert "Figure 8" in capsys.readouterr().out

    def test_fig9_runs(self, capsys):
        assert main(["fig9", *TINY, "--centers", "0.5"]) == 0
        output = capsys.readouterr().out
        assert "Figure 9" in output and "0.5" in output

    def test_table7_runs(self, capsys):
        assert main(["table7", *TINY, "--domains", "64", "128"]) == 0
        output = capsys.readouterr().out
        assert "Wavelet/HHc_16" in output

    def test_ablations_run(self, capsys):
        assert main(["ablation-sampling", *TINY]) == 0
        assert "sampling" in capsys.readouterr().out
        assert main(["ablation-consistency", *TINY]) == 0
        assert "improvement" in capsys.readouterr().out

    def test_streaming_runs(self, capsys):
        assert main(["streaming", *TINY, "--shards", "2", "--batches", "4"]) == 0
        output = capsys.readouterr().out
        assert "Streaming" in output and "one-shot" in output

    def test_streaming_checkpoint_recovery(self, capsys, tmp_path):
        path = tmp_path / "collector.snap"
        assert (
            main(
                [
                    "streaming",
                    *TINY,
                    "--shards",
                    "2",
                    "--batches",
                    "4",
                    "--checkpoint",
                    str(path),
                ]
            )
            == 0
        )
        output = capsys.readouterr().out
        assert "Crash recovery" in output
        assert "bit-for-bit: True" in output
        assert path.exists()

    def test_table5_with_workers_matches_serial(self, capsys):
        argv = ["table5", *TINY, "--epsilons", "1.1"]
        assert main(argv) == 0
        serial_out = capsys.readouterr().out
        assert main([*argv, "--workers", "2"]) == 0
        parallel_out = capsys.readouterr().out
        assert parallel_out == serial_out

    def test_grid2d_runs(self, capsys):
        assert (
            main(
                [
                    "grid2d",
                    "--users",
                    "4000",
                    "--side",
                    "8",
                    "--shards",
                    "2",
                    "--batches",
                    "4",
                    "--rectangles",
                    "32",
                ]
            )
            == 0
        )
        output = capsys.readouterr().out
        assert "2-D grid" in output and "one-shot" in output and "sharded" in output

    def test_grid2d_checkpoint_recovery(self, capsys, tmp_path):
        path = tmp_path / "grid2d.snap"
        args = [
            "grid2d",
            "--users",
            "4000",
            "--side",
            "8",
            "--shards",
            "2",
            "--batches",
            "4",
            "--rectangles",
            "16",
            "--checkpoint",
            str(path),
        ]
        assert main(args) == 0
        output = capsys.readouterr().out
        assert "Crash recovery" in output
        assert "bit-for-bit: True" in output
        assert path.exists()


class TestPlanCommand:
    @staticmethod
    def _chosen_spec(output):
        line = [row for row in output.splitlines() if row.startswith("chosen spec: ")]
        assert len(line) == 1, output
        return line[0].split()[2]

    def test_prints_the_planner_pick_for_a_sampled_workload(self, capsys):
        from repro.data.workloads import random_range_queries
        from repro.planner import plan

        code = main(
            ["plan", "--domain", "64", "--users", "20000", "--queries", "50",
             "--seed", "5", "--oracles", "oue", "hrr"]
        )
        assert code == 0
        expected = plan(
            random_range_queries(64, 50, random_state=5),
            n_users=20000,
            epsilon=1.1,
            oracles=("oue", "hrr"),
        )
        output = capsys.readouterr().out
        assert self._chosen_spec(output) == expected.spec
        for candidate in expected.candidates:
            assert candidate.spec in output

    def test_default_workload_plans_like_the_library(self, capsys):
        from repro.planner import plan

        assert main(["plan", "--domain", "8", "--dims", "3", "--users", "24000",
                     "--epsilon", "1.4", "--branchings", "2", "4"]) == 0
        expected = plan(n_users=24000, epsilon=1.4, domain_size=8, dims=3, branchings=(2, 4))
        assert self._chosen_spec(capsys.readouterr().out) == expected.spec
