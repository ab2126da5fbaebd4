"""Unit tests for the command-line interface."""

from __future__ import annotations

import json

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        parser = build_parser()
        with pytest.raises(SystemExit):
            parser.parse_args([])

    def test_run_defaults(self):
        args = build_parser().parse_args(["run"])
        assert args.algorithm == "cc"
        assert args.dataset == "covtype"
        assert args.k == 30

    def test_figure_requires_name(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["figure"])

    def test_unknown_algorithm_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "--algorithm", "dbscan"])

    def test_unknown_figure_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["figure", "fig99"])


class TestCommands:
    def test_list_command(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "covtype" in out
        assert "onlinecc" in out
        assert "fig4" in out

    def test_run_command_small(self, capsys):
        exit_code = main(
            [
                "run",
                "--algorithm",
                "cc",
                "--dataset",
                "power",
                "--k",
                "5",
                "--num-points",
                "1500",
                "--query-interval",
                "500",
            ]
        )
        assert exit_code == 0
        out = capsys.readouterr().out
        assert "Run summary" in out
        assert "cc" in out

    def test_run_command_sharded(self, capsys):
        exit_code = main(
            [
                "run",
                "--algorithm",
                "cc",
                "--dataset",
                "power",
                "--k",
                "4",
                "--num-points",
                "1200",
                "--query-interval",
                "600",
                "--shards",
                "2",
                "--backend",
                "process",
            ]
        )
        assert exit_code == 0
        out = capsys.readouterr().out
        assert "Run summary" in out
        assert "ccx2[process]" in out

    def test_run_sharded_rejects_non_tree_algorithms(self):
        with pytest.raises(ValueError):
            main(
                [
                    "run",
                    "--algorithm",
                    "sequential",
                    "--dataset",
                    "power",
                    "--num-points",
                    "500",
                    "--shards",
                    "2",
                ]
            )

    def test_run_rejects_unknown_backend(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "--shards", "2", "--backend", "gpu"])

    def test_run_command_poisson(self, capsys):
        exit_code = main(
            [
                "run",
                "--algorithm",
                "onlinecc",
                "--dataset",
                "power",
                "--k",
                "5",
                "--num-points",
                "1200",
                "--query-interval",
                "400",
                "--poisson",
            ]
        )
        assert exit_code == 0
        assert "onlinecc" in capsys.readouterr().out

    def test_figure_fig4_with_output(self, tmp_path, capsys):
        output = tmp_path / "fig4.json"
        exit_code = main(
            [
                "figure",
                "fig4",
                "--dataset",
                "power",
                "--num-points",
                "1500",
                "--k",
                "5",
                "--output",
                str(output),
            ]
        )
        assert exit_code == 0
        assert output.exists()
        data = json.loads(output.read_text())
        assert "cc" in data
        out = capsys.readouterr().out
        assert "Figure 4" in out

    def test_figure_fig11(self, capsys):
        exit_code = main(
            ["figure", "fig11", "--dataset", "power", "--num-points", "1200", "--k", "5"]
        )
        assert exit_code == 0
        assert "Figure 11" in capsys.readouterr().out


class TestElasticFlags:
    def test_run_command_with_reshard_at(self, capsys):
        exit_code = main(
            [
                "run",
                "--algorithm",
                "cc",
                "--dataset",
                "power",
                "--k",
                "4",
                "--num-points",
                "1500",
                "--query-interval",
                "500",
                "--shards",
                "2",
                "--reshard-at",
                "600:4",
            ]
        )
        assert exit_code == 0
        out = capsys.readouterr().out
        assert "Reshards:" in out
        assert "2 -> 4 shards" in out

    def test_reshard_at_requires_sharded_run(self, capsys):
        exit_code = main(
            [
                "run",
                "--dataset",
                "power",
                "--num-points",
                "500",
                "--reshard-at",
                "100:2",
            ]
        )
        assert exit_code == 2
        assert "--shards > 1" in capsys.readouterr().err

    @pytest.mark.parametrize("spec", ["600", "0:4", "600:0", "x:y"])
    def test_reshard_at_rejects_malformed_specs(self, spec, capsys):
        exit_code = main(
            [
                "run",
                "--dataset",
                "power",
                "--num-points",
                "500",
                "--shards",
                "2",
                "--reshard-at",
                spec,
            ]
        )
        assert exit_code == 2
        assert "--reshard-at" in capsys.readouterr().err
