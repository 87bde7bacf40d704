import csv
import json
import os

import pytest

from brokenchains.cli import main
from brokenchains.graphs import read_edge_list


class TestGen:
    def test_writes_edge_list(self, tmp_path, capsys):
        rc = main([
            "gen", "--n", "12", "--density", "0.5", "--seed", "3",
            "--out", str(tmp_path),
        ])
        assert rc == 0
        g = read_edge_list(tmp_path / "graph.txt")
        assert g.n == 12

    def test_bad_density_exit_2(self, tmp_path, capsys):
        rc = main([
            "gen", "--n", "5", "--density", "2.0", "--out", str(tmp_path),
        ])
        assert rc == 2


class TestEmbed:
    def test_writes_embedding_json(self, tmp_path, capsys):
        rc = main([
            "embed", "--k", "9", "--topology", "2,2,4", "--out", str(tmp_path),
        ])
        assert rc == 0
        doc = json.loads((tmp_path / "embedding.json").read_text())
        assert len(doc) == 9

    def test_over_capacity_exit_2(self, tmp_path, capsys):
        rc = main([
            "embed", "--k", "99", "--topology", "2,2,4", "--out", str(tmp_path),
        ])
        assert rc == 2


class TestSampleUnembedRoundTrip:
    def test_pipeline(self, tmp_path, capsys):
        rc = main([
            "gen", "--n", "10", "--density", "0.5", "--seed", "1",
            "--out", str(tmp_path), "--name", "g.txt",
        ])
        assert rc == 0
        graph_path = str(tmp_path / "g.txt")
        rc = main([
            "sample", "--graph", graph_path, "--problem", "max_cut",
            "--reads", "10", "--sweeps", "30", "--topology", "4,4,4",
            "--seed", "2", "--out", str(tmp_path),
        ])
        assert rc == 0
        for name in ("samples.json", "samples.csv", "embedding.json", "model.json"):
            assert (tmp_path / name).exists()
        for method in ("majority", "random", "minenergy", "tailored"):
            rc = main([
                "unembed", "--graph", graph_path, "--problem", "max_cut",
                "--samples", str(tmp_path / "samples.json"),
                "--embedding", str(tmp_path / "embedding.json"),
                "--model", str(tmp_path / "model.json"),
                "--method", method, "--seed", "3",
                "--out", str(tmp_path / method),
            ])
            assert rc == 0
            with open(tmp_path / method / "unembedded.csv") as fh:
                rows = list(csv.DictReader(fh))
            assert len(rows) == 10
            assert set(rows[0]) == {
                "read", "method", "objective", "feasible",
                "broken_chains", "broken_frac",
            }


class TestSampleValidation:
    @pytest.mark.parametrize("flag,value", [
        ("--reads", "0"),
        ("--sweeps", "0"),
        ("--chain-strength", "-1"),
        ("--topology", "4,3,4"),
    ])
    def test_bad_value_exit_2(self, tmp_path, capsys, flag, value):
        assert main(["gen", "--n", "6", "--density", "0.5", "--out", str(tmp_path)]) == 0
        args = {"--reads": "4", "--sweeps": "5", "--chain-strength": "2", "--topology": "2,2,4"}
        args[flag] = value
        rc = main(
            ["sample", "--graph", str(tmp_path / "graph.txt"), "--problem", "max_cut",
             "--out", str(tmp_path / "out")]
            + [x for item in args.items() for x in item]
        )
        assert rc == 2
        assert capsys.readouterr().err.startswith("configuration error:")
        assert not (tmp_path / "out").exists()


class TestUnembedRejectsMismatchedArtifacts:
    def sampled(self, tmp_path):
        for name, seed in (("g.txt", "1"), ("other.txt", "2")):
            rc = main(["gen", "--n", "6", "--density", "0.5", "--seed", seed,
                       "--out", str(tmp_path), "--name", name])
            assert rc == 0
        rc = main(["sample", "--graph", str(tmp_path / "g.txt"), "--problem", "max_cut",
                   "--reads", "4", "--sweeps", "5", "--topology", "2,2,4",
                   "--out", str(tmp_path)])
        assert rc == 0

    def unembed(self, tmp_path, graph="g.txt", problem="max_cut"):
        return main([
            "unembed", "--graph", str(tmp_path / graph), "--problem", problem,
            "--samples", str(tmp_path / "samples.json"),
            "--embedding", str(tmp_path / "embedding.json"),
            "--model", str(tmp_path / "model.json"),
            "--method", "majority", "--out", str(tmp_path / "out"),
        ])

    def test_matching_artifacts_accepted(self, tmp_path, capsys):
        self.sampled(tmp_path)
        assert self.unembed(tmp_path) == 0

    def test_wrong_graph_exit_2(self, tmp_path, capsys):
        self.sampled(tmp_path)
        capsys.readouterr()
        assert self.unembed(tmp_path, graph="other.txt") == 2
        err = capsys.readouterr().err
        assert "model.json is not the max_cut model of" in err and "other.txt" in err
        assert not (tmp_path / "out").exists()

    def test_wrong_problem_exit_2(self, tmp_path, capsys):
        self.sampled(tmp_path)
        capsys.readouterr()
        assert self.unembed(tmp_path, problem="graph_partitioning") == 2
        err = capsys.readouterr().err
        assert "model.json is not the graph_partitioning model of" in err
        assert not (tmp_path / "out").exists()

    def test_chain_qubits_outside_samples_exit_2(self, tmp_path, capsys):
        self.sampled(tmp_path)
        # same six variables, but the chains sit on a 3x3 Chimera's qubits
        assert main(["embed", "--k", "6", "--topology", "3,3,4", "--out", str(tmp_path)]) == 0
        capsys.readouterr()
        assert self.unembed(tmp_path) == 2
        assert "chain qubits of" in capsys.readouterr().err


class TestExperimentCommands:
    def test_fig3_writes_csv_and_manifest(self, tmp_path, capsys):
        rc = main([
            "fig3", "--problem", "max_cut", "--n", "10", "--density", "0.5",
            "--graphs", "1", "--reads", "10", "--sweeps", "30",
            "--topology", "4,4,4", "--seed", "4", "--out", str(tmp_path),
        ])
        assert rc == 0
        assert (tmp_path / "fig3.csv").exists()
        manifest = json.loads((tmp_path / "fig3_manifest.json").read_text())
        assert manifest["experiment"] == "fig3"
        assert manifest["config"]["problem"] == "max_cut"

    def test_fig2_runs(self, tmp_path, capsys):
        rc = main([
            "fig2", "--problem", "max_clique", "--n", "8", "--density", "0.5",
            "--graphs", "1", "--reads", "5", "--sweeps", "20",
            "--topology", "4,4,4", "--out", str(tmp_path),
        ])
        assert rc == 0
        header = (tmp_path / "fig2.csv").read_text().splitlines()[0]
        assert header == (
            "problem,density,chain_strength,method,graph_seed,objective,feasible,"
            "broken_frac_mean,broken_frac_std,ratio_vs_majority,ratio_vs_random,"
            "ratio_vs_minenergy"
        )

    def test_fig4_requires_grid(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as err:
            main([
                "fig4", "--problem", "max_cut", "--n", "8", "--density", "0.5",
                "--graphs", "1", "--reads", "5", "--out", str(tmp_path),
            ])
        assert err.value.code == 2

    def test_fig4_runs(self, tmp_path, capsys):
        rc = main([
            "fig4", "--problem", "max_cut", "--n", "8", "--density", "0.5",
            "--graphs", "1", "--reads", "5", "--sweeps", "20",
            "--topology", "4,4,4", "--grid", "0.5,5.0", "--out", str(tmp_path),
        ])
        assert rc == 0
        assert (tmp_path / "fig4.csv").exists()

    def test_config_error_exit_2(self, tmp_path, capsys):
        rc = main([
            "fig3", "--problem", "max_cut", "--n", "500", "--density", "0.5",
            "--graphs", "1", "--reads", "5", "--out", str(tmp_path),
        ])
        assert rc == 2

    def test_determinism_byte_identical(self, tmp_path, capsys):
        args = [
            "fig3", "--problem", "min_vertex_cover", "--n", "10",
            "--density", "0.4", "--graphs", "1", "--reads", "10",
            "--sweeps", "30", "--topology", "4,4,4", "--seed", "9",
        ]
        rc = main(args + ["--out", str(tmp_path / "a")])
        assert rc == 0
        rc = main(args + ["--out", str(tmp_path / "b")])
        assert rc == 0
        a = (tmp_path / "a" / "fig3.csv").read_bytes()
        b = (tmp_path / "b" / "fig3.csv").read_bytes()
        assert a == b
