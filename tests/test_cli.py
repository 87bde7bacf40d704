import csv
import json
import os

import pytest

from brokenchains import bench, cli
from brokenchains.bqm import ISING, build_max_cut_ising, convert, to_json
from brokenchains.cli import main
from brokenchains.graphs import read_edge_list
from brokenchains.sampler import AnnealParams, model_hash, sampleset_to_json, simulated_anneal
from brokenchains.topology import Embedding, chimera, embed_bqm, uniform_torque_compensation


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
        ("--chain-strength", "nan"),
        ("--chain-strength", "inf"),
        ("--topology", "4,3,4"),
        ("--prefactor", "0"),
        ("--prefactor", "nan"),
        ("--prefactor", "inf"),
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

    def test_unread_prefactor_exit_2(self, tmp_path, capsys):
        # a fixed chain strength computes no UTC strength, so a --prefactor
        # would go unread yet be recorded in the provenance
        assert main(["gen", "--n", "6", "--density", "0.5", "--out", str(tmp_path)]) == 0
        rc = main(["sample", "--graph", str(tmp_path / "graph.txt"), "--problem", "max_cut",
                   "--reads", "4", "--sweeps", "5", "--topology", "2,2,4",
                   "--chain-strength", "2", "--prefactor", "9", "--out", str(tmp_path / "out")])
        assert rc == 2
        assert capsys.readouterr().err == (
            "configuration error: sample does not read prefactor 9.0;"
            " only chain strength 'utc' does\n"
        )
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("flags,prefactor", [
        (["--prefactor", "9"], 9.0),
        # the default is recorded where no prefactor is read
        (["--chain-strength", "2"], 1.414),
        # so giving it there records the same, and is accepted
        (["--chain-strength", "2", "--prefactor", "1.414"], 1.414),
    ])
    def test_provenance_records_prefactor(self, tmp_path, capsys, flags, prefactor):
        assert main(["gen", "--n", "6", "--density", "0.5", "--out", str(tmp_path)]) == 0
        rc = main(["sample", "--graph", str(tmp_path / "graph.txt"), "--problem", "max_cut",
                   "--reads", "4", "--sweeps", "5", "--topology", "2,2,4",
                   "--out", str(tmp_path)] + flags)
        assert rc == 0
        doc = json.loads((tmp_path / "samples.json").read_text())
        assert doc["provenance"]["prefactor"] == prefactor

    def test_graph_over_capacity_exit_2(self, tmp_path, capsys):
        assert main(["gen", "--n", "20", "--density", "0.5", "--out", str(tmp_path)]) == 0
        rc = main(["sample", "--graph", str(tmp_path / "graph.txt"), "--problem", "max_cut",
                   "--reads", "4", "--sweeps", "5", "--topology", "2,2,4",
                   "--out", str(tmp_path / "out")])
        assert rc == 2
        assert "K_20 does not fit chimera(2, 2, 4), which embeds K_1 to K_9" in (
            capsys.readouterr().err
        )
        assert not (tmp_path / "out").exists()

    def test_graph_without_vertices_exit_2(self, tmp_path, capsys):
        graph = tmp_path / "graph.txt"
        graph.write_text("0 0\n")
        rc = main(["sample", "--graph", str(graph), "--problem", "max_cut",
                   "--reads", "4", "--sweeps", "5", "--topology", "2,2,4",
                   "--out", str(tmp_path / "out")])
        assert rc == 2
        assert capsys.readouterr().err == (
            f"configuration error: {graph}: K_0 does not fit chimera(2, 2, 4),"
            " which embeds K_1 to K_9\n"
        )
        assert not (tmp_path / "out").exists()

    def test_unembed_graph_without_vertices_exit_2(self, tmp_path, capsys):
        # every artifact belongs to the empty graph, down to the reads' provenance
        graph = tmp_path / "graph.txt"
        graph.write_text("0 0\n")
        model = build_max_cut_ising(read_edge_list(graph))
        (tmp_path / "model.json").write_text(to_json(model))
        (tmp_path / "embedding.json").write_text("{}")
        pm = embed_bqm(model, Embedding.from_chains({}), chimera(2, 2, 4), 1.0)
        provenance = {"chain_strength": 1.0, "prefactor": 1.414, "topology": [2, 2, 4]}
        samples = simulated_anneal(pm, AnnealParams(num_reads=2, sweeps=3))
        (tmp_path / "samples.json").write_text(
            sampleset_to_json(samples, model_hash(pm.ising), provenance)
        )
        rc = main(["unembed", "--graph", str(graph), "--problem", "max_cut",
                   "--samples", str(tmp_path / "samples.json"),
                   "--embedding", str(tmp_path / "embedding.json"),
                   "--model", str(tmp_path / "model.json"),
                   "--method", "majority", "--out", str(tmp_path / "out")])
        assert rc == 2
        assert capsys.readouterr().err == (
            f"configuration error: {graph} has no vertices; unembed needs at least one\n"
        )
        assert not (tmp_path / "out").exists()


def test_one_parser_serves_repeated_calls(tmp_path, capsys):
    # the parser is built once per process, yet no option leaks between calls
    assert cli.build_parser() is cli.build_parser()
    assert main(["gen", "--n", "6", "--density", "0.5", "--seed", "1",
                 "--out", str(tmp_path)]) == 0
    graph = str(tmp_path / "graph.txt")

    def sample(out, *options):
        assert main(["sample", "--graph", graph, "--problem", "max_cut", "--reads", "4",
                     "--sweeps", "5", "--topology", "2,2,4", "--out", str(tmp_path / out),
                     *options]) == 0
        return json.loads((tmp_path / out / "samples.json").read_text())["provenance"]

    assert sample("fixed", "--chain-strength", "3")["chain_strength"] == 3.0
    ising = convert(build_max_cut_ising(read_edge_list(graph)), ISING)
    utc = uniform_torque_compensation(ising, prefactor=bench.ExperimentConfig.prefactor)
    assert utc != 3.0
    assert sample("utc") == {"chain_strength": utc, "prefactor": bench.ExperimentConfig.prefactor,
                             "topology": [2, 2, 4]}
    outputs = []
    for _ in range(2):
        assert main(["unembed", "--graph", graph, "--problem", "max_cut",
                     "--samples", str(tmp_path / "utc" / "samples.json"),
                     "--embedding", str(tmp_path / "utc" / "embedding.json"),
                     "--model", str(tmp_path / "utc" / "model.json"),
                     "--method", "random", "--seed", "4", "--out", str(tmp_path / "out")]) == 0
        outputs.append((tmp_path / "out" / "unembedded.csv").read_bytes())
    assert outputs[0] == outputs[1]
    assert outputs[0].startswith(b"read,method,objective,feasible,broken_chains,broken_frac\n")


@pytest.mark.parametrize("argv,option", [
    (["embed", "--k", "3", "--topology", "2,2,4", "--seed", "5"], "--seed 5"),
    (["fig2", "--problem", "max_cut", "--n", "6", "--density", "0.5", "--graphs", "1",
      "--reads", "4", "--sweeps", "5", "--topology", "2,2,4", "--aggregate", "mean"],
     "--aggregate mean"),
])
def test_option_the_command_does_not_read_exit_2(tmp_path, capsys, argv, option):
    # embed draws nothing and fig2 scores no method, so neither offers the option
    with pytest.raises(SystemExit) as exit_info:
        main(argv + ["--out", str(tmp_path / "out")])
    assert exit_info.value.code == 2
    assert f"unrecognized arguments: {option}" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("argv", [
    ["embed", "--k", "3", "--topology", "0,0,4"],
    ["sample", "--graph", "g.txt", "--problem", "max_cut", "--topology", "3,3,-4"],
    ["fig3", "--problem", "max_cut", "--topology", "2,0,2"],
])
def test_nonpositive_topology_rejected_when_parsed(tmp_path, capsys, argv):
    with pytest.raises(SystemExit) as exit_info:
        main(argv + ["--out", str(tmp_path / "out")])
    assert exit_info.value.code == 2
    assert "topology must be three positive integers" in capsys.readouterr().err
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

    @pytest.mark.parametrize("edit", [
        "bad_character", "short_later_row", "short_then_long", "not_a_string", "qubit_order",
        "num_reads", "qubit_beyond_int64",
    ])
    def test_malformed_samples_exit_2(self, tmp_path, capsys, edit):
        self.sampled(tmp_path)
        path = tmp_path / "samples.json"
        doc = json.loads(path.read_text())
        reads = doc["samples"]
        if edit == "bad_character":
            reads[1]["spins"] = "x" + reads[1]["spins"][1:]
        elif edit == "short_later_row":
            reads[2]["spins"] = reads[2]["spins"][:-1]
        elif edit == "short_then_long":  # the total still fits the reads x qubits array
            reads[1]["spins"] = reads[1]["spins"][:-1]
            reads[2]["spins"] += "+"
        elif edit == "not_a_string":
            reads[1]["spins"] = 5
        elif edit == "num_reads":
            doc["params"]["num_reads"] = 99
        elif edit == "qubit_beyond_int64":  # still ascending
            doc["qubits"][-1] = 2**70
        else:
            doc["qubits"][:2] = doc["qubits"][1::-1]
        path.write_text(json.dumps(doc))
        capsys.readouterr()
        assert self.unembed(tmp_path) == 2
        err = capsys.readouterr().err
        messages = {"qubit_order": "qubits must be", "num_reads": "samples.json: params.num_reads",
                    "qubit_beyond_int64": "samples.json: qubits must be a list of qubit ids"}
        expect = messages.get(edit, "samples.json: read")
        assert err.startswith("configuration error:") and expect in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("name,edit,expect", [
        ("samples.json", "no_params", "sample set has no 'params'"),
        ("samples.json", "no_energy", "read 2 has no 'energy'"),
        ("embedding.json", "list", "embedding must be a JSON object, not list"),
        ("model.json", "no_linear", "model has no 'linear'"),
        ("samples.json", "topology", "provenance topology must be three positive integers, not 4"),
        ("model.json", "null_linear", "model linear 0 must be a real number, not None"),
        ("model.json", "bool_offset", "model offset must be a real number, not True"),
        ("model.json", "null_variable", "model quadratic must be a list of [u, v, coefficient]"),
        ("samples.json", "chain_strength",
         "provenance chain_strength must be a positive real number, not 'x'"),
        ("samples.json", "prefactor", "provenance prefactor must be a positive real number, not 0"),
    ])
    def test_malformed_artifact_exit_2(self, tmp_path, capsys, name, edit, expect):
        self.sampled(tmp_path)
        path = tmp_path / name
        doc = json.loads(path.read_text())
        if edit == "no_params":
            del doc["params"]
        elif edit == "no_energy":
            del doc["samples"][2]["energy"]
        elif edit == "list":
            doc = [1, 2]
        elif edit == "topology":
            doc["provenance"]["topology"] = 4
        elif edit == "null_linear":
            doc["linear"]["0"] = None
        elif edit == "bool_offset":
            doc["offset"] = True
        elif edit == "null_variable":
            doc["quadratic"][0][0] = None
        elif edit in ("chain_strength", "prefactor"):
            doc["provenance"][edit] = "x" if edit == "chain_strength" else 0
        else:
            del doc["linear"]
        path.write_text(json.dumps(doc))
        capsys.readouterr()
        assert self.unembed(tmp_path) == 2
        err = capsys.readouterr().err
        assert err.startswith("configuration error:") and f"{name}: {expect}" in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("keys,value,expect", [
        (("params", "num_reads"), "4", "num_reads must be an integer, not '4'"),
        (("params", "sweeps"), "x", "sweeps must be an integer, not 'x'"),
        (("params", "seed"), True, "seed must be an integer, not True"),
        (("params", "beta_range"), 5, "beta_range must be two real numbers, not 5"),
        (("params", "beta_range", 1), "a", "beta_range entry must be a real number, not 'a'"),
        (("qubits", 3), "a", "qubits must be a list of qubit ids"),
        (("samples", 1, "energy"), None, "read 1 energy must be a real number, not None"),
        (("samples", 0, "energy"), float("nan"), "read 0 energy must be a real number, not nan"),
        (("provenance", "topology", 0), True,
         "provenance topology must be three positive integers, not [True, 2, 4]"),
        (("provenance", "topology", 0), 0,
         "provenance topology must be three positive integers, not [0, 2, 4]"),
    ])
    def test_wrong_typed_samples_value_exit_2(self, tmp_path, capsys, keys, value, expect):
        self.sampled(tmp_path)
        path = tmp_path / "samples.json"
        doc = json.loads(path.read_text())
        target = doc
        for key in keys[:-1]:
            target = target[key]
        target[keys[-1]] = value
        path.write_text(json.dumps(doc))
        capsys.readouterr()
        assert self.unembed(tmp_path) == 2
        err = capsys.readouterr().err
        assert err.startswith("configuration error:") and f"samples.json: {expect}" in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["sample", "unembed"])
    @pytest.mark.parametrize("text,expect", [
        ("6 x\n", "invalid literal for int()"),
        ("6 1\n0 9\n", "edge (0, 9) out of range for n=6"),
        ("3 2\n0 1\n1 0\n", "edge (1, 0) is listed twice"),
    ])
    def test_malformed_graph_exit_2(self, tmp_path, capsys, command, text, expect):
        self.sampled(tmp_path)
        (tmp_path / "bad.txt").write_text(text)
        capsys.readouterr()
        if command == "sample":
            rc = main(["sample", "--graph", str(tmp_path / "bad.txt"), "--problem", "max_cut",
                       "--reads", "4", "--sweeps", "5", "--topology", "2,2,4",
                       "--out", str(tmp_path / "out")])
        else:
            rc = self.unembed(tmp_path, graph="bad.txt")
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("configuration error:") and f"bad.txt: {expect}" in err
        assert not (tmp_path / "out").exists()

    def test_samples_of_another_chain_strength_exit_2(self, tmp_path, capsys):
        self.sampled(tmp_path)
        path = tmp_path / "samples.json"
        record = json.loads(path.read_text())["provenance"]
        rc = main(["sample", "--graph", str(tmp_path / "g.txt"), "--problem", "max_cut",
                   "--reads", "4", "--sweeps", "5", "--topology", "2,2,4",
                   "--chain-strength", "3.0", "--out", str(tmp_path / "strong")])
        assert rc == 0
        doc = json.loads((tmp_path / "strong" / "samples.json").read_text())
        assert doc["provenance"]["chain_strength"] == 3.0 != record["chain_strength"]
        doc["provenance"] = record  # reads drawn at 3.0 that claim the first strength
        path.write_text(json.dumps(doc))
        capsys.readouterr()
        assert self.unembed(tmp_path) == 2
        err = capsys.readouterr().err
        assert "samples.json: model_hash differs" in err
        assert not (tmp_path / "out").exists()

    def test_samples_of_another_graph_exit_2(self, tmp_path, capsys):
        self.sampled(tmp_path)
        rc = main(["sample", "--graph", str(tmp_path / "other.txt"), "--problem", "max_cut",
                   "--reads", "4", "--sweeps", "5", "--topology", "2,2,4",
                   "--out", str(tmp_path / "other")])
        assert rc == 0
        (tmp_path / "samples.json").write_text((tmp_path / "other" / "samples.json").read_text())
        capsys.readouterr()
        assert self.unembed(tmp_path) == 2
        assert "samples.json: model_hash differs" in capsys.readouterr().err

    @pytest.mark.parametrize("qubit", [True, "3", 2.0])
    def test_non_integer_qubit_exit_2(self, tmp_path, capsys, qubit):
        self.sampled(tmp_path)
        path = tmp_path / "embedding.json"
        doc = json.loads(path.read_text())
        doc["1"][0] = qubit
        path.write_text(json.dumps(doc))
        capsys.readouterr()
        assert self.unembed(tmp_path) == 2
        err = capsys.readouterr().err
        expect = f"embedding.json: the chain of variable 1 holds {qubit!r}, not a qubit id"
        assert err.startswith("configuration error:") and expect in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("key", ["01", " 1", "-0"])
    def test_non_canonical_variable_key_exit_2(self, tmp_path, capsys, key):
        # "01" and " 1" used to load as variable 1, and "-0" as variable 0
        self.sampled(tmp_path)
        path = tmp_path / "embedding.json"
        doc = json.loads(path.read_text())
        doc[key] = doc.pop(key.strip().lstrip("-0") or "0")
        path.write_text(json.dumps(doc))
        capsys.readouterr()
        assert self.unembed(tmp_path) == 2
        err = capsys.readouterr().err
        expect = f"embedding.json: variable key {key!r} is not an integer id"
        assert err.startswith("configuration error:") and expect in err
        assert not (tmp_path / "out").exists()

    def test_variable_listed_twice_exit_2(self, tmp_path, capsys):
        self.sampled(tmp_path)
        path = tmp_path / "embedding.json"
        text = path.read_text()
        path.write_text(text.replace('"0": [', '"1": [0], "0": [', 1))
        capsys.readouterr()
        assert self.unembed(tmp_path) == 2
        err = capsys.readouterr().err
        assert "embedding.json: variable '1' is listed twice" in err
        assert not (tmp_path / "out").exists()

    def test_invalid_embedding_names_the_embedding_file(self, tmp_path, capsys):
        self.sampled(tmp_path)
        path = tmp_path / "embedding.json"
        doc = json.loads(path.read_text())
        doc["1"].append(doc["0"][0])  # every qubit is still a sample column
        path.write_text(json.dumps(doc))
        capsys.readouterr()
        assert self.unembed(tmp_path) == 2
        err = capsys.readouterr().err
        expect = f"embedding.json: invalid embedding: chains 0 and 1 overlap on qubit {doc['0'][0]}"
        assert err.startswith("configuration error:") and expect in err
        assert "samples.json" not in err
        assert not (tmp_path / "out").exists()

    def test_samples_without_provenance_exit_2(self, tmp_path, capsys):
        self.sampled(tmp_path)
        path = tmp_path / "samples.json"
        doc = json.loads(path.read_text())
        del doc["provenance"]
        path.write_text(json.dumps(doc))
        capsys.readouterr()
        assert self.unembed(tmp_path) == 2
        assert "samples.json: no provenance record" in capsys.readouterr().err

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

    def test_fig4_bad_grid_entry_names_the_flag(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as err:
            main([
                "fig4", "--problem", "max_cut", "--n", "8", "--density", "0.5",
                "--graphs", "1", "--reads", "5", "--grid", "1,x",
                "--out", str(tmp_path / "out"),
            ])
        assert err.value.code == 2
        assert "--grid" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_fig4_runs(self, tmp_path, capsys):
        rc = main([
            "fig4", "--problem", "max_cut", "--n", "8", "--density", "0.5",
            "--graphs", "1", "--reads", "5", "--sweeps", "20",
            "--topology", "4,4,4", "--grid", "0.5,5.0", "--out", str(tmp_path),
        ])
        assert rc == 0
        assert (tmp_path / "fig4.csv").exists()

    def test_fig4_chain_strength_exit_2(self, tmp_path, capsys):
        # fig4 runs at its grid, so it offers no --chain-strength, which would
        # go unread yet be echoed into the manifest beside the grid
        with pytest.raises(SystemExit) as err:
            main([
                "fig4", "--problem", "max_cut", "--n", "8", "--density", "0.5",
                "--graphs", "1", "--reads", "4", "--sweeps", "5", "--topology", "2,2,4",
                "--grid", "0.5,2", "--chain-strength", "3", "--out", str(tmp_path / "out"),
            ])
        assert err.value.code == 2
        assert "unrecognized arguments: --chain-strength 3" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_config_error_exit_2(self, tmp_path, capsys):
        rc = main([
            "fig3", "--problem", "max_cut", "--n", "500", "--density", "0.5",
            "--graphs", "1", "--reads", "5", "--out", str(tmp_path),
        ])
        assert rc == 2

    @pytest.mark.parametrize("command", ["fig2", "fig3", "fig4"])
    def test_nonpositive_prefactor_exit_2(self, tmp_path, capsys, command):
        grid = ["--grid", "1.0"] if command == "fig4" else []
        rc = main([
            command, "--problem", "max_cut", "--n", "6", "--density", "0.5",
            "--graphs", "1", "--reads", "4", "--sweeps", "5", "--topology", "2,2,4",
            "--prefactor", "-1", "--out", str(tmp_path / "out"),
        ] + grid)
        assert rc == 2
        assert "prefactor must be a positive real number, not -1.0" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command,flags", [
        ("fig2", []),  # fig2's default strength is a fixed one
        ("fig3", ["--chain-strength", "2"]),
        ("fig4", ["--grid", "0.5,2"]),
    ])
    def test_unread_prefactor_exit_2(self, tmp_path, capsys, command, flags):
        rc = main([
            command, "--problem", "max_cut", "--n", "8", "--density", "0.5",
            "--graphs", "1", "--reads", "4", "--sweeps", "5", "--topology", "2,2,4",
            "--prefactor", "9", "--out", str(tmp_path / "out"),
        ] + flags)
        assert rc == 2
        assert capsys.readouterr().err == (
            f"configuration error: {command} does not read prefactor 9.0;"
            " only chain strength 'utc' does\n"
        )
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("flags,prefactor", [
        (["--chain-strength", "utc", "--prefactor", "9"], 9.0),
        ([], 1.414),
        # fig2's fixed default strength reads no prefactor, but the explicit
        # default records exactly what leaving it out records
        (["--prefactor", "1.414"], 1.414),
    ])
    def test_manifest_records_prefactor(self, tmp_path, capsys, flags, prefactor):
        rc = main([
            "fig2", "--problem", "max_cut", "--n", "6", "--density", "0.5",
            "--graphs", "1", "--reads", "4", "--sweeps", "5", "--topology", "2,2,4",
            "--out", str(tmp_path),
        ] + flags)
        assert rc == 0
        manifest = json.loads((tmp_path / "fig2_manifest.json").read_text())
        assert manifest["config"]["prefactor"] == prefactor

    def test_p_break_without_inject_exit_2(self, tmp_path, capsys):
        rc = main([
            "fig3", "--problem", "max_cut", "--n", "6", "--density", "0.5",
            "--graphs", "1", "--reads", "4", "--sweeps", "5", "--topology", "2,2,4",
            "--p-break", "0.3", "--out", str(tmp_path / "out"),
        ])
        assert rc == 2
        assert "p_break 0.3 needs source 'inject', not 'anneal'" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_runtime_error_exit_3_names_where_it_failed(self, tmp_path, capsys, monkeypatch):
        def anneal(pm, params):
            raise RuntimeError("the annealer is offline")

        monkeypatch.setattr(bench, "simulated_anneal", anneal)
        rc = main([
            "fig3", "--problem", "max_cut", "--n", "6", "--density", "0.5",
            "--graphs", "1", "--reads", "4", "--sweeps", "5", "--topology", "2,2,4",
            "--out", str(tmp_path / "out"),
        ])
        assert rc == 3
        line = anneal.__code__.co_firstlineno + 1
        assert capsys.readouterr().err == (
            f"error: RuntimeError in anneal (test_cli.py:{line}): the annealer is offline\n"
        )

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
