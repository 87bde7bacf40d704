"""Golden digests: the SHA-256 of small fig2/3/4 and CLI CSVs.

Each case runs one small instance (n=8 on chimera(2,2,4), 8 reads of 20
sweeps, one density, one graph) and hashes the CSV it emits.  A refactor
that keeps behaviour keeps every digest; a change that is meant to alter
output bytes must regenerate them with

    PYTHONPATH=src python tests/test_golden.py

which prints the ``GOLDEN`` entries to paste below.
"""

import contextlib
import functools
import hashlib
import io
import tempfile
from pathlib import Path

import pytest

from brokenchains import bench
from brokenchains.cli import main
from brokenchains.graphs import PROBLEMS

FIGS = {"fig2": bench.run_fig2, "fig3": bench.run_fig3, "fig4": bench.run_fig4}
SOURCES = ("anneal", "inject")
CLI_METHODS = ("majority", "random", "minenergy", "tailored")
SEED = 11


def fig_csv(fig, source, problem):
    config = bench.ExperimentConfig(
        problem=problem,
        densities=(0.5,),
        n=8,
        graphs_per_density=1,
        reads=8,
        sweeps=20,
        seed=SEED,
        topology=(2, 2, 4),
        source=source,
        p_break=0.2 if source == "inject" else 0.0,
        # fig3's default (UTC) strength leaves annealed chains intact at this
        # size; a weak fixed strength gives the repair methods breaks to mend
        chain_strength=0.5 if (fig, source) == ("fig3", "anneal") else None,
        chain_strength_grid=(0.5, 2.0) if fig == "fig4" else (),
    )
    return bench.rows_to_csv(FIGS[fig](config))


@functools.lru_cache(maxsize=None)
def cli_csvs(problem):
    """``unembedded.csv`` of every method on one sampled instance of ``problem``."""
    with tempfile.TemporaryDirectory() as tmp:
        graph = f"{tmp}/graph.txt"
        calls = [
            ["gen", "--n", "8", "--density", "0.5", "--seed", str(SEED), "--out", tmp],
            ["sample", "--graph", graph, "--problem", problem, "--reads", "8",
             "--sweeps", "20", "--chain-strength", "0.5", "--topology", "2,2,4",
             "--seed", str(SEED), "--out", tmp],
        ]
        for method in CLI_METHODS:
            calls.append(
                ["unembed", "--graph", graph, "--problem", problem,
                 "--samples", f"{tmp}/samples.json",
                 "--embedding", f"{tmp}/embedding.json",
                 "--model", f"{tmp}/model.json",
                 "--method", method, "--seed", str(SEED + 1),
                 "--out", f"{tmp}/{method}"]
            )
        with contextlib.redirect_stdout(io.StringIO()):
            for argv in calls:
                assert main(argv) == 0, argv
        return {m: Path(f"{tmp}/{m}/unembedded.csv").read_text() for m in CLI_METHODS}


def output(case):
    kind, variant, problem = case.split("/")
    if kind == "cli":
        return cli_csvs(problem)[variant]
    return fig_csv(kind, variant, problem)


CASES = [f"{fig}/{source}/{problem}" for fig in FIGS for source in SOURCES for problem in PROBLEMS]
CASES += [f"cli/{method}/{problem}" for method in CLI_METHODS for problem in PROBLEMS]

GOLDEN = {
    "fig2/anneal/max_clique": "8c028b33d0ed8fc861a09884c4036aad13a6048c714678236fb5584d90574b64",
    "fig2/anneal/max_cut": "12b4eaca85f93be647bd6f5e4dee36169da7cdee293bba33f424b1e938062597",
    "fig2/anneal/min_vertex_cover": "289421e275e87af0b67c618aed46005abb86d528c86ac5b239e512d6417661f8",
    "fig2/anneal/graph_partitioning": "2df6b4c10d0f6c227416de002cc539caecba0c20830a040bb0671593413c6653",
    "fig2/inject/max_clique": "2887d8a9f29f9eef64894737997f8ac7dfb879595aad08894aa5c191c2f11fc3",
    "fig2/inject/max_cut": "839c6b46f044bfd6518c2d70143c7b37190b31911c48cbdab80d9000aacc5474",
    "fig2/inject/min_vertex_cover": "6c24131756184ad75198c3a9dca694fd4f9a90192f56f8e029a4b25387966ec9",
    "fig2/inject/graph_partitioning": "a5ce327a815d8e8c5c7b4adbd0c892eb4d94a1f9757defe5cfdab4c92f3b9a37",
    "fig3/anneal/max_clique": "b858dd16f71cf2ebb5578d3baf773e4ae6d0481eb3fcdf402b26018d3bf13219",
    "fig3/anneal/max_cut": "9984784a7e4889212bbcb9db078ed048b193db79b268a948206601f2eaf16dcd",
    "fig3/anneal/min_vertex_cover": "065f3409e6db71d31fde73fe6d5df50836bd7563afa4445ce1bfdbed21449490",
    "fig3/anneal/graph_partitioning": "7621b2b99e3a344621d81e4b4061adb48ca22ec3c1bac125feae91e3a4e0ae66",
    "fig3/inject/max_clique": "89c756a4080fe6b7a6c50193f7ee5c81c41e5fb4027c95c46e3ac07d48fbfb9f",
    "fig3/inject/max_cut": "e47291c965a46d44c5e7d4a8053c6ce96eda27a674db25adec28edb85f2a92a3",
    "fig3/inject/min_vertex_cover": "9b40e3a38b2697eddfb9c20147f5057a9ebdf4dc67e76207f497c3f77b609925",
    "fig3/inject/graph_partitioning": "f3aaf89dabd6933db5636b36b72dd018720cf8e544283d068861356f5923b297",
    "fig4/anneal/max_clique": "6db3063688c3b53c938fbb7d47133e3e7511d51ec46c4630551d85be430cae3f",
    "fig4/anneal/max_cut": "296d87d01751a51e054574ac7d16119d64c5899f93a78f282ef296bf05aafbf2",
    "fig4/anneal/min_vertex_cover": "2cc02c5b26d9b9b31798de1c8de5197e1a93edb8eb99c3eb2b501fd2d83a8042",
    "fig4/anneal/graph_partitioning": "172c124f3e4777e374f62e655d7aa7ab610319837a031fd9971ad3ff23d3514d",
    "fig4/inject/max_clique": "1650dfea24896847a4e04ce3640f87de9de911899a202b9f7996ab1de85ce168",
    "fig4/inject/max_cut": "874cd315078f6a2100c2f4b587af5ee2af4c699be371ae87dcca8f8e559fd82b",
    "fig4/inject/min_vertex_cover": "847b0fa7fe26dfe9c6107e238fae789a7e6bb3d27be36bbe001c163b9f6044ca",
    "fig4/inject/graph_partitioning": "059194eea3599e01c4e1dbac0a810e716e0f5a1633e99e595f05e23f9412be90",
    "cli/majority/max_clique": "2e4f849a6c96f35fb61e0102751370b18a4c5e9424a1211a59b12900b318970d",
    "cli/majority/max_cut": "68ec966b6c04bc765cd227adc139e2f168c6f7daacd733ad689b65dc8cb49f3b",
    "cli/majority/min_vertex_cover": "ffe90c332240494d7a1e5fdf69056b3018893bd526e3024d8f2ab3cb17cb06ed",
    "cli/majority/graph_partitioning": "448a98ebae975f15d1fec544b1b109dfdb25f644a3d752061ba1d68f5e184e43",
    "cli/random/max_clique": "071e41ec1e811d0e1203f87e523c79e9330be8b63d5736a7fbcddd245ca809ee",
    "cli/random/max_cut": "2ef756a817f353eb82e7e0c956be518ce72bc86f2bde30bc99125bf52696a918",
    "cli/random/min_vertex_cover": "e7edf085f4cc45a0c31d2d254ccb50f8a45e6e23526b3436ae31e1461d475d83",
    "cli/random/graph_partitioning": "9385e8d7cb71fe25c3ec4c644e8276b55a74421ff09710b819a0446dbb2de6db",
    "cli/minenergy/max_clique": "2345d2afc221f326757223ce4c19276344dfe054b1a851ee559e72245cffff55",
    "cli/minenergy/max_cut": "98915eb695f5a2fc871db096ac6f0eb7a1aa3b17e116e18fab8817c5ae431281",
    "cli/minenergy/min_vertex_cover": "78ef46437abaf730882b3cc5cb6c98375826616fe899e2d32468e492526b7757",
    "cli/minenergy/graph_partitioning": "d801fde6659110149b683bb05dd90259bc7e64cfb744384b37be15c667691dd5",
    "cli/tailored/max_clique": "73e237253e49ab75d965aab90f304fec14e728f604813df8077ebaae19db5163",
    "cli/tailored/max_cut": "d3420027f59aa7289a5015c05a961058e23f80b3ab6959293993f4b8c61cede5",
    "cli/tailored/min_vertex_cover": "897b7cd4cc672623b1552117eeb3dbba757e43783b589fb5b5d1ca6a7c5d2e9f",
    "cli/tailored/graph_partitioning": "63feee9804bbc4f2e28dc92293ba58e78a49af4dbe384cf37bf9b012e0782c76",
}


@pytest.mark.parametrize("case", CASES)
def test_digest(case):
    text = output(case)
    assert hashlib.sha256(text.encode()).hexdigest() == GOLDEN[case]


if __name__ == "__main__":
    for case in CASES:
        digest = hashlib.sha256(output(case).encode()).hexdigest()
        print(f'    "{case}": "{digest}",')
