import collections
import contextlib
import io
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import brokenchains
from brokenchains import bench, bqm, cli
from brokenchains.bench import (
    CSV_COLUMNS,
    ExperimentConfig,
    MetricRow,
    broken_chain_proportion,
    chain_strength_setting,
    improvement_ratio,
    normalize_group,
    normalize_objectives,
    rows_to_csv,
    run_fig2,
    run_fig3,
    run_fig4,
    score_witness,
    witness_from_values,
    write_experiment,
)
from brokenchains.bqm import BinaryQuadraticModel, build_max_cut_ising
from brokenchains.graphs import brute_force, erdos_renyi, require_problem, score_rows
from brokenchains.sampler import inject_chain_breaks
from brokenchains.topology import (
    PhysicalModel,
    chain_columns,
    chimera,
    clique_embedding,
    embed_bqm,
)
from brokenchains.unembed import decompose, unembed_tailored
from conftest import complete_graph, one_read, path_graph, spins_of


def small_config(**kw):
    defaults = dict(
        problem="max_cut",
        densities=(0.5,),
        n=12,
        graphs_per_density=1,
        reads=20,
        sweeps=60,
        seed=5,
        topology=(4, 4, 4),
    )
    defaults.update(kw)
    return ExperimentConfig(**defaults)


class TestImprovementRatio:
    def test_maximization_direction(self):
        assert improvement_ratio("max_clique", 10, 8) == pytest.approx(1.25)

    def test_minimization_parity(self):
        assert improvement_ratio("min_vertex_cover", 40, 40) == 1.0

    def test_partitioning_factor(self):
        assert improvement_ratio("graph_partitioning", 100, 300) == pytest.approx(3.0)

    def test_zero_denominator_flagged(self):
        assert improvement_ratio("max_clique", 5, 0) is None
        assert improvement_ratio("graph_partitioning", 0, 5) is None


@pytest.mark.parametrize("call", [
    lambda g: require_problem("tsp"),
    lambda g: score_rows("tsp", g, np.zeros((1, g.n), dtype=bool)),
    lambda g: brute_force("tsp", g),
    lambda g: bqm.build_model("tsp", g),
    lambda g: unembed_tailored(None, g, "tsp", []),
    lambda g: improvement_ratio("tsp", 1, 1),
    lambda g: small_config(problem="tsp").validate(),
])
def test_every_problem_taker_names_an_unknown_problem(call):
    # graphs.require_problem is the one rule, so every caller words it alike
    with pytest.raises(ValueError, match=r"^unknown problem 'tsp'$"):
        call(path_graph(3))


class TestNormalize:
    def test_mixed_signs(self):
        scaled, ok = normalize_group([-4.0, -2.0, 2.0])
        assert ok and scaled == [-1.0, -0.5, 0.5]

    def test_positive_group(self):
        scaled, ok = normalize_group([5.0, 10.0])
        assert ok and scaled == [1.0, 2.0]

    def test_constant_group(self):
        scaled, ok = normalize_group([3.0, 3.0])
        assert ok and scaled == [1.0, 1.0]

    def test_zero_min_flagged(self):
        scaled, ok = normalize_group([0.0, 5.0])
        assert not ok and scaled == [0.0, 5.0]

    def test_row_level_grouping(self):
        rows = [
            MetricRow("max_cut", 0.5, 1.0, "tailored", "", objective=-4.0),
            MetricRow("max_cut", 0.5, 2.0, "tailored", "", objective=2.0),
            MetricRow("max_cut", 0.9, 1.0, "tailored", "", objective=5.0),
            MetricRow("max_cut", 0.9, 2.0, "tailored", "", objective=10.0),
        ]
        normalize_objectives(rows)
        assert [r.objective for r in rows] == [-1.0, 0.5, 1.0, 2.0]


class TestBrokenChainProportion:
    def setup_method(self):
        self.hw = chimera(4, 4, 4)
        self.e = clique_embedding(12, self.hw)
        g = erdos_renyi(12, 0.5, 2)
        self.pm = embed_bqm(build_max_cut_ising(g), self.e, self.hw, 2.0)
        self.logical = {v: 1 if v % 2 else -1 for v in range(12)}

    def _fractions(self, samples):
        """Per-read broken fraction, as run_graph_pipeline records it."""
        chains = chain_columns(self.e, samples.qubits)
        fractions = []
        for spins in samples.spins:
            readouts = decompose(spins, chains)
            fractions.append(sum(r.broken for r in readouts) / len(readouts))
        return fractions

    def _injected(self, p, reads):
        return self._fractions(
            inject_chain_breaks(one_read(self.logical, reads), p, 0, self.pm)
        )

    def test_p_zero(self):
        mean, std = broken_chain_proportion(self._injected(0.0, 10))
        assert mean == 0.0 and std == 0.0

    def test_half_and_half(self):
        intact = inject_chain_breaks(one_read(self.logical), 0.0, 0, self.pm)
        broken = inject_chain_breaks(one_read(self.logical), 0.5, 3, self.pm)
        per_read_broken = sum(
            1 for r in [spins_of(broken, 0)] for v in self.e.variables()
            if len({r[q] for q in self.e.chain(v)}) > 1
        ) / 12
        fractions = self._fractions(intact) + self._fractions(broken)
        mean, _ = broken_chain_proportion(fractions)
        assert mean == pytest.approx(per_read_broken / 2)

    def test_matches_injector_statistics(self):
        mean, _ = broken_chain_proportion(self._injected(0.2, 200))
        # chains of length 4 on this embedding break w.p. 1 - .8^4 - .2^4
        expect = 1 - 0.8**4 - 0.2**4
        assert abs(mean - expect) <= 0.05


class TestWitnessScoring:
    def test_clique_scoring(self):
        g = path_graph(3)
        assert score_witness("max_clique", g, frozenset({0, 1})) == (2, True)
        assert score_witness("max_clique", g, frozenset({0, 2})) == (0, False)

    def test_cover_scoring(self):
        g = path_graph(3)
        assert score_witness("min_vertex_cover", g, frozenset({1})) == (1, True)
        assert score_witness("min_vertex_cover", g, frozenset({0})) == (3, False)

    def test_partition_scoring(self):
        # a partition witness is its plus side
        g = complete_graph(4)
        assert score_witness("graph_partitioning", g, frozenset({2, 3})) == (4, True)
        assert score_witness("graph_partitioning", g, frozenset({3})) == (3, False)
        assert score_witness("max_cut", g, frozenset({3})) == (3, True)

    def test_witness_from_values(self):
        g = path_graph(3)
        w = witness_from_values("max_clique", {0: 1, 1: 0, 2: 1}, g)
        assert w == frozenset({0, 2})
        plus = witness_from_values("max_cut", {0: 1, 1: -1, 2: 1}, g)
        assert plus == frozenset({0, 2})


class TestConfigValidation:
    def test_bad_problem(self):
        with pytest.raises(ValueError):
            small_config(problem="tsp").validate()

    def test_bad_density(self):
        with pytest.raises(ValueError):
            small_config(densities=(1.5,)).validate()

    def test_too_many_vertices_for_topology(self):
        with pytest.raises(ValueError):
            small_config(n=200).validate()

    def test_bad_chain_strength(self):
        with pytest.raises(ValueError):
            small_config(chain_strength="auto").validate()
        with pytest.raises(ValueError):
            small_config(chain_strength=-1.0).validate()
        with pytest.raises(ValueError):
            small_config(chain_strength_grid=(1.0, 0.0)).validate()

    def test_bad_prefactor(self):
        with pytest.raises(ValueError):
            small_config(prefactor=0.0).validate()

    @pytest.mark.parametrize(
        "field, value, message",
        [
            ("chain_strength_grid", ("utc",),
             "chain_strength_grid entry must be a positive real number, not 'utc'"),
            ("densities", ("x",), "density must be a real number, not 'x'"),
            ("prefactor", None, "prefactor must be a positive real number, not None"),
            ("p_break", "0.3", "p_break must be a real number, not '0.3'"),
            ("chain_strength", [2.0],
             "chain_strength must be a positive real number, not [2.0]"),
            ("chain_strength_grid", (1.0, 0.0),
             "chain_strength_grid entry must be a positive real number, not 0.0"),
            ("n", "30", "n must be an integer, not '30'"),
            ("n", 0, "n must be >= 1, not 0"),
            ("graphs_per_density", True, "graphs_per_density must be an integer, not True"),
            ("reads", 2.5, "num_reads must be an integer, not 2.5"),
            ("sweeps", None, "sweeps must be an integer, not None"),
            ("sweeps", 0, "sweeps must be >= 1, not 0"),
            ("seed", False, "seed must be an integer, not False"),
            ("seed", "7", "seed must be an integer, not '7'"),
            ("topology", (8, 8), "topology must be three positive integers, not (8, 8)"),
            ("topology", (4, 4, 0), "topology must be three positive integers, not (4, 4, 0)"),
            ("topology", (4, 4, 4.0),
             "topology must be three positive integers, not (4, 4, 4.0)"),
            ("topology", "444", "topology must be three positive integers, not '444'"),
            ("beta_range", (5.0, 1.0),
             "beta_range must satisfy 0 < beta_min < beta_max, not (5.0, 1.0)"),
            ("beta_range", (0.0, 1.0),
             "beta_range must satisfy 0 < beta_min < beta_max, not (0.0, 1.0)"),
            ("beta_range", (1.0, 1.0),
             "beta_range must satisfy 0 < beta_min < beta_max, not (1.0, 1.0)"),
            ("beta_range", (0.1,), "beta_range must be two real numbers, not (0.1,)"),
            ("beta_range", 5, "beta_range must be two real numbers, not 5"),
            ("beta_range", (0.1, "x"), "beta_range entry must be a real number, not 'x'"),
            ("p_break", 0.3, "p_break 0.3 needs source 'inject', not 'anneal'"),
        ],
    )
    def test_non_numbers_name_field_and_value(self, field, value, message):
        with pytest.raises(ValueError) as info:
            small_config(**{field: value}).validate()
        assert str(info.value) == message


class TestFig2:
    def test_smoke_row_shape(self):
        rows = run_fig2(small_config(densities=(0.1,), reads=10))
        assert len(rows) == 1
        row = rows[0]
        assert 0.0 <= row.broken_frac_mean <= 1.0
        assert row.chain_strength == 2.0  # max_cut default
        assert row.method == ""

    def test_strength_monotonicity(self):
        low = run_fig2(small_config(chain_strength=0.1))
        high = run_fig2(small_config(chain_strength=100.0))
        assert np.mean([r.broken_frac_mean for r in low]) > np.mean(
            [r.broken_frac_mean for r in high]
        )

    def test_edgeless_density_flagged_degenerate(self):
        rows = run_fig2(small_config(densities=(0.0,), reads=5))
        assert rows[0].feasible == "degenerate"

    def test_per_problem_defaults(self):
        rows = run_fig2(small_config(problem="max_clique", densities=(0.9,), reads=5))
        assert rows[0].chain_strength == 0.3


class TestFig3:
    def test_rows_and_ratio_placement(self):
        rows = run_fig3(small_config())
        assert len(rows) == 4
        by_method = {r.method: r for r in rows}
        assert set(by_method) == {
            "majority_vote",
            "random_weighted",
            "minimize_energy",
            "tailored",
        }
        for name in ("majority_vote", "random_weighted", "minimize_energy"):
            assert by_method[name].ratio_vs_majority is None
        assert by_method["tailored"].ratio_vs_majority is not None

    def test_injected_zero_breaks_gives_unit_ratios(self):
        for problem in ("max_clique", "max_cut", "min_vertex_cover", "graph_partitioning"):
            cfg = small_config(problem=problem, source="inject", p_break=0.0, reads=10)
            rows = run_fig3(cfg)
            tailored = [r for r in rows if r.method == "tailored"]
            for row in tailored:
                assert row.ratio_vs_majority == 1.0
                assert row.ratio_vs_random == 1.0
                assert row.ratio_vs_minenergy == 1.0

    def test_objective_recomputed_from_witness(self):
        rows = run_fig3(small_config())
        for row in rows:
            assert row.objective >= 0

    def test_deterministic_csv(self):
        cfg = small_config(graphs_per_density=2, reads=10)
        a = rows_to_csv(run_fig3(cfg))
        b = rows_to_csv(run_fig3(cfg))
        assert a == b


class TestFig4:
    def test_grid_shape(self):
        cfg = small_config(chain_strength_grid=(0.5, 2.0, 8.0), reads=10)
        rows = run_fig4(cfg)
        per_graph = [r for r in rows if r.graph_seed != ""]
        aggregate = [r for r in rows if r.graph_seed == ""]
        assert len(per_graph) == 3
        assert len(aggregate) == 3

    def test_requires_grid(self):
        with pytest.raises(ValueError):
            run_fig4(small_config())

    @pytest.mark.parametrize("run,settings,unread", [
        (run_fig2, {"chain_strength_grid": (0.5, 2.0)}, "chain_strength_grid"),
        (run_fig3, {"chain_strength_grid": (0.5,)}, "chain_strength_grid"),
        (run_fig4, {"chain_strength_grid": (0.5, 2.0), "chain_strength": 3.0},
         "chain_strength 3.0"),
        # fig2 scores no method, so it aggregates nothing
        (run_fig2, {"aggregate": "mean"}, "aggregate 'mean'"),
        # only a UTC strength reads the prefactor: fig2's default strength,
        # a fixed fig3 strength and a fig4 grid do not
        (run_fig2, {"prefactor": 9.0}, "prefactor 9.0"),
        (run_fig3, {"chain_strength": 2.0, "prefactor": 9.0}, "prefactor 9.0"),
        (run_fig4, {"chain_strength_grid": (0.5, 2.0), "prefactor": 9.0}, "prefactor 9.0"),
    ])
    def test_setting_the_run_does_not_read_is_refused(self, run, settings, unread):
        with pytest.raises(ValueError, match=f"does not read {unread}"):
            run(small_config(**settings))

    def test_single_point_matches_fig3_cell(self):
        cfg3 = small_config(chain_strength=2.0, reads=10)
        cfg4 = small_config(chain_strength_grid=(2.0,), reads=10)
        fig3_tailored = [
            r for r in run_fig3(cfg3) if r.method == "tailored"
        ][0]
        fig4_graph_row = [r for r in run_fig4(cfg4) if r.graph_seed != ""][0]
        assert fig4_graph_row.objective == fig3_tailored.objective

    @pytest.mark.parametrize("source", ["anneal", "inject"])
    def test_each_graph_built_and_annealed_once(self, monkeypatch, source):
        calls, grids = collections.Counter(), []

        def count(module, name, record=None):
            fn = getattr(module, name)

            def counted(*args, **kwargs):
                calls[name] += 1
                if record is not None:
                    record.append(args[0])
                return fn(*args, **kwargs)

            monkeypatch.setattr(module, name, counted)

        count(bench, "erdos_renyi")
        count(bqm, "build_model")
        count(bench, "embed_bqm")
        count(bench, "anneal_grid", grids)
        count(bench, "simulated_anneal", grids)
        grid = (0.5, 2.0, 0.5)
        inject = dict(source="inject", p_break=0.3) if source == "inject" else {}
        cfg = small_config(chain_strength_grid=grid, graphs_per_density=2, n=6,
                           topology=(2, 2, 4), reads=4, sweeps=5, **inject)
        rows = [r for r in run_fig4(cfg) if r.graph_seed != ""]
        assert calls["erdos_renyi"] == calls["build_model"] == 2
        assert calls["embed_bqm"] == 2 * len(grid)
        # the physical models of a graph in one anneal, or its logical model alone
        if source == "inject":
            assert calls["simulated_anneal"] == 2 and calls["anneal_grid"] == 0
            assert [len(pm.qubits()) for pm in grids] == [cfg.n, cfg.n]
        else:
            assert calls["anneal_grid"] == 2 and calls["simulated_anneal"] == 0
            assert [len(pms) for pms in grids] == [len(grid), len(grid)]
        # rows by strength, then graph
        assert [r.chain_strength for r in rows] == [0.5, 0.5, 2.0, 2.0, 0.5, 0.5]
        seeds = [r.graph_seed for r in rows]
        assert seeds[:2] == seeds[2:4] == seeds[4:] and seeds[0] != seeds[1]
        # a repeated strength repeats its rows
        assert [(r.objective, r.broken_frac_mean) for r in rows[:2]] == [
            (r.objective, r.broken_frac_mean) for r in rows[4:]
        ]

    def test_strong_chain_limit(self):
        cfg = small_config(chain_strength_grid=(1000.0,), reads=10)
        rows = run_fig4(cfg)
        per_graph = [r for r in rows if r.graph_seed != ""]
        assert all(r.broken_frac_mean < 0.01 for r in per_graph)

    def test_partitioning_normalization_present(self):
        cfg = small_config(
            problem="graph_partitioning",
            chain_strength_grid=(2.0, 20.0),
            reads=10,
        )
        rows = run_fig4(cfg)
        aggregate = [r for r in rows if r.graph_seed == ""]
        assert len(aggregate) == 2
        values = [r.objective for r in aggregate]
        assert min(values) in (1.0, -1.0) or any(r.feasible == "unnormalized" for r in aggregate)


class TestCsvFormat:
    def test_header_exact(self):
        header = rows_to_csv([]).strip()
        assert header == ",".join(CSV_COLUMNS)

    def test_none_serializes_empty(self):
        row = MetricRow("max_cut", 0.5, 1.0, "tailored", "", objective=None)
        text = rows_to_csv([row]).splitlines()[1]
        assert text.split(",")[5] == ""


class TestManifest:
    @pytest.mark.parametrize(
        "name,settings,expected",
        [
            ("fig2", {}, 2.0),  # FIG2_CHAIN_STRENGTH["max_cut"]
            ("fig2", {"chain_strength": 0.7}, 0.7),
            ("fig3", {}, "utc"),
            ("fig3", {"chain_strength": 3.0}, 3.0),
            ("fig4", {"chain_strength_grid": (0.5, 2.0)}, [0.5, 2.0]),
        ],
    )
    def test_records_resolved_chain_strength(self, tmp_path, name, settings, expected):
        cfg = small_config(**settings)
        write_experiment(tmp_path, name, cfg, [], time.perf_counter())
        manifest = json.loads((tmp_path / f"{name}_manifest.json").read_text())
        assert manifest["chain_strength"] == expected

    @pytest.mark.parametrize("name", ["fig2-maxcut", "fig5", "FIG2"])
    def test_unknown_experiment_rejected(self, tmp_path, name):
        # no default is resolved for a name that is not one of the three experiments
        cfg = small_config()
        message = rf"^unknown experiment '{name}'; expected fig2, fig3 or fig4$"
        with pytest.raises(ValueError, match=message):
            chain_strength_setting(name, cfg)
        with pytest.raises(ValueError, match=message):
            write_experiment(tmp_path, name, cfg, [], time.perf_counter())
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("name,settings", [
        ("fig2", {}), ("fig3", {}), ("fig4", {"chain_strength_grid": (0.5, 2.0)}),
    ])
    def test_unknown_problem_rejected(self, tmp_path, name, settings):
        # fig2 looks its default strength up by problem; fig3 and fig4 read none
        cfg = small_config(problem="tsp", **settings)
        with pytest.raises(ValueError, match=r"^unknown problem 'tsp'$"):
            chain_strength_setting(name, cfg)
        out = tmp_path / "out"
        with pytest.raises(ValueError, match=r"^unknown problem 'tsp'$"):
            write_experiment(out, name, cfg, [], time.perf_counter())
        assert not out.exists()

    def test_fig2_rows_ran_at_the_recorded_strength(self, tmp_path):
        cfg = small_config(reads=4, sweeps=10)
        rows = run_fig2(cfg)
        write_experiment(tmp_path, "fig2", cfg, rows, time.perf_counter())
        manifest = json.loads((tmp_path / "fig2_manifest.json").read_text())
        assert manifest["config"]["chain_strength"] is None
        assert {row.chain_strength for row in rows} == {manifest["chain_strength"]}


def run_fresh(code, *args):
    """The stdout of ``code`` run in a fresh interpreter that imports this
    package, with ``args`` as its ``sys.argv[1:]``."""
    src = str(Path(brokenchains.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    out = subprocess.run([sys.executable, "-c", code, *args], env=env, capture_output=True,
                         text=True, check=True)
    return out.stdout.strip()


def test_inject_run_leaves_csgraph_unimported():
    # importing scipy.sparse.csgraph alone added about 10 MiB of peak RSS
    # and 150 ms of start-up to a fresh interpreter (2-vCPU Xeon)
    code = (
        "import sys\n"
        "from brokenchains import bench\n"
        "bench.run_fig3(bench.ExperimentConfig(problem='max_cut', densities=(0.5,), n=6,"
        " graphs_per_density=1, reads=4, sweeps=3, topology=(2, 2, 4), source='inject',"
        " p_break=0.3))\n"
        "print(sorted(m for m in sys.modules if m.startswith('scipy.sparse.csgraph')))\n"
    )
    assert run_fresh(code) == "[]"


def test_only_an_anneal_loads_scipy_sparse(tmp_path):
    # importing scipy.sparse took about 0.15 s of a process's 0.3 s start-up
    # (2-vCPU Xeon); gen, embed and unembed build no CSR and must not pay it
    graph, work = str(tmp_path / "graph.txt"), str(tmp_path)
    common = ["--topology", "2,2,4", "--seed", "5"]
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(["gen", "--n", "6", "--density", "0.5", "--out", work]) == 0
        assert cli.main(["sample", "--graph", graph, "--problem", "max_cut", "--reads", "8",
                         "--sweeps", "5", "--out", work] + common) == 0
    calls = [
        ["gen", "--n", "6", "--density", "0.5", "--out", f"{work}/gen"],
        ["embed", "--k", "6", "--topology", "2,2,4", "--out", f"{work}/embed"],
    ]
    calls += [
        ["unembed", "--graph", graph, "--problem", "max_cut",
         "--samples", f"{work}/samples.json", "--embedding", f"{work}/embedding.json",
         "--model", f"{work}/model.json", "--method", method, "--out", f"{work}/{method}"]
        for method in bench.SHORT_NAMES.values()
    ]
    # a fresh sample anneals and so must load it: the check is not vacuous
    calls.append(["sample", "--graph", graph, "--problem", "max_cut", "--reads", "8",
                  "--sweeps", "5", "--out", f"{work}/again"] + common)
    code = (
        "import contextlib, io, json, sys\n"
        "import brokenchains, brokenchains.cli\n"
        "loaded = ['scipy.sparse' in sys.modules]\n"
        "for argv in json.loads(sys.argv[1]):\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        assert brokenchains.cli.main(argv) == 0, argv\n"
        "    loaded.append('scipy.sparse' in sys.modules)\n"
        "print(json.dumps(loaded))\n"
    )
    loaded = json.loads(run_fresh(code, json.dumps(calls)))
    # one entry after the imports and one after each call
    assert loaded == [False] * len(calls) + [True]


@pytest.mark.parametrize("run,settings,models", [
    (run_fig3, {}, 1),
    # the embedded model and the logical one annealed before the injection
    (run_fig3, {"source": "inject", "p_break": 0.3}, 2),
    (run_fig4, {"chain_strength_grid": (0.5, 2.0)}, 2),
])
def test_runs_build_no_physical_bqm(monkeypatch, run, settings, models):
    # a physical model stores the model that embed_bqm compiles (or, for the
    # logical anneal before an injection, the logical model itself), and
    # nothing builds another model out of its arrays
    made, init = [], PhysicalModel.__init__
    built, build = [], BinaryQuadraticModel.__init__

    def record(self, *args, **kwargs):
        init(self, *args, **kwargs)
        made.append(self)

    def record_model(self, *args, **kwargs):
        build(self, *args, **kwargs)
        built.append(self)

    monkeypatch.setattr(PhysicalModel, "__init__", record)
    monkeypatch.setattr(BinaryQuadraticModel, "__init__", record_model)
    run(small_config(n=6, topology=(2, 2, 4), reads=4, sweeps=3, **settings))
    assert len(made) == models
    # the max cut model, Ising as built, then one compiled model per strength
    assert len(built) == 1 + len(settings.get("chain_strength_grid", [None]))
    assert all(any(pm.ising is model for model in built) for pm in made)
