"""The names the benchmark's tracer wraps must stay bound in the package.

``perfbench/spans.py`` lists in ``WRAPPED`` every ``(module, attribute,
metric)`` whose calls a traced run records, and replaces each attribute by
``getattr``/``setattr``.  Some of them (``bench.witness_from_values``, the
one-witness checks, the repair names on ``cli``) are bound only so that
the tracer finds them.  A change that drops one fails here instead of in
``perfbench/run.py --trace 1``.  The file is executed, not imported, so
nothing is written under ``perfbench/``.

A traced run must also give the untraced bytes: with the tracer installed,
a small inject ``run_fig3`` gives the same CSV and a ``gen``/``sample``/
``unembed`` round trip the same files, and uninstalling it puts every
wrapped name back.  A change that breaks a wrapped call's contract (a name
bound to a function whose results the tracer's counters cannot read, say)
fails here.
"""

import runpy
from pathlib import Path

from brokenchains import bench, cli
from brokenchains.bench import ExperimentConfig

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def test_every_wrapped_name_resolves_to_a_callable():
    wrapped = runpy.run_path(str(SPANS))["WRAPPED"]
    assert wrapped
    unbound = [
        f"{module.__name__}.{attr}"
        for module, attr, _ in wrapped
        if not callable(getattr(module, attr, None))
    ]
    assert unbound == []


def _tracer():
    """A fresh ``Tracer`` and the ``(module, attribute)`` pairs it wraps."""
    spans = runpy.run_path(str(SPANS))
    return spans["Tracer"](), [(module, attr) for module, attr, _ in spans["WRAPPED"]]


def _traced(run):
    """``run()`` with the tracer installed, inside one job span; checks that
    uninstalling puts every wrapped name back.  Spans are never written."""
    tracer, names = _tracer()
    before = {name: getattr(*name) for name in names}
    tracer.install()
    try:
        assert all(getattr(*name) is not before[name] for name in names)
        with tracer.job(0):
            result = run()
    finally:
        tracer.uninstall()
    assert all(getattr(*name) is before[name] for name in names)
    assert tracer.spans
    return result


def test_traced_inject_fig3_gives_the_untraced_csv():
    config = ExperimentConfig(
        problem="max_cut",
        densities=(0.5,),
        n=8,
        graphs_per_density=1,
        reads=8,
        sweeps=5,
        seed=3,
        topology=(2, 2, 4),
        chain_strength="utc",
        source="inject",
        p_break=0.3,
    )

    def run():
        return bench.rows_to_csv(bench.run_fig3(config))

    assert _traced(run) == run()


def test_traced_cli_round_trip_gives_the_untraced_files(tmp_path):
    def run(out):
        graph = str(out / "graph.txt")
        calls = [
            ["gen", "--n", "8", "--density", "0.5", "--seed", "3", "--out", str(out)],
            ["sample", "--graph", graph, "--problem", "min_vertex_cover", "--reads", "8",
             "--sweeps", "5", "--topology", "2,2,4", "--seed", "3", "--out", str(out)],
            ["unembed", "--graph", graph, "--problem", "min_vertex_cover",
             "--samples", str(out / "samples.json"),
             "--embedding", str(out / "embedding.json"),
             "--model", str(out / "model.json"),
             "--method", "tailored", "--seed", "3", "--out", str(out / "tailored")],
        ]
        assert [cli.main(argv) for argv in calls] == [0, 0, 0]
        return [(out / name).read_text() for name in ("samples.csv", "tailored/unembedded.csv")]

    assert _traced(lambda: run(tmp_path / "traced")) == run(tmp_path / "plain")
