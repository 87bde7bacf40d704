"""Command-line front end.

Subcommands: gen, embed, sample, unembed, fig2, fig3, fig4.
Exit codes: 0 success, 2 configuration error, 3 runtime error.  A runtime
error's message names the exception type and the innermost frame it was
raised in: ``error: ValueError in anneal_grid (sampler.py:<line>): ...``.

A subcommand offers only the options it reads; argparse refuses others
(exit 2), and ``bench.chain_strength_setting`` decides which settings an
experiment reads.  ``unembed --seed`` serves all four methods, drawing or not.

The parser is built once per process (``build_parser`` is cached), so a
process that calls ``main`` many times, as a ``sample`` then ``unembed``
round trip in one interpreter does, builds it once; each call parses into
a fresh namespace, so no option carries over from one call to the next.
"""

import argparse
import contextlib
import functools
import json
import os
import sys
import time
import traceback

from brokenchains import bench
from brokenchains import bqm as bqmlib
from brokenchains.bench import ExperimentConfig
from brokenchains.bqm import ISING, convert
from brokenchains.graphs import (
    PROBLEMS,
    erdos_renyi,
    read_edge_list,
    require_int,
    require_probability,
    require_real,
    score_rows,
    write_edge_list,
)
from brokenchains.sampler import (
    AnnealParams,
    model_hash,
    sampleset_from_json,
    sampleset_to_csv,
    sampleset_to_json,
    simulated_anneal,
)
from brokenchains.topology import (
    UTC_PREFACTOR,
    chain_columns,
    chimera,
    clique_embedding,
    embed_bqm,
    embedding_from_json,
    embedding_to_json,
    require_clique_fits,
    require_topology,
    uniform_torque_compensation,
)
from brokenchains.unembed import decompose_set

# cmd_unembed decodes with decompose_set and bench.repair calls the repair
# functions, so nothing here calls these names.  Each stays bound on this
# module only because the perf harness wraps it by name: ``decompose``,
# ``majority_vote``, ``minimize_energy``, ``random_weighted`` and
# ``unembed_tailored``.  They go when the harness stops wrapping them.
from brokenchains.unembed import (  # noqa: F401
    decompose,
    majority_vote,
    minimize_energy,
    random_weighted,
    unembed_tailored,
)


class ConfigError(ValueError):
    """Bad or mismatched input, found before any work starts (exit code 2)."""


def _topology(text):
    try:
        shape = tuple(int(p) for p in text.split(","))
    except ValueError:
        shape = text  # not integers, which the rule reports with the text
    try:
        return require_topology(shape)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _chain_strength(text):
    if text == "utc":
        return "utc"
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError("chain strength must be a number or 'utc'")
    return value


def _float_list(text):
    return tuple(float(p) for p in text.split(","))


def _add_common(parser):
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--out", default=".", help="output directory")


def _add_experiment_args(parser):
    parser.add_argument("--problem", choices=PROBLEMS, required=True)
    parser.add_argument("--n", type=int, default=30)
    parser.add_argument("--density", type=_float_list, default=(0.1, 0.3, 0.5, 0.7, 0.9),
                        help="comma-separated density list")
    parser.add_argument("--graphs", type=int, default=5)
    parser.add_argument("--reads", type=int, default=200)
    parser.add_argument("--sweeps", type=int, default=1000)
    parser.add_argument("--prefactor", type=float, default=UTC_PREFACTOR)
    parser.add_argument("--topology", type=_topology, default=(8, 8, 4))
    parser.add_argument("--source", choices=("anneal", "inject"), default="anneal")
    parser.add_argument("--p-break", type=float, default=0.0)
    _add_common(parser)


def _config_from_args(args):
    return ExperimentConfig(
        problem=args.problem,
        densities=tuple(args.density),
        n=args.n,
        graphs_per_density=args.graphs,
        reads=args.reads,
        sweeps=args.sweeps,
        chain_strength=getattr(args, "chain_strength", None),
        prefactor=args.prefactor,
        seed=args.seed,
        topology=tuple(args.topology),
        aggregate=getattr(args, "aggregate", ExperimentConfig.aggregate),
        source=args.source,
        p_break=args.p_break,
        chain_strength_grid=getattr(args, "grid", ()),
    )


def cmd_gen(args):
    g = erdos_renyi(args.n, args.density, args.seed)
    os.makedirs(args.out, exist_ok=True)
    path = os.path.join(args.out, args.name)
    write_edge_list(g, path)
    print(path)
    return 0


def cmd_embed(args):
    hw = chimera(*args.topology)
    e = clique_embedding(args.k, hw)
    os.makedirs(args.out, exist_ok=True)
    path = os.path.join(args.out, args.name)
    with open(path, "w") as fh:
        fh.write(embedding_to_json(e))
    print(path)
    return 0


def cmd_sample(args):
    with _blame(args.graph):
        g = read_edge_list(args.graph)
        require_clique_fits(g.n, args.topology)
    model = bqmlib.build_model(args.problem, g)
    ising = convert(model, ISING)
    if args.chain_strength == "utc":
        strength = uniform_torque_compensation(ising, prefactor=args.prefactor)
    else:
        strength = float(args.chain_strength)
    hw = chimera(*args.topology)
    e = clique_embedding(g.n, hw)
    pm = embed_bqm(ising, e, hw, strength)
    params = AnnealParams(args.reads, args.sweeps, seed=args.seed)
    samples = simulated_anneal(pm, params)
    os.makedirs(args.out, exist_ok=True)
    base = os.path.join(args.out, "samples")
    provenance = {
        "chain_strength": strength,
        "prefactor": args.prefactor,
        "topology": list(args.topology),
    }
    with open(base + ".json", "w") as fh:
        fh.write(sampleset_to_json(samples, model_hash(pm.ising), provenance))
    with open(base + ".csv", "w") as fh:
        fh.write(sampleset_to_csv(samples))
    with open(os.path.join(args.out, "embedding.json"), "w") as fh:
        fh.write(embedding_to_json(e))
    with open(os.path.join(args.out, "model.json"), "w") as fh:
        fh.write(bqmlib.to_json(model))
    print(base + ".json")
    return 0


def _check_artifacts(args, g, e, model):
    """The graph, model and embedding must belong to one ``sample`` run."""
    if bqmlib.build_model(args.problem, g) != model:
        raise ConfigError(f"{args.model} is not the {args.problem} model of {args.graph}")
    if e.variables() != model.variables():
        raise ConfigError(f"the variables of {args.embedding} differ from those of {args.model}")


def _check_provenance(args, stored_hash, provenance, e, model):
    """The reads must come from the physical model that ``sample`` built out
    of ``model`` and ``e`` at the chain strength and topology it recorded in
    ``provenance``, whose hash it stored as ``stored_hash``.  A fault of the
    embedding names the embedding file, any other the samples file."""
    with _blame(args.samples):
        if provenance is None:
            raise ValueError("no provenance record; draw the samples again with 'sample'")
    strength = provenance["chain_strength"]
    m, n, t = provenance["topology"]
    with _blame(args.embedding):
        pm = embed_bqm(convert(model, ISING), e, chimera(m, n, t), strength)
    with _blame(args.samples):
        if model_hash(pm.ising) != stored_hash:
            raise ValueError(
                f"model_hash differs from that of the physical model at chain strength"
                f" {strength} on chimera({m}, {n}, {t})"
            )


@contextlib.contextmanager
def _blame(path):
    """Report a ``ValueError`` raised inside as a ``ConfigError`` naming ``path``."""
    try:
        yield
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}") from None


def cmd_unembed(args):
    with _blame(args.graph):
        g = read_edge_list(args.graph)
    if g.n < 1:
        raise ConfigError(f"{args.graph} has no vertices; unembed needs at least one")
    with open(args.embedding) as fh, _blame(args.embedding):
        e = embedding_from_json(fh.read())
    with open(args.model) as fh, _blame(args.model):
        model = bqmlib.from_json(fh.read())
    _check_artifacts(args, g, e, model)
    with open(args.samples) as fh, _blame(args.samples):
        samples, stored_hash, provenance = sampleset_from_json(fh.read())
        chains = chain_columns(e, samples.qubits)  # every chain qubit is a column
    _check_provenance(args, stored_hash, provenance, e, model)

    method = {short: name for name, short in bench.SHORT_NAMES.items()}[args.method]
    rs = decompose_set(samples.spins, chains)
    witnesses = bench.repair(method, rs, args.problem, g, model, args.seed)
    objectives, feasible = score_rows(args.problem, g, witnesses)
    broken = rs.broken.sum(axis=1).tolist()
    os.makedirs(args.out, exist_ok=True)
    path = os.path.join(args.out, "unembedded.csv")
    # the bytes ``csv.writer`` gives: no field needs quoting, and a float's str
    # is its repr, as csv writes it; a row's last two fields depend only on its
    # broken-chain count, so they are formatted once per count
    tails = [f"{count},{count / len(chains.ids)}\n" for count in range(len(chains.ids) + 1)]
    rows = zip(objectives.tolist(), feasible.tolist(), broken)
    with open(path, "w", newline="") as fh:
        fh.write("read,method,objective,feasible,broken_chains,broken_frac\n" + "".join(
            f"{read},{args.method},{objective},{ok},{tails[count]}"
            for read, (objective, ok, count) in enumerate(rows)
        ))
    print(path)
    return 0


def cmd_experiment(args):
    """Run fig2, fig3 or fig4, as named by the subcommand."""
    started = time.perf_counter()
    config = _config_from_args(args)
    run = {"fig2": bench.run_fig2, "fig3": bench.run_fig3, "fig4": bench.run_fig4}
    rows = run[args.command](config)
    print(bench.write_experiment(args.out, args.command, config, rows, started))
    return 0


@functools.cache
def build_parser():
    parser = argparse.ArgumentParser(
        prog="brokenchains",
        description="Chained-qubit sampling and unembedding benchmark harness",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="emit a random graph edge-list file")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--density", type=float, required=True)
    p.add_argument("--name", default="graph.txt")
    _add_common(p)
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("embed", help="emit a complete-graph embedding as JSON")
    p.add_argument("--k", type=int, required=True, help="clique size")
    p.add_argument("--topology", type=_topology, default=(8, 8, 4))
    p.add_argument("--name", default="embedding.json")
    p.add_argument("--out", default=".", help="output directory")
    p.set_defaults(func=cmd_embed)

    p = sub.add_parser("sample", help="embed a graph problem and draw samples")
    p.add_argument("--graph", required=True, help="edge-list file")
    p.add_argument("--problem", choices=PROBLEMS, required=True)
    p.add_argument("--reads", type=int, default=200)
    p.add_argument("--sweeps", type=int, default=1000)
    p.add_argument("--chain-strength", type=_chain_strength, default="utc")
    p.add_argument("--prefactor", type=float, default=UTC_PREFACTOR)
    p.add_argument("--topology", type=_topology, default=(8, 8, 4))
    _add_common(p)
    p.set_defaults(func=cmd_sample)

    p = sub.add_parser("unembed", help="apply one unembedding method to samples")
    p.add_argument("--graph", required=True)
    p.add_argument("--problem", choices=PROBLEMS, required=True)
    p.add_argument("--samples", required=True, help="samples JSON from 'sample'")
    p.add_argument("--embedding", required=True)
    p.add_argument("--model", required=True)
    p.add_argument("--method", choices=tuple(bench.SHORT_NAMES.values()), required=True)
    _add_common(p)
    p.set_defaults(func=cmd_unembed)

    for name in ("fig2", "fig3", "fig4"):
        p = sub.add_parser(name, help=f"run the {name} experiment")
        _add_experiment_args(p)
        if name == "fig4":
            p.add_argument("--grid", type=_float_list, required=True,
                           help="comma-separated chain strengths")
        else:
            p.add_argument("--chain-strength", type=_chain_strength, default=None)
        if name != "fig2":
            p.add_argument("--aggregate", choices=("best", "mean"), default="best")
        p.set_defaults(func=cmd_experiment)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _validate_args(args)
    except ValueError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # runtime failure after config was accepted
        print(f"error: {_where(exc)}: {exc}", file=sys.stderr)
        return 3


def _where(exc: Exception) -> str:
    """The type of ``exc`` and the function, file and line of the innermost
    frame it was raised in."""
    frame = traceback.extract_tb(exc.__traceback__)[-1]
    place = f"{os.path.basename(frame.filename)}:{frame.lineno}"
    return f"{type(exc).__name__} in {frame.name} ({place})"


def _validate_args(args):
    """Config-level checks that should fail fast with exit code 2."""
    command = args.command
    if command in ("fig2", "fig3", "fig4"):
        config = _config_from_args(args)
        config.validate()
        bench.chain_strength_setting(command, config)
    if command == "gen":
        require_probability(args.density, "density")
        require_int(args.n, "n", positive=True)
    if command == "embed":
        require_clique_fits(args.k, args.topology)
    if command == "sample":
        AnnealParams(args.reads, args.sweeps, seed=args.seed)
        if args.chain_strength != "utc":
            require_real(args.chain_strength, "chain_strength", positive=True)
        require_real(args.prefactor, "prefactor", positive=True)
        bench.require_prefactor_read(command, args.prefactor, args.chain_strength)


if __name__ == "__main__":
    sys.exit(main())
