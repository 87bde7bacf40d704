"""Unembedding toolkit for chained-qubit annealer samples.

The package builds QUBO/Ising models for four NP-hard graph problems,
compiles them onto a Chimera hardware graph through a complete-graph
minor embedding, draws samples with a classical simulated annealer (or a
controlled chain-break injector), and resolves broken chains with three
generic strategies plus one problem-tailored algorithm per problem.
"""

from brokenchains.graphs import (
    Graph,
    erdos_renyi,
    complement,
    is_clique,
    is_vertex_cover,
    cut_size,
    brute_force,
)
from brokenchains.bqm import (
    QUBO,
    ISING,
    BinaryQuadraticModel,
    energy,
    convert,
    build_max_clique_qubo,
    build_min_vertex_cover_qubo,
    build_max_cut_ising,
    build_graph_partitioning_ising,
    scale_to_unit_range,
)
from brokenchains.topology import (
    HardwareGraph,
    Embedding,
    PhysicalModel,
    chimera,
    clique_embedding,
    chain_columns,
    validate_embedding,
    uniform_torque_compensation,
    embed_bqm,
)
from brokenchains.sampler import (
    AnnealParams,
    SampleSet,
    anneal_grid,
    simulated_anneal,
    inject_chain_breaks,
)
from brokenchains.seeding import rng_from
from brokenchains.unembed import (
    ChainReadout,
    ReadoutSet,
    decompose,
    decompose_set,
    majority_vote,
    random_weighted,
    minimize_energy,
    max_clique_rows,
    max_cut_rows,
    partitioning_rows,
    vertex_cover_rows,
)

__version__ = "0.1.0"
