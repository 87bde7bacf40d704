"""Span tracer for the traced run, installed from outside the package.

``Tracer.install`` replaces, for the traced run only, the public names that
``brokenchains.bench``, ``brokenchains.cli`` and ``brokenchains.bqm`` call
with wrappers that record one span per call: name, start, end, parent span
and job id.  Spans stay in memory; ``write`` saves them once at the end.
Each span belongs to one per-layer metric; a metric's value is the summed
self time of its spans (duration minus the time its direct child spans
cover), so the metrics of one job add up to the job's wall time.
"""

import contextlib
import gzip
import json
import time

from brokenchains import bench, bqm, cli

# (module, attribute, metric) for every wrapped name
WRAPPED = [
    (bench, "erdos_renyi", "graphs.generate_s"),
    (bench, "is_clique", "graphs.check_s"),
    (bench, "is_vertex_cover", "graphs.check_s"),
    (bench, "cut_size", "graphs.check_s"),
    (bqm, "build_model", "bqm.build_s"),
    (bench, "convert", "bqm.build_s"),
    (bench, "scale_to_unit_range", "bqm.build_s"),
    (bench, "chimera", "topology.hardware_s"),
    (bench, "clique_embedding", "topology.embedding_s"),
    (bench, "identity_embedding", "topology.embedding_s"),
    (bench, "uniform_torque_compensation", "topology.chain_strength_s"),
    (bench, "embed_bqm", "topology.compile_s"),
    (bench, "simulated_anneal", "sampler.anneal_s"),
    (bench, "inject_chain_breaks", "sampler.inject_s"),
    (bench, "decompose", "unembed.decompose_s"),
    (bench, "majority_vote", "unembed.majority_vote_s"),
    (bench, "random_weighted", "unembed.random_weighted_s"),
    (bench, "minimize_energy", "unembed.minimize_energy_s"),
    (bench, "unembed_tailored", "unembed.tailored_s"),
    (bench, "witness_from_values", "bench.score_s"),
    (bench, "score_witness", "bench.score_s"),
    (bench, "aggregate_objective", "bench.score_s"),
    (bench, "broken_chain_proportion", "bench.broken_proportion_s"),
    (bench, "rows_to_csv", "bench.csv_s"),
    (cli, "main", "cli.self_s"),
    (cli, "erdos_renyi", "graphs.generate_s"),
    (cli, "read_edge_list", "graphs.generate_s"),
    (cli, "convert", "bqm.build_s"),
    (cli, "chimera", "topology.hardware_s"),
    (cli, "clique_embedding", "topology.embedding_s"),
    (cli, "uniform_torque_compensation", "topology.chain_strength_s"),
    (cli, "embed_bqm", "topology.compile_s"),
    (cli, "simulated_anneal", "sampler.anneal_s"),
    (cli, "sampleset_to_json", "sampler.write_s"),
    (cli, "sampleset_to_csv", "sampler.write_s"),
    (cli, "sampleset_from_json", "sampler.read_s"),
    (cli, "decompose", "unembed.decompose_s"),
    (cli, "majority_vote", "unembed.majority_vote_s"),
    (cli, "random_weighted", "unembed.random_weighted_s"),
    (cli, "minimize_energy", "unembed.minimize_energy_s"),
    (cli, "unembed_tailored", "unembed.tailored_s"),
]

JOB_METRIC = "bench.self_s"  # the job's root span: time no wrapped call covers
TIME_METRICS = sorted({metric for _, _, metric in WRAPPED} | {JOB_METRIC})


def _count_anneal(counts, args, result):
    pm, params = args[0], args[1]
    counts["sampler.spin_updates"] += (
        params.num_reads * params.sweeps * len(pm.ising.variables())
    )


def _count_decompose(counts, args, result):
    counts["unembed.chains_decoded"] += len(result)
    counts["unembed.chains_broken"] += sum(1 for r in result if r.broken)


def _count_compile(counts, args, result):
    counts["topology.compiles"] += 1
    counts["topology.physical_qubits"] = max(
        counts["topology.physical_qubits"], len(result.qubits())
    )


def _count_embedding(counts, args, result):
    counts["topology.chain_len_max"] = max(
        counts["topology.chain_len_max"], result.max_chain_length()
    )


def _count_written(counts, args, result):
    counts["sampler.bytes_written"] += len(result.encode())


# attribute -> hook(counts, args, result) reading exact counts off the call
COUNTERS = {
    "simulated_anneal": _count_anneal,
    "decompose": _count_decompose,
    "embed_bqm": _count_compile,
    "clique_embedding": _count_embedding,
    "sampleset_to_json": _count_written,
    "sampleset_to_csv": _count_written,
}
COUNT_METRICS = sorted(
    {
        "sampler.spin_updates",
        "unembed.chains_decoded",
        "unembed.chains_broken",
        "topology.compiles",
        "topology.physical_qubits",
        "topology.chain_len_max",
        "sampler.bytes_written",
    }
)

# span fields
NAME, METRIC, START, END, PARENT, JOB, CHILD_S = range(7)


class Tracer:
    """Records nested spans of the wrapped calls; see the module docstring."""

    def __init__(self):
        self.spans = []
        self.counts = dict.fromkeys(COUNT_METRICS, 0)
        self._stack = []
        self._job = None
        self._saved = []

    def _open(self, name, metric):
        parent = self._stack[-1] if self._stack else None
        span = [name, metric, time.perf_counter(), None, parent, self._job, 0.0]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def _close(self, span):
        span[END] = time.perf_counter()
        self._stack.pop()
        if span[PARENT] is not None:
            self.spans[span[PARENT]][CHILD_S] += span[END] - span[START]

    @contextlib.contextmanager
    def job(self, job_id):
        """Root span of one job; wrapped calls inside it carry ``job_id``."""
        self._job = job_id
        span = self._open("job", JOB_METRIC)
        try:
            yield
        finally:
            self._close(span)
            self._job = None

    def _wrap(self, fn, name, metric, count):
        def traced(*args, **kwargs):
            span = self._open(name, metric)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(span)
            if count is not None:
                count(self.counts, args, result)
            return result

        return traced

    def install(self):
        for module, attr, metric in WRAPPED:
            fn = getattr(module, attr)
            self._saved.append((module, attr, fn))
            name = f"{module.__name__.rsplit('.', 1)[-1]}.{attr}"
            setattr(module, attr, self._wrap(fn, name, metric, COUNTERS.get(attr)))

    def uninstall(self):
        for module, attr, fn in reversed(self._saved):
            setattr(module, attr, fn)
        self._saved.clear()

    def layer_seconds(self):
        """Summed self time per metric, over every closed span."""
        totals = dict.fromkeys(TIME_METRICS, 0.0)
        for span in self.spans:
            totals[span[METRIC]] += span[END] - span[START] - span[CHILD_S]
        return totals

    def write(self, path):
        doc = {
            "fields": ["name", "metric", "start", "end", "parent", "job", "child_s"],
            "spans": self.spans,
            "counts": self.counts,
        }
        with gzip.open(path, "wt") as fh:
            json.dump(doc, fh)
