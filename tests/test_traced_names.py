"""The names the benchmark's tracer wraps must stay bound in the package.

``perfbench/spans.py`` lists in ``WRAPPED`` every ``(module, attribute,
metric)`` whose calls a traced run records, and replaces each attribute by
``getattr``/``setattr``.  Some of them (``bench.witness_from_values``, the
one-witness checks, the repair names on ``cli``) are bound only so that
the tracer finds them.  A change that drops one fails here instead of in
``perfbench/run.py --trace 1``.  The file is executed, not imported, so
nothing is written under ``perfbench/``.
"""

import runpy
from pathlib import Path

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
