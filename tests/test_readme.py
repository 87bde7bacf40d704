"""The README's library tour runs as written.

The tour is the ``python`` block under "## Library tour"; it is executed
as it stands, so an API change that leaves it stale fails here.
"""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def tour():
    text = README.read_text()
    section = text[text.index("## Library tour"):]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_library_tour_runs(capsys):
    names = {}
    exec(compile(tour(), str(README), "exec"), names)
    rs, g, rows = names["rs"], names["g"], names["rows"]
    assert rows.shape == (len(rs), g.n) and rows.dtype == bool
    assert names["plus"].shape == (1, g.n)
    assert names["feasible"].all()
    printed = capsys.readouterr().out.splitlines()
    assert len(printed) == 2 and printed[1].endswith(f"of {g.n} chains broken")
