"""The README's library tour and command-line block run as written.

The tour is the ``python`` block under "## Library tour"; it is executed
as it stands, so an API change that leaves it stale fails here.  The
``bash`` block under "## Command line" is parsed command by command, with
its ``work`` and ``out/`` paths moved into a temporary directory: every
command must parse and pass the CLI's configuration checks, and ``gen``,
``embed``, ``sample`` and ``unembed`` run to exit 0 (fig2/3/4 at the
README's sizes take minutes, so they are only parsed).
"""

import re
import shlex
from pathlib import Path

from brokenchains import cli

README = Path(__file__).resolve().parents[1] / "README.md"


def block(heading, language):
    text = README.read_text()
    section = text[text.index(heading):]
    return re.search(rf"```{language}\n(.*?)```", section, re.S).group(1)


def test_library_tour_runs(capsys):
    names = {}
    exec(compile(block("## Library tour", "python"), str(README), "exec"), names)
    rs, g, rows = names["rs"], names["g"], names["rows"]
    assert rows.shape == (len(rs), g.n) and rows.dtype == bool
    assert names["plus"].shape == (1, g.n)
    assert names["feasible"].all()
    printed = capsys.readouterr().out.splitlines()
    assert len(printed) == 2 and printed[1].endswith(f"of {g.n} chains broken")


def command_lines(tmp_path):
    """Each command of the command-line block as an argv without the
    program name, its ``work`` and ``out/`` paths under ``tmp_path``."""
    text = block("## Command line", "bash").replace("\\\n", " ")
    commands = []
    for line in filter(None, map(str.strip, text.splitlines())):
        program, *argv = shlex.split(line)
        assert program == "brokenchains", line
        commands.append([
            str(tmp_path / arg) if arg == "work" or arg.startswith(("work/", "out/")) else arg
            for arg in argv
        ])
    return commands


def test_command_line_block_runs(tmp_path, capsys):
    commands = command_lines(tmp_path)
    names = [argv[0] for argv in commands]
    assert names == ["gen", "embed", "sample", "unembed", "fig2", "fig3", "fig4"]
    for argv in commands:
        cli._validate_args(cli.build_parser().parse_args(argv))
    for argv in commands[:4]:
        assert cli.main(argv) == 0, argv
    assert (tmp_path / "work" / "unembedded.csv").exists()
    assert capsys.readouterr().err == ""
