"""The README's examples run as written: every ``toricchains`` line of its
command-line block, and the library tour."""

import re
import shlex
from pathlib import Path

from toricchains.cli import main

README = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")


def _block(heading, language):
    """The first ``language`` code block after the ``## heading`` line."""
    section = README.split(f"\n## {heading}\n", 1)[1]
    return re.search(rf"```{language}\n(.*?)```", section, re.S).group(1)


def test_every_cli_example_exits_0(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)  # `fan build --out fan.json` feeds `fan check fan.json`
    lines = [
        shlex.split(line, comments=True)
        for line in _block("Command-line interface", "sh").splitlines()
        if line.startswith("toricchains ")
    ]
    assert len(lines) == 14
    for argv in lines:
        assert main(argv[1:]) == 0, argv
        assert capsys.readouterr().err == ""
    assert (tmp_path / "fan.json").exists()


def test_library_tour_runs():
    exec(compile(_block("Library tour", "python"), "README.md", "exec"), {})
