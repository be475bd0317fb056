"""The README's command lines and library quick tour run as written."""

import contextlib
import io
import re
import shlex
import shutil
from pathlib import Path

import pytest

from spiralbox.cli import main

ROOT = Path(__file__).resolve().parent.parent
README = (ROOT / "README.md").read_text(encoding="utf-8")


def _blocks(lang: str) -> list[str]:
    return re.findall(rf"```{lang}\n(.*?)```", README, re.S)


def _commands() -> list[list[str]]:
    """Every `spiralbox ...` line of the shell blocks, continuation lines joined."""
    commands = []
    for block in _blocks("sh"):
        for line in block.replace("\\\n", " ").splitlines():
            tokens = shlex.split(line, comments=True)
            if tokens[:1] == ["spiralbox"]:
                commands.append(tokens[1:])
    return commands


COMMANDS = _commands()


def test_readme_documents_every_command():
    assert {argv[0] for argv in COMMANDS} == {
        "curve", "spectrum", "wavefunction", "oracle", "fit", "report", "hydrogen"
    }


@pytest.mark.parametrize("argv", COMMANDS, ids=[f"{i}-{a[0]}" for i, a in enumerate(COMMANDS)])
def test_readme_command_exits_0(tmp_path, monkeypatch, argv):
    shutil.copytree(ROOT / "data", tmp_path / "data")
    monkeypatch.chdir(tmp_path)
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = main(argv)
    assert code == 0, err.getvalue()


def test_readme_library_tour_runs(tmp_path, monkeypatch):
    (tour,) = _blocks("python")
    monkeypatch.chdir(tmp_path)
    exec(compile(tour, "README.md", "exec"), {})


def test_readme_accuracy_table_names_only_tests_that_exist():
    section = re.search(r"^## Accuracy\n(.*?)^## ", README, re.S | re.M).group(1)
    named = set(re.findall(r"`(test_\w+)`", section))
    sources = "".join(path.read_text(encoding="utf-8") for path in (ROOT / "tests").rglob("*.py"))
    defined = set(re.findall(r"^def (test_\w+)\(", sources, re.M))
    assert named and not named - defined, sorted(named - defined)
