"""README's examples, run as written from the repository root."""

import shlex
from pathlib import Path

import pytest

from torika.cli import main

ROOT = Path(__file__).resolve().parent.parent
README = (ROOT / "README.md").read_text(encoding="utf-8")


def _block(language, after=""):
    """The lines of the first ```language block that follows `after`."""
    start = README.index(f"```{language}\n", README.index(after)) + len(language) + 4
    return README[start:README.index("```", start)].splitlines()


def _console_examples():
    """(argv, expected stdout lines) for each `$ torika ...` line."""
    examples = []
    for line in _block("console"):
        if line.startswith("$ "):
            argv = shlex.split(line[2:])
            assert argv[0] == "torika", line
            examples.append((argv[1:], []))
        else:
            examples[-1][1].append(line)
    return [(argv, "\n".join(lines).rstrip("\n") + "\n") for argv, lines in examples]


EXAMPLES = _console_examples()


@pytest.mark.parametrize("argv, expected", EXAMPLES, ids=[argv[0] for argv, _ in EXAMPLES])
def test_console_example(monkeypatch, capsys, argv, expected):
    monkeypatch.chdir(ROOT)
    assert main(argv) == 0
    out, err = capsys.readouterr()
    assert out == expected and err == ""


def test_console_block_has_the_three_examples():
    assert [argv[0] for argv, _ in EXAMPLES] == [
        "report", "invariants", "cohomology"]


def test_library_snippet(monkeypatch, capsys):
    lines = _block("python", after="## Library")
    # each print line ends in a comment with the value it prints
    expected = [line.partition("# ")[2].strip() for line in lines if line.startswith("print(")]
    assert len(expected) == 4 and all(expected)
    monkeypatch.chdir(ROOT)
    exec(compile("\n".join(lines), "README.md", "exec"), {})
    out, err = capsys.readouterr()
    assert out.splitlines() == expected and err == ""
