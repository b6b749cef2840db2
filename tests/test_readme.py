"""The README's examples stay true: every `$ faulhaber ...` line prints
exactly the text shown under it, the library block runs, and the "Library"
section lists exactly the exported names."""
import re
import shlex
from pathlib import Path

import pytest

import faulhaber
from faulhaber import cli

README_PATH = Path(__file__).resolve().parents[1] / "README.md"
README = README_PATH.read_text(encoding="utf-8")
BLOCKS = re.findall(r"^```(\w*)\n(.*?)^```$", README, re.MULTILINE | re.DOTALL)


def cli_examples():
    """(argv, expected stdout) for each `$ faulhaber` line of a plain block;
    the output runs to the next blank line or the end of the block."""
    examples = []
    for language, body in BLOCKS:
        if language:
            continue
        for chunk in body.split("\n\n"):
            command, *output = chunk.rstrip("\n").split("\n")
            if command.startswith("$ faulhaber "):
                argv = shlex.split(command)[2:]
                examples.append((argv, "".join(line + "\n" for line in output)))
    return examples


EXAMPLES = cli_examples()


def test_readme_has_examples():
    assert len(EXAMPLES) >= 6
    assert sum(language == "python" for language, _ in BLOCKS) == 1


@pytest.mark.parametrize(
    "argv, expected", EXAMPLES, ids=[" ".join(argv) for argv, _ in EXAMPLES]
)
def test_cli_example_output(capsys, argv, expected):
    assert cli.main(argv) == 0
    assert capsys.readouterr().out == expected


def test_library_example_runs():
    (code,) = [body for language, body in BLOCKS if language == "python"]
    exec(compile(code, "README.md", "exec"), {})


def test_library_section_lists_exactly_the_exported_names():
    section = README.split("\n## Library\n")[1].split("\n## ")[0]
    listed = re.findall(r"^- `\w+`: (.*?)\.$", section, re.MULTILINE | re.DOTALL)
    names = re.findall(r"`(\w+)`", " ".join(listed))
    assert sorted(names) == sorted(faulhaber.__all__)
