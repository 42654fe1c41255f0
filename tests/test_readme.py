"""The README's library quickstart and command-line examples run as documented."""

import os
import re
import shlex
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import margshift

README = Path(__file__).resolve().parents[1] / "README.md"


def quickstart() -> str:
    section = README.read_text(encoding="utf-8").split("## Library quickstart", 1)[1]
    return section.split("```python\n", 1)[1].split("```", 1)[0]


def test_quickstart_prints_the_values_its_comments_state():
    code = quickstart()
    prints = [line for line in code.splitlines() if line.startswith("print(")]
    printed = []
    exec(compile(code, str(README), "exec"), {"print": lambda *args: printed.append(args)})
    assert len(printed) == len(prints)

    stated_count = 0
    for args, line in zip(printed, prints):
        # a stated value is a number as rounded in the comment ("~" marks an
        # approximate one, good to one unit of its last digit) or a bool
        comment = line.partition("#")[2]
        stated = re.findall(r"~?-?\d+\.\d+|True|False", comment)
        if not stated:
            continue
        assert len(stated) == len(args), line
        for value, text in zip(args, stated):
            if text in ("True", "False"):
                assert str(value) == text, line
                continue
            digits = len(text.split(".")[1])
            if text.startswith("~"):
                assert value == pytest.approx(float(text[1:]), abs=10.0**-digits), line
            else:
                assert round(value, digits) == float(text), line
        stated_count += len(stated)
    # -0.6546; -0.8063 -0.5029; 0.368; -0.201 False; ~0.95
    assert stated_count == 7


def cli_examples() -> list[list[str]]:
    section = README.read_text(encoding="utf-8").split("## Command line", 1)[1]
    block = section.split("```bash\n", 1)[1].split("```", 1)[0]
    return [shlex.split(cmd) for cmd in block.replace("\\\n", " ").splitlines()
            if cmd.strip() and not cmd.startswith("#")]


def test_cli_examples_run_and_write_the_files_they_name(tmp_path):
    examples = cli_examples()
    # a continuation line not joined to its command would not start with the program
    assert examples and all(argv[0] == "margshift" for argv in examples)
    shutil.copytree(README.parent / "data", tmp_path / "data")
    # the commands run in a scratch directory, where a relative PYTHONPATH misses
    paths = [str(Path(margshift.__file__).resolve().parents[1]), os.environ.get("PYTHONPATH")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, paths))}
    named = []
    for argv in examples:
        proc = subprocess.run([sys.executable, "-m", "margshift.cli", *argv[1:]], cwd=tmp_path,
                              env=env, capture_output=True, text=True)
        assert proc.returncode == 0, (argv, proc.stderr)
        named += [path for flag, path in zip(argv, argv[1:])
                  if flag in ("--json", "--out") and path != "-"]
    assert named
    for name in named:
        assert (tmp_path / name).stat().st_size > 0, name
