"""The README's library quickstart runs and prints the values its comments state."""

import re
from pathlib import Path

import pytest

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
