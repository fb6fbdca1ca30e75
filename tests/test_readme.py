"""The README's library quick start runs as written, and documents the package namespace."""

import ast
import contextlib
import io
import re
from pathlib import Path

import pytest

import qfibounds
from qfibounds import errors

README = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
FENCE = re.compile(r"```(\w*)\n(.*?)```", re.S)
QUICK_START = next(body for lang, body in FENCE.findall(README) if lang == "python")


def _values(tokens) -> list:
    """Leading booleans and numbers of a token list, stopping at the first word that is neither."""
    values = []
    for token in tokens:
        token = token.rstrip(":,")
        if token in ("True", "False"):
            values.append(token == "True")
            continue
        try:
            values.append(float(token))
        except ValueError:
            break
    return values


def test_quick_start_prints_its_comments():
    comments = [
        line.split("#", 1)[1] for line in QUICK_START.splitlines() if line.startswith("print(")
    ]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(QUICK_START, "README.md", "exec"), {})
    printed = out.getvalue().splitlines()
    assert len(printed) == len(comments)
    for line, comment in zip(printed, comments):
        got, expected = _values(line.split()), _values(comment.split())
        assert expected and len(got) == len(expected), (line, comment)
        for value, want in zip(got, expected):
            if isinstance(want, bool):
                assert value is want, (line, comment)
            else:  # the documented 6.25 prints as 6.249999999999999
                assert not isinstance(value, bool) and value == pytest.approx(want, rel=1e-12)


def test_every_exported_name_is_documented_or_an_error_class():
    prose = FENCE.sub("", README)
    code = "\n".join(line.split("#", 1)[0] for line in QUICK_START.splitlines())
    documented = " ".join(re.findall(r"`([^`]+)`", prose)) + code
    tree = ast.parse(Path(qfibounds.__file__).read_text(encoding="utf-8"))
    exported = [
        alias.asname or alias.name
        for node in tree.body if isinstance(node, ast.ImportFrom)
        for alias in node.names
    ]
    error_classes = {name for name, value in vars(errors).items() if isinstance(value, type)
                     and issubclass(value, Exception) and value.__module__ == errors.__name__}
    undocumented = [name for name in exported if name not in error_classes
                    and not re.search(rf"\b{name}\b", documented)]
    assert exported and not undocumented
    assert error_classes <= set(exported)
