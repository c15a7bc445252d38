"""The narrative demos and README's Python snippets run to completion
against the current API."""

import pathlib
import re
import runpy

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))
README_SNIPPETS = re.findall(r"^```python\n(.*?)^```$",
                             (ROOT / "README.md").read_text(), re.M | re.S)


@pytest.mark.parametrize("path", DEMOS, ids=lambda path: path.name)
def test_demo_runs(path, capsys):
    runpy.run_path(str(path), run_name="__main__")
    assert capsys.readouterr().out


@pytest.mark.parametrize("source", README_SNIPPETS,
                         ids=[f"README-{k + 1}" for k in range(len(README_SNIPPETS))])
def test_readme_snippet_runs(source, capsys):
    exec(compile(source, "README.md", "exec"), {"__name__": "__main__"})
    assert capsys.readouterr().out
