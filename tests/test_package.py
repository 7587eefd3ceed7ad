"""The package root: README's library example and the lazily loaded float layer."""

import re
from pathlib import Path

import pytest

import reflpvi
from reflpvi import schlesinger

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_library_example_runs(capsys):
    example = re.search(r"## Library example\n\n```python\n(.*?)```",
                        README.read_text(), re.S)[1]
    exec(compile(example, "README.md", "exec"), {})
    orbit_line, theta_line = capsys.readouterr().out.splitlines()
    assert orbit_line == "7 ((3, 2, 2), (3, 2, 2), (3, 2, 2)) 0"
    assert theta_line.startswith("Theta(2/7, 2/7, 2/7, 4/7) ")


@pytest.mark.parametrize("name", sorted(reflpvi._FLOAT_LAYER))
def test_float_layer_names_resolve_lazily(name):
    assert getattr(reflpvi, name) is getattr(schlesinger, name)


def test_unknown_root_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="CubicForm"):
        reflpvi.CubicForm
