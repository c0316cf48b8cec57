"""The public surface: the names the package exports and the README's
library examples."""

import re
import types
from pathlib import Path

import hpbundles

README = Path(__file__).resolve().parent.parent / "README.md"


def test_star_import_binds_exactly_all():
    namespace = {}
    exec("from hpbundles import *", namespace)
    del namespace["__builtins__"]
    assert len(set(hpbundles.__all__)) == len(hpbundles.__all__)
    assert set(namespace) == set(hpbundles.__all__)
    # every public name the package binds, other than its submodules, is exported
    public = {
        name
        for name, value in vars(hpbundles).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert public == set(hpbundles.__all__)


def test_readme_python_blocks_run():
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(), re.S | re.M)
    assert blocks
    for block in blocks:
        exec(compile(block, str(README), "exec"), {})
