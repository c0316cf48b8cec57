"""The public surface: the names the package exports and the README's
library examples."""

import re
import types
from pathlib import Path

import pytest

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


# (entry point, arguments with one float or bool, the argument's name)
NON_INTEGER_CALLS = [
    ("hp_ss_rank2_closed_form", (2.0,), "genus"),
    ("hp_nt_zts", (2.0,), "genus"),
    ("hp_plusminus_jac_pair", (2.0,), "genus"),
    ("hp_jacobian", (2.0,), "genus"),
    ("hp_bgl", (2.0,), "group rank"),
    ("hp_bsl", (True,), "group rank"),
    ("enumerate_hn_types", (2, 1, 2.0, 4), "genus"),
    ("enumerate_reductive_classes", (2.0, 0), "rank"),
    ("moduli_dimension", (2, 2.0), "genus"),
    ("uv_power", (1.5,), "exponent"),
]


@pytest.mark.parametrize("func, args, name", NON_INTEGER_CALLS, ids=[call[0] for call in NON_INTEGER_CALLS])
def test_entry_points_refuse_non_integer_arguments(func, args, name):
    # a float or a bool fails as a domain error at the entry point, not as
    # a TypeError or AttributeError of the arithmetic it would reach, or as
    # a float result (moduli_dimension(2, 2.0) was 5.0)
    with pytest.raises(hpbundles.DomainError, match="%s must be an integer" % name):
        getattr(hpbundles, func)(*args)
