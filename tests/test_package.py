"""The package namespace: lazily resolved public names."""

from __future__ import annotations

import argparse
import importlib
import pkgutil
import re
import sys
from pathlib import Path

import pytest

import bircharts
from bircharts import root_data, sl_realization
from bircharts.cli import run_command


def test_every_export_resolves_to_its_modules_own_object():
    assert len(set(bircharts.__all__)) == len(bircharts.__all__)
    for name in bircharts.__all__:
        obj = getattr(bircharts, name)
        assert obj.__module__.startswith("bircharts.")
        assert getattr(sys.modules[obj.__module__], name) is obj, name


def test_star_import_and_dir_list_the_exports():
    namespace = {}
    exec("from bircharts import *", namespace)
    assert set(bircharts.__all__) <= set(namespace)
    assert set(bircharts.__all__) <= set(dir(bircharts))
    assert "__version__" in dir(bircharts)


def test_an_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        bircharts.no_such_name  # noqa: B018


def test_unsupported_is_one_class_and_the_cli_exits_three_on_it():
    assert bircharts.Unsupported is root_data.Unsupported is sl_realization.Unsupported

    def handler(args):
        raise sl_realization.Unsupported("not here")

    args = argparse.Namespace(handler=handler)
    assert run_command([], args) == (3, None, "error: unsupported: not here")


# The names that know the layout of an exponent key, or that take a product
# or a power on raw keys.
_KEY_LAYOUT = {"_BITS", "_FIELD", "_shift", "_var_key", "_check_degree",
               "_mul_terms", "_pow_terms"}


def test_only_the_kernel_reads_exponent_keys():
    modules = [bircharts] + [importlib.import_module(f"bircharts.{m.name}")
                             for m in pkgutil.iter_modules(bircharts.__path__)]
    assert "bircharts.exact_arith" in {m.__name__ for m in modules}
    for module in modules:
        if module.__name__ == "bircharts.exact_arith":
            continue
        assert not _KEY_LAYOUT & set(vars(module)), module.__name__
        words = set(re.findall(r"\w+", Path(module.__file__).read_text()))
        assert not _KEY_LAYOUT & words, module.__name__
