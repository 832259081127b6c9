"""The package surface: public names served from their submodules on use."""

import importlib

import pytest

import toricchains as tc


def test_every_public_name_is_its_submodule_attribute():
    for name in tc.__all__:
        if name in tc._EXPORTS:  # a submodule
            assert getattr(tc, name) is importlib.import_module(f"toricchains.{name}")
            continue
        module = importlib.import_module(f"toricchains.{tc._MODULE_OF[name]}")
        assert getattr(tc, name) is getattr(module, name)
    # no name is listed twice or under two submodules
    names = sum(len(names) for names in tc._EXPORTS.values())
    assert len(set(tc.__all__)) == len(tc.__all__) == len(tc._EXPORTS) + names


def test_star_import_binds_every_public_name():
    namespace = {}
    exec("from toricchains import *", namespace)
    assert set(tc.__all__) <= set(namespace)
    assert all(namespace[name] is getattr(tc, name) for name in tc.__all__)


def test_dir_lists_every_public_name():
    assert set(tc.__all__) <= set(dir(tc))
    assert "__version__" in dir(tc)


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="^module 'toricchains' has no attribute 'no_such_name'$"):
        tc.no_such_name
    assert not hasattr(tc, "no_such_name")


def test_submodules_and_version_resolve():
    assert tc.root_fans.WeightTorsionError.__module__ == "toricchains.root_fans"
    assert tc.symbolic is importlib.import_module("toricchains.symbolic")
    assert tc.__version__ == "0.1.0"
