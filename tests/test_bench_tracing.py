"""The traced benchmark run patches fdrelay functions by module and name;
every one of those names must keep resolving."""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"


def _layer_patches():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.LAYER_PATCHES


@pytest.mark.parametrize("target, attr, span", _layer_patches())
def test_layer_patch_target_resolves(target, attr, span):
    module_name, _, owner = target.partition(":")
    obj = importlib.import_module(module_name)
    if owner:
        obj = getattr(obj, owner)
    assert callable(getattr(obj, attr, None)), f"{span}: {target}.{attr}"
