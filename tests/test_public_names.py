"""Every name a layer lists in ``__all__`` resolves.

perfbench's tracer (``perfbench/spans.py``) reads each layer's ``__all__``
with ``getattr``, so a stale entry would stop a traced run before its first op.
"""

import importlib

import pytest

LAYERS = ("basis", "simulate", "estimators", "risk", "design", "dataio", "cli")


@pytest.mark.parametrize("layer", LAYERS)
def test_every_exported_name_resolves(layer):
    module = importlib.import_module(f"twolevel.{layer}")
    assert [name for name in module.__all__ if not hasattr(module, name)] == []
