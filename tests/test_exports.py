"""Every name the package exports and every call site the bench tracer
wraps resolves, so deleting one fails the test suite and not only the
traced bench run."""

import importlib
import importlib.util
from pathlib import Path

import pytest

import risknet
import risknet.predictor

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def test_every_traced_binding_resolves():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    missing = [f"{module}.{name}" for module, name, *_ in tracing.BINDINGS
               if getattr(importlib.import_module(module), name, None)
               is None]
    assert tracing.BINDINGS
    assert not missing


@pytest.mark.parametrize("package", [risknet, risknet.predictor],
                         ids=lambda p: p.__name__)
def test_every_exported_name_resolves(package):
    assert not [name for name in package.__all__
                if not hasattr(package, name)]
