"""The benchmark's tracer (bench/spans.py) replaces periorbit functions
at the names their callers look them up and puts them back afterwards.
Installing and removing each probe here makes a rename or deletion of a
patched name fail the test suite rather than a traced benchmark run."""

import importlib
import pkgutil
from pathlib import Path

import pytest

import periorbit
from periorbit.expressions import PeriodicCoeff
from periorbit.greens import GreensFunction

BENCH = Path(__file__).resolve().parents[1] / "bench"


@pytest.fixture
def spans(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    return importlib.import_module("spans")


def _owners():
    modules = [importlib.import_module(f"periorbit.{m.name}")
               for m in pkgutil.iter_modules(periorbit.__path__)]
    return [periorbit, *modules, PeriodicCoeff, GreensFunction]


@pytest.mark.parametrize("probe", ["Tracer", "MemoryProbe"])
def test_install_then_remove_restores_every_original(spans, probe):
    before = [(owner, dict(vars(owner))) for owner in _owners()]
    installed = getattr(spans, probe)()
    try:
        installed.install()
        patched = [name for owner, names in before
                   for name, value in names.items()
                   if vars(owner).get(name) is not value]
    finally:
        installed.remove()
    assert patched
    for owner, names in before:
        now = vars(owner)
        assert now.keys() == names.keys(), owner.__name__
        for name, value in names.items():
            assert now[name] is value, f"{owner.__name__}.{name}"
