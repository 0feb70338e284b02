"""The benchmark's tracer (bench/spans.py) replaces periorbit functions
at the names their callers look them up and puts them back afterwards.
Installing and removing each probe here makes a rename or deletion of a
patched name fail the test suite rather than a traced benchmark run."""

import importlib
import json
import pkgutil
import re
from pathlib import Path

import pytest

import periorbit
from periorbit.expressions import PeriodicCoeff
from periorbit.greens import GreensFunction

ROOT = Path(__file__).resolve().parents[1]
BENCH = ROOT / "bench"


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


def test_ci_smoke_loops_run_every_declared_workload():
    """Both benchmark smoke loops of the CI workflow, plain and traced, run
    exactly the workloads BENCHMARK.json declares, in its order: a workload
    added, renamed or dropped on one side fails here."""
    declared = [w["name"] for w in
                json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]
    workflow = (ROOT / ".github" / "workflows" / "tier1.yml").read_text()
    loops = re.findall(r"^\s*for w in ([^;]*); do$", workflow, re.MULTILINE)
    assert len(loops) == 2
    for loop in loops:
        assert loop.split() == declared
    assert workflow.count('bench/run.py --workload "$w"') == 2
