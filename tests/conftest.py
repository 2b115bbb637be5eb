import pathlib
import sys
import types

import pytest


@pytest.fixture
def benchmark_workloads(monkeypatch):
    """perfbench/workloads.py, run from its source: nothing is written next
    to it, not even a bytecode cache.  Its dataclasses look their module up
    in sys.modules, where it stays for the test only."""
    path = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    module = types.ModuleType("perfbench_workloads")
    module.__file__ = str(path)
    monkeypatch.setitem(sys.modules, module.__name__, module)
    exec(compile(path.read_text(), str(path), "exec"), module.__dict__)
    return module
