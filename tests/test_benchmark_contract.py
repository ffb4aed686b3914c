"""The names perfbench reads from the package must resolve.

perfbench/run.py records oddgirth.scan.BACKEND before it prints anything,
perfbench/spans.py wraps every (module, function) in its TRACED list, and
the workloads call the package's public names; a rename there would cost
the benchmark its result line, not fail a test.  The benchmark is read from
its files here, not changed.
"""

import importlib
import importlib.util
import re
from pathlib import Path

import oddgirth as og
from oddgirth import scan

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _load(name):
    spec = importlib.util.spec_from_file_location("perfbench_" + name, PERFBENCH / (name + ".py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_functions_resolve():
    traced = _load("spans").TRACED
    assert traced
    for module, name in traced:
        assert callable(getattr(importlib.import_module(module), name, None)), (module, name)


def test_scan_backend_resolves():
    assert isinstance(scan.BACKEND, str) and scan.BACKEND


def test_workload_names_resolve():
    # every og.<name>[.<name>] the workloads call, read off their source
    source = (PERFBENCH / "workloads.py").read_text()
    names = set(re.findall(r"\bog\.(\w+(?:\.\w+)?)", source))
    assert {"verify_theorem", "scan.scan_enumerated", "scan.scan_corpus"} <= names
    for name in names:
        target = og
        for part in name.split("."):
            target = getattr(target, part, None)
        assert target is not None, name
