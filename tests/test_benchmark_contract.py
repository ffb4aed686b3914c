"""The names perfbench reads from the package must resolve.

perfbench/run.py records oddgirth.scan.BACKEND before it prints anything,
perfbench/spans.py wraps every (module, function) in its TRACED list, and
the workloads call the package's public names; a rename there would cost
the benchmark its result line, not fail a test.  The corpus_mixed input is
written with the package's own graph6 encoder, so it is pinned to the
per-bit oracle's encoding: a codec change must not change the file that is
timed.  The benchmark is read from its files here, not changed.
"""

import importlib
import importlib.util
import json
import re
from pathlib import Path
from types import SimpleNamespace

import oddgirth as og
from oddgirth import scan

from conftest import graph6_oracle_encode

ROOT = Path(__file__).resolve().parent.parent
PERFBENCH = ROOT / "perfbench"


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


def test_corpus_mixed_input_is_the_oracle_encoding(tmp_path):
    corpus = _load("workloads").CorpusMixed
    oracle = SimpleNamespace(Graph=og.Graph, generate_family=og.generate_family,
                             encode_graph6=graph6_oracle_encode)
    for seed in (1, 2, 3):
        files = []
        for label, package in (("package", og), ("oracle", oracle)):
            outdir = tmp_path / label
            outdir.mkdir(exist_ok=True)
            workload = corpus(package, seed, outdir)
            workload.generate()
            files.append(workload.path.read_bytes())
        assert files[0] == files[1], seed
        assert files[0].count(b"\n") == 60, seed


def test_bench_trajectories_name_the_benchmark():
    # each BENCH_<workload>.json trajectory parses, names a workload of
    # BENCHMARK.json, lists its end-to-end units, and names the commit of
    # every row but the newest, whose commit is the one that adds it
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = {w["name"] for w in benchmark["workloads"]}
    units = {m["name"]: m["unit"] for m in benchmark["end_to_end"]}
    paths = sorted(ROOT.glob("BENCH_*.json"))
    assert paths
    for path in paths:
        doc = json.loads(path.read_text())
        assert doc["workload"] == path.stem[len("BENCH_"):] and doc["workload"] in workloads, path.name
        assert doc["units"] == units, path.name
        assert doc["rows"], path.name
        assert all(row["commit"] for row in doc["rows"][:-1]), path.name
