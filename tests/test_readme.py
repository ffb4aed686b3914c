"""README.md's Library section runs against the package as documented."""

import importlib
import pkgutil
import re
from pathlib import Path

import oddgirth as og

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_library_snippet_runs():
    blocks = re.findall(r"^```python\n(.*?)^```$", README.read_text(), re.M | re.S)
    assert len(blocks) == 1
    namespace = {}
    exec(compile(blocks[0], str(README), "exec"), namespace)
    report = namespace["report"]
    assert report.hypothesis_met
    assert report.conclusion.intersection_array.b == [4, 3, 3]
    assert report.certificates["vandermonde"].residual == 0.0
    assert namespace["s"].d == 3
    assert namespace["lm"].shape == (35, 4)


def test_readme_library_names_resolve():
    # every backticked identifier of the Library section names something in
    # the package, so deleting a function cannot leave the docs naming it;
    # single letters and subscripted symbols such as O_7 are mathematics
    section = README.read_text().split("\n## Library\n", 1)[1].split("\n## ", 1)[0]
    names = {name for name in re.findall(r"`([^`\n]+)`", section)
             if re.fullmatch(r"[A-Za-z_]\w+", name) and not re.fullmatch(r"[A-Za-z]_\w+", name)}
    assert {"verify_theorem", "matrix_values", "NotDistanceRegular"} <= names
    modules = [og] + [importlib.import_module("oddgirth." + m.name)
                      for m in pkgutil.iter_modules(og.__path__)]
    missing = sorted(name for name in names if not any(hasattr(m, name) for m in modules))
    assert not missing, missing
