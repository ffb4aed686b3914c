"""README.md's Library example runs against the package as documented."""

import re
from pathlib import Path

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
