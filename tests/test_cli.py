"""Command-line interface: exit codes, output formats, JSON schemas."""

import json

import jsonschema
import pytest

import oddgirth as og
from oddgirth import cli

REPORT_SCHEMA = {
    "type": "object",
    "required": ["input", "n", "spectrum", "d", "odd_girth", "hypotheses",
                 "certificates", "conclusion", "warnings", "tolerances"],
    "properties": {
        "n": {"type": "integer", "minimum": 1},
        "spectrum": {
            "type": "array",
            "items": {
                "type": "array",
                "prefixItems": [{"type": "number"}, {"type": "integer"}],
                "minItems": 2,
                "maxItems": 2,
            },
        },
        "d": {"type": "integer", "minimum": 0},
        "odd_girth": {"anyOf": [{"type": "integer"}, {"const": "inf"}]},
        "hypotheses": {
            "type": "object",
            "required": ["connected", "eigenvalue_count", "odd_girth", "hypothesis_met"],
        },
        "certificates": {
            "type": "object",
            "additionalProperties": {
                "type": "object",
                "required": ["pass", "residual"],
            },
        },
        "conclusion": {
            "anyOf": [
                {"type": "null"},
                {
                    "type": "object",
                    "required": ["distance_regular", "intersection_array",
                                 "generalized_odd_graph"],
                },
            ]
        },
        "warnings": {"type": "array", "items": {"type": "string"}},
        "tolerances": {"type": "object"},
    },
}

SCAN_SCHEMA = {
    "type": "object",
    "required": ["source", "jobs", "masks_total", "examined",
                 "hypothesis_met", "certified", "alarms", "parse_failures",
                 "verify_failures", "parse_errors", "verify_errors", "elapsed_s",
                 "funnel", "hits"],
    "properties": {
        "verify_failures": {"type": "integer", "minimum": 0},
        "parse_errors": {"type": "array", "items": {"type": "string"}},
        "verify_errors": {"type": "array", "items": {"type": "string"}},
        "elapsed_s": {"type": "number", "minimum": 0},
        "funnel": {
            "type": "array",
            "items": {
                "type": "object",
                "required": ["n", "masks", "connected", "triangle_free", "expanded",
                             "survivors", "hits"],
            },
        },
        "hits": {
            "type": "array",
            "items": {
                "type": "object",
                "required": ["graph6", "n", "d", "odd_girth", "distance_regular",
                             "generalized_odd_graph", "alarm"],
            },
        }
    },
}


def _write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def test_analyze_petersen_json(tmp_path, petersen, capsys):
    path = _write(tmp_path, "g.g6", og.encode_graph6(petersen).decode() + "\n")
    assert cli.main(["analyze", path, "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    jsonschema.validate(doc, REPORT_SCHEMA)
    assert doc["conclusion"]["distance_regular"] is True
    assert doc["conclusion"]["generalized_odd_graph"] is True
    assert doc["odd_girth"] == 5
    assert doc["hypotheses"]["hypothesis_met"] is True


def test_analyze_text_output(tmp_path, petersen, capsys):
    path = _write(tmp_path, "g.g6", og.encode_graph6(petersen).decode())
    assert cli.main(["analyze", path]) == 0
    out = capsys.readouterr().out
    assert "distance-regular, b=[3, 2] c=[1, 1]" in out
    assert "eigenvalue_symmetry" in out
    assert "generalized odd graph: yes" in out


def test_analyze_edges_unmet(tmp_path, capsys):
    path = _write(tmp_path, "p3.edges", "3\n0 1\n1 2\n")
    assert cli.main(["analyze", path, "--format", "edges", "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    jsonschema.validate(doc, REPORT_SCHEMA)
    assert doc["hypotheses"]["hypothesis_met"] is False
    assert doc["odd_girth"] == "inf"
    assert doc["conclusion"] is None
    assert doc["certificates"] == {}


def test_analyze_tol_flag(tmp_path, petersen, capsys):
    path = _write(tmp_path, "g.g6", og.encode_graph6(petersen).decode())
    assert cli.main(["analyze", path, "--tol", "1e-4", "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["tolerances"]["certificate"] == 1e-4


@pytest.mark.parametrize("tol", ["nan", "inf", "-inf", "-1", "-1e-300"])
def test_analyze_rejects_a_bad_tol(tmp_path, petersen, capsys, tol):
    # a NaN tolerance would print "certificate": NaN, which is not JSON
    path = _write(tmp_path, "g.g6", og.encode_graph6(petersen).decode())
    assert cli.main(["analyze", path, "--tol=" + tol, "--json"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "certificate tolerance must be finite and >= 0" in captured.err


def test_tolerances_reject_bad_values():
    assert og.Tolerances(certificate=0.0).certificate == 0.0
    assert og.Tolerances(cluster=1e-9).cluster == 1e-9
    for bad in (float("nan"), float("inf"), -float("inf"), -1.0):
        with pytest.raises(ValueError, match="certificate tolerance"):
            og.Tolerances(certificate=bad)
    for bad in (float("nan"), float("inf"), 0.0, -1.0):
        with pytest.raises(ValueError, match="cluster tolerance"):
            og.Tolerances(cluster=bad)


def test_analyze_error_paths(tmp_path, capsys):
    bad = _write(tmp_path, "bad.g6", "B\x01w\n")
    assert cli.main(["analyze", bad]) == 1
    assert "error" in capsys.readouterr().err

    assert cli.main(["analyze", str(tmp_path / "missing.g6")]) == 1
    capsys.readouterr()

    multi = _write(tmp_path, "two.g6", "Bw\nBw\n")
    assert cli.main(["analyze", multi]) == 1
    assert "one graph" in capsys.readouterr().err


def test_analyze_reports_a_graph_too_large_for_memory(tmp_path, capsys, monkeypatch):
    # numpy's MemoryError for an n x n adjacency of n = 10^9 is an error
    # line and exit 1, not a traceback; raised on purpose, so nothing large
    # is allocated
    huge = "Unable to allocate 6.94 EiB for an array with shape (1000000000, 1000000000)"
    path = _write(tmp_path, "big.txt", "1000000000\n")
    for exc, message in ((MemoryError(huge), huge), (MemoryError(), "out of memory")):
        def parse(text, exc=exc):
            raise exc

        monkeypatch.setattr(cli, "parse_edge_list", parse)
        assert cli.main(["analyze", path, "--format", "edges"]) == 1
        captured = capsys.readouterr()
        assert captured.err == "error: %s\n" % message and captured.out == ""


@pytest.mark.parametrize("space", [" ", "\t"])
def test_analyze_and_scan_strip_a_line_alike(tmp_path, capsys, space):
    # Petersen with surrounding whitespace: both commands strip the line
    path = _write(tmp_path, "p.g6", space + "IheA@GUAo" + space + "\n")
    assert cli.main(["analyze", path, "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["n"] == 10 and doc["conclusion"]["distance_regular"]
    assert cli.main(["scan", "--corpus", path, "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["examined"] == 1 and doc["certified"] == 1 and doc["parse_failures"] == 0


def test_analyze_and_scan_name_a_bad_byte_alike(tmp_path, capsys):
    # 0xc8 is neither printable graph6 nor ASCII: both commands report the
    # byte that parse_graph6 sees, not a replacement character
    path = tmp_path / "bad.g6"
    path.write_bytes(b"B\xc8w\n")
    message = "graph6: byte 0xc8 at offset 1 outside printable range 63..126"
    assert cli.main(["analyze", str(path)]) == 1
    assert capsys.readouterr().err == "error: %s\n" % message
    assert cli.main(["scan", "--corpus", str(path), "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["parse_errors"] == ["line 1: %s" % message]


def test_usage_errors_exit_one(capsys):
    # argparse normally exits 2, which is reserved for counterexample alarms
    with pytest.raises(SystemExit) as exc:
        cli.main(["analyze"])
    assert exc.value.code == 1
    with pytest.raises(SystemExit) as exc:
        cli.main(["scan"])
    assert exc.value.code == 1
    with pytest.raises(SystemExit) as exc:
        cli.main(["frobnicate"])
    assert exc.value.code == 1
    capsys.readouterr()


def test_generate_round_trip(capsys):
    assert cli.main(["generate", "cycle", "5"]) == 0
    line = capsys.readouterr().out.strip()
    g = og.parse_graph6(line)
    assert g.n == 5 and g.degrees().tolist() == [2] * 5

    assert cli.main(["generate", "odd", "3"]) == 0
    line = capsys.readouterr().out.strip()
    s = og.spectrum(og.parse_graph6(line))
    assert s.d == 2 and list(s.mults) == [1, 5, 4]  # Kneser graph K(5,2)


def test_generate_errors(capsys):
    assert cli.main(["generate", "odd", "1"]) == 1
    assert cli.main(["generate", "nosuchfamily", "3"]) == 1
    assert cli.main(["generate", "cycle"]) == 1  # missing parameter
    capsys.readouterr()


def test_scan_n3_json(capsys):
    assert cli.main(["scan", "--n", "3", "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    jsonschema.validate(doc, SCAN_SCHEMA)
    assert doc["masks_total"] == 11 and doc["examined"] == 6
    assert doc["hypothesis_met"] == 1 and doc["alarms"] == 0
    assert doc["hits"][0]["graph6"] == "Bw"  # K_3
    assert doc["hits"][0]["generalized_odd_graph"] is True
    assert [row["masks"] for row in doc["funnel"]] == [1, 2, 8]
    assert doc["funnel"][-1] == {"n": 3, "masks": 8, "connected": 4, "triangle_free": 4,
                                 "expanded": 1, "survivors": 1, "hits": 1}


def test_scan_text_output(capsys):
    assert cli.main(["scan", "--n", "4"]) == 0
    out = capsys.readouterr().out
    assert "examined: 44" in out
    assert "hypothesis met: 2" in out
    assert "alarms: 0" in out
    assert "elapsed: " in out
    assert "  n=4: 64 -> 38 -> 20 -> 1 -> 1 -> 1" in out.splitlines()


def test_scan_corpus_cli(tmp_path, petersen, capsys):
    path = _write(
        tmp_path, "c.g6", og.encode_graph6(petersen).decode() + "\nnot-a-graph\n"
    )
    assert cli.main(["scan", "--corpus", path, "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    jsonschema.validate(doc, SCAN_SCHEMA)
    assert doc["examined"] == 1 and doc["parse_failures"] == 1
    assert doc["parse_errors"][0].startswith("line 2:")

    assert cli.main(["scan", "--corpus", str(tmp_path / "nope.g6")]) == 1
    capsys.readouterr()


def test_scan_corpus_verify_failure_exit_codes(tmp_path, petersen, capsys, monkeypatch,
                                              break_verify):
    # a graph that fails to verify makes the exit code 1; an alarm on another
    # line makes it 2
    c9 = og.generate_family("cycle", [9])
    break_verify(c9)
    lines = [og.encode_graph6(g).decode() for g in (petersen, c9)]
    path = _write(tmp_path, "c.g6", "\n".join(lines) + "\n")
    assert cli.main(["scan", "--corpus", path]) == 1
    out = capsys.readouterr().out
    assert "certified distance-regular: 1" in out
    assert "verify failures: 1" in out and "  line 2: eigensolver failed" in out
    assert cli.main(["scan", "--corpus", path, "--json"]) == 1
    doc = json.loads(capsys.readouterr().out)
    jsonschema.validate(doc, SCAN_SCHEMA)
    assert doc["verify_failures"] == 1 and doc["verify_errors"][0].startswith("line 2:")

    from oddgirth import scan
    from oddgirth.verify import Certificate

    real = scan.verify_theorem

    def sabotaged(g, tolerances=None, input_label=None):
        report = real(g, tolerances, input_label=input_label)
        report.certificates["walk_regular"] = Certificate(
            name="walk_regular", passed=False, residual=1.0, tol=1e-6
        )
        return report

    monkeypatch.setattr(scan, "verify_theorem", sabotaged)
    assert cli.main(["scan", "--corpus", path]) == 2
    capsys.readouterr()


def test_alarm_exit_code(tmp_path, petersen, capsys, monkeypatch):
    # no genuine counterexample exists on <= 7 vertices, so fake a failed
    # certificate to exercise the alarm path end to end
    from oddgirth.verify import Certificate

    real = og.verify_theorem

    def sabotaged(g, tolerances=None, input_label=None):
        report = real(g, tolerances, input_label=input_label)
        report.certificates["walk_regular"] = Certificate(
            name="walk_regular", passed=False, residual=1.0, tol=1e-6
        )
        return report

    monkeypatch.setattr(cli, "verify_theorem", sabotaged)
    path = _write(tmp_path, "g.g6", og.encode_graph6(petersen).decode())
    assert cli.main(["analyze", path, "--json"]) == 2
    doc = json.loads(capsys.readouterr().out)
    assert doc["certificates"]["walk_regular"]["pass"] is False
