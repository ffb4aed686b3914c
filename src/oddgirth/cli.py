"""Command line: analyze one graph, generate family members, scan for counterexamples.

Exit codes: 0 = certified or hypotheses not applicable, 1 = input/numerical
error (including bad arguments, and a corpus graph that failed to verify),
2 = counterexample alarm (hypotheses met but a certificate failed), which
takes precedence over 1 in a corpus scan.
"""

import argparse
import json
import math
import sys

import numpy as np

from . import scan as scan_mod
from . import spectral
from .graphs import (
    GraphError,
    encode_graph6,
    generate_family,
    graph6_lines,
    parse_edge_list,
    parse_graph6,
)
from .predistance import PredistanceError
from .verify import Tolerances, verify_theorem


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on bad usage; 2 is reserved for counterexample alarms
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, "%s: error: %s\n" % (self.prog, message))


def build_parser():
    parser = _Parser(prog="oddgirth", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p_an = sub.add_parser("analyze", help="verify the theorem pipeline on one graph")
    p_an.add_argument("path", help="input file (one graph)")
    p_an.add_argument("--format", choices=("graph6", "edges"), default="graph6")
    p_an.add_argument("--tol", type=float, default=None,
                      help="certificate tolerance (default 1e-6)")
    p_an.add_argument("--json", action="store_true", help="emit the JSON report")
    p_an.set_defaults(func=cmd_analyze)

    p_gen = sub.add_parser("generate", help="print a named family member as graph6")
    p_gen.add_argument("family")
    p_gen.add_argument("params", nargs="*", type=int)
    p_gen.set_defaults(func=cmd_generate)

    p_sc = sub.add_parser("scan", help="scan graphs for theorem counterexamples")
    group = p_sc.add_mutually_exclusive_group(required=True)
    group.add_argument("--n", type=int, help="all labeled connected graphs on <= n vertices")
    group.add_argument("--corpus", help="file of graph6 lines")
    p_sc.add_argument("--jobs", type=int, default=1,
                      help="worker processes for --corpus lines (the --n sweep runs in one); "
                           "the pool pays off on large graphs only, so it starts only when "
                           "the lines' summed n^2 passes 1e6")
    p_sc.add_argument("--json", action="store_true", help="emit the JSON summary")
    p_sc.set_defaults(func=cmd_scan)
    return parser


def _og_text(og):
    return "inf" if og == math.inf else str(int(og))


def _print_report(report, out):
    h = report.hypotheses
    d = report.spectrum.d
    print("input: %s" % (report.input or "-"), file=out)
    print("n: %d" % report.n, file=out)
    print(
        "spectrum: %s"
        % ", ".join(
            "%.10g (x%d)" % (v, m)
            for v, m in zip(report.spectrum.values, report.spectrum.mults)
        ),
        file=out,
    )
    print(
        "hypotheses: connected=%s, distinct eigenvalues=%d (d=%d), odd girth=%s "
        "(needs finite >= %d) -> %s"
        % (
            "yes" if h["connected"] else "no",
            h["eigenvalue_count"],
            d,
            _og_text(h["odd_girth"]),
            2 * d + 1,
            "met" if h["hypothesis_met"] else "not met",
        ),
        file=out,
    )
    if report.certificates:
        print("certificates:", file=out)
        for name, cert in report.certificates.items():
            if cert.passed is None:
                status = "n/a "
            else:
                status = "pass" if cert.passed else "FAIL"
            resid = "" if cert.residual is None else "  residual %.3e" % cert.residual
            print("  %-22s %s%s" % (name, status, resid), file=out)
    if report.conclusion is None:
        print("conclusion: not applicable (hypotheses not met)", file=out)
    else:
        c = report.conclusion
        if c.distance_regular:
            ia = c.intersection_array
            print(
                "conclusion: distance-regular, b=%s c=%s a=%s; generalized odd graph: %s"
                % (ia.b, ia.c, ia.a, "yes" if c.generalized_odd_graph else "no"),
                file=out,
            )
        else:
            w = c.witness
            print(
                "conclusion: NOT distance-regular (pair %s at distance %d, kind %s: "
                "%d != %d)" % (w.pair, w.i, w.kind, w.found, w.expected),
                file=out,
            )
    for warning in report.warnings:
        print("warning: %s" % warning, file=out)


def cmd_analyze(args):
    with open(args.path, "rb") as fh:
        raw = fh.read()
    if args.format == "graph6":
        lines = graph6_lines(raw)  # as scan_corpus reads the file
        if len(lines) != 1:
            raise GraphError(
                "expected exactly one graph6 line in %s, found %d" % (args.path, len(lines))
            )
        g = parse_graph6(lines[0][1])
    else:
        g = parse_edge_list(raw.decode("utf-8", errors="replace"))
    tols = Tolerances() if args.tol is None else Tolerances(certificate=args.tol)
    report = verify_theorem(g, tols, input_label=args.path)
    if args.json:
        print(json.dumps(report.to_dict(), indent=2, allow_nan=False))
    else:
        _print_report(report, sys.stdout)
    return 2 if report.alarm else 0


def cmd_generate(args):
    g = generate_family(args.family, args.params)
    print(encode_graph6(g).decode("ascii"))
    return 0


def cmd_scan(args):
    if args.n is not None:
        summary = scan_mod.scan_enumerated(args.n, jobs=args.jobs)
    else:
        summary = scan_mod.scan_corpus(args.corpus, jobs=args.jobs)
    if args.json:
        print(json.dumps(summary.to_dict(), indent=2, allow_nan=False))
    else:
        print("scan: %s (jobs %d)" % (summary.source, summary.jobs))
        print("masks considered: %d" % summary.masks_total)
        print("examined: %d" % summary.examined)
        print("hypothesis met: %d" % summary.hypothesis_met)
        print("certified distance-regular: %d" % summary.certified)
        print("alarms: %d" % summary.alarms)
        print("elapsed: %.2f s" % summary.elapsed_s)
        if summary.funnel:
            print("funnel (masks -> connected -> triangle-free -> expanded -> prefilter survivors "
                  "-> hits -> classes):")
            for n, counts in sorted(summary.funnel.items()):
                stages = (str(counts[stage]) for stage in scan_mod.FUNNEL_STAGES)
                print("  n=%d: %s" % (n, " -> ".join(stages)))
        if summary.parse_failures:
            print("parse failures: %d" % summary.parse_failures)
            for err in summary.parse_errors:
                print("  %s" % err)
        if summary.verify_failures:
            print("verify failures: %d" % summary.verify_failures)
            for err in summary.verify_errors:
                print("  %s" % err)
        if summary.hits:
            print("hypothesis-met graphs:")
            for hit in summary.hits:
                c = hit.report.conclusion
                if hit.report.alarm:
                    verdict = "ALARM: certificate failure"
                elif c.distance_regular:
                    verdict = "distance-regular"
                    if c.generalized_odd_graph:
                        verdict += ", generalized odd graph"
                else:
                    verdict = "ALARM: not distance-regular"
                print(
                    "  %-12s n=%d d=%d odd girth %d: %s"
                    % (hit.graph6, hit.n, hit.report.spectrum.d,
                       hit.report.odd_girth_value, verdict)
                )
    if summary.alarms:
        return 2
    return 1 if summary.verify_failures else 0


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (GraphError, PredistanceError, ValueError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1
    except (spectral.NumericalError, np.linalg.LinAlgError) as exc:
        print("numerical error: %s" % exc, file=sys.stderr)
        return 1
    except OSError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1
    except MemoryError as exc:
        print("error: %s" % (str(exc) or "out of memory"), file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
