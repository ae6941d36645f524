"""Command dispatch: certify, oracle, radius, gap, describe, verify-report.

Exit codes make verdicts shell-scriptable: 0 certified robust, 1 refuted,
2 inconclusive; 64 usage, 65 parse or validation, 70 capability limit or
internal error.
"""

import argparse
import json
import sys
import time
from fractions import Fraction

from .certify import (
    INCONCLUSIVE, NOT_ROBUST_CERTIFIED, ROBUST_CERTIFIED, Verdict, certify,
)
from .errors import (
    CapabilityError, ConeValidationError, ConsistencyError,
    InfeasiblePointError, InstanceFormatError,
)
from .gapfn import gap_necessary_check
from .instances import (
    ParsedInstance, _report_doc, cone_data, describe_document, encode,
    oracle_document, parse_instance, report_document, verify_report,
)
from .linprog import LpInternalError
from .oracle import radius_estimate, robust_oracle
from .rationals import RationalParseError, format_rational, parse_rational

EXIT_ROBUST = 0
EXIT_NOT_ROBUST = 1
EXIT_INCONCLUSIVE = 2
EXIT_USAGE = 64
EXIT_PARSE = 65
EXIT_CAPABILITY = 70

_STATUS_EXIT = {
    ROBUST_CERTIFIED: EXIT_ROBUST,
    NOT_ROBUST_CERTIFIED: EXIT_NOT_ROBUST,
    INCONCLUSIVE: EXIT_INCONCLUSIVE,
}


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _radius(text: str) -> Fraction:
    """Rational or decimal-string radius; decimals convert exactly."""
    try:
        if "." in text:
            return Fraction(text)
        return parse_rational(text)
    except (RationalParseError, ValueError) as exc:
        raise argparse.ArgumentTypeError(str(exc)) from exc


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="vopcert",
                     description="Certify or refute norm-robust efficiency "
                                 "of a candidate point, with exact rational "
                                 "arithmetic throughout.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("certify", help="run the cone-condition decision tree")
    p.add_argument("file")
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("oracle", help="search perturbations for a refutation")
    p.add_argument("file")
    p.add_argument("--radius", type=_radius, required=True)
    p.add_argument("--samples", type=int, default=1000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--no-patterns", action="store_true")
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("radius", help="bisect for a refuted radius level")
    p.add_argument("file")
    p.add_argument("--max", type=_radius, required=True, dest="max_radius")
    p.add_argument("--samples", type=int, default=200)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("gap", help="gap-function necessary condition")
    p.add_argument("file")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("describe", help="print the exact cone and gradient data")
    p.add_argument("file")
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("verify-report",
                       help="re-check a report's witnesses by substitution")
    p.add_argument("file")
    p.add_argument("report")
    return parser


def _vec_text(v) -> str:
    return "(" + ", ".join(format_rational(c) for c in v) + ")"


def _mat_text(rows) -> str:
    if not rows:
        return "(none)"
    return "; ".join(_vec_text(r) for r in rows)


def _print_verdict(verdict: Verdict):
    print(f"status: {verdict.status}")
    if verdict.applied_rule:
        print(f"applied rule: {verdict.applied_rule}")
    if verdict.witness is not None:
        print(f"witness direction: {_vec_text(verdict.witness)}")
    for name, value in sorted(verdict.hypotheses.items()):
        print(f"hypothesis {name}: {_tri(value)}")
    for rep in verdict.reports:
        line = f"condition {rep.condition}: {_tri(rep.holds)}"
        if not rep.exact:
            line += " [not exact]"
        if rep.witness is not None:
            line += f" witness {_vec_text(rep.witness)}"
        if rep.note:
            line += f" ({rep.note})"
        print(line)
    if verdict.stamps:
        print("stamps: " + ", ".join(verdict.stamps))
    if verdict.oracle_referral:
        print("referral: conditions were inconclusive; try the oracle")


def _tri(value) -> str:
    if value is None:
        return "unknown"
    return "yes" if value else "no"


def _cmd_certify(parsed: ParsedInstance, args) -> int:
    start = time.monotonic()
    verdict = certify(parsed.instance, parsed.candidate)
    elapsed = time.monotonic() - start
    if args.json:
        doc = report_document(parsed.instance, parsed.candidate, verdict,
                              elapsed=elapsed)
        print(json.dumps(doc, indent=1))
    else:
        _print_verdict(verdict)
    return _STATUS_EXIT[verdict.status]


def _cmd_oracle(parsed: ParsedInstance, args) -> int:
    report = robust_oracle(parsed.instance, parsed.candidate, args.radius,
                           budget=args.samples, seed=args.seed,
                           patterns=not args.no_patterns)
    if args.json:
        print(json.dumps(oracle_document(report, args.radius), indent=1))
    else:
        print(f"outcome: {report.outcome}")
        if report.matrix is not None:
            print(f"matrix rows: {_mat_text(report.matrix.rows)}")
            print(f"dominating point: {_vec_text(report.witness)}")
        if report.certificate is not None:
            print("proved: efficient for every C with ||C||_F^2 < "
                  f"{format_rational(report.certificate.radius_sq)}")
        print(f"tried: {report.patterns_tried} patterns, "
              f"{report.samples_tried} samples (budget {report.budget}, "
              f"seed {report.seed})")
        if report.note:
            print(f"note: {report.note}")
    return EXIT_NOT_ROBUST if report.refuted else EXIT_INCONCLUSIVE


def _cmd_radius(parsed: ParsedInstance, args) -> int:
    est = radius_estimate(parsed.instance, parsed.candidate, args.max_radius,
                          budget=args.samples, seed=args.seed)
    if args.json:
        print(json.dumps(encode({
            "refuted_at": est.refuted_at,
            "clean_below": est.clean_below,
            "trace": [{"radius": r, "outcome": o} for r, o in est.trace],
        }), indent=1))
    else:
        refuted = ("none" if est.refuted_at is None
                   else format_rational(est.refuted_at))
        print(f"refuted at: {refuted}")
        print(f"clean below: {format_rational(est.clean_below)}")
        for r, outcome in est.trace:
            print(f"  probe {format_rational(r)}: {outcome}")
    return EXIT_INCONCLUSIVE if est.refuted_at is None else EXIT_NOT_ROBUST


def _cmd_gap(parsed: ParsedInstance, args) -> int:
    rep = gap_necessary_check(parsed.instance, parsed.candidate,
                              seed=args.seed)
    if args.json:
        print(json.dumps(encode(_report_doc(rep)), indent=1))
    else:
        print(f"condition {rep.condition}: {_tri(rep.holds)}")
        if rep.witness is not None:
            print(f"scalarization columns: {_mat_text(rep.witness)}")
        if rep.note:
            print(f"note: {rep.note}")
    return EXIT_INCONCLUSIVE


def _cmd_describe(parsed: ParsedInstance, args) -> int:
    if args.json:
        doc = describe_document(parsed.instance, parsed.candidate)
        print(json.dumps(doc, indent=1))
        return EXIT_ROBUST
    data = cone_data(parsed.instance, parsed.candidate)
    labels = [
        ("cone_hrep", "ordering cone rows (m . k <= 0)"),
        ("cone_generators", "ordering cone generators"),
        ("dual_neg_generators", "dual generators (weights)"),
        ("g1_rows", "componentwise non-ascent rows"),
        ("g2_rows", "scalarized non-ascent rows"),
        ("tangent_rows", "tangent cone rows"),
        ("normal_generators", "normal cone generators"),
    ]
    print(f"candidate: {_vec_text(parsed.candidate)}")
    for key, label in labels:
        rows = data[key]
        print(f"{label}: {_mat_text(rows)}")
    for j, verts in enumerate(data["subdifferentials"]):
        print(f"generalized gradient of component {j}: {_mat_text(verts)}")
    return EXIT_ROBUST


def _cmd_verify_report(parsed: ParsedInstance, args) -> int:
    with open(args.report, "r", encoding="ascii") as fh:
        doc = json.load(fh)
    problems = verify_report(parsed, doc)
    if problems:
        for p in problems:
            print(f"FAIL {p}")
        return EXIT_PARSE
    print("all witnesses re-validated")
    return EXIT_ROBUST


_COMMANDS = {
    "certify": _cmd_certify,
    "oracle": _cmd_oracle,
    "radius": _cmd_radius,
    "gap": _cmd_gap,
    "describe": _cmd_describe,
    "verify-report": _cmd_verify_report,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        parsed = parse_instance(args.file)
        return _COMMANDS[args.command](parsed, args)
    except CapabilityError as exc:
        print(f"capability: {exc}", file=sys.stderr)
        return EXIT_CAPABILITY
    except (InstanceFormatError, ConeValidationError, InfeasiblePointError,
            RationalParseError) as exc:
        print(f"invalid input: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except (OSError, UnicodeDecodeError, json.JSONDecodeError) as exc:
        print(f"cannot read input: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except (ConsistencyError, LpInternalError) as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_CAPABILITY


if __name__ == "__main__":
    sys.exit(main())
