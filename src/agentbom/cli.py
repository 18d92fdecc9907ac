"""Command-line surface: build, audit, scenario, export, validate.

Outputs are byte-deterministic for fixed inputs.  The JSON report is the
machine interface; when a report is routed to a file, a short human
summary goes to stdout instead.  Exit codes: 0 on success, 1 when
``--fail-on-findings`` is set and the audit found something, 2 on any
input or schema error (one diagnostic line on stderr).
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from . import scenarios
from .dot import finding_to_dot, to_dot
from .errors import AgentBomError, GraphValidationError
from .graph import AgentBomGraph, _collector_paused
from .ingestion import assemble, parse_manifest_json, parse_trace_jsonl
from .matchers import DangerMatcher, default_matcher
from .rules import audit, builtin_rules, load_rules
from .schema import quoted

__all__ = ["main"]


def _read(path: str, newline: str | None = None) -> str:
    with open(path, encoding="utf-8", newline=newline) as handle:
        return handle.read()


def _emit(text: str, out: str | None) -> None:
    if out:
        Path(out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


def _matcher_from(path: str | None) -> DangerMatcher:
    if path:
        return DangerMatcher.from_json(_read(path))
    return default_matcher()


def _load_graph(path: str) -> AgentBomGraph:
    graph = AgentBomGraph.from_json(_read(path))
    violations = graph.validate()
    if violations:
        raise GraphValidationError(violations)
    return graph


def _cmd_build(args) -> int:
    # parsing, assembly and writing allocate many containers and no cycles;
    # one statement lets them all die before the collector resumes, which
    # would otherwise walk them at once to find nothing
    with _collector_paused():
        _emit(assemble(parse_manifest_json(_read(args.manifest)),
                       # a trace line ends at a line feed alone: a lone carriage
                       # return is JSON whitespace, not a line break
                       parse_trace_jsonl(_read(args.trace, newline="")),
                       matcher=_matcher_from(args.matchers)).to_json(), args.out)
    return 0


def _cmd_audit(args) -> int:
    graph = _load_graph(args.graph)
    pack = load_rules(_read(args.rules)) if args.rules else builtin_rules()
    report = audit(graph, pack)
    _emit(report.to_json(), args.out)
    if args.out:
        for finding in report.findings:
            print(f"{quoted(finding.risk_id)} {quoted(finding.risk_name)}: "
                  f"entry {quoted(finding.entry)}")
        print(f"{len(report.findings)} finding(s)")
    if args.fail_on_findings and report.findings:
        return 1
    return 0


def _cmd_scenario(args) -> int:
    fixture = scenarios.generate(args.id, args.seed)
    paths = fixture.write(args.out)
    for key in ("manifest", "trace", "expected"):
        print(paths[key])
    return 0


def _cmd_export(args) -> int:
    graph = _load_graph(args.graph)
    if args.finding is None:
        text = to_dot(graph)
    else:
        report = audit(graph, builtin_rules())
        if not 0 <= args.finding < len(report.findings):
            raise ValueError(
                f"finding index {args.finding} out of range; the report "
                f"has {len(report.findings)} finding(s)"
            )
        text = finding_to_dot(graph, report.findings[args.finding])
    _emit(text, args.out)
    return 0


def _cmd_validate(args) -> int:
    try:
        graph = _load_graph(args.graph)
    except GraphValidationError as exc:
        for violation in exc.violations:
            print(f"{violation.code}: {quoted(violation.element_id)}: "
                  f"{violation.message}")
        print(f"error: graph failed validation with {len(exc.violations)} "
              f"violation(s)", file=sys.stderr)
        return 2
    counts = graph.layer_counts()
    summary = ", ".join(f"{layer.value}={count}"
                        for layer, count in sorted(counts.items(),
                                                   key=lambda kv: kv[0].value))
    print(f"graph valid: {len(graph.nodes)} nodes ({summary}), "
          f"{len(graph.edges)} edges, digest {graph.digest()[:12]}")
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="agentbom",
        description="Reconstruct agent execution graphs and audit them "
                    "for path-level security risks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    build = sub.add_parser(
        "build", help="assemble a graph from a manifest and an event trace"
    )
    build.add_argument("--manifest", required=True,
                       help="capability manifest JSON")
    build.add_argument("--trace", required=True,
                       help="normalized event trace, one JSON object per line")
    build.add_argument("--matchers",
                       help="danger matcher pack JSON (default: the "
                            "builtin pack)")
    build.add_argument("--out", help="write graph JSON here instead of stdout")
    build.set_defaults(func=_cmd_build)

    audit_cmd = sub.add_parser("audit", help="run audit rules over a graph")
    audit_cmd.add_argument("--graph", required=True, help="graph JSON file")
    audit_cmd.add_argument("--rules",
                           help="rule pack JSON (default: the builtin ten)")
    audit_cmd.add_argument("--out",
                           help="write the report here; summary to stdout")
    audit_cmd.add_argument("--fail-on-findings", action="store_true",
                           help="exit 1 when the audit reports anything")
    audit_cmd.set_defaults(func=_cmd_audit)

    scenario = sub.add_parser(
        "scenario", help="write a deterministic fixture to a directory"
    )
    scenario.add_argument("--id", required=True,
                          choices=scenarios.SCENARIO_IDS)
    scenario.add_argument("--seed", type=int, default=0)
    scenario.add_argument("--out", required=True, help="target directory")
    scenario.set_defaults(func=_cmd_scenario)

    export = sub.add_parser("export", help="render a graph or finding as DOT")
    export.add_argument("--graph", required=True, help="graph JSON file")
    export.add_argument("--finding", type=int,
                        help="index into the builtin-rule audit's findings; "
                             "renders just that finding's evidence")
    export.add_argument("--out", help="write DOT here instead of stdout")
    export.set_defaults(func=_cmd_export)

    validate = sub.add_parser("validate", help="check a graph file's schema")
    validate.add_argument("--graph", required=True, help="graph JSON file")
    validate.set_defaults(func=_cmd_validate)

    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (AgentBomError, OSError, ValueError) as exc:
        message = " ".join(str(exc).split()) or type(exc).__name__
        print(f"error: {message}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
