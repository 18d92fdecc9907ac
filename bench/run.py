"""Benchmark the agentbom build + audit pipeline on one seeded workload.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is imported from
``src/``. One pass is what ``agentbom build`` followed by ``agentbom audit``
does, in one process and one thread: manifest and trace text -> assemble
-> graph JSON -> reload + validate -> audit -> report JSON. Every pass is
checked by a correctness gate; the first pass of a run is a warm-up and is
not timed.

With ``--trace 0`` the end-to-end metrics are measured with no tracing.
Their times are wall-clock medians scaled to a fixed host speed with the
yardstick timed next to every sample (see ``_yardstick``); the unscaled
medians are printed above the result. The peak RSS is that of a separate
process that runs one pass and nothing else. With ``--trace 1`` the run
alternates untraced passes with passes that run under timing wrappers
around the program's public functions, and reports per-layer metrics plus
the tracing overhead. The last line of standard output is a JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"

# Timed passes (or rounds) per run, even past --seconds. Otherwise no pass
# starts that would, at the previous pass's pace, end past --seconds.
MIN_PASSES = 3
SETUP_SAMPLES = 15  # fresh interpreters per run; the median is reported

# The yardstick's time on a steady host (a 2-vCPU Intel Xeon VM at its
# faster speed). End-to-end times are reported as if the host ran it in
# exactly this long; see _yardstick.
YARDSTICK_NOMINAL_S = 0.05

# Runs in a fresh interpreter: the one-off cost a CLI invocation pays before
# it can read its inputs.
_SETUP_CODE = """
import sys, time
sys.path.insert(0, sys.argv[1])
start = time.perf_counter()
import agentbom
agentbom.default_matcher()
agentbom.builtin_rules()
print(repr(time.perf_counter() - start))
"""

# Runs in a fresh interpreter that does nothing but one pass over the
# workload's input files, like a CLI run: its high-water mark is the
# program's, with no harness objects in it.
_PEAK_CODE = """
import hashlib, json, resource, sys, types
sys.path.insert(0, sys.argv[1])
import run
run._import_program()
from agentbom import builtin_rules, default_matcher
with open(sys.argv[2], encoding="utf-8") as handle:
    manifest_text = handle.read()
with open(sys.argv[3], encoding="utf-8") as handle:
    trace_text = handle.read()
inputs = types.SimpleNamespace(manifest_text=manifest_text, trace_text=trace_text)
result = run._pass(inputs, default_matcher(), builtin_rules())
peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
print(json.dumps({
    "peak_kb": peak_kb,
    "violations": len(result["graph"].validate()) + len(result["reload_violations"]),
    "findings": sorted([f.risk_id, f.entry] for f in result["report"].findings),
    "report_sha256": hashlib.sha256(result["report_json"].encode("utf-8")).hexdigest(),
}))
"""


def _import_program():
    """Import agentbom from this checkout's src/, never from elsewhere."""
    if not (SRC / "agentbom" / "__init__.py").is_file():
        raise SystemExit(f"error: no agentbom sources under {SRC}")
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(BENCH_DIR))
    import agentbom

    if Path(agentbom.__file__).resolve().parent != SRC / "agentbom":
        raise SystemExit(f"error: agentbom was imported from {agentbom.__file__}")


def _yardstick() -> float:
    """Seconds for a fixed piece of CPython work that shares no code with
    agentbom: dicts, sets, strings, sorting and JSON, the same mix a pass
    spends its time in.

    Shared hosts drift between speed states for minutes at a time, which
    moves a run's median pass time by up to 2x. Timing this before every
    pass and reporting median(sample / yardstick) * YARDSTICK_NOMINAL_S
    cancels most of that drift. It runs after a ``gc.collect()``, so the
    previous pass's garbage is gone, and it calls no program code.
    """
    start = time.perf_counter()
    items = {f"e.{i % 97}.{i}": (i, str(i)) for i in range(40000)}
    chosen = {key for key, value in items.items() if value[0] % 3}
    ordered = sorted(chosen, key=lambda key: (len(key), key))
    json.loads(json.dumps(ordered[:10000]))
    return time.perf_counter() - start


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0


@dataclass
class Phase:
    """Per-pass timings of the passes that ran to completion."""

    yardstick_s: list = field(default_factory=list)
    pipeline_s: list = field(default_factory=list)
    build_s: list = field(default_factory=list)
    audit_s: list = field(default_factory=list)
    layers: list = field(default_factory=list)


def _pass(workload, matcher, rules):
    """One build + audit pass. Returns timings and every artifact."""
    from agentbom import ingestion
    from agentbom import rules as rules_mod
    from agentbom.graph import AgentBomGraph

    clock = time.perf_counter
    start = clock()
    manifest = ingestion.parse_manifest_json(workload.manifest_text)
    events = ingestion.parse_trace_jsonl(workload.trace_text)
    graph = ingestion.assemble(manifest, events, matcher)
    graph_json = graph.to_json()
    built = clock()
    loaded = AgentBomGraph.from_json(graph_json)
    reload_violations = loaded.validate()
    report = rules_mod.audit(loaded, rules)
    report_json = report.to_json()
    done = clock()
    return {
        "build_s": built - start,
        "audit_s": done - built,
        "graph": graph,
        "graph_json": graph_json,
        "reload_violations": reload_violations,
        "report": report,
        "report_json": report_json,
    }


def _gate(result, workload, reference) -> list:
    """Problems that fail the pass; empty when the pass is correct."""
    problems = []
    if result["graph"].validate():
        problems.append("the assembled graph does not validate")
    if result["reload_violations"]:
        problems.append(f"the reloaded graph has "
                        f"{len(result['reload_violations'])} violation(s)")
    found = {(f.risk_id, f.entry) for f in result["report"].findings}
    if found != workload.expected:
        problems.append(f"findings differ: missing {sorted(workload.expected - found)}"
                        f", unexpected {sorted(found - workload.expected)}")
    if reference is not None:
        for key in ("graph_json", "report_json"):
            if result[key] != reference[key]:
                problems.append(f"{key} differs from the run's first pass")
        if result["report"].graph_digest != reference["digest"]:
            problems.append("graph_digest differs from the run's first pass")
    return problems


class Runner:
    """Runs gated passes of one workload and keeps the run's reference output."""

    def __init__(self, workload, matcher, rules):
        self.workload = workload
        self.matcher = matcher
        self.rules = rules
        self.tally = Tally()
        self.reference = None
        self.last_spans = []

    def one(self, phase=None, tracer=None) -> None:
        """Run and gate one pass; record it in ``phase`` when it completes."""
        gc.collect()
        yardstick = _yardstick()
        self.tally.attempted += 1
        try:
            if tracer is not None:
                tracer.recording = True
            try:
                result = _pass(self.workload, self.matcher, self.rules)
            finally:
                if tracer is not None:
                    tracer.recording = False
            spans, counts = tracer.take() if tracer is not None else ((), None)
            if self.reference is None:
                self.reference = {
                    "graph_json": result["graph_json"],
                    "report_json": result["report_json"],
                    "digest": result["report"].graph_digest,
                }
            problems = _gate(result, self.workload, self.reference)
        except Exception:  # any failure of the program counts against it
            self.tally.failed += 1
            print(f"pass {self.tally.attempted} raised:", file=sys.stderr)
            traceback.print_exc()
            if tracer is not None:
                tracer.take()
            return
        if problems:
            self.tally.failed += 1
            for problem in problems:
                print(f"pass {self.tally.attempted} failed: {problem}",
                      file=sys.stderr)
        if phase is None:
            return
        phase.yardstick_s.append(yardstick)
        phase.build_s.append(result["build_s"])
        phase.audit_s.append(result["audit_s"])
        phase.pipeline_s.append(result["build_s"] + result["audit_s"])
        if tracer is not None:
            from tracer import layer_metrics
            phase.layers.append(layer_metrics(
                spans, counts, result, [r.risk_id for r in self.rules]))
            self.last_spans = spans

    def peak_rss_mb(self) -> float:
        """Peak RSS of a fresh process that runs one pass and nothing else.

        The pass is gated like the others: its findings must be the
        expected ones and its report must match the run's first pass.
        """
        out = BENCH_DIR / "out"
        out.mkdir(exist_ok=True)
        manifest = out / f"{self.workload.name}-{self.workload.seed}.manifest.json"
        trace = out / f"{self.workload.name}-{self.workload.seed}.trace.jsonl"
        manifest.write_text(self.workload.manifest_text, encoding="utf-8")
        trace.write_text(self.workload.trace_text, encoding="utf-8")
        self.tally.attempted += 1
        try:
            done = subprocess.run(
                [sys.executable, "-I", "-c", _PEAK_CODE, str(BENCH_DIR),
                 str(manifest), str(trace)],
                capture_output=True, text=True, timeout=120,
            )
        finally:
            manifest.unlink()
            trace.unlink()
        if done.returncode:
            sys.stderr.write(done.stderr)
            raise SystemExit("error: the peak RSS pass failed")
        probe = json.loads(done.stdout)
        expected_sha = hashlib.sha256(
            self.reference["report_json"].encode("utf-8")).hexdigest()
        problems = []
        if probe["violations"]:
            problems.append(f"{probe['violations']} validation violation(s)")
        if {tuple(pair) for pair in probe["findings"]} != self.workload.expected:
            problems.append("findings differ from the expected set")
        if probe["report_sha256"] != expected_sha:
            problems.append("report_json differs from the run's first pass")
        if problems:
            self.tally.failed += 1
            for problem in problems:
                print(f"pass {self.tally.attempted} (peak RSS) failed: {problem}",
                      file=sys.stderr)
        return probe["peak_kb"] / 1024

    def phase(self, seconds: float) -> Phase:
        phase = Phase()
        start = time.perf_counter()
        attempted, last = 0, 0.0
        while attempted < MIN_PASSES or time.perf_counter() - start + last < seconds:
            began = time.perf_counter()
            self.one(phase)
            last = time.perf_counter() - began
            attempted += 1
        return phase

    def alternate(self, seconds: float, tracer) -> tuple:
        """Untraced and traced passes in turn, so host drift hits both alike."""
        untraced, traced = Phase(), Phase()
        start = time.perf_counter()
        rounds, last = 0, 0.0
        while rounds < MIN_PASSES or time.perf_counter() - start + last < seconds:
            began = time.perf_counter()
            self.one(untraced)
            tracer.install()
            try:
                self.one(traced, tracer)
            finally:
                tracer.uninstall()
            last = time.perf_counter() - began
            rounds += 1
        return untraced, traced


def measure_setup(samples: int) -> tuple:
    """Seconds to import agentbom and build the default matcher and rules,
    each sample next to a yardstick timed in this process."""
    times, yardsticks = [], []
    for index in range(samples + 1):
        yardstick = _yardstick()
        done = subprocess.run(
            [sys.executable, "-I", "-c", _SETUP_CODE, str(SRC)],
            capture_output=True, text=True, check=True, timeout=120,
        )
        if index:  # the first interpreter only warms caches
            times.append(float(done.stdout))
            yardsticks.append(yardstick)
    return times, yardsticks


def _summary(name, unit, values) -> str:
    return (f"{name:34s} median {statistics.median(values):.6g} {unit}"
            f"  (n={len(values)}, min {min(values):.6g}, max {max(values):.6g})")


def _reported(name, metric, samples) -> str:
    return f"{name:34s} {metric['value']:.8g} {metric['unit']}  (n={samples})"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")

    _import_program()
    import workloads
    from agentbom import builtin_rules, default_matcher

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(workloads.WORKLOADS)}")
    workload = workloads.generate(args.workload, args.seed)
    if workloads.generate(args.workload, args.seed) != workload:
        raise SystemExit("error: the generator is not deterministic for this seed")
    print(f"workload {workload.name} seed {workload.seed} size {workload.size}: "
          f"{workload.trace_text.count(chr(10))} events, "
          f"{len(workload.expected)} expected finding(s)")

    runner = Runner(workload, default_matcher(), builtin_rules())
    runner.one()  # warm-up: gated and counted, not timed
    tally = runner.tally

    if args.trace == 0:
        setup, setup_yardsticks = measure_setup(SETUP_SAMPLES)
        phase = runner.phase(args.seconds)
        if not phase.pipeline_s:
            raise SystemExit("error: no pass completed")
        samples = {
            "setup_s": (setup, setup_yardsticks),
            "pipeline_s": (phase.pipeline_s, phase.yardstick_s),
            "build_s": (phase.build_s, phase.yardstick_s),
            "audit_s": (phase.audit_s, phase.yardstick_s),
        }
        metrics, counts = {}, {}
        for name, (values, yardsticks) in samples.items():
            scaled = [value / yardstick for value, yardstick in zip(values, yardsticks)]
            metrics[name] = {"value": statistics.median(scaled) * YARDSTICK_NOMINAL_S,
                             "unit": "s"}
            counts[name] = len(values)
            print(_summary(name + " wall", "s", values)
                  + f", yardstick median {statistics.median(yardsticks):.6g} s")
        metrics["peak_rss_mb"] = {"value": runner.peak_rss_mb(), "unit": "MB"}
        counts["peak_rss_mb"] = 1
        metrics["report_bytes"] = {
            "value": len(runner.reference["report_json"].encode("utf-8")),
            "unit": "bytes"}
        counts["report_bytes"] = tally.attempted - tally.failed
        metrics["pass_frac"] = {
            "value": (tally.attempted - tally.failed) / tally.attempted,
            "unit": "ratio"}
        counts["pass_frac"] = tally.attempted
        for name, metric in metrics.items():
            print(_reported(name, metric, counts[name]))
    else:
        from tracer import Tracer, unit_of, write_spans

        untraced, traced = runner.alternate(args.seconds, Tracer())
        if not traced.layers or not untraced.pipeline_s:
            raise SystemExit("error: no pass completed")
        metrics = {
            name: {"value": statistics.median([layer[name] for layer in traced.layers]),
                   "unit": unit_of(name)}
            for name in traced.layers[0]
        }
        metrics["tracing.overhead_frac"] = {
            "value": (statistics.median(traced.pipeline_s)
                      / statistics.median(untraced.pipeline_s) - 1),
            "unit": "ratio"}
        print(_summary("pipeline_s untraced", "s", untraced.pipeline_s))
        print(_summary("pipeline_s traced", "s", traced.pipeline_s))
        print(_summary("build_s traced", "s", traced.build_s))
        print(_summary("audit_s traced", "s", traced.audit_s))
        for name, metric in metrics.items():
            print(f"{name:34s} {metric['value']:.6g} {metric['unit']}")
        spans_path = BENCH_DIR / "out" / f"spans-{workload.name}.jsonl"
        write_spans(spans_path, runner.last_spans)
        print(f"spans of the last traced pass: {spans_path}")

    print(f"passes attempted {tally.attempted}, failed {tally.failed}")
    print(json.dumps({"correct": tally.failed == 0, "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
