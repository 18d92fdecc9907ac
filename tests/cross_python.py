"""Run the CLI on every fixture under other interpreters and compare bytes.

    python tests/cross_python.py PYTHON...

For the calling interpreter and each PYTHON given, under PYTHONHASHSEED 0
and 1, this runs ``agentbom scenario``, ``build``, ``validate``, ``audit``
and ``export`` (the whole graph, and finding 0) on the five fixtures at
seeds 0-3, each step in its own child process with this checkout's src/ as
its only PYTHONPATH. It runs the same steps but ``scenario`` on the three
benchmark workloads at seeds 0-1, whose manifest and trace texts it writes
itself from bench/workloads.py. Every step's exit code, the sha256 of its
stdout and stderr, and the sha256 of every file the steps write are
compared with the calling interpreter's run under hash seed 0. It prints
one line per difference and a summary, and exits 1 if anything differs.

Each interpreter also runs the pytest-free checks in CHECKS, under each
hash seed; a check prints "ok" when it holds, and one that does not is
reported as a difference on every interpreter, the calling one included.

It needs nothing beyond the standard library, so it runs on interpreters
that have no pytest. The tier-1 suite runs a one-fixture slice of it with
the calling interpreter alone.
"""

from __future__ import annotations

import functools
import hashlib
import os
import subprocess
import sys
import tempfile
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"
BENCH = SRC.parent / "bench"
HASH_SEEDS = ("0", "1")
SEEDS = (0, 1, 2, 3)
WORKLOADS = tuple((name, seed) for name in ("replay_poison", "diamond_chain", "ingest_mesh")
                  for seed in (0, 1))

# name -> a program that prints "ok" when the check holds, and what failed
# when it does not
CHECKS = {
    # graph._collector_paused hands the survivors of a bulk conversion to the
    # oldest generation and leaves the freeze count as it found it. A fresh
    # 3.12.1 holds objects frozen before import, which the handoff releases
    # and its next full collection freezes again, so the count is compared
    # after one. Objects a caller froze stay frozen, with no handoff.
    "freeze-count handoff": """
import gc
from agentbom.graph import _collector_paused

problems = []
before = gc.get_freeze_count()
with _collector_paused():
    survivors = [[] for _ in range(1000)]
oldest = {id(item) for item in gc.get_objects(generation=2)}
if not all(id(item) in oldest for item in survivors):
    problems.append("survivors are not in the oldest generation")
gc.collect()
if gc.get_freeze_count() != before:
    problems.append(f"freeze count {gc.get_freeze_count()} != {before}")
gc.freeze()
frozen = gc.get_freeze_count()
with _collector_paused():
    more = [[] for _ in range(1000)]
if gc.get_freeze_count() != frozen:
    problems.append(f"a caller's freeze count {gc.get_freeze_count()} != {frozen}")
print("; ".join(problems) or "ok")
""",
    # Traces through one TraceContext skip the keys an earlier trace found no
    # terminal beyond, and must still equal traces with a context of their
    # own: on w0 -> w1 -> S -> c -> T, y -> K -> S at depth 3, K reaches T
    # after w0 and y found nothing, and on small seeded diamonds with tools
    # and one to two goals, every node traced in three orders.
    "shared-context traces": """
import random
from agentbom.graph import AgentBomGraph, AgentDescriptor, Edge, Node
from agentbom.schema import EdgeKind, NodeKind
from agentbom.traversal import BACKWARD, FORWARD, PathSpec, TraceContext, trace

STAMPS = ("2026-03-01T00:00:00Z", "2026-03-01T01:00:00Z", "2026-03-01T02:00:00Z")

def graph_of(nodes, edges):
    graph = AgentBomGraph()
    graph.add_agent(AgentDescriptor("a", "worker", ""))
    for node_id, kind, stamp in nodes:
        graph.add_node(Node(node_id=node_id, kind=kind, agent_id=stamp and "a",
                            trace_id=stamp and "t", timestamp=stamp))
    for edge_id, kind, source, target in edges:
        graph.add_edge(Edge(edge_id, kind, source, target))
    graph.freeze()
    return graph

def seen(result):
    return [(p.elements, p.count) for p in result.paths], result.scope, result.explored

problems = []
flow = EdgeKind.FLOWS_TO
graph = graph_of([(n, NodeKind.REASONING, STAMPS[0]) for n in ("w0", "w1", "y", "K", "S", "c", "T")],
                 [(f"{a}.{b}", flow, a, b) for a, b in (("w0", "w1"), ("w1", "S"), ("y", "K"),
                                                        ("K", "S"), ("S", "c"), ("c", "T"))])
spec = PathSpec(FORWARD, frozenset({"flows_to"}), terminal=lambda n: n.node_id == "T",
                max_depth=3)
context = TraceContext(graph, spec)
for start in ("w0", "y", "K"):
    if seen(trace(graph, start, spec, context=context)) != seen(trace(graph, start, spec)):
        problems.append(f"dead end: {start}")
for seed in range(40):
    rng = random.Random(seed)
    count, timed = rng.randint(4, 16), seed % 2 == 1
    nodes = [("tool0", NodeKind.TOOL, None), ("tool1", NodeKind.TOOL, None)]
    edges = []
    for i in range(count):
        kind = NodeKind.ACTION if rng.random() < 0.3 else NodeKind.REASONING
        nodes.append((f"n{i}", kind, rng.choice(STAMPS) if timed else STAMPS[0]))
        for j in sorted(rng.sample(range(i), min(i, rng.randint(1, 2)))):
            edges.append((f"e{len(edges)}", rng.choice((flow, EdgeKind.INFLUENCES)),
                          f"n{j}", f"n{i}"))
        if kind is NodeKind.ACTION:
            edges.append((f"e{len(edges)}", EdgeKind.INVOKES, f"n{i}", f"tool{rng.randrange(2)}"))
    graph = graph_of(nodes, edges)
    goals = set(rng.sample(sorted(graph.nodes), rng.randint(1, 2)))
    spec = PathSpec(rng.choice((FORWARD, BACKWARD)),
                    frozenset({"flows_to", "influences", "invokes"}),
                    terminal=lambda n: n.node_id in goals, max_depth=rng.randint(1, 6))
    starts = sorted(graph.nodes)
    fresh = {start: seen(trace(graph, start, spec)) for start in starts}
    for order in (starts, starts[::-1], rng.sample(starts, len(starts))):
        context = TraceContext(graph, spec)
        for start in order:
            if seen(trace(graph, start, spec, context=context)) != fresh[start]:
                problems.append(f"seed {seed}: {start}")
print("; ".join(problems[:5]) or "ok")
""",
}


def _scenario_ids() -> tuple:
    sys.path.insert(0, str(SRC))
    try:
        from agentbom.scenarios import SCENARIO_IDS
    finally:
        sys.path.remove(str(SRC))
    return SCENARIO_IDS


@functools.cache
def _workload_texts(name: str, seed: int) -> tuple:
    """(manifest text, trace text) of one benchmark workload, generated in
    this process from bench/workloads.py, which is read and not written."""
    sys.path[:0] = [str(SRC), str(BENCH)]
    dont_write, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        import workloads
    finally:
        sys.dont_write_bytecode = dont_write
        del sys.path[:2]
    workload = workloads.generate(name, seed)
    return workload.manifest_text, workload.trace_text


def _steps(scenario_id: str | None, seed: int) -> list:
    """(name, CLI arguments) of each step, all paths relative to the run's
    directory, so that no output names where it ran; with no scenario, the
    steps on inputs already written to fx/."""
    scenario = [] if scenario_id is None else [
        ("scenario", ["scenario", "--id", scenario_id, "--seed", str(seed), "--out", "fx"])]
    return scenario + [
        ("build", ["build", "--manifest", "fx/manifest.json", "--trace", "fx/trace.jsonl",
                   "--out", "graph.json"]),
        ("validate", ["validate", "--graph", "graph.json"]),
        ("audit", ["audit", "--graph", "graph.json", "--out", "report.json"]),
        ("export", ["export", "--graph", "graph.json", "--out", "graph.dot"]),
        ("export-finding", ["export", "--graph", "graph.json", "--finding", "0",
                            "--out", "finding.dot"]),
    ]


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def run(python: str, hash_seed: str, scenario_ids, seeds, workloads) -> dict:
    """What one interpreter under one hash seed gives: a map from each step,
    and each file written, to its exit code and output hashes."""
    env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONHASHSEED=hash_seed)
    results = {}
    for name, program in CHECKS.items():
        done = subprocess.run([python, "-c", program], env=env, capture_output=True,
                              text=True, timeout=300)
        results[f"check {name}"] = f"exit {done.returncode} {done.stdout.strip()}"
    cases = [(scenario_id, seed, None) for scenario_id in scenario_ids for seed in seeds]
    cases += [(name, seed, _workload_texts(name, seed)) for name, seed in workloads]
    for case, seed, texts in cases:
        with tempfile.TemporaryDirectory() as tmp:
            if texts is not None:
                (Path(tmp) / "fx").mkdir()
                for file_name, text in zip(("manifest.json", "trace.jsonl"), texts):
                    (Path(tmp) / "fx" / file_name).write_text(text, encoding="utf-8")
            for name, args in _steps(case if texts is None else None, seed):
                done = subprocess.run([python, "-m", "agentbom.cli", *args], cwd=tmp,
                                      env=env, capture_output=True, timeout=300)
                results[f"{case} seed {seed} {name}"] = (
                    f"exit {done.returncode} stdout {_sha(done.stdout)} "
                    f"stderr {_sha(done.stderr)}")
            for path in sorted(Path(tmp).rglob("*")):
                if path.is_file():
                    results[f"{case} seed {seed} file {path.relative_to(tmp)}"] = (
                        _sha(path.read_bytes()))
    return results


def differences(pythons, scenario_ids=None, seeds=SEEDS, workloads=WORKLOADS) -> tuple:
    """(a line naming each difference from the calling interpreter's run
    under the first hash seed, and each check that fails in that run; that
    run; the number of other runs)."""
    scenario_ids = _scenario_ids() if scenario_ids is None else scenario_ids
    reference = run(sys.executable, HASH_SEEDS[0], scenario_ids, seeds, workloads)
    others = [(python, hash_seed) for python in [sys.executable, *pythons]
              for hash_seed in HASH_SEEDS][1:]
    lines = [f"{sys.executable} PYTHONHASHSEED={HASH_SEEDS[0]}: {key}: {value}"
             for key, value in reference.items()
             if key.startswith("check ") and value != "exit 0 ok"]
    for python, hash_seed in others:
        got = run(python, hash_seed, scenario_ids, seeds, workloads)
        for key in sorted(reference.keys() | got.keys()):
            if got.get(key) != reference.get(key):
                lines.append(f"{python} PYTHONHASHSEED={hash_seed}: {key}: "
                             f"{got.get(key)} != {reference.get(key)}")
    return lines, reference, len(others)


def main(argv=None) -> int:
    lines, reference, runs = differences(sys.argv[1:] if argv is None else argv)
    for line in lines:
        print(line)
    failed = sum(" stdout " in value and not value.startswith("exit 0 ")
                 for value in reference.values())
    print(f"{len(lines)} difference(s): {runs} run(s) of {len(reference)} steps and files "
          f"each against {sys.executable} ({sys.version.split()[0]}) under "
          f"PYTHONHASHSEED={HASH_SEEDS[0]}, where {failed} step(s) exit nonzero")
    return 1 if lines else 0


if __name__ == "__main__":
    sys.exit(main())
