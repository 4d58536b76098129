"""Traced in-process run of one workload, and the on-demand baseline table.

    python3 perfbench/trace_run.py --workload trust-7-4 --workdir DIR --result FILE
    python3 perfbench/trace_run.py --baseline-table

Each of the workload's commands runs twice through ``igmax.cli.main`` in this
process: plain, and with spans around the calls into each igmax module, wrapped
where the caller binds them (``igmax.pipeline.build_presentation`` and
``igmax.verification.build_presentation`` are separate spans, for example).
A span records its name, start, end and parent; its self time is its length
minus the time its children cover.  Per-layer metrics are sums of self time
over named spans plus counts taken at the same boundaries.  The summed traced
minus the summed plain wall time is the tracing overhead.  Spans are kept in
memory and written to .perfbench/trace-<workload>.json.gz at the end.

``perfbench/run.py --trace 1`` starts this in a child with the run's
PYTHONHASHSEED and reads the result file.
"""

from __future__ import annotations

import argparse
import functools
import gc
import gzip
import inspect
import io
import json
import os
import sys
import time
import traceback
from collections import Counter, defaultdict
from pathlib import Path
from types import SimpleNamespace

sys.path.insert(0, str(Path(__file__).resolve().parent))

import gate  # noqa: E402

sys.path.insert(0, str(gate.SRC))

RULES = (
    "middle", "top", "bottom", "corner", "flush-row", "flush-column", "three-quarter",
    "transitive", "rewrite", "combine", "discharge", "coxeter-match",
)
STEP_SPAN = "pipeline.replay_step."

# per-layer time metric -> the spans whose self time it sums
SELF_TIME = {
    "combinatorics.partitions_s": (
        "combinatorics.enumerate_partitions", "combinatorics.enumerate_subsets",
        "combinatorics.enumerate_transversal_pairs", "combinatorics.transversals",
    ),
    "labels.spectrum_s": ("labels.label_spectrum",),
    "squares.census_s": ("squares.square_census",),
    "squares.enumerate_singular_s": ("squares.enumerate_singular_squares",),
    "squares.stream_s": ("squares.enumerate_squares", "squares.is_singular_sq3", "squares.square_record"),
    "cli.squares_self_s": ("cli.squares",),
    "presentation.build_s": (
        "presentation.build_presentation[pipeline]", "presentation.build_presentation[verification]",
    ),
    "schreier.build_s": ("schreier.build_schreier",),
    "pipeline.resolve_s": ("pipeline.resolve", "pipeline.assert_survivors"),
    "pipeline.coxeter_s": ("pipeline.derive_involution", "pipeline.derive_braid", "pipeline.derive_commute"),
    "pipeline.discharge_s": ("pipeline.discharge_all",),
    "pipeline.finish_s": ("pipeline.finish",),
    "pipeline.log_serialize_s": ("pipeline.log_to_json", "pipeline.log_dump"),
    "pipeline.log_parse_s": ("pipeline.log_load", "pipeline.log_from_json"),
    "pipeline.replay_s": ("pipeline.replay_log",) + tuple(STEP_SPAN + rule for rule in RULES),
    "pipeline.replay_discharge_s": (STEP_SPAN + "discharge",),
    "verification.homomorphism_s": ("verification.label_homomorphism_check",),
    "verification.coset_s": ("verification.coset_enumerate",),
}
# the case ladder of the ROADMAP baseline table
BASELINE_CASES = ((5, 3), (6, 3), (6, 4), (7, 4), (7, 3))
# spans whose time their children must nearly all cover
COVERED = ("pipeline.run_pipeline", "pipeline.replay_log", "verification.verify_theorem")

# (metric, unit) of every per-layer metric, in the order they are reported
PER_LAYER = (
    [(name, "s") for name in SELF_TIME]
    + [
        ("squares.proper", "count"),
        ("squares.singular_proper", "count"),
        ("squares.singular_share", "ratio"),
        ("presentation.builds", "count"),
        ("pipeline.steps", "count"),
    ]
    + [(f"pipeline.steps.{rule}", "count") for rule in RULES]
    + [
        ("pipeline.log_bytes", "bytes"),
        ("verification.cosets_defined", "count"),
        ("verification.coset_live_share", "ratio"),
        ("trace.overhead_s", "s"),
        ("trace.coverage", "ratio"),
    ]
)


class Tracer:
    """Spans as parallel lists; ``stack`` holds the indices of the open ones."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.start: list[float] = []
        self.end: list[float] = []
        self.parent: list[int] = []
        self.stack: list[int] = []
        self.counts: Counter = Counter()

    def open(self, name: str) -> int:
        i = len(self.names)
        self.names.append(name)
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.end.append(-1.0)
        self.stack.append(i)
        self.start.append(time.perf_counter())
        return i

    def close(self, i: int) -> None:
        t = time.perf_counter()
        if i not in self.stack:  # already closed by an enclosing span
            return
        while True:
            j = self.stack.pop()
            self.end[j] = t
            if j == i:
                return

    def top(self) -> str | None:
        return self.names[self.stack[-1]] if self.stack else None

    def resumptions(self, name: str, gen):
        """Re-yield ``gen``, with one span per resumption."""
        while True:
            i = self.open(name)
            try:
                item = next(gen)
            except StopIteration:
                self.close(i)
                return
            except BaseException:
                self.close(i)
                raise
            self.close(i)
            yield item

    def wrap(self, name: str, fn, after=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            i = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(i)
            if inspect.isgenerator(result):
                return self.resumptions(name, result)
            if after is not None:
                after(result)
            return result

        return wrapper


class TracedSteps(list):
    """A log's step list whose iteration opens one span per step, named by rule."""

    def __init__(self, tracer: Tracer, steps) -> None:
        super().__init__(steps)
        self.tracer = tracer

    def __iter__(self):
        for step in super().__iter__():
            i = self.tracer.open(STEP_SPAN + str(step.rule))
            try:
                yield step
            finally:
                self.tracer.close(i)


def install(tracer: Tracer) -> list:
    """Wrap the public igmax functions where their callers bind them; return undo records."""
    import igmax.cli as cli
    import igmax.combinatorics as combinatorics
    import igmax.labels as labels
    import igmax.pipeline as pipeline
    import igmax.presentation as presentation
    import igmax.squares as squares
    import igmax.verification as verification

    undo = []

    def patch(owner, attr, replacement):
        undo.append((owner, attr, owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def span(owner, attr, name, after=None):
        patch(owner, attr, tracer.wrap(name, getattr(owner, attr), after))

    def count_steps(result):
        _, log = result
        tracer.counts["steps"] += len(log.steps)
        tracer.counts.update("steps." + step.rule for step in log.steps)

    def count_cosets(result):
        tracer.counts["cosets_defined"] += result.cosets_defined
        tracer.counts["cosets_live"] += result.live_cosets

    def trace_steps(log):
        log.steps = TracedSteps(tracer, log.steps)

    sq3 = squares.is_singular_sq3

    def counted_sq3(sq):
        singular = sq3(sq)
        if tracer.top() == "squares.enumerate_singular_squares":
            tracer.counts["sq3_attempts"] += 1
            tracer.counts["sq3_singular"] += singular
        return singular

    for cmd in ("stats", "squares", "reduce", "replay", "verify"):
        span(cli, "cmd_" + cmd, "cli." + cmd)
    span(cli, "square_census", "squares.square_census")
    span(cli, "label_spectrum", "labels.label_spectrum")
    for fn in ("enumerate_squares", "is_singular_sq3", "square_record"):
        span(cli, fn, "squares." + fn)
    patch(cli, "json", SimpleNamespace(
        load=tracer.wrap("pipeline.log_load", json.load),
        dump=tracer.wrap("pipeline.log_dump", json.dump),
        dumps=json.dumps,
    ))
    span(squares, "enumerate_partitions", "combinatorics.enumerate_partitions")
    span(squares, "enumerate_subsets", "combinatorics.enumerate_subsets")
    patch(squares, "is_singular_sq3", counted_sq3)
    span(labels, "enumerate_transversal_pairs", "combinatorics.enumerate_transversal_pairs")
    span(combinatorics.Partition, "transversals", "combinatorics.transversals")
    span(presentation, "enumerate_singular_squares", "squares.enumerate_singular_squares")
    for module in (presentation, pipeline):
        span(module, "build_schreier", "schreier.build_schreier")
    span(pipeline, "build_presentation", "presentation.build_presentation[pipeline]")
    span(pipeline, "run_pipeline", "pipeline.run_pipeline", count_steps)
    span(pipeline, "replay_log", "pipeline.replay_log")
    for method in ("resolve", "assert_survivors", "derive_involution", "derive_braid",
                   "derive_commute", "discharge_all", "finish"):
        span(pipeline.Derivation, method, "pipeline." + method)
    span(pipeline.DerivationLog, "to_json", "pipeline.log_to_json")
    from_json = pipeline.DerivationLog.__dict__["from_json"].__func__
    patch(pipeline.DerivationLog, "from_json",
          classmethod(tracer.wrap("pipeline.log_from_json", from_json, trace_steps)))
    span(verification, "build_presentation", "presentation.build_presentation[verification]")
    span(verification, "coset_enumerate", "verification.coset_enumerate", count_cosets)
    for fn in ("label_homomorphism_check", "presentations_match", "verify_theorem"):
        span(verification, fn, "verification." + fn)
    return undo


def uninstall(undo: list) -> None:
    for owner, attr, original in reversed(undo):
        setattr(owner, attr, original)


def clear_caches() -> None:
    """Drop module-level memo caches so each in-process command starts as cold as a CLI process."""
    for name, module in list(sys.modules.items()):
        if name.startswith("igmax"):
            for value in vars(module).values():
                if callable(getattr(value, "cache_clear", None)):
                    value.cache_clear()
    gc.collect()


def run_command(argv: list[str], workdir: Path, checker: gate.Gate) -> float:
    """Run one command through ``igmax.cli.main`` in this process; return its wall time."""
    import igmax.cli as cli

    clear_caches()
    buf, saved, code = io.StringIO(), sys.stdout, 1
    t0 = time.perf_counter()
    sys.stdout = buf
    try:
        code = cli.main(argv)
    except Exception:  # a crash is that command's failure, reported by the gate
        print(traceback.format_exc(limit=3), file=sys.stderr)
    finally:
        sys.stdout = saved
    wall = time.perf_counter() - t0
    checker.check(gate.outcome_from_bytes(argv, code, buf.getvalue().encode(), workdir))
    return wall


def self_times(tr: Tracer) -> tuple[list[float], list[float]]:
    """Per-span duration and self time (duration minus the children's durations)."""
    dur = [e - s for s, e in zip(tr.start, tr.end)]
    covered = [0.0] * len(dur)
    for i, p in enumerate(tr.parent):
        if p >= 0:
            covered[p] += dur[i]
    return dur, [d - c for d, c in zip(dur, covered)]


def layer_metrics(tr: Tracer, commands: int, log_bytes: int, overhead: float) -> tuple[dict, dict]:
    dur, self_t = self_times(tr)
    by_name: dict[str, float] = defaultdict(float)
    for name, s in zip(tr.names, self_t):
        by_name[name] += s
    m: dict[str, float] = {k: sum(by_name[n] for n in spans) for k, spans in SELF_TIME.items()}
    c = tr.counts
    m["squares.proper"] = c["sq3_attempts"]
    m["squares.singular_proper"] = c["sq3_singular"]
    m["squares.singular_share"] = c["sq3_singular"] / c["sq3_attempts"] if c["sq3_attempts"] else 0.0
    builds = sum(1 for n in tr.names if n.startswith("presentation.build_presentation"))
    m["presentation.builds"] = builds / commands
    m["pipeline.steps"] = c["steps"]
    for rule in RULES:
        m[f"pipeline.steps.{rule}"] = c["steps." + rule]
    m["pipeline.log_bytes"] = log_bytes
    m["verification.cosets_defined"] = c["cosets_defined"]
    m["verification.coset_live_share"] = (
        c["cosets_live"] / c["cosets_defined"] if c["cosets_defined"] else 0.0
    )
    m["trace.overhead_s"] = overhead
    total = defaultdict(float)
    for name, d in zip(tr.names, dur):
        total[name] += d
    uncovered = {n: by_name[n] for n in COVERED if total[n] > 0}
    m["trace.coverage"] = min((1 - uncovered[n] / total[n] for n in uncovered), default=1.0)
    return m, {"self_by_span": dict(by_name), "uncovered_by_span": uncovered}


def write_spans(tr: Tracer, path: Path) -> None:
    names = sorted(set(tr.names))
    index = {n: i for i, n in enumerate(names)}
    t0 = tr.start[0] if tr.start else 0.0
    spans = [
        [index[n], round(s - t0, 7), round(e - t0, 7), p]
        for n, s, e, p in zip(tr.names, tr.start, tr.end, tr.parent)
    ]
    with gzip.open(path, "wt") as fh:
        json.dump({"columns": ["name", "start_s", "end_s", "parent"], "names": names, "spans": spans}, fh)


def traced_workload(workload: str, workdir: Path, result: Path) -> None:
    os.chdir(workdir)
    commands = gate.workload_commands(workload)
    fingerprint = gate.source_fingerprint()
    checker = gate.Gate(gate.load_digests(fingerprint))
    tracer = Tracer()
    wall = {False: 0.0, True: 0.0}
    # Each command runs plain and traced back to back, alternating which goes
    # first, so that drift in machine speed and warm-up fall on both sides.
    for k, argv in enumerate(commands):
        for traced in (False, True) if k % 2 == 0 else (True, False):
            undo = install(tracer) if traced else []
            try:
                wall[traced] += run_command(argv, workdir, checker)
            finally:
                uninstall(undo)
    plain, traced = wall[False], wall[True]
    gate.save_digests(fingerprint, checker.digests)
    logs = [workdir / argv[argv.index("--log") + 1] for argv in commands if argv[0] == "reduce"]
    log_bytes = sum(path.stat().st_size for path in logs if path.is_file())
    metrics, detail = layer_metrics(tracer, len(commands), log_bytes, traced - plain)
    write_spans(tracer, gate.STATE_DIR / f"trace-{workload}.json.gz")

    print(f"commands traced {traced:.3f} s, plain {plain:.3f} s, {len(tracer.names)} spans")
    print("self time by span (s):")
    for name, s in sorted(detail["self_by_span"].items(), key=lambda kv: -kv[1])[:30]:
        print(f"  {name:<48} {s:10.4f}")
    print("uncovered self time of " + ", ".join(COVERED) + " (s):")
    for name, s in detail["uncovered_by_span"].items():
        print(f"  {name:<48} {s:10.4f}")
    result.write_text(json.dumps({
        "attempted": checker.attempted,
        "failed": checker.failed,
        "messages": checker.messages,
        "metrics": {name: metrics[name] for name, _ in PER_LAYER},
        "units": dict(PER_LAYER),
    }))


def baseline_table() -> None:
    """The ROADMAP baseline table: counts, log size and stage times per case, measured here."""
    from igmax.pipeline import DerivationLog, replay_log, run_pipeline
    from igmax.presentation import build_presentation

    print("| (n,r) | gens | relations | log steps | log MB | build | pipeline | replay |")
    print("|-------|-----:|----------:|----------:|-------:|------:|---------:|-------:|")
    for n, r in BASELINE_CASES:
        clear_caches()
        t0 = time.perf_counter()
        pres = build_presentation(n, r)
        build = time.perf_counter() - t0
        gens, rels = len(pres.generators), len(pres.relations)
        del pres
        clear_caches()
        t0 = time.perf_counter()
        _, log = run_pipeline(n, r)
        pipeline = time.perf_counter() - t0
        text = json.dumps(log.to_json(), sort_keys=True, separators=(",", ":")) + "\n"
        steps = len(log)
        del log
        clear_caches()
        parsed = DerivationLog.from_json(json.loads(text))
        t0 = time.perf_counter()
        report = replay_log(parsed)
        replay = time.perf_counter() - t0
        if not report.ok:
            raise SystemExit(f"replay of ({n},{r}) failed: {report.failures[:3]}")
        print(f"| ({n},{r}) | {gens} | {rels:,} | {steps:,} | {len(text.encode()) / 2**20:.2f} "
              f"| {build:.2f} | {pipeline:.2f} | {replay:.2f} |", flush=True)
        del parsed, report, text


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=sorted(gate.PLAN["workloads"]))
    ap.add_argument("--workdir", type=Path)
    ap.add_argument("--result", type=Path)
    ap.add_argument("--baseline-table", action="store_true")
    args = ap.parse_args()
    if args.baseline_table:
        baseline_table()
    elif args.workload and args.workdir and args.result:
        traced_workload(args.workload, args.workdir.resolve(), args.result.resolve())
    else:
        ap.error("give --baseline-table, or --workload with --workdir and --result")


if __name__ == "__main__":
    main()
