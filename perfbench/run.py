"""Run one workload of the elfol benchmark and print its metrics.

From the root of a checkout:

    python3 perfbench/run.py --workload interactive --seed 1 --seconds 15 --trace 0

Workloads: interactive, deep-search, model-check, saturate (see
perfbench/README.md). One process and one thread run the workload in a
closed loop with one client: each op starts when the previous one returns.
The seed draws the workload's inputs; elfol sees only the generated inputs.

With `--trace 0` the run times whole rounds of the workload's inputs until
`--seconds` of op time have passed, checks every op's output against a
known answer outside the timed interval, and prints the end-to-end
metrics, with times scaled to a reference speed (see speed.py). With
`--trace 1` it runs one round of ops untraced, then the same round with
every layer wrapped, and prints the per-layer metrics named in
BENCHMARK.json; the spans go to
`.perfbench/spans-<workload>-seed<seed>.jsonl`.

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`. The line before it holds
the workload's own named metrics and the exact counts of the run. The
program is imported from `src/` of the checkout; without it the run exits
with code 2 and prints no result.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import traceback
from contextlib import nullcontext
from pathlib import Path
from time import perf_counter

import layers
import speed

ROOT = Path.cwd()
BENCH_DIR = Path(__file__).resolve().parent
OUT_DIR = ROOT / ".perfbench"
SETUP_PROBES = 5  # fresh processes timed for setup_s; the median is reported
PROBE_TIMEOUT_S = 60


def _import_program() -> None:
    src = (ROOT / "src").resolve()
    sys.path.insert(0, str(src))
    try:
        import elfol
    except ImportError as e:
        _fail(f"cannot import elfol from {src}: {e}")
    if Path(elfol.__file__).resolve().parent != src / "elfol":
        _fail(f"elfol was imported from {elfol.__file__}, not from {src}")


def _fail(message: str):
    print(f"error: {message}", file=sys.stderr)
    sys.exit(2)


def _parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True,
                   choices=("interactive", "deep-search", "model-check", "saturate"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=15.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--probe-setup", action="store_true",
                   help="set the workload up, print 'ready' and exit "
                        "(used to time setup_s)")
    return p


def setup_intervals(workload: str, seed: int) -> list:
    """(start, ready) for fresh processes, each from its start to a workload
    ready for its first op: interpreter start, imports and the workload's
    set-up."""
    cmd = [sys.executable, str(BENCH_DIR / "run.py"), "--probe-setup",
           "--workload", workload, "--seed", str(seed)]
    intervals = []
    for _ in range(SETUP_PROBES):
        start = perf_counter()
        with subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True) as child:
            try:
                line = child.stdout.readline()
                ready = perf_counter()
                child.communicate(timeout=PROBE_TIMEOUT_S)
            except BaseException:
                child.kill()
                raise
        if child.returncode != 0 or line.strip() != "ready":
            _fail(f"set-up probe exited with code {child.returncode}")
        intervals.append((start, ready))
    return intervals


def _settle() -> None:
    """Move the set-up's objects out of the collector's sight, so that the
    collections between ops and inside them scan only what ops create."""
    gc.collect()
    gc.freeze()


def _one_op(w, i: int, tracer=None):
    """Run op i with the garbage collector settled first; return its kind,
    its start and end times and the problems its check found."""
    item = w.item(i)
    kind = w.kind(item)
    gc.collect()
    error = None
    root = tracer.root(f"op:{kind}", i) if tracer is not None else nullcontext()
    with root:
        start = perf_counter()
        try:
            result = w.run(item)
        except Exception:
            error = traceback.format_exc()
        end = perf_counter()
    if error is not None:
        return kind, start, end, [f"op {i} raised:\n{error}"]
    with tracer.paused() if tracer is not None else nullcontext():
        return kind, start, end, w.check(item, result)


class Tally:
    def __init__(self):
        self.wall: dict = {}  # kind -> op wall times (s)
        self.scaled: dict = {}  # kind -> op times at the reference speed (s)
        self.attempted = 0
        self.failed = 0
        self.problems: list = []

    def add(self, kind, wall, scaled, problems) -> None:
        self.wall.setdefault(kind, []).append(wall)
        self.scaled.setdefault(kind, []).append(scaled)
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.extend(problems)


def timed_run(cls, args, workdir: Path):
    """Time whole rounds of ops until `args.seconds` of op time. Every
    time is scaled to the reference speed (see speed.py); the wall times
    go into the record beside them."""
    import workloads

    with speed.SpeedProbe() as probe:
        setups = setup_intervals(args.workload, args.seed)
        w = cls(args.seed, workdir)
        _settle()
        tally = Tally()
        measured = 0.0
        i = 0
        # whole rounds only, so that every run weighs the inputs alike
        while i == 0 or i % w.round_ops or measured < args.seconds:
            kind, start, end, problems = _one_op(w, i)
            wall = end - start - probe.spent(start, end)
            tally.add(kind, wall, wall * probe.scale(start, end), problems)
            measured += wall
            i += 1
        speed_ms = probe.median_ms()
    final_problems = w.finish()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    setup_wall = statistics.median(b - a for a, b in setups)
    setup_s = statistics.median((b - a) * probe.scale(a, b) for a, b in setups)
    times = [t for ts in tally.scaled.values() for t in ts]
    metrics = {
        "setup_s": (setup_s, "s"),
        "op_p50_ms": (statistics.median(times) * 1000, "ms"),
        "op_tail_ms": (workloads.tail(times) * 1000, "ms"),
        "ops_per_s": (len(times) / sum(times), "1/s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    shared = {"failed_share": (tally.failed / tally.attempted, "ratio"),
              "peak_rss_mb": (peak_rss_mb, "MB")}
    extra = {
        "named": {"setup_s": (setup_s, "s"), **shared, **w.named(tally.scaled)},
        "named_wall": {"setup_s": (setup_wall, "s"), **shared, **w.named(tally.wall)},
        "reference_ms": speed_ms,
        "samples": {kind: len(ts) for kind, ts in tally.wall.items()},
    }
    return w, tally, final_problems, metrics, extra


def traced_run(cls, args, workdir: Path):
    setup_tracer = layers.Tracer()
    setup_tracer.install()
    try:
        with setup_tracer.root("setup", None):
            w = cls(args.seed, workdir)
    finally:
        setup_tracer.uninstall()
    _settle()
    tally = Tally()
    rounds = range(w.round_ops)
    untraced = 0.0
    for i in rounds:
        kind, start, end, problems = _one_op(w, i)
        tally.add(kind, end - start, end - start, problems)
        untraced += end - start
    ops_tracer = layers.Tracer()
    traced = 0.0
    ops_tracer.install()
    try:
        for i in rounds:
            kind, start, end, problems = _one_op(w, i, ops_tracer)
            tally.add(kind, end - start, end - start, problems)
            traced += end - start
    finally:
        ops_tracer.uninstall()
    final_problems = w.finish()
    spans = OUT_DIR / f"spans-{args.workload}-seed{args.seed}.jsonl"
    spans.unlink(missing_ok=True)
    setup_tracer.write_spans(spans, "setup")
    ops_tracer.write_spans(spans, "ops")
    per_layer = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))[
        "per_layer"
    ]
    values = layers.layer_metrics(
        setup_tracer, ops_tracer, traced - untraced, [m["name"] for m in per_layer]
    )
    metrics = {m["name"]: (values[m["name"]], m["unit"]) for m in per_layer}
    extra = {"untraced_s": untraced, "traced_s": traced,
             "spans": str(spans.relative_to(ROOT))}
    return w, tally, final_problems, metrics, extra


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    _import_program()
    from workloads import WORKLOADS

    cls = WORKLOADS[args.workload]
    OUT_DIR.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT_DIR))
    try:
        if args.probe_setup:
            cls(args.seed, workdir)
            print("ready", flush=True)
            return 0
        run = traced_run if args.trace else timed_run
        w, tally, final_problems, metrics, extra = run(cls, args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    problems = tally.problems + final_problems
    for problem in problems[:20]:
        print(f"check failed: {problem}", file=sys.stderr)
    record = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        **extra, "problems": len(problems), "counts": w.counts,
    }
    (OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({**record, "metrics": metrics}, indent=1, sort_keys=True) + "\n",
        encoding="utf-8",
    )
    print(json.dumps(record, sort_keys=True))
    result = {
        "correct": not problems,
        "attempted": tally.attempted,
        # a failed whole-run check counts as one more failed op
        "failed": min(tally.failed + bool(final_problems), tally.attempted),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
