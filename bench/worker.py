"""One workload in one fresh process: set-up, timed passes, output checks.

    python -m bench.worker --workload W --seed N --seconds S --trace 0|1 [--setup-only]

Prints "ready T" once set-up is done (imports, inputs, warm-up), T being
time.monotonic(), which is one clock for all processes; then, unless
--setup-only, one JSON line with the counts and metrics of the timed phase.
`bench/run.py` starts this module and times its set-up from outside.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time

from bench import workloads
from bench.trace import Tracer, merge

WORKLOADS = ("states", "planes", "tables", "cli")
MIN_PASSES = 3
#: Seconds a library worker stays on one CPU during the timed phase.
MOVE_S = 0.2
#: Samples that must lie beyond the reported tail percentile.
TAIL_BEYOND = 10

END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_tail_ms": "ms",
    "cpu_ms_per_op": "ms",
    "peak_rss_mb": "MB",
}

#: Layers whose calls and self time per operation the traced run reports.
LAYER_FUNCTIONS = (
    "majorana.poly_roots",
    "majorana.constellation_from_roots",
    "majorana.majorana_polynomial",
    "spin_rep.wigner_d",
    "grassmann.plucker",
    "grassmann.standard_form",
    "grassmann.plucker_residual",
    "decomp.bd_basis",
    "decomp.decompose_plane",
    "decomp.multiplicities_genfun",
    "decomp.multiplicities_char",
    "decomp.multiplicities_from_basis",
    "principal.principal_wronskian",
    "principal.principal_sampled",
    "principal.principal_top_component",
    "principal.schubert_count",
    "multicon.gauge_fix_component",
    "multicon.polarization_components",
    "multicon.clebsch_gordan",
    "multicon.multiconstellation",
    "cli.main",
)
CLI_SUBCOMMANDS = (
    "schubert",
    "constellation",
    "principal",
    "decompose",
    "multicon",
    "multiplicities",
    "verify",
    "principal_batch_jobs1",
    "principal_batch_jobs2",
)


def per_layer_units() -> dict:
    units = {}
    for fn in LAYER_FUNCTIONS:
        units[f"{fn}.calls_per_op"] = "count"
        units[f"{fn}.self_ms_per_op"] = "ms"
    units["majorana.poly_roots.roots_per_op"] = "count"
    units["decomp.bd_basis.hit_ratio"] = "ratio"
    units["cli.import_ms"] = "ms"
    for sub in CLI_SUBCOMMANDS:
        units[f"cli.{sub}.wall_ms"] = "ms"
    units["cli.principal_batch.jobs2_over_jobs1"] = "ratio"
    return units


def out_dir(root: str) -> str:
    path = os.path.join(root, "bench", "_out")
    os.makedirs(path, exist_ok=True)
    return path


def tail_percentile(n: int) -> int:
    """Highest whole percentile with at least TAIL_BEYOND of n samples beyond;
    100 (the largest sample) when n < 4 * TAIL_BEYOND leaves no such tail."""
    if n < 4 * TAIL_BEYOND:
        return 100
    return min(99, math.floor(100 * (n - TAIL_BEYOND) / n))


def percentile(values: list, p: int) -> float:
    """Nearest-rank percentile."""
    s = sorted(values)
    return s[max(0, math.ceil(p / 100 * len(s)) - 1)]


def _cpu_s(children: bool) -> float:
    """CPU seconds of this process (all threads) and, if asked, its children."""
    if not children:
        return time.process_time()
    return sum(
        resource.getrusage(who).ru_utime + resource.getrusage(who).ru_stime
        for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)
    )


def _peak_rss_mb(children: bool) -> float:
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


def build(name: str, seed: int, workdir: str, trace_file: str | None):
    if name == "cli":
        command = workloads.cli_command(trace_file)
        return workloads.cli(seed, workdir, command)
    return getattr(workloads, name)(seed)


def timed_passes(wl, seconds: float, tracer) -> dict:
    """Run whole passes over the operations until `seconds` have gone by
    (at least MIN_PASSES).  Returns each operation's wall and CPU seconds
    in every pass, the first pass's digests, and the digests of later
    passes that differ from them, keyed by (pass, operation index).

    Library workloads move this thread to the next CPU every MOVE_S
    seconds, between operations, so that every operation is timed on every
    CPU: the CPUs of a shared host can differ in speed for seconds at a
    time.  Threads the program starts itself (OpenBLAS) keep their own
    placement, and so do the processes of the cli workload.
    """
    wall, cpu, first, changed = [], [], None, {}
    cpus = sorted(os.sched_getaffinity(0))
    moves = 0
    start = moved = time.perf_counter()
    while len(wall) < MIN_PASSES or time.perf_counter() - start < seconds:
        gc.collect()  # every pass starts from the same collector state
        raw, w, c = [], [], []
        for i, op in enumerate(wl.ops):
            if not wl.children and time.perf_counter() - moved > MOVE_S:
                moves += 1
                os.sched_setaffinity(0, {cpus[moves % len(cpus)]})
                moved = time.perf_counter()
            if tracer is not None:
                tracer.op = i
            c0 = _cpu_s(wl.children)
            t0 = time.perf_counter()
            try:
                out = op.call()
            except Exception as e:  # a failed operation, counted below
                out = e
            w.append(time.perf_counter() - t0)
            c.append(_cpu_s(wl.children) - c0)
            raw.append(out)
        digests = [out if isinstance(out, Exception) else op.digest(out) for op, out in zip(wl.ops, raw)]
        if first is None:
            first = digests
        else:
            for i, d in enumerate(digests):
                if isinstance(d, Exception) or d != first[i]:
                    changed[len(wall), i] = d
        wall.append(w)
        cpu.append(c)
    os.sched_setaffinity(0, cpus)
    return {
        "wall": wall,
        "cpu": cpu,
        "first": first,
        "changed": changed,
        "peak_rss_mb": _peak_rss_mb(wl.children),
    }


def least(wl, per_pass: list) -> dict:
    """Each operation's least value over all its runs, keyed by label."""
    out: dict = {}
    for row in per_pass:
        for op, v in zip(wl.ops, row):
            out[op.label] = min(v, out.get(op.label, v))
    return out


def check_all(wl, timed: dict) -> list:
    """(pass, op, reason) for each failed operation.  An output equal to the
    first pass's output of the same operation shares its verdict."""
    by_label = {op.label: d for op, d in zip(wl.ops, timed["first"])}

    def verdict(op, d):
        if isinstance(d, Exception):
            return f"raised {type(d).__name__}: {d}"
        return op.check(d, by_label)

    base = [verdict(op, d) for op, d in zip(wl.ops, timed["first"])]
    failures = []
    for p in range(len(timed["wall"])):
        for i, op in enumerate(wl.ops):
            d = timed["changed"].get((p, i))
            reason = base[i] if d is None else verdict(op, d)
            if reason:
                failures.append((p, op, reason))
    return failures


def cli_import_ms(runs: int = 3) -> float:
    """Median time a fresh interpreter takes to import stellar.cli."""
    code = "import time; t = time.perf_counter(); import stellar.cli; print(time.perf_counter() - t)"
    times = []
    for _ in range(runs):
        out = subprocess.run([sys.executable, "-c", code], stdout=subprocess.PIPE, text=True, check=True)
        times.append(float(out.stdout))
    return 1e3 * statistics.median(times)


def layer_metrics(wl, summary: dict, timed: dict, attempted: int) -> dict:
    layers = summary["layers"]
    out = {}
    for fn in LAYER_FUNCTIONS:
        v = layers.get(fn, {"calls": 0, "self_s": 0.0})
        out[f"{fn}.calls_per_op"] = v["calls"] / attempted
        out[f"{fn}.self_ms_per_op"] = 1e3 * v["self_s"] / attempted
    out["majorana.poly_roots.roots_per_op"] = summary["roots"] / attempted
    out["decomp.bd_basis.hit_ratio"] = (
        summary["bd_hits"] / summary["bd_calls"] if summary["bd_calls"] else 0.0
    )
    out["cli.import_ms"] = cli_import_ms()
    walls = {label: 1e3 * t for label, t in least(wl, timed["wall"]).items()}
    for sub in CLI_SUBCOMMANDS:
        out[f"cli.{sub}.wall_ms"] = walls.get(sub, 0.0) if wl.name == "cli" else 0.0
    j1 = out["cli.principal_batch_jobs1.wall_ms"]
    out["cli.principal_batch.jobs2_over_jobs1"] = (
        out["cli.principal_batch_jobs2.wall_ms"] / j1 if j1 else 0.0
    )
    return out


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=WORKLOADS, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--root", required=True)
    p.add_argument("--setup-only", action="store_true")
    args = p.parse_args(argv)

    tracer = trace_file = None
    if args.trace:
        trace_file = os.path.join(out_dir(args.root), f"trace-{args.workload}-seed{args.seed}.jsonl")
        if args.workload == "cli":
            open(trace_file, "w").close()
        else:
            tracer = Tracer()
            tracer.install()
    workdir = os.path.join(out_dir(args.root), f"cli-{os.getpid()}")
    try:
        wl = build(args.workload, args.seed, workdir, trace_file)
        for op in wl.warmup:
            op.call()
        if tracer is not None:
            tracer.reset()
        print(f"ready {time.monotonic()!r}", flush=True)
        if args.setup_only:
            return 0
        timed = timed_passes(wl, args.seconds, tracer)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    passes = len(timed["wall"])
    failures = check_all(wl, timed)
    attempted = passes * len(wl.ops)
    unexpected = [(p, op.label, r) for p, op, r in failures if op.fault is None]
    for p, label, reason in unexpected[:5]:
        print(f"unexpected failure, pass {p}, {label}: {reason}", file=sys.stderr)
    faults: dict = {}
    for _, op, _ in failures:
        if op.fault is not None:
            faults[op.fault] = faults.get(op.fault, 0) + 1

    best = list(least(wl, timed["wall"]).values())
    tail_p = tail_percentile(len(best))
    result = {
        "correct": not unexpected,
        "attempted": attempted,
        "failed": len(failures),
        "passes": passes,
        "ops_per_pass": len(wl.ops),
        "distinct_ops": len(best),
        "tail_percentile": tail_p,
        "faults": faults,
        "timed_s": sum(map(sum, timed["wall"])),
    }
    if args.trace:
        if tracer is not None:
            summary = tracer.summary()
            tracer.write(trace_file)
        else:
            with open(trace_file) as fh:
                summary = merge(json.loads(line) for line in fh)
        result["metrics"] = layer_metrics(wl, summary, timed, attempted)
    else:
        result["metrics"] = {
            "ops_per_s": len(best) / sum(best),
            "latency_p50_ms": 1e3 * statistics.median(best),
            "latency_tail_ms": 1e3 * percentile(best, tail_p),
            "cpu_ms_per_op": 1e3 * statistics.fmean(least(wl, timed["cpu"]).values()),
            "peak_rss_mb": timed["peak_rss_mb"],
        }
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
