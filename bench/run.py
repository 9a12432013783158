"""Benchmark of `stellar`: seeded workloads, outputs checked, one JSON line.

    python3 bench/run.py --workload states|planes|tables|cli|all --seed N \
        --seconds S --trace 0|1

Run from any directory; the program is imported from the `src/` next to
this directory.  Each workload runs in fresh worker processes
(`bench/worker.py`).  With --trace 0 the last line of output holds the
end-to-end metrics; with --trace 1 it holds the per-layer metrics of a run
with span wrappers installed.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, ROOT)

from bench.worker import END_TO_END, WORKLOADS, out_dir, per_layer_units  # noqa: E402

#: Set-ups per untraced run; setup_s is their median.
SETUPS = 3
#: Seconds after which a run is abandoned.
RUN_TIMEOUT_S = 170


def _worker(args, setup_only: bool, env: dict, deadline: float) -> tuple:
    """Start one worker; (seconds until it was ready, its result or None)."""
    argv = [
        sys.executable, "-m", "bench.worker",
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace), "--root", ROOT,
    ] + (["--setup-only"] if setup_only else [])
    start = time.monotonic()
    proc = subprocess.Popen(
        argv, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True, start_new_session=True
    )
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)  # the worker and any CLI child
            proc.wait()
    lines = out.splitlines()
    if proc.returncode != 0 or not lines or not lines[0].startswith("ready "):
        raise RuntimeError(f"{args.workload} worker failed (exit code {proc.returncode})")
    ready = float(lines[0].split()[1]) - start
    return ready, None if setup_only else json.loads(lines[-1])


def run_workload(args) -> dict:
    if not os.path.isfile(os.path.join(ROOT, "src", "stellar", "__init__.py")):
        raise RuntimeError(f"no stellar sources under {os.path.join(ROOT, 'src')}")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([os.path.join(ROOT, "src"), ROOT])
    deadline = time.monotonic() + RUN_TIMEOUT_S
    setups = []
    for _ in range(0 if args.trace else SETUPS - 1):
        setups.append(_worker(args, True, env, deadline)[0])
    ready, result = _worker(args, False, env, deadline)
    setups.append(ready)
    if args.trace:
        units = per_layer_units()
    else:
        units = END_TO_END
        result["metrics"]["setup_s"] = statistics.median(setups)
    metrics = {k: {"value": result["metrics"][k], "unit": u} for k, u in units.items()}
    detail = dict(result, metrics=metrics, workload=args.workload, seed=args.seed, setups_s=setups)
    path = os.path.join(out_dir(ROOT), f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w") as fh:
        json.dump(detail, fh, indent=1)
    return detail


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=20)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    for name in names:
        args.workload = name
        try:
            d = run_workload(args)
        except (RuntimeError, subprocess.TimeoutExpired) as e:
            print(f"bench: {e}", file=sys.stderr)
            return 1
        print(f"{name}: attempted {d['attempted']}, failed {d['failed']} "
              f"({', '.join(f'{v} {k}' for k, v in d['faults'].items()) or 'none'}), "
              f"correct {d['correct']}, {d['passes']} passes of {d['ops_per_pass']} ops, "
              f"tail = p{d['tail_percentile']}")
        for k, m in d["metrics"].items():
            print(f"  {k} {m['value']:.6g} {m['unit']}")
        print(json.dumps({k: d[k] for k in ("correct", "attempted", "failed", "metrics")}), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
