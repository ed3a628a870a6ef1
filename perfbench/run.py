"""slackkit benchmark: one workload, one seed, one result line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each pass of the workload's task list runs in a fresh worker process (one
caller, closed loop, no threads), one pass after another until ``--seconds``
have gone by; a pass is never cut short.  With ``--trace 0`` the end-to-end
metrics are medians over the passes, with times at the reference machine
speed of ``speed.py``; with ``--trace 1`` untraced and traced passes
alternate and the per-layer metrics, in measured seconds, come from the
traced ones.  The metric names and units are read from BENCHMARK.json.  The
last line of stdout is the JSON result.

A pass that runs over its budget is killed and counted as failed, with the
stage it was in.  slackkit is imported from this checkout's ``src/``.
"""

import argparse
import json
import os
import selectors
import statistics
import subprocess
import sys
import time
from pathlib import Path

from speed import REFERENCE_S

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
OUT_DIR = ROOT / ".perfbench_out"

# Seconds one pass may take before it is killed.  Roughly four times the
# pass time measured on 2 cores with Python 3.11.
PASS_BUDGET_S = {
    "perles-certificate": 60,
    "pentagon-containment": 130,
    "minor-queries": 20,
    "vertex-geometry": 30,
}
RUN_LIMIT_S = 170  # the whole run, passes and set-up probes, ends by then
SETUP_SAMPLES = 5  # set-up is timed at least this often per run


class Pass:
    """What one worker process reported."""

    def __init__(self):
        self.setup_s = None
        self.tasks = []  # (stage, request or None, seconds, error or None)
        self.open_stage = "setup"
        self.layers = {}
        self.probes = []  # machine-speed probe times, seconds
        self.rss_mb = None
        self.elapsed = 0.0
        self.problem = None  # why the pass did not finish

    @property
    def wall_s(self):
        return sum(t[2] for t in self.tasks)

    def latencies(self):
        """Seconds per request: the sum over its tasks."""
        out = {}
        for i, (_, request, s, _) in enumerate(self.tasks):
            key = i if request is None else request
            out[key] = out.get(key, 0.0) + s
        return list(out.values())

    @property
    def attempted(self):
        return len(self.tasks) + (1 if self.problem else 0)

    @property
    def failed(self):
        return sum(1 for t in self.tasks if t[3]) + (1 if self.problem else 0)


def run_worker(workload, seed, deadline, trace=0, setup_only=False, spans=None):
    """Start a worker and follow its events until it exits or the deadline
    passes, in which case it is killed."""
    cmd = [sys.executable, str(WORKER), "--workload", workload,
           "--seed", str(seed), "--trace", str(trace)]
    if setup_only:
        cmd.append("--setup-only")
    if spans:
        cmd += ["--spans", str(spans)]
    result = Pass()
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, stdin=subprocess.DEVNULL,
                            stdout=subprocess.PIPE, cwd=ROOT)
    sel = selectors.DefaultSelector()
    sel.register(proc.stdout, selectors.EVENT_READ)
    pending = b""
    try:
        while True:
            remaining = deadline - time.perf_counter()
            if remaining <= 0:
                result.problem = f"timeout at stage {result.open_stage}"
                break
            if not sel.select(remaining):
                continue
            chunk = os.read(proc.stdout.fileno(), 1 << 16)
            if not chunk:
                break
            *lines, pending = (pending + chunk).split(b"\n")
            for line in lines:
                try:
                    event = json.loads(line)
                except json.JSONDecodeError:
                    continue  # not an event: stray output from the library
                kind = event["ev"]
                if kind == "ready":
                    result.setup_s = time.perf_counter() - start
                    result.open_stage = None
                elif kind == "stage":
                    result.open_stage = event["stage"]
                elif kind == "task":
                    result.tasks.append((event["stage"], event["request"],
                                         event["s"], event["error"]))
                    result.open_stage = None
                elif kind == "done":
                    result.layers = event["layers"]
                    result.probes = event["probes"]
                    result.rss_mb = event["rss_mb"]
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait()
        proc.stdout.close()
        sel.close()
    result.elapsed = time.perf_counter() - start
    if result.problem is None and (proc.returncode != 0 or result.rss_mb is None
                                   and not setup_only):
        result.problem = (f"worker exited with code {proc.returncode} "
                          f"at stage {result.open_stage}")
    return result


def percentile(values, q):
    """q-th percentile (0 < q < 100), interpolated between samples and never
    outside their range."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def run_passes(args, run_start, modes):
    """Passes cycling through `modes` (trace flags) until --seconds have gone
    by and every mode ran once, a pass fails, or the run limit is near."""
    budget = PASS_BUDGET_S[args.workload]
    passes = []
    measure_start = time.perf_counter()
    while True:
        trace = modes[len(passes) % len(modes)]
        spans = None
        if trace:
            OUT_DIR.mkdir(exist_ok=True)
            spans = OUT_DIR / (f"{args.workload}-seed{args.seed}"
                               f"-pass{len(passes)}.spans.jsonl")
        deadline = min(time.perf_counter() + budget, run_start + RUN_LIMIT_S)
        p = run_worker(args.workload, args.seed, deadline, trace=trace, spans=spans)
        passes.append((trace, p))
        if p.problem:
            break
        now = time.perf_counter()
        longest = max(q.elapsed for _, q in passes)
        if len(passes) >= len(modes) and (
                now - measure_start >= args.seconds
                or now + longest > run_start + RUN_LIMIT_S):
            break
    return passes


def end_to_end(args, run_start):
    passes = [p for _, p in run_passes(args, run_start, modes=(0,))]
    setups = [p.setup_s for p in passes if p.setup_s is not None]
    while (len(setups) < SETUP_SAMPLES and not passes[-1].problem
           and time.perf_counter() + 5 < run_start + RUN_LIMIT_S):
        probe = run_worker(args.workload, args.seed, run_start + RUN_LIMIT_S,
                           setup_only=True)
        if probe.setup_s is None:
            break
        setups.append(probe.setup_s)
    latencies = [s for p in passes for s in p.latencies()] or [passes[-1].elapsed]
    measured = {
        "wall_s": statistics.median(p.wall_s if not p.problem else p.elapsed
                                    for p in passes),
        "setup_s": statistics.median(setups or [passes[-1].elapsed]),
        "task_p50_s": percentile(latencies, 50),
        "task_p90_s": percentile(latencies, 90),
    }
    probes = [t for p in passes for t in p.probes]
    probe_s = statistics.median(probes) if probes else REFERENCE_S
    print(f"machine probe {probe_s * 1e3:.4f} ms (median of {len(probes)}), "
          f"reference {REFERENCE_S * 1e3:g} ms; measured times: "
          + ", ".join(f"{k} {v:.6g}" for k, v in measured.items()))
    values = {k: v * REFERENCE_S / probe_s for k, v in measured.items()}
    values["peak_rss_mb"] = statistics.median(p.rss_mb or 0.0 for p in passes)
    return passes, values


def per_layer(args, run_start):
    passes = run_passes(args, run_start, modes=(0, 1))
    plain = [p for trace, p in passes if not trace and not p.problem]
    traced = [p for trace, p in passes if trace and not p.problem]
    values = {}
    if traced:
        for key in sorted({k for p in traced for k in p.layers}):
            values[key] = statistics.median(p.layers.get(key, 0) for p in traced)
        values["trace.wall_s"] = statistics.median(p.wall_s for p in traced)
        values["machine.probe_s"] = statistics.median(
            t for p in traced for t in p.probes)
        if plain:
            values["trace.overhead_s"] = (values["trace.wall_s"]
                                          - statistics.median(p.wall_s for p in plain))
    # work counters must repeat exactly between passes on the same inputs
    counters = [{k: v for k, v in p.layers.items()
                 if not k.endswith((".s", ".self_s"))} for p in traced]
    problems = [] if all(c == counters[0] for c in counters) else [
        "work counters differ between traced passes"]
    return [p for _, p in passes], values, problems


def main():
    run_start = time.perf_counter()
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(PASS_BUDGET_S))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not (ROOT / "src" / "slackkit" / "__init__.py").is_file():
        sys.exit(f"error: no slackkit sources under {ROOT / 'src'}")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())

    if args.trace:
        passes, values, problems = per_layer(args, run_start)
        metrics = spec["per_layer"]
    else:
        passes, values = end_to_end(args, run_start)
        problems = []
        metrics = spec["end_to_end"]
    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    problems += [p.problem for p in passes if p.problem]
    problems += [f"{stage}: {error}" for p in passes
                 for stage, _, _, error in p.tasks if error]

    result = {m["name"]: {"value": values.get(m["name"], 0), "unit": m["unit"]}
              for m in metrics}
    for line in problems[:20]:
        print(f"FAILED {line}")
    print(f"{args.workload} seed={args.seed} passes={len(passes)} "
          f"tasks={attempted} failed={failed} "
          f"failed_frac={failed / max(attempted, 1):.4f}")
    for name, m in result.items():
        print(f"  {name:48s} {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": failed == 0 and not problems,
                      "attempted": max(attempted, 1), "failed": failed,
                      "metrics": result}))


if __name__ == "__main__":
    main()
