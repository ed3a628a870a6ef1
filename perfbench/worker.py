"""One pass of one workload in a fresh process.

Started by ``run.py``; talks to it in JSON lines on stdout:

    {"ev": "ready"}                               set-up done
    {"ev": "stage", "stage": name}                a task starts
    {"ev": "task", "stage": name, "request": name or null, "s": t,
     "error": msg or null}
    {"ev": "done", "rss_mb": m, "layers": {...}, "probes": [...]}
                                                  pass finished

``--setup-only`` exits after "ready"; ``--trace 1`` records per-layer spans
around the tasks and writes them to ``--spans``.  While the tasks run, the
machine-speed probe of ``speed.py`` samples every 0.1 s; its time is taken
out of the task times and its samples are sent with "done".
"""

import argparse
import json
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def emit(**event):
    sys.__stdout__.write(json.dumps(event) + "\n")
    sys.__stdout__.flush()


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--spans")
    args = ap.parse_args()

    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import slackkit
    if Path(slackkit.__file__).resolve().parent != src / "slackkit":
        sys.exit(f"slackkit imported from {slackkit.__file__}, not {src}")
    from speed import Sampler
    from tracer import Tracer
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload](args.seed)
    emit(ev="ready")
    if args.setup_only:
        return

    tracer = Tracer() if args.trace else None
    if tracer:
        tracer.install()
    clock = time.perf_counter
    sampler = Sampler()
    sampler.start()
    for task in workload.tasks():
        emit(ev="stage", stage=task.stage)
        if tracer:
            tracer.request = task.stage
        error = None
        start = clock()
        probing = sampler.busy_s
        try:
            out = task.call()
        except Exception as exc:  # a failing task is counted, not fatal
            error = f"{type(exc).__name__}: {exc}"
        probing = sampler.busy_s - probing
        elapsed = clock() - start - probing
        if error is None:
            try:
                error = task.check(out)
            except Exception as exc:
                error = f"check raised {type(exc).__name__}: {exc}"
        emit(ev="task", stage=task.stage, request=task.request, s=elapsed,
             error=error)
    sampler.stop()
    layers = {}
    if tracer:
        tracer.uninstall()
        layers = tracer.metrics()
        if args.spans:
            tracer.write_spans(args.spans)
    emit(ev="done", layers=layers, probes=sampler.samples,
         rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)


if __name__ == "__main__":
    main()
