"""One benchmark repetition in a fresh interpreter, so no cache survives
from an earlier repetition.

    python3 bench/worker.py MODE WORKLOAD SIZE SEED [TRACE_FILE RUN_ID]

MODE is ``pass`` (set up and run the workload), ``setup`` (set up only),
``plain`` (a pass without the host-speed samples of ``hostspeed.py``),
``traced`` (a plain pass with spans, written gzipped to TRACE_FILE) or
``probes`` (the per-layer primitive probes; WORKLOAD is ignored).  In
``pass`` and ``setup`` mode ``setup_s`` and ``wall_s`` are reference
seconds (see ``hostspeed.py``); ``raw_wall_s`` is wall-clock.  The
last line of standard output is one JSON object.  The caller puts the
library on PYTHONPATH.
"""

from __future__ import annotations

import json
import resource
import sys
import time

import hostspeed


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def _attempt(task):
    """The task's raw result, or the exception it raised (a failed task)."""
    try:
        return task.run()
    except Exception as exc:  # noqa: BLE001 - every error is a task failure
        return exc


def main(argv) -> dict:
    mode, workload, size, seed = argv[0], argv[1], argv[2], int(argv[3])
    clock = hostspeed.HostClock() if mode in ("pass", "setup") else None
    if clock is not None:
        clock.start()
        cpu_start = clock.now()
    import workloads  # imports bruhatcells

    if mode == "probes":
        import probes

        return probes.run_probes(seed, scale=1 if size == "full" else 10)
    tasks = workloads.build_tasks(workload, size, seed)
    if clock is not None:
        cpu_setup_end = clock.now()
    if mode == "setup":
        clock.stop()
        return {"setup_s": clock.elapsed(cpu_start, cpu_setup_end)}
    result = {}
    tracer = None
    if mode == "traced":
        import tracing

        tracer = tracing.Tracer()
        tracing.install(tracer)
        traced_attempt = tracer.wrap(_attempt, "bench.task")
    raws = []
    rss_growth: dict = {}  # growth of the RSS high-water mark per suite
    start = time.perf_counter()
    for task in tasks:
        if tracer is None:
            raws.append(_attempt(task))
            continue
        before = _peak_rss_mb()
        raws.append(traced_attempt(task))
        suite = task.tid.rsplit(":", 1)[-1] if workload == "classify" else workload
        rss_growth[suite] = rss_growth.get(suite, 0.0) + _peak_rss_mb() - before
    result["raw_wall_s"] = time.perf_counter() - start
    if clock is not None:
        cpu_end = clock.now()
        clock.stop()
        result["setup_s"] = clock.elapsed(cpu_start, cpu_setup_end)
        result["wall_s"] = clock.elapsed(cpu_setup_end, cpu_end)
    result["peak_rss_mb"] = _peak_rss_mb()
    counts: dict = {}
    digests = {}
    for task, raw in zip(tasks, raws):
        try:
            if isinstance(raw, Exception):
                raise raw
            output = task.output(raw)
            digests[task.tid] = [workloads.digest(output), task.problems(raw)]
        except Exception as exc:  # noqa: BLE001 - every error is a task failure
            digests[task.tid] = [None, [f"raised {type(exc).__name__}: {exc}"]]
            continue
        if isinstance(output, dict):
            for key in ("involutions", "orbit_size", "lower_set_size"):
                counts[key] = counts.get(key, 0) + output.get(key, 0)
    result["tasks"] = digests
    if tracer is not None:
        result["counts"] = counts
        result["rss_growth_mb"] = rss_growth
        result["self_s"] = tracer.self_times()
        result["span_totals"] = tracer.totals()
        result["spans"] = len(tracer.spans)
        tracer.write(argv[4], workload, argv[5])
    return result


if __name__ == "__main__":
    print(json.dumps(main(sys.argv[1:])))
