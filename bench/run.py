"""Benchmark for bruhatcells: four workloads, end-to-end and per-layer metrics.

    python3 bench/run.py --workload W --seed N --seconds S --trace 0|1
    python3 bench/run.py --workload all [--seed N --seconds S]
    python3 bench/run.py --selftest

Run from the root of a checkout; the library is imported from ``src/``.
W is one of classify, verify, oracle, criteria (see ``workloads.py``).

Every timed repetition ("pass") runs in a fresh interpreter, so the
per-root-system memo, the cached root systems and the oracle's cached
class tables start cold, as in a user's CLI run.  Passes repeat, each
followed by a set-up-only interpreter, while the next one is expected to
end within S seconds, and at least MIN_PASSES times; ``setup_s`` takes at
least SETUP_REPS samples.  Each end-to-end metric is the median over the
run's samples:

* ``setup_s`` -- import bruhatcells, build the workload's root systems or
  fields and generate its task list;
* ``wall_s`` -- first task to last verdict;
* ``peak_rss_mb`` -- peak resident memory of the pass's process.

``setup_s`` and ``wall_s`` are in reference seconds: CPU time scaled by
the host's speed, sampled all through the pass (``hostspeed.py``),
because the shared host's own speed swings by up to 2x.

Every task's output is reduced to a digest and compared with the value
recorded at the seed commit in ``expected.json``; a task fails on a
failed check, a raised exception or a digest mismatch.  ``fail_ratio``
(failed / attempted) is printed by ``--workload all``; the JSON result
carries it as ``failed`` and ``attempted``.

``--trace 1`` measures per-layer metrics instead: one untraced and one
traced pass of W (their difference is the tracing overhead), traced passes
of the other three workloads, so every layer metric is present, and the
primitive probes of ``probes.py``.  Spans go gzipped to
``.bench_out/trace-<workload>.jsonl.gz``.

The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics": {name: {value, unit}}}``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKLOADS = ("classify", "verify", "oracle", "criteria")
MIN_PASSES = 3
SETUP_REPS = 10
WORKER_TIMEOUT_S = 170

# (metric, traced workload, span name): inclusive seconds of those spans
SPAN_METRICS = (
    ("conjugacy.classification_s", "classify", "conjugacy.verify_unique_max_classification"),
    ("conjugacy.twisted_min_s", "classify", "conjugacy.verify_twisted_minimum"),
    ("conjugacy.coxeter_bound_s", "classify", "conjugacy.verify_coxeter_bound"),
    ("conjugacy.ascent_s", "verify", "conjugacy.verify_ascent_classes"),
    ("conjugacy.subset_conjugacy_s", "verify", "conjugacy.verify_subset_conjugacy"),
    ("oracle.intersection_table_s", "oracle", "oracle.intersection_table"),
    ("oracle.validate_class_s", "oracle", "oracle.validate_class"),
    ("sl_criteria.lower_set_s", "criteria", "sl_criteria.bruhat_lower_set"),
    ("sl_criteria.closure_monotonicity_s", "criteria", "sl_criteria.closure_monotonicity"),
)
# layers whose self time each workload reports; "bench" is the benchmark's
# own task code between calls
SELF_TIME_LAYERS = {
    "classify": ("conjugacy", "coxeter", "bench"),
    "verify": ("cli", "conjugacy", "coxeter", "bench"),
    "oracle": ("oracle", "sl_criteria", "permutations", "coxeter", "bench"),
    "criteria": ("sl_criteria", "permutations", "coxeter", "bench"),
}


class BenchError(RuntimeError):
    """The benchmark could not measure (as opposed to a failed task)."""


def _unit(name: str) -> str:
    """Unit of a metric, read off its name."""
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith("_us"):
        return "us"
    if name.endswith("_s"):
        return "s"
    if name.endswith("_mb"):
        return "MB"
    return "count"


def worker(mode, workload, size, seed, *extra) -> dict:
    """Run bench/worker.py in a fresh interpreter and return its result."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    env["PYTHONHASHSEED"] = str(seed % 2**32)
    cmd = [sys.executable, str(BENCH / "worker.py"), mode, workload, size, str(seed)]
    try:
        proc = subprocess.run(
            cmd + [str(x) for x in extra],
            cwd=ROOT,
            env=env,
            capture_output=True,
            text=True,
            timeout=WORKER_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{mode} {workload} timed out after {exc.timeout} s") from exc
    if proc.returncode != 0 or not proc.stdout.strip():
        raise BenchError(
            f"{mode} {workload} exited {proc.returncode}:\n{proc.stderr[-2000:]}"
        )
    return json.loads(proc.stdout.splitlines()[-1])


def load_expected() -> dict:
    with open(BENCH / "expected.json", encoding="utf-8") as fh:
        return json.load(fh)


def score(result: dict, expected: dict) -> tuple[int, list[str]]:
    """(tasks attempted, failure messages) of one pass against its
    expected digests; an expected task that did not run also fails."""
    failures = []
    for tid, (dig, problems) in result["tasks"].items():
        if problems:
            failures.append(f"{tid}: {'; '.join(problems)}")
        elif expected.get(tid) != dig:
            failures.append(f"{tid}: digest {dig} != expected {expected.get(tid)}")
    missing = sorted(set(expected) - set(result["tasks"]))
    failures += [f"{tid}: not run" for tid in missing]
    return len(result["tasks"]) + len(missing), failures


class Tally:
    def __init__(self, expected):
        self.expected = expected
        self.attempted = 0
        self.failures: list[str] = []

    def add(self, result, workload):
        attempted, failures = score(result, self.expected[workload])
        self.attempted += attempted
        self.failures += failures

    def summary(self, metrics: dict) -> dict:
        return {
            "correct": not self.failures,
            "attempted": self.attempted,
            "failed": len(self.failures),
            "metrics": {k: {"value": v, "unit": _unit(k)} for k, v in metrics.items()},
        }


def timed_run(workload, size, seed, seconds, expected) -> dict:
    """Untraced passes for ``seconds``; medians of the end-to-end metrics."""
    tally = Tally(expected)
    worker("setup", workload, size, seed)  # untimed: byte-compiles the library
    passes, setups = [], []
    start = time.monotonic()
    while True:
        # each pass has its own task order and hash seed, drawn from the
        # run's seed: peak memory depends on the order by a few per cent
        pass_seed = seed * 1000 + len(passes)
        passes.append(worker("pass", workload, size, pass_seed))
        tally.add(passes[-1], workload)
        setups.append(passes[-1]["setup_s"])
        setups.append(worker("setup", workload, size, pass_seed)["setup_s"])
        elapsed = time.monotonic() - start
        if len(passes) >= MIN_PASSES and elapsed * (1 + 1 / len(passes)) > seconds:
            break
    while len(setups) < SETUP_REPS:
        setups.append(worker("setup", workload, size, seed)["setup_s"])
    return tally.summary({
        "setup_s": statistics.median(setups),
        "wall_s": statistics.median(p["wall_s"] for p in passes),
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
    })


def traced_run(workload, size, seed, expected) -> dict:
    """Per-layer metrics from traced passes of every workload plus probes."""
    tally = Tally(expected)
    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    worker("setup", workload, size, seed)
    untraced = worker("plain", workload, size, seed)
    tally.add(untraced, workload)
    traced = {}
    for w in WORKLOADS:
        trace_file = out_dir / f"trace-{w}.jsonl.gz"
        traced[w] = worker("traced", w, size, seed, trace_file, f"{workload}-{seed}")
        tally.add(traced[w], w)
    metrics = {}
    for name, w, span in SPAN_METRICS:
        metrics[name] = traced[w]["span_totals"].get(span, [0, 0.0])[1]
    metrics["conjugacy.classification_rss_mb"] = traced["classify"][
        "rss_growth_mb"
    ].get("classification", 0.0)
    metrics["conjugacy.involutions"] = traced["classify"]["counts"]["involutions"]
    orbit = traced["oracle"]["counts"]["orbit_size"]
    metrics["oracle.orbit_elements"] = orbit
    table_s = metrics["oracle.intersection_table_s"]
    metrics["oracle.orbit_elements_per_s"] = orbit / table_s if table_s else 0.0
    metrics["sl_criteria.lower_set_elements"] = traced["criteria"]["counts"][
        "lower_set_size"
    ]
    for w, layers in SELF_TIME_LAYERS.items():
        for layer in layers:
            metrics[f"{w}.{layer}.self_s"] = traced[w]["self_s"].get(layer, 0.0)
        metrics[f"{w}.traced_wall_s"] = traced[w]["raw_wall_s"]
        metrics[f"{w}.spans"] = traced[w]["spans"]
    metrics["trace.overhead_s"] = (
        traced[workload]["raw_wall_s"] - untraced["raw_wall_s"]
    )
    metrics.update(worker("probes", workload, size, seed))
    return tally.summary(metrics)


def run_all(seed, seconds, expected) -> dict:
    """Every workload once; prints a line of end-to-end metrics for each."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for w in WORKLOADS:
        res = timed_run(w, "full", seed, seconds, expected)
        fields = [
            f"{k}={m['value']:.4f} {m['unit']}" for k, m in res["metrics"].items()
        ]
        fields.append(f"fail_ratio={res['failed'] / res['attempted']:.4f} ratio")
        print(f"{w:<9} " + "  ".join(fields))
        merged["correct"] &= res["correct"]
        merged["attempted"] += res["attempted"]
        merged["failed"] += res["failed"]
        merged["metrics"].update(
            {f"{w}.{k}": m for k, m in res["metrics"].items()}
        )
        merged["metrics"][f"{w}.fail_ratio"] = {
            "value": res["failed"] / res["attempted"], "unit": "ratio"
        }
    return merged


def selftest(seed) -> bool:
    """Tiny workloads: every metric of BENCHMARK.json is printed with its
    unit, outputs match, and a corrupted expected digest counts as failed."""
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    expected = load_expected()["tiny"]
    ok = True

    def check(label, res, declared):
        nonlocal ok
        got = {k: m["unit"] for k, m in res["metrics"].items()}
        want = {m["name"]: m["unit"] for m in declared}
        bad = {
            k: (want.get(k), got.get(k))
            for k in want.keys() | got.keys()
            if got.get(k) != want.get(k)
        }
        good = res["correct"] and res["failed"] == 0 and not bad
        ok &= good
        print(f"{'ok  ' if good else 'FAIL'} {label}: attempted={res['attempted']} "
              f"failed={res['failed']} metric/unit mismatches={bad}")

    for w in WORKLOADS:
        check(f"tiny {w}", timed_run(w, "tiny", seed, 0, expected), spec["end_to_end"])
    check("tiny traced", traced_run("oracle", "tiny", seed, expected), spec["per_layer"])
    corrupted = {w: dict(d) for w, d in expected.items()}
    tid = sorted(corrupted["oracle"])[0]
    corrupted["oracle"][tid] = "0" * 16
    res = timed_run("oracle", "tiny", seed, 0, corrupted)
    passes = res["attempted"] // len(expected["oracle"])
    caught = res["failed"] == passes and not res["correct"]  # once per pass
    ok &= caught
    print(f"{'ok  ' if caught else 'FAIL'} corrupted digest of {tid}: "
          f"failed={res['failed']} fail_ratio={res['failed'] / res['attempted']:.4f}")
    return ok


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "bruhatcells" / "__init__.py").is_file():
        print(f"error: no bruhatcells sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        if args.selftest:
            return 0 if selftest(args.seed) else 1
        expected = load_expected()["full"]
        if args.workload == "all":
            if args.trace:
                parser.error("--trace 1 needs a single --workload")
            result = run_all(args.seed, args.seconds, expected)
        elif args.trace:
            result = traced_run(args.workload, "full", args.seed, expected)
        else:
            result = timed_run(args.workload, "full", args.seed, args.seconds, expected)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
