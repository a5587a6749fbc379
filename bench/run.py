"""densefocus benchmark: three closed-loop workloads, one process each.

    python3 bench/run.py --workload infer --seed 1 --seconds 30 --trace 0

Run from the repository root (any checkout with src/ and tests/).  The last
stdout line is one JSON object: correct, attempted, failed and metrics.
With --trace 0 the metrics are the end-to-end ones (setup_s,
op_latency_p50_s, ops_per_s, peak_rss_mb); with --trace 1 they are the
per-layer ones from a traced run.  Every run also writes a JSON record,
with the environment fingerprint and every check, under bench/results/.
See bench/README.md for the workloads, sizes and checks.
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
RESULTS = BENCH / "results"
WORKLOADS = ("infer", "train_dgb", "eval_dense")

# set-up is repeated in fresh processes and the median reported; the last
# of these processes also runs the timed loop
SETUP_REPEATS = 5
# rounds each other workload runs in a traced run, to fill its layers
PROBE_ROUNDS = 2
CHILD_TIMEOUT_S = 150

# (metric, span name, statistic, unit); see README for what each should move
PER_LAYER = (
    ("synthgen.generate_scene_s", "synthgen.generate_scene", "time", "s"),
    ("params.build_s", "params.build", "time", "s"),
    ("tensorfile.save_annotations_s", "tensorfile.save_annotations", "time", "s"),
    ("density.gt_density_s", "density.gt_density", "time", "s"),
    ("regions.select_s", "regions.select", "time", "s"),
    ("dafm.forward_s", "dafm.forward", "time", "s"),
    ("dafm.macs_per_px", "dafm.forward", "macs_per_px", "count"),
    ("dafm.minor_faults", "dafm.forward", "minflt", "count"),
    ("dafm.peak_alloc_mb", "dafm.forward", "alloc_mb", "MB"),
    ("dffm.forward_s", "dffm.forward", "time", "s"),
    ("dffm.macs_per_px", "dffm.forward", "macs_per_px", "count"),
    ("dffm.peak_alloc_mb", "dffm.forward", "alloc_mb", "MB"),
    ("density.dgb_forward_s", "density.dgb_forward", "time", "s"),
    ("density.dgb_forward_macs", "density.dgb_forward", "macs", "count"),
    ("autodiff.backward_s", "autodiff.backward", "time", "s"),
    ("autodiff.peak_alloc_mb", "autodiff.backward", "alloc_mb", "MB"),
    ("tensorfile.load_annotations_s", "tensorfile.load_annotations", "time", "s"),
    ("evalkit.ap_report_s", "evalkit.ap_report", "time", "s"),
)


class BenchError(Exception):
    pass


def child_env() -> dict:
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def run_child(workload: str, seed: int, extra: list) -> tuple[float, dict]:
    """Run bench/workloads.py; returns (spawn time, its JSON result)."""
    cmd = [sys.executable, str(BENCH / "workloads.py"), "--workload", workload,
           "--seed", str(seed)] + extra
    spawned = time.monotonic()
    proc = subprocess.run(cmd, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE,
                          timeout=CHILD_TIMEOUT_S, text=True)
    if proc.returncode != 0:
        raise BenchError(f"{workload} process exited with {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise BenchError(f"{workload} process printed no result")
    return spawned, json.loads(lines[-1])


def measure(workload: str, seed: int, trace: bool, extra: list) -> dict:
    """SETUP_REPEATS fresh processes; the last one runs the timed loop."""
    flags = ["--trace", str(int(trace))]
    setups, spans = [], []
    for _ in range(SETUP_REPEATS - 1):
        spawned, res = run_child(workload, seed, flags + ["--setup-only"])
        setups.append(res["setup_done"] - spawned)
        spans += res["spans"]
    spawned, res = run_child(workload, seed, flags + extra)
    setups.append(res["setup_done"] - spawned)
    res["setups"] = setups
    res["spans"] = spans + res["spans"]
    return res


def end_to_end(res: dict) -> dict:
    lat = res["latencies"]
    return {
        "setup_s": {"value": statistics.median(res["setups"]), "unit": "s"},
        "op_latency_p50_s": {"value": statistics.median(lat), "unit": "s"},
        "ops_per_s": {"value": len(lat) / res["loop_wall"], "unit": "1/s"},
        "peak_rss_mb": {"value": res["peak_rss_kb"] / 1024.0, "unit": "MB"},
    }


def layer_samples(spans: list, span_name: str, stat: str) -> list:
    mine = [s for s in spans if s["name"] == span_name]
    if stat == "alloc_mb":
        return [s["peak_alloc_bytes"] / 2**20 for s in mine if "peak_alloc_bytes" in s]
    timed = [s for s in mine if s["phase"] in ("setup", "timed")]
    if stat == "time":
        return [s["end"] - s["start"] for s in timed]
    if stat == "macs_per_px":
        return [s["macs"] / s["px"] for s in timed]
    return [s[stat] for s in timed]


def per_layer(results: dict, workload: str) -> tuple[dict, dict]:
    """Median of each layer metric, from the requested workload when it
    exercises the layer, else from the probe of the workload that does."""
    metrics, table = {}, {}
    order = [workload] + [w for w in WORKLOADS if w != workload]
    for metric, span_name, stat, unit in PER_LAYER:
        for source in order:
            samples = layer_samples(results[source]["spans"], span_name, stat)
            if samples:
                break
        else:
            raise BenchError(f"no samples for {metric}")
        value = statistics.median(samples)
        metrics[metric] = {"value": value, "unit": unit}
        table[metric] = {"value": value, "unit": unit, "samples": len(samples),
                         "source": source}
    own = results[workload]
    traced = [t for t, on in zip(own["latencies"], own["traced"]) if on]
    plain = [t for t, on in zip(own["latencies"], own["traced"]) if not on]
    if not traced or not plain:
        raise BenchError("tracing overhead needs traced and untraced ops")
    overhead = statistics.median(traced) - statistics.median(plain)
    metrics["trace.overhead_s"] = {"value": overhead, "unit": "s"}
    table["trace.overhead_s"] = {"value": overhead, "unit": "s",
                                 "samples": [len(traced), len(plain)],
                                 "source": workload}
    return metrics, table


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description="densefocus benchmark")
    p.add_argument("--workload", choices=WORKLOADS, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = p.parse_args(argv)

    for needed in (ROOT / "src" / "densefocus" / "__init__.py", ROOT / "tests" / "oracles.py"):
        if not needed.is_file():
            print(f"error: {needed.relative_to(ROOT)} not found; run from a "
                  "densefocus checkout", file=sys.stderr)
            return 2

    extra = ["--seconds", str(args.seconds)]
    try:
        results = {args.workload: measure(args.workload, args.seed, bool(args.trace), extra)}
        if args.trace:
            for other in WORKLOADS:
                if other != args.workload:
                    _, results[other] = run_child(
                        other, args.seed, ["--trace", "1", "--rounds", str(PROBE_ROUNDS)])
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    own = results[args.workload]
    checks = {w: r["checks"] for w, r in results.items()}
    failed_checks = [f"{w}:{k}" for w, c in checks.items() for k, v in c.items() if not v]
    correct = not failed_checks
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "env": own["env"], "checks": checks,
              "attempted": own["attempted"], "failed": own["failed"],
              "errors": own["errors"], "setups_s": own["setups"],
              "latencies_s": own["latencies"]}
    if args.trace:
        try:
            metrics, table = per_layer(results, args.workload)
        except BenchError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        record["per_layer"] = table
        record["spans"] = {w: r["spans"] for w, r in results.items()}
    else:
        metrics = end_to_end(own)
    record["metrics"] = metrics

    RESULTS.mkdir(exist_ok=True)
    out = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(record, indent=1) + "\n")
    if failed_checks:
        print("failed checks: " + ", ".join(failed_checks), file=sys.stderr)
    print(json.dumps({"correct": correct, "attempted": own["attempted"],
                      "failed": own["failed"], "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
