#!/usr/bin/env python3
"""Smoke self-check of the benchmark at tiny size.

    python3 perfbench/self_check.py

Runs every workload of BENCHMARK.json, and the workloads the benchmark
defines but does not gate (UNGATED below), once untraced and once traced,
at --scale tiny for one second, and checks that
  - the last stdout line is the result object with exactly the keys
    correct, attempted, failed and metrics; outputs are correct and no API
    call failed;
  - the untraced run prints every end-to-end metric of BENCHMARK.json, with
    its unit, as a finite number above zero;
  - the traced run prints every per-layer metric of BENCHMARK.json, with its
    unit, and those names are exactly the per-layer names the benchmark
    defines (LAYER_NAMES below); every mop.<type>.self_share lies in
    [0, 1].
Exits 0 when every check holds, 1 otherwise.
"""
import json
import math
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
# Defined and runnable by hand, but left out of BENCHMARK.json (see
# README.md): smoke-checked here so they keep working.
UNGATED = ["agg_windows", "query_churn"]
MOP_TYPES = ["predicate_index", "sequence", "shared_aggregate", "selection"]
LAYER_NAMES = (
    ["api.outputs_per_event", "api.tuples_per_push", "api.error_rate",
     "query.parse_us", "compile.us_per_query",
     "rules.optimize_ms", "rules.mops_per_query", "rules.members_per_mop",
     "rules.shared_mops", "rules.incremental_hit_ratio",
     "rules.pruned_mops_per_remove", "share_index.kb",
     "executor.deliveries_per_event", "executor.residual_share"]
    + ["mop.{}.{}".format(t, m) for t in MOP_TYPES
       for m in ["tuples_in_per_event", "selectivity", "ns_per_tuple",
                 "self_share"]]
    + ["expr.vectorized_share", "mop.predicate_index.flat_probe_share",
       "alloc.per_event", "arena.recycle_hit_rate", "state.mop_state_kb",
       "snapshot.kb",
       "shard.push_stall_share", "shard.worker_stall_share",
       "shard.in_depth_hwm", "shard.merge_lag_hwm", "shard.delivery_skew",
       "cayuga.events_per_s", "cayuga.speed_ratio",
       "trace.overhead", "layers.coverage"])


def run(workload, trace):
    cmd = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
           "--seed", "7", "--seconds", "1", "--trace", str(trace),
           "--scale", "tiny"]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                         timeout=600)
    if out.returncode != 0:
        return None, "exit code {}: {}".format(out.returncode,
                                               out.stderr[-500:])
    lines = out.stdout.strip().splitlines()
    try:
        return json.loads(lines[-1]), None
    except (IndexError, ValueError) as e:
        return None, "last line is not JSON: {}".format(e)


def check_result(result, expected, positive):
    errors = []
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        errors.append("result keys are {}".format(sorted(result)))
        return errors
    if result["correct"] is not True:
        errors.append("outputs do not match the reference")
    if result["failed"] != 0 or result["attempted"] < 1:
        errors.append("attempted {} failed {}".format(result["attempted"],
                                                      result["failed"]))
    metrics = result["metrics"]
    if sorted(metrics) != sorted(expected):
        missing = sorted(set(expected) - set(metrics))
        extra = sorted(set(metrics) - set(expected))
        errors.append("metrics missing {} extra {}".format(missing, extra))
    for name, unit in expected.items():
        m = metrics.get(name)
        if m is None:
            continue
        if m.get("unit") != unit:
            errors.append("{}: unit {} != {}".format(name, m.get("unit"),
                                                     unit))
        v = m.get("value")
        if not isinstance(v, (int, float)) or not math.isfinite(v):
            errors.append("{}: value {!r}".format(name, v))
        elif positive and v <= 0:
            errors.append("{}: value {} is not above zero".format(name, v))
        elif name.endswith(".self_share") and not 0 <= v <= 1:
            errors.append("{}: value {} is not a share in [0, 1]".format(
                name, v))
    return errors


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    layers = {m["name"]: m["unit"] for m in spec["per_layer"]}
    failures = []
    if sorted(layers) != sorted(LAYER_NAMES):
        failures.append("BENCHMARK.json per_layer names differ: missing {} "
                        "extra {}".format(
                            sorted(set(LAYER_NAMES) - set(layers)),
                            sorted(set(layers) - set(LAYER_NAMES))))
    for name in [w["name"] for w in spec["workloads"]] + UNGATED:
        for trace, expected in ((0, e2e), (1, layers)):
            result, error = run(name, trace)
            errors = [error] if error else check_result(result, expected,
                                                        positive=trace == 0)
            status = "ok" if not errors else "FAIL"
            print("{:22s} trace {}  {}".format(name, trace, status))
            failures += ["{} trace {}: {}".format(name, trace, e)
                         for e in errors]
    for f in failures:
        print("  " + f)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
