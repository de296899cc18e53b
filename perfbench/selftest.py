#!/usr/bin/env python3
"""Layer-attribution self-test of the benchmark.

    python3 perfbench/selftest.py

Run from the repository root. Runs fanin with seed 1, untraced and
traced, each without and with a synthetic busy-wait of 25% of every
call the benchmark makes into Miner.build_block (--delay), alternating,
three times each for 10 seconds, and compares per-metric medians.
Passes when the delay
  - raises the layer's own per-layer metric miner.build_block_ms by at
    least 15%, and more than any other per-layer time metric rises: the
    breakdown names the delayed layer;
  - raises its mapped end-to-end metric (from layers.json) by at least
    3%: aux_p50_ms, the mining time;
  - leaves every other end-to-end metric within its bound from
    BENCHMARK.json, and every other per-layer time metric of at least
    0.5 ms within 25%, the benchmark's largest bound.
The traced runs must also print exactly the per-layer metrics declared
in BENCHMARK.json.
"""
import json
import statistics
import subprocess
import sys

WORKLOAD = "fanin"
LAYER = "miner.build_block"
METRIC = LAYER + "_ms"
SEED = 1
SECONDS = 10
REPEATS = 3

MIN_OWN_RISE = 0.15
MIN_E2E_RISE = 0.03
OTHER_LAYER_TOLERANCE = 0.25
MIN_LAYER_MS = 0.5


def run(trace, delay):
    cmd = [sys.executable, "perfbench/run.py", "--workload", WORKLOAD,
           "--seed", str(SEED), "--seconds", str(SECONDS), "--trace", str(trace)]
    if delay:
        cmd += ["--delay", LAYER]
    out = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=True).stdout
    r = json.loads(out.strip().splitlines()[-1])
    if not r["correct"]:
        sys.exit(f"selftest: incorrect run {cmd}")
    return {k: v["value"] for k, v in r["metrics"].items()}, {k: v["unit"] for k, v in r["metrics"].items()}


def medians(trace):
    """Per-metric medians of REPEATS runs without and with the delay, alternating."""
    runs = {False: [], True: []}
    for _ in range(REPEATS):
        for delay in (False, True):
            runs[delay].append(run(trace, delay))
    units = runs[False][0][1]
    med = {d: {k: statistics.median(r[0][k] for r in runs[d]) for k in units} for d in runs}
    return med[False], med[True], units


def rise(new, old):
    return (new - old) / old if old else 0.0


def main():
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    with open("perfbench/layers.json") as f:
        e2e = json.load(f)["workloads"][WORKLOAD]["layer_map"][METRIC]

    e2e_base, e2e_slow, _ = medians(0)
    layer_base, layer_slow, units = medians(1)

    ok = set(layer_base) == {m["name"] for m in bench["per_layer"]}
    if not ok:
        print("FAIL: traced run does not print exactly the declared per-layer metrics")
    print(f"delay: 25% on {LAYER} in {WORKLOAD}")
    times = [k for k, u in units.items() if u == "ms" and layer_base[k] >= MIN_LAYER_MS]
    rises = {k: rise(layer_slow[k], layer_base[k]) for k in times}
    for k in sorted(rises, key=rises.get, reverse=True):
        print(f"  per-layer {k:36s} {layer_base[k]:10.3f} -> {layer_slow[k]:10.3f} ms  {rises[k]:+.3f}")
    named = max(rises, key=rises.get)
    print(f"breakdown names: {named}")
    if named != METRIC or rises[METRIC] < MIN_OWN_RISE:
        print(f"FAIL: expected {METRIC} to rise most, by >= {MIN_OWN_RISE}")
        ok = False
    for k in times:
        if k not in (METRIC, "residual_ms") and abs(rises[k]) > OTHER_LAYER_TOLERANCE:
            print(f"FAIL: {k} moved {rises[k]:+.3f}")
            ok = False
    for k in sorted(e2e_base):
        r = rise(e2e_slow[k], e2e_base[k])
        print(f"  end-to-end {k:20s} {e2e_base[k]:12.4f} -> {e2e_slow[k]:12.4f}  {r:+.3f}")
        if k == e2e:
            if r < MIN_E2E_RISE:
                print(f"FAIL: mapped end-to-end metric {k} rose only {r:+.3f}")
                ok = False
        elif k != "setup_s" and abs(r) > bounds[k]:
            print(f"FAIL: {k} moved {r:+.3f}, beyond its bound {bounds[k]}")
            ok = False
    print("selftest:", "pass" if ok else "FAIL")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
