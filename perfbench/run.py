#!/usr/bin/env python3
"""End-to-end benchmark of the repro scheduling toolkit.

Run from the root of a checkout::

    python3 perfbench/run.py --workload serve-certify --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 0

``--trace 0`` prints the end-to-end metrics named in ``BENCHMARK.json``;
``--trace 1`` splits ``--seconds`` into an untraced and a traced window of
half the length each, and prints the per-layer ledger.  The last line of
standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  Workloads, metrics and
the layer map are described in ``perfbench/README.md``.

The program is imported from ``src/`` of the checkout.  The compiled flow
kernel's build cache lives in ``.bench_build/kernels``; the first run
compiles it, before anything is timed.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
BUILD = ROOT / ".bench_build"

#: Fresh interpreters timed per run for ``setup_s`` (the median is reported).
SETUP_SAMPLES = 5
#: Fresh interpreters per run for the import ledger of a traced run.
IMPORT_SAMPLES = 3
SPAWN_TIMEOUT_S = 120


def _fail(message: str, code: int = 2) -> "NoReturn":  # noqa: F821
    print(f"perfbench: {message}", file=sys.stderr)
    raise SystemExit(code)


def _spawn(mode: str) -> Tuple[float, Dict[str, Any]]:
    """Spawn ``startup.py mode``; seconds until its JSON line, and the line."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "startup.py"), mode],
        stdout=subprocess.PIPE, cwd=ROOT,
    )
    try:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - t0
        proc.communicate(timeout=SPAWN_TIMEOUT_S)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if proc.returncode != 0 or not line:
        _fail(f"start-up child ({mode}) exited with code {proc.returncode}")
    return elapsed, json.loads(line)


def measure_setup() -> Tuple[float, Dict[str, Any]]:
    """Median spawn-to-ready time over warm-cache fresh interpreters."""
    samples: List[float] = []
    compiles = 0
    while len(samples) < SETUP_SAMPLES:
        elapsed, info = _spawn("setup")
        if info.get("cache_hit") is False:  # a compile must never be a sample
            compiles += 1
            if compiles > 1:
                _fail("the kernel build cache does not stay warm")
            continue
        samples.append(elapsed)
    return statistics.median(samples), {
        "samples": samples, "backend": info["backend"],
        "cache_hit": info.get("cache_hit"), "compiles": compiles,
    }


def measure_imports() -> Dict[str, float]:
    from startup import LAYERS

    runs = [_spawn("imports")[1] for _ in range(IMPORT_SAMPLES)]
    return {f"import.{k}_s": statistics.median(r[k] for r in runs)
            for k in (*LAYERS, "kernel_load")}


def _quantile(sorted_values: List[float], p: float) -> float:
    """Nearest-rank quantile."""
    return sorted_values[max(0, math.ceil(p * len(sorted_values)) - 1)]


def end_to_end(phase, setup_s: float) -> Dict[str, float]:
    """The end-to-end metrics; op times are scaled to the reference machine.

    ``throughput_ops_s`` scales the window by the median of its ops' scales.
    """
    from workloads import PROBE_BYTES

    ms = sorted(ns / 1e6 for ns in phase.scaled_ns)
    wall_s = phase.wall_ns / 1e9 * statistics.median(phase.scales)
    return {
        "setup_s": setup_s,
        "op_p50_ms": statistics.median(ms),
        "op_p90_ms": _quantile(ms, 0.9),
        "throughput_ops_s": len(ms) / wall_s,
        # The speed probe's buffer is resident for the whole run; leave it out.
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024
                        - PROBE_BYTES) / 2**20,
    }


def print_shares(workload, traced, untraced_mean_ns: float, kernel_ms: float) -> float:
    """Print each ledger name's self time per op; return ``trace.coverage``."""
    from ledger import layer_self_ns

    ops = len(traced.latencies_ns)
    in_op = [r for r in traced.records if r[2] != 0]  # spans nested inside an op
    shares = layer_self_ns(in_op, workload.relabel)
    root = sum(r[6] for r in traced.records if r[3] == "op")
    traced_mean = sum(traced.latencies_ns) / ops
    print(f"\nlayer shares, {workload.name} (self time per op, traced mean "
          f"{traced_mean / 1e6:.2f} ms, untraced mean {untraced_mean_ns / 1e6:.2f} ms)")
    for name, ns in sorted(shares.items(), key=lambda kv: -kv[1]):
        print(f"  {name:<24} {ns / ops / 1e6:10.3f} ms  {100 * ns / ops / traced_mean:6.1f} %")
    print(f"  {'(op, outside any layer)':<24} {root / ops / 1e6:10.3f} ms  "
          f"{100 * root / ops / traced_mean:6.1f} %")
    print(f"  {'offline.kernel (within)':<24} {kernel_ms:10.3f} ms  "
          f"{100 * kernel_ms * 1e6 / traced_mean:6.1f} %")
    return sum(shares.values()) / ops / untraced_mean_ns


def run_all(args, spec: Dict[str, Any]) -> int:
    """Every workload, each in a fresh interpreter, then one summary table."""
    flags = ["--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)]
    flags += ["--tiny"] * args.tiny + ["--inject-wrong"] * args.inject_wrong
    results = {}
    for w in spec["workloads"]:
        proc = subprocess.run([sys.executable, __file__, "--workload", w["name"], *flags],
                              stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.splitlines()
        if proc.returncode != 0 or not lines:
            _fail(f"workload {w['name']} exited with code {proc.returncode}")
        print("\n".join(lines[:-1]))
        results[w["name"]] = json.loads(lines[-1])
    declared = spec["per_layer" if args.trace else "end_to_end"]
    rows = [(f"{m['name']} ({m['unit']})",
             [r["metrics"][m["name"]]["value"] for r in results.values()]) for m in declared]
    rows.append(("failed_frac (ratio)",
                 [r["failed"] / r["attempted"] for r in results.values()]))
    width = max(len(label) for label, _ in rows) + 2
    print(f"\n{'metric':<{width}}" + "".join(f"{name:>16}" for name in results))
    for label, values in rows:
        print(f"{label:<{width}}" + "".join(f"{v:16.4f}" for v in values))
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{name}/{metric}": value for name, r in results.items()
                    for metric, value in r["metrics"].items()},
    }))
    return 0


def main(argv: List[str] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        help="a workload name from BENCHMARK.json, or 'all'")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="small inputs and few ops (benchmark self-tests)")
    parser.add_argument("--inject-wrong", action="store_true",
                        help="expect one wrong answer (proves the gate fails)")
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        _fail(f"no program source at {SRC}; run from the root of a checkout")
    spec_path = ROOT / "BENCHMARK.json"
    if not spec_path.is_file():
        _fail(f"missing {spec_path}")
    spec = json.loads(spec_path.read_text())
    if args.workload == "all":
        return run_all(args, spec)
    # Everything this process and its children build or write stays in the
    # checkout: the kernel cache, the compiler's temporary files, traces.
    (BUILD / "tmp").mkdir(parents=True, exist_ok=True)
    os.environ["REPRO_KERNEL_CACHE"] = str(BUILD / "kernels")
    os.environ["TMPDIR"] = str(BUILD / "tmp")
    os.environ["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    sys.path.insert(0, str(SRC))

    from workloads import REF_NS, WORKLOADS
    from ledger import Tracer

    if args.workload not in WORKLOADS:
        _fail(f"unknown workload {args.workload!r}; known: {sorted(WORKLOADS)}")
    setup_s, setup_info = measure_setup()

    from repro.offline import kernel

    kernel.best_kernel()  # load the kernel before anything is timed
    workload = WORKLOADS[args.workload](args.seed, args.tiny, args.inject_wrong)
    if args.trace:  # a traced run reports no op_p90_ms, so it needs fewer ops
        workload.min_ops = workload.digest_inputs
    t0 = time.perf_counter()
    workload.prepare()
    prepare_s = time.perf_counter() - t0

    # A traced run fits both of its windows into --seconds.
    window = args.seconds / 2 if args.trace else args.seconds
    plain = workload.run(window, Tracer())
    phases = [plain]
    metrics = end_to_end(plain, setup_s)
    if args.trace:
        tracer = Tracer(enabled=True)
        traced = workload.run(window, tracer)
        phases.append(traced)
        layer = {m["name"]: 0.0 for m in spec["per_layer"]}
        layer.update(measure_imports())
        layer.update(workload.ledger(plain, traced))
        untraced_mean = sum(plain.latencies_ns) / len(plain.latencies_ns)
        layer["trace.coverage"] = print_shares(
            workload, traced, untraced_mean, layer["offline.kernel_ms"])
        layer["trace.overhead_frac"] = (
            end_to_end(traced, setup_s)["op_p50_ms"] / metrics["op_p50_ms"] - 1)
        if tracer.missing:
            print(f"\nhooks not installed: {', '.join(tracer.missing)}")
        tracer.records = [r for p in phases for r in p.records]
        trace_dir = BUILD / "traces"
        trace_dir.mkdir(exist_ok=True)
        trace_path = trace_dir / f"{args.workload}-seed{args.seed}.jsonl"
        tracer.dump(str(trace_path))
        print(f"spans written to {trace_path.relative_to(ROOT)}")
        declared = spec["per_layer"]
    else:
        declared = spec["end_to_end"]
        layer = metrics

    attempted = sum(p.attempted for p in phases)
    failed = sum(p.failed for p in phases)
    print(f"\n{workload.name}: {workload.describe()}")
    print(f"  seed {args.seed}, window {plain.wall_ns / 1e9:.1f} s, "
          f"{len(plain.latencies_ns)} ops timed (p90 has "
          f"{len(plain.latencies_ns) - math.ceil(0.9 * len(plain.latencies_ns))} beyond), "
          f"inputs prepared in {prepare_s:.1f} s")
    print(f"  {os.cpu_count()} CPUs, Python {platform.python_version()}")
    raw_ms = sorted(ns / 1e6 for ns in plain.latencies_ns)
    print(f"  unscaled op p50 {statistics.median(raw_ms):.1f} ms, p90 "
          f"{_quantile(raw_ms, 0.9):.1f} ms; speed probe median "
          f"{REF_NS / statistics.median(plain.scales) / 1e6:.3f} ms "
          f"(reference {REF_NS / 1e6:.3f} ms)")
    print(f"  setup_s samples {', '.join(f'{s:.3f}' for s in setup_info['samples'])}; "
          f"kernel backend {setup_info['backend']}, cache hit on every sample "
          f"{setup_info['cache_hit']}, compiles before sampling {setup_info['compiles']}")
    for m in spec["end_to_end"]:
        print(f"  {m['name']:<26} {metrics[m['name']]:12.4f} {m['unit']}")
    print(f"  {'failed_frac':<26} {failed / attempted:12.4f} ratio "
          f"({failed} of {attempted} ops failed)")
    print(f"  answers digest {workload.digest()}")
    if args.trace:
        print("\nper-layer metrics")
        for m in declared:
            print(f"  {m['name']:<26} {layer[m['name']]:12.4f} {m['unit']}")

    out = {
        m["name"]: {"value": layer[m["name"]], "unit": m["unit"]} for m in declared
    }
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": out}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
