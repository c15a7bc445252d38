"""qfold benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a qfold checkout; qfold is imported from ``src/``.
Workloads (see workloads.py):

  transition-large  ``qfold transition`` on the ROADMAP reference blocks and
                    seeded D4, A5 and A3 blocks of n = 30..37; LDL dominates.
  gram-wide         ``qfold gram`` on long, repetitive words; matching sums
                    dominate and LDL never runs.
  check-sweep       the six ``qfold.checks`` suites at reduced heights; many
                    small blocks, the coproduct route and preset rebuilds.

Every timed pass runs in a fresh interpreter, one at a time, so qfold's
module-level memo caches start empty as they do for a CLI user.  Passes
repeat while another one brings the measured time closer to ``--seconds``.
Outputs are verified after the timed passes: the first pass's outputs in
full, later passes by digest.

Times are reported in reference seconds: the measured seconds of an
operation in a pass (or of a set-up run) times REFERENCE_S over the time of
hostspeed's fixed reference workload, run just before and after the pass.
This cancels much of the slow phases of a shared host; the unscaled pass
and operation times are printed above the result.

With ``--trace 0`` the last line holds the end-to-end metrics; with
``--trace 1`` untraced and traced passes alternate and it holds the
per-layer metrics.  Earlier lines give the environment, sample counts,
cache sizes after each pass and the computed work counts.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import random
import statistics
import subprocess
import sys
import threading
import time

from hostspeed import REFERENCE_S, reference_seconds
from spans import LAYERS
from workloads import WORKLOADS, presets_of

HERE = os.path.dirname(os.path.abspath(__file__))
WORKER = os.path.join(HERE, "worker.py")
SETUP_REPEATS = 9
DEADLINE_S = 170.0          # the whole run, set-up and verification included
SUITES = ("oracle", "factorization", "delta", "restriction", "congruence",
          "equivariance")


class WorkerFailed(RuntimeError):
    pass


def _loadavg():
    try:
        with open("/proc/loadavg") as fh:
            return " ".join(fh.read().split()[:3])
    except OSError:
        return "unknown"


def _spawn(request, timeout):
    proc = subprocess.Popen([sys.executable, WORKER], stdin=subprocess.PIPE,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            text=True)
    try:
        out, err = proc.communicate(json.dumps(request), timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise WorkerFailed("worker timed out")
    if proc.returncode != 0 or not out.strip():
        raise WorkerFailed(f"worker exited with {proc.returncode}: {err.strip()[-500:]}")
    return json.loads(out.strip().splitlines()[-1])


def _scale(before, after):
    """Factor from seconds measured between two reference runs to reference seconds."""
    return REFERENCE_S / ((before + after) / 2)


def measure_setup(src, presets, deadline):
    """Reference seconds from spawning an interpreter to qfold imported and
    presets built, one sample per spawn."""
    before = reference_seconds()
    samples = []
    request = json.dumps({"mode": "setup", "src": src, "presets": presets})
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        proc = subprocess.Popen([sys.executable, WORKER], stdin=subprocess.PIPE,
                                stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                                text=True)
        # A worker that hangs is killed at the deadline, which ends readline.
        killer = threading.Timer(max(deadline - t0, 1.0), proc.kill)
        killer.start()
        try:
            proc.stdin.write(request)
            proc.stdin.close()
            line = proc.stdout.readline()
            samples.append(time.perf_counter() - t0)
            proc.stdout.read()
            proc.wait()
        finally:
            killer.cancel()
            if proc.poll() is None:
                proc.kill()
                proc.wait()
            proc.stdout.close()
        if line.strip() != "ready" or proc.returncode != 0:
            raise WorkerFailed("set-up failed")
    scale = _scale(before, reference_seconds())
    return [t * scale for t in samples]


def run_passes(src, ops, seconds, trace, deadline):
    """Untraced passes (and, with trace, traced ones in between) while the
    next one, of the median pass time, ends nearer to ``seconds`` than now."""
    passes = []
    durations = []
    begin = time.perf_counter()
    reference = reference_seconds()
    while True:
        traced = trace and len(passes) % 2 == 1
        t0 = time.perf_counter()
        result = _spawn({"mode": "pass", "src": src, "ops": ops, "trace": traced,
                         "keep": not passes},
                        deadline - t0)
        after = reference_seconds()
        result["traced"] = traced
        result["scale"] = _scale(reference, after)
        reference = after
        passes.append(result)
        durations.append(time.perf_counter() - t0)
        elapsed = time.perf_counter() - begin
        if trace and len(passes) < 2:
            continue
        if elapsed + statistics.median(durations) / 2 > seconds:
            return passes


def verify(root, ops, passes, seed):
    """Check the first pass's outputs in full, later passes by digest, and
    the fixtures.  Returns attempted and failed operation counts, the
    problems found and the computed work of each verified block."""
    import verify as checks

    rng = random.Random(seed)
    first = passes[0]["ops"]
    op_problems, work = [], []
    for op, rec in zip(ops, first):
        if rec["error"] or (op["kind"] == "cli" and rec["code"] != 0):
            found = [rec["error"] or f"exit code {rec['code']}"]
        elif op["kind"] == "check":
            found = checks.check_suite(op, rec["code"], rec["instances"])
        else:
            check = checks.check_transition if op["command"] == "transition" \
                else checks.check_gram
            try:
                found, block_work = check(op, rec["output"], rng)
            except Exception as exc:  # malformed output fails the operation
                found = [f"output not checkable: {type(exc).__name__}: {exc}"]
            if not found:
                work.append(block_work)
        op_problems.append(found)
    problems = [f"{_label(op)}: {p}" for op, found in zip(ops, op_problems) for p in found]
    attempted = failed = 0
    for result in passes:
        for op, rec, ref, found in zip(ops, result["ops"], first, op_problems):
            attempted += 1
            same = not rec["error"] and (rec["digest"], rec["code"]) == (ref["digest"], ref["code"])
            if found or not same:
                failed += 1
            if not found and not same:
                problems.append(f"{_label(op)}: output differs from the verified pass")
    for found in checks.fixture_problems(root):
        attempted += 1
        failed += bool(found)
        problems += found
    return attempted, failed, problems, work


def _label(op):
    if op["kind"] == "check":
        return f"check {op['suite']} {op['spec']} h{op['kwargs']['max_height']}"
    return f"{op['command']} {op['spec']} {','.join(map(str, op['weight']))}"


def _quantile(values, q):
    """Nearest-rank quantile: a measured value, which stays on the same
    operation as the number of passes changes."""
    return sorted(values)[math.ceil(q * len(values)) - 1]


def end_to_end(ops, passes, setup_samples, work):
    """name -> (value, unit, samples).  wall_s is the time of a typical pass:
    the sum over the operations of each one's median over the passes, which
    the host's slow phases, a few seconds long, move less than the median
    of whole passes.  entries_per_s counts Gram entries n(n+1)/2 of the
    blocks a pass emits, or on check-sweep the inner products its suites
    compute; instances_per_s counts check instances, or blocks on the block
    workloads."""
    timed = [p for p in passes if not p["traced"]]
    lat = [rec["s"] * p["scale"] for p in timed for rec in p["ops"]]
    wall = sum(statistics.median(p["ops"][i]["s"] * p["scale"] for p in timed)
               for i in range(len(ops)))
    if ops[0]["kind"] == "check":
        entries = sum(op["entries"] for op in ops)
        instances = sum(op["expect"] for op in ops)
    else:
        entries = sum(w["entries"] for w in work)
        instances = len(ops)
    k = len(timed)
    return {
        "setup_s": (statistics.median(setup_samples), "s", len(setup_samples)),
        "wall_s": (wall, "s", k),
        "op_s_p50": (statistics.median(lat), "s", len(lat)),
        "op_s_p90": (_quantile(lat, 0.9), "s", len(lat)),
        "entries_per_s": (entries / wall, "1/s", k),
        "instances_per_s": (instances / wall, "1/s", k),
        "peak_rss_mb": (statistics.median(p["rss_mb"] for p in timed), "MB", k),
    }


def per_layer(ops, passes):
    """name -> (value, unit, samples): medians over the traced passes, times
    in reference seconds.  ``.s`` is a layer's self time, except
    ``checks.<suite>.s``, the whole time of the suite's calls, which
    together make up check-sweep's pass."""
    plain = [p["wall_s"] * p["scale"] for p in passes if not p["traced"]]
    traced = [p for p in passes if p["traced"]]

    def med(fn):
        return statistics.median(fn(p["trace"], p) for p in traced)

    metrics = {}

    def put(name, unit, fn):
        metrics[name] = (med(fn), unit, len(traced))

    for layer in LAYERS:
        put(f"{layer}.calls", "count", lambda t, p: t["calls"].get(layer, 0))
        put(f"{layer}.s", "s", lambda t, p: t["self_s"].get(layer, 0.0) * p["scale"])
    metrics["gram.inner_mackey.self_s"] = metrics.pop("gram.inner_mackey.s")
    for name in ("transition.ldl.updates", "gram.matching_leaves", "rootsys.block_n.sum"):
        put(name, "count", lambda t, p: t["counts"].get(name, 0))
    for name, unit in (("transition.entry_degree.max", "degree"),
                       ("transition.coeff_bits.max", "bits"),
                       ("rootsys.block_n.max", "count")):
        put(name, unit, lambda t, p: t["maxima"].get(name, 0))
    for suite in SUITES:
        layer = f"checks.{suite}"
        put(f"{layer}.s", "s", lambda t, p: t["total_s"].get(layer, 0.0) * p["scale"])
        put(f"{layer}.instances", "count", lambda t, p: t["counts"].get(f"{layer}.instances", 0))
    put("gram.shuffle_cache.hit_ratio", "ratio", lambda t, p: t["shuffle_hit_ratio"])
    for name, key in (("gram.shuffle_cache.entries", "shuffle"),
                      ("laurent.qfact_cache.entries", "qfact"),
                      ("rootsys.positive_roots_cache.entries", "positive_roots")):
        put(name, "count", lambda t, p: p["caches"].get(key, 0))
    put("cli.out_bytes", "bytes", lambda t, p: sum(
        rec["bytes"] for op, rec in zip(ops, p["ops"]) if op["kind"] == "cli"))
    put("trace.overhead_frac", "ratio",
        lambda t, p: p["wall_s"] * p["scale"] / statistics.median(plain) - 1.0)
    put("trace.untraced_s", "s", lambda t, p: (p["wall_s"] - t["covered_s"]) * p["scale"])
    absent = sorted({a for p in traced for a in p["trace"]["absent"]})
    return metrics, absent


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    deadline = time.perf_counter() + DEADLINE_S
    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "qfold", "__init__.py")):
        print(f"error: no qfold sources under {src}; run from a qfold checkout",
              file=sys.stderr)
        return 2

    ops = WORKLOADS[args.workload](random.Random(args.seed))
    load_start = _loadavg()
    stamps = [time.perf_counter()]
    try:
        setup_samples = measure_setup(src, presets_of(ops), deadline)
        stamps.append(time.perf_counter())
        passes = run_passes(src, ops, args.seconds, bool(args.trace), deadline)
    except WorkerFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    load_end = _loadavg()
    stamps.append(time.perf_counter())

    sys.path.insert(0, src)
    attempted, failed, problems, work = verify(root, ops, passes, args.seed)
    stamps.append(time.perf_counter())
    for p in problems:
        print(f"FAILED {p}")

    print(f"env nproc={len(os.sched_getaffinity(0))} python={sys.version.split()[0]} "
          f"workload={args.workload} seed={args.seed} trace={args.trace} "
          f"loadavg_start={load_start} loadavg_end={load_end}")
    print("phases " + " ".join(f"{name}_s={b - a:.1f}" for name, a, b in
                               zip(("setup", "passes", "verify"), stamps, stamps[1:])))
    for i, p in enumerate(passes):
        kind = "traced" if p["traced"] else "untraced"
        print(f"pass {i} {kind} unscaled_wall_s={p['wall_s']:.4f} scale={p['scale']:.4f} "
              f"rss_mb={p['rss_mb']:.1f} "
              f"caches={json.dumps(p['caches'], sort_keys=True)}")
    for i, op in enumerate(ops):
        times = [p["ops"][i]["s"] for p in passes if not p["traced"]]
        print(f"op {_label(op)} bytes={passes[0]['ops'][i]['bytes']} "
              f"unscaled_s={' '.join(f'{t:.4f}' for t in times)}")
    if work:
        folds = {"n": max, "entries": sum, "ldl_updates": sum, "matching_leaves": sum,
                 "entry_degree_max": max, "coeff_bits_max": max}
        totals = {"blocks": len(work)}
        for key, fold in folds.items():
            if key in work[0]:
                totals[key] = fold(w[key] for w in work)
        totals["block_n_max"] = totals.pop("n")
        print("work " + json.dumps(totals, sort_keys=True))
    print(f"failed_frac {failed / attempted:.6g} ratio n={attempted}")
    if args.trace:
        metrics, absent = per_layer(ops, passes)
        if absent:
            print("absent layers: " + " ".join(absent))
    else:
        metrics = end_to_end(ops, passes, setup_samples, work)
    for name, (value, unit, samples) in metrics.items():
        print(f"{name} {value:.6g} {unit} n={samples}")
    print(json.dumps({
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit, _) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
